//! End-to-end monitoring checks through the public engine API only: a
//! clean deployment stays silent, a corrupted feature stream trips alerts
//! and the flight recorder, the fallback policy refuses to serve a
//! degraded model, and the training baseline survives the model sidecar.

use au_core::monitor::{AlertKind, MonitorConfig};
use au_core::{AuError, Engine, Mode, ModelConfig};
use std::path::PathBuf;

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("au-bench-monitor-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Trains y = 2x and switches to TS mode, mirroring the quickstart flow.
fn deployed_engine(config: MonitorConfig) -> Engine {
    au_nn::set_init_seed(31);
    let mut e = Engine::new(Mode::Train);
    e.set_monitor_config(config);
    e.au_config("approx", ModelConfig::dnn(&[16]).with_learning_rate(0.02))
        .expect("config");
    let xs: Vec<Vec<f64>> = (0..40).map(|i| vec![i as f64 / 40.0]).collect();
    let ys: Vec<Vec<f64>> = xs.iter().map(|x| vec![2.0 * x[0]]).collect();
    e.train_supervised("approx", &xs, &ys, 120).expect("train");
    e.set_mode(Mode::Test);
    e
}

#[test]
fn clean_stream_is_silent_and_corrupted_stream_alerts() {
    let mut e = deployed_engine(MonitorConfig::default());
    for i in 0..64 {
        // Strided order keeps each sliding window representative of the
        // whole training distribution.
        let x = ((i * 13) % 40) as f64 / 40.0;
        e.au_extract("X", &[x]);
        e.au_nn("approx", "X", &["Y"]).expect("serve");
    }
    let mon = e.monitor("approx").expect("monitor active");
    assert!(
        mon.alerts().is_empty(),
        "clean run alerted: {:?}",
        mon.alerts()
    );
    drop(mon); // release the monitor lock before serving resumes

    // The sensor now reads 5.0 too high: immediately out of range, and
    // once the window refills, drifted.
    for i in 0..32 {
        let x = (i % 40) as f64 / 40.0 + 5.0;
        e.au_extract("X", &[x]);
        e.au_nn("approx", "X", &["Y"])
            .expect("serve (fallback off)");
    }
    // Take the report before the monitor guard: both acquire the monitor
    // lock, so holding the guard across the report call would deadlock.
    let report = e.monitor_report();
    let mon = e.monitor("approx").expect("monitor active");
    assert!(
        mon.alerts().iter().any(|a| a.kind == AlertKind::OutOfRange),
        "corrupted stream must flag out-of-range inputs"
    );
    assert!(
        mon.alerts().iter().any(|a| a.kind == AlertKind::Drift),
        "corrupted stream must trip the drift detector: {report}"
    );
    assert!(report.contains("approx:"), "{report}");
}

#[test]
fn fallback_policy_returns_model_degraded_and_dumps_flight_records() {
    let dir = scratch_dir("fallback");
    let mut e = deployed_engine(MonitorConfig::default().with_fallback(true));
    e.set_model_dir(&dir);
    let mut degraded = false;
    for i in 0..48 {
        let x = (i % 40) as f64 / 40.0 + 5.0;
        e.au_extract("X", &[x]);
        match e.au_nn("approx", "X", &["Y"]) {
            Ok(_) => {}
            Err(AuError::ModelDegraded(_)) => {
                degraded = true;
                break;
            }
            Err(other) => panic!("unexpected error: {other}"),
        }
    }
    assert!(degraded, "sustained drift with fallback must stop serving");

    // The critical alert already dumped the flight recorder; the explicit
    // dump must agree and contain the corrupted inputs.
    let path = e.dump_flight_recorder("approx").expect("dump");
    let text = std::fs::read_to_string(&path).expect("flight file");
    assert!(!text.trim().is_empty(), "flight dump is empty");
    assert!(
        text.lines().all(|l| l.starts_with('{') && l.ends_with('}')),
        "flight dump must be one JSON object per line"
    );
    assert!(
        text.contains("\"features\":[5"),
        "corrupted inputs recorded"
    );

    // Re-arming clears the poisoned windows; in-range traffic serves again.
    e.clear_degraded("approx");
    e.au_extract("X", &[0.5]);
    e.au_nn("approx", "X", &["Y"]).expect("serves after re-arm");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn training_baseline_survives_the_model_sidecar() {
    let dir = scratch_dir("sidecar");
    let mut tr = deployed_engine(MonitorConfig::default());
    tr.set_model_dir(&dir);
    tr.save_model("approx").expect("save");

    // A fresh process-equivalent: a new engine loads the sidecar and the
    // persisted baseline powers drift detection without retraining.
    let mut ts = Engine::new(Mode::Test);
    ts.set_monitor_config(MonitorConfig::default());
    ts.set_model_dir(&dir);
    ts.au_config("approx", ModelConfig::dnn(&[16]))
        .expect("load");
    ts.au_extract("X", &[9.0]);
    ts.au_nn("approx", "X", &["Y"]).expect("serve");
    let mon = ts.monitor("approx").expect("monitor installed on load");
    let last = mon.last_drift().expect("baseline attached from sidecar");
    assert_eq!(last.out_of_range, 1, "9.0 is far outside the trained [0,1]");
    let _ = std::fs::remove_dir_all(&dir);
}
