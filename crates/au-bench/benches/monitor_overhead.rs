//! Measures the cost of online monitoring on the TS-mode serving path.
//!
//! Two configurations per primitive:
//!
//! 1. monitoring off — no `MonitorConfig` installed: the hot path pays one
//!    map lookup that misses (`monitor_state.enabled()` is false);
//! 2. monitoring on — every served prediction flows through the drift
//!    detector (windowed per-feature stability score), the rolling quality
//!    window, and the flight-recorder ring buffer.
//!
//! The monitored path costs a *constant* ~0.2–0.3 µs per prediction (the
//! `observe` group measures it in isolation): the drift windows keep O(1)
//! running moments per feature, so no per-call rescan or allocation beyond
//! the flight record. Budget: < 3% over (1) on the serve loop for
//! paper-scale models (the forward pass dominates); on deliberately tiny
//! test networks the relative share is higher because the constant does
//! not shrink with the model. See docs/telemetry.md for recorded numbers.

use au_core::monitor::MonitorConfig;
use au_core::{Engine, Mode, ModelConfig};
use criterion::{black_box, Criterion};

const FEATURES: usize = 16;

fn trained_engine(monitored: bool) -> Engine {
    au_nn::set_init_seed(7);
    let mut engine = Engine::new(Mode::Train);
    if monitored {
        // A constant serve input makes its window genuinely depart from
        // the training spread, so an effectively infinite threshold
        // keeps the loop from alerting; the score is still computed
        // every call, so the measured cost is the real one.
        engine.set_monitor_config(MonitorConfig::default().with_drift_threshold(1e9));
    }
    // Paper-scale network (the paper's SL models use hundreds of units
    // per layer): the forward pass is the cost the monitoring overhead
    // is measured against, exactly as in a deployed TS loop.
    engine
        .au_config("BenchNN", ModelConfig::dnn(&[256, 256]))
        .expect("config");
    for i in 0..16u64 {
        let x = i as f64 / 16.0;
        engine.au_extract("SUMMARY", &[x; FEATURES]);
        engine.au_extract("OUT", &[2.0 * x]);
        engine
            .au_nn("BenchNN", "SUMMARY", &["OUT"])
            .expect("train step");
    }
    engine.set_mode(Mode::Test);
    engine
}

fn bench_serve(c: &mut Criterion) {
    let mut group = c.benchmark_group("monitor_overhead/au_nn_serve");
    // An on-distribution row (x = 0.25 was a training input), so the
    // monitored run exercises the silent path a healthy deployment pays.
    let row = vec![0.25f64; FEATURES];

    let mut engine = trained_engine(false);
    group.bench_function("monitor_off", |b| {
        b.iter(|| {
            engine.au_extract("SUMMARY", black_box(&row));
            engine.au_nn("BenchNN", "SUMMARY", &["OUT"]).expect("serve")
        })
    });

    let mut engine = trained_engine(true);
    group.bench_function("monitor_on", |b| {
        b.iter(|| {
            engine.au_extract("SUMMARY", black_box(&row));
            engine.au_nn("BenchNN", "SUMMARY", &["OUT"]).expect("serve")
        })
    });
    group.finish();
}

fn bench_observe(c: &mut Criterion) {
    use au_core::monitor::{FeatureBaseline, ModelMonitor};

    let mut group = c.benchmark_group("monitor_overhead/observe");
    let rows: Vec<Vec<f64>> = (0..64)
        .map(|i| {
            let x = i as f64 / 64.0;
            vec![x, 1.0 - x, x * x, 0.5]
        })
        .collect();
    let baseline = FeatureBaseline::from_rows(&rows);
    let mut monitor = ModelMonitor::new(MonitorConfig::default().with_drift_threshold(1e9))
        .with_baseline(baseline, Some(0.05));
    let row = [0.25f64, 0.5, 0.75, 1.0];
    let pred = [0.5f64];
    let truth = [0.52f64];
    group.bench_function("full_window", |b| {
        b.iter(|| monitor.observe(black_box(&row), black_box(&pred), Some(&truth), 0))
    });
    group.finish();
}

criterion::criterion_group!(benches, bench_serve, bench_observe);
criterion::criterion_main!(benches);
