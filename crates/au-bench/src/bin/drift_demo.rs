//! Monitoring walkthrough: trains a small supervised model, serves a clean
//! stream (stays silent), then a drifted sensor stream (raises alerts and
//! dumps the flight recorder), and finally demonstrates the graceful
//! degradation fallback where `au_nn` refuses to serve a degraded model.
//!
//! Run with `cargo run --release -p au-bench --bin drift_demo [--out <dir>]`.

fn main() {
    use au_core::monitor::MonitorConfig;
    use au_core::{AuError, Engine, Mode, ModelConfig};

    let args: Vec<String> = std::env::args().skip(1).collect();
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| "out".to_owned());

    // Train y = 2x on inputs covering [0, 1]; the engine accumulates the
    // per-feature training distribution and baseline MAE as it goes.
    let train = |config: MonitorConfig| -> Engine {
        au_nn::set_init_seed(31);
        let mut e = Engine::new(Mode::Train);
        e.set_monitor_config(config);
        e.set_model_dir(&out);
        e.au_config("approx", ModelConfig::dnn(&[16]).with_learning_rate(0.02))
            .expect("config");
        let xs: Vec<Vec<f64>> = (0..40).map(|i| vec![i as f64 / 40.0]).collect();
        let ys: Vec<Vec<f64>> = xs.iter().map(|x| vec![2.0 * x[0]]).collect();
        e.train_supervised("approx", &xs, &ys, 120).expect("train");
        e.set_mode(Mode::Test);
        e
    };

    println!("== phase 1: clean deployment ==");
    let mut engine = train(MonitorConfig::default());
    for i in 0..64 {
        // Strided order keeps each sliding window representative of the
        // whole training distribution.
        let x = ((i * 13) % 40) as f64 / 40.0;
        engine.au_extract("X", &[x]);
        engine.au_nn("approx", "X", &["Y"]).expect("serve");
    }
    let alerts = engine.monitor("approx").map_or(0, |m| m.alerts().len());
    println!("served 64 in-range inputs, alerts raised: {alerts}");
    print!("{}", engine.monitor_report());

    println!("\n== phase 2: drifted sensors ==");
    for i in 0..32 {
        // The sensor is now reading 5.0 too high — far outside [0, 1].
        let x = (i % 40) as f64 / 40.0 + 5.0;
        engine.au_extract("X", &[x]);
        engine.au_nn("approx", "X", &["Y"]).expect("serve");
    }
    print!("{}", engine.monitor_report());
    match engine.dump_flight_recorder("approx") {
        Ok(path) => println!("flight recorder dumped to {}", path.display()),
        Err(e) => eprintln!("flight dump failed: {e}"),
    }

    println!("\n== phase 3: graceful degradation ==");
    let mut engine = train(MonitorConfig::default().with_fallback(true));
    let mut served = 0u32;
    let mut fallbacks = 0u32;
    for i in 0..48 {
        let x = (i % 40) as f64 / 40.0 + 5.0;
        engine.au_extract("X", &[x]);
        match engine.au_nn("approx", "X", &["Y"]) {
            Ok(_) => served += 1,
            Err(AuError::ModelDegraded(_)) => {
                // The paper's hybrid mode: route back to the original
                // (pre-autonomization) code path.
                let _y = 2.0 * x;
                fallbacks += 1;
            }
            Err(e) => {
                eprintln!("unexpected error: {e}");
                std::process::exit(1);
            }
        }
    }
    println!("model served {served} predictions, original code path served {fallbacks}");
    print!("{}", engine.monitor_report());
}
