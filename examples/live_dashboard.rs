//! Live observability-plane demo: a deployed engine under mixed load with
//! the au-scope server attached.
//!
//! Trains a Flappybird agent with monitoring on, deploys it, starts the
//! observability plane, and then drives traffic for `--seconds`: serving
//! threads hammer `predict`, episodes play with healthy sensors, and
//! halfway through the sensors "fail" (every reading offset far outside
//! the training distribution) so the monitor raises drift alerts you can
//! watch arrive on the dashboard.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example live_dashboard -- --port 7878 --seconds 30
//! ```
//!
//! then open <http://127.0.0.1:7878/> — or scrape:
//!
//! ```text
//! curl http://127.0.0.1:7878/metrics
//! curl http://127.0.0.1:7878/health
//! curl -N http://127.0.0.1:7878/events
//! ```

fn main() -> Result<(), Box<dyn std::error::Error>> {
    use autonomizer::core::monitor::MonitorConfig;
    use autonomizer::core::{Engine, Mode, ModelConfig};
    use autonomizer::games::harness::{
        drift_extractor, play_episode, play_episode_custom, FeatureSource,
    };
    use autonomizer::games::Flappybird;
    use autonomizer::nn::rl::DqnConfig;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::{Duration, Instant};

    let mut port: u16 = 7878;
    let mut seconds: u64 = 30;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--port" => port = args.next().ok_or("--port needs a value")?.parse()?,
            "--seconds" => seconds = args.next().ok_or("--seconds needs a value")?.parse()?,
            other => return Err(format!("unknown flag {other}").into()),
        }
    }

    autonomizer::telemetry::enable();
    autonomizer::nn::set_init_seed(46);

    let mut engine = Engine::new(Mode::Train);
    engine.set_monitor_config(MonitorConfig::default().with_drift_threshold(5.0));
    engine.au_config(
        "Flappy",
        ModelConfig::q_dnn(&[32]).with_dqn(DqnConfig {
            hidden: vec![32],
            batch_size: 16,
            replay_capacity: 2000,
            seed: 8,
            ..DqnConfig::default()
        }),
    )?;

    println!("[TR] training 15 episodes with monitoring on");
    let mut game = Flappybird::new(3);
    for _ in 0..15 {
        play_episode(
            &mut engine,
            "Flappy",
            &mut game,
            200,
            FeatureSource::Internal,
            None,
        )?;
    }
    engine.set_mode(Mode::Test);

    let handle = engine.handle();
    let server = autonomizer::scope::ScopeServer::builder()
        .engine(handle.clone())
        .bind(&format!("127.0.0.1:{port}"))
        .start()?;
    println!("observability plane on http://{}/", server.local_addr());
    println!("  metrics:  http://{}/metrics", server.local_addr());
    println!("  events:   http://{}/events", server.local_addr());

    let stop = AtomicBool::new(false);
    let deadline = Instant::now() + Duration::from_secs(seconds);
    let drift_at = Instant::now() + Duration::from_secs(seconds / 2);

    std::thread::scope(|scope| -> Result<(), Box<dyn std::error::Error>> {
        // Serving threads: steady predict traffic for the latency panels
        // (inputs shaped like Flappybird's six features).
        for t in 0..4usize {
            let h = handle.clone();
            let stop = &stop;
            scope.spawn(move || {
                let mut i = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let x: Vec<f64> = (0..6)
                        .map(|j| ((i + j + t as u64) % 97) as f64 / 97.0)
                        .collect();
                    let _ = h.predict("Flappy", &x);
                    i += 1;
                    std::thread::sleep(Duration::from_millis(2));
                }
            });
        }

        // Episode loop on the main thread: healthy sensors first, drifted
        // after the halfway mark — the monitor's alerts stream to the
        // dashboard as they fire.
        let mut drifted_yet = false;
        while Instant::now() < deadline {
            let offset = if Instant::now() >= drift_at {
                50.0
            } else {
                0.0
            };
            if offset > 0.0 && !drifted_yet {
                drifted_yet = true;
                println!("[TS] sensors fail: readings now offset by +{offset}");
            }
            let mut sensors = drift_extractor(1.0, offset);
            play_episode_custom(&mut engine, "Flappy", &mut game, 100, &mut sensors, None)?;
        }
        stop.store(true, Ordering::Relaxed);
        Ok(())
    })?;

    println!("{}", engine.monitor_report());
    println!("final scrape: http://{}/metrics", server.local_addr());
    server.shutdown();
    Ok(())
}
