//! Sensor drift in a deployed RL agent, caught by the online monitor.
//!
//! A Flappybird agent trains through the Autonomizer primitives with
//! monitoring on, so the engine learns the distribution of every extracted
//! feature alongside the policy. At deployment the same agent first plays
//! with healthy sensors (the monitor stays quiet), then through
//! `drift_extractor` — the harness's drifted-sensor simulation, which
//! shifts every feature the model sees while the game itself is unchanged.
//! The monitor flags the out-of-range inputs immediately and raises a
//! critical drift alert once the sliding window departs the training
//! distribution.
//!
//! Run with: `cargo run --release --example monitor_drift`

fn main() -> Result<(), Box<dyn std::error::Error>> {
    use autonomizer::core::monitor::MonitorConfig;
    use autonomizer::core::{Engine, Mode, ModelConfig};
    use autonomizer::games::harness::{
        drift_extractor, play_episode, play_episode_custom, FeatureSource,
    };
    use autonomizer::games::Flappybird;
    use autonomizer::nn::rl::DqnConfig;

    autonomizer::nn::set_init_seed(46);
    let mut engine = Engine::new(Mode::Train);
    // On-policy play naturally wanders a little off the exploratory
    // training distribution; the raised threshold keeps the *drift* alert
    // for real sensor faults, which shift inputs by many training ranges.
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

    println!("[TR] training 20 episodes with monitoring on");
    let mut game = Flappybird::new(3);
    for _ in 0..20 {
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
    println!("[TS] deploying with healthy sensors");
    let mut healthy = drift_extractor(1.0, 0.0);
    let out = play_episode_custom(&mut engine, "Flappy", &mut game, 150, &mut healthy, None)?;
    println!(
        "[TS] survived {} frames; {}",
        out.steps,
        engine.monitor_report()
    );

    println!("[TS] sensors fail: every reading now offset by +50");
    let mut drifted = drift_extractor(1.0, 50.0);
    let out = play_episode_custom(&mut engine, "Flappy", &mut game, 150, &mut drifted, None)?;
    println!(
        "[TS] survived {} frames; {}",
        out.steps,
        engine.monitor_report()
    );

    let monitor = engine
        .monitor("Flappy")
        .ok_or("monitor should be active after TS play")?;
    println!("alerts raised:");
    for alert in monitor.alerts() {
        println!("  {alert}");
    }
    assert!(
        !monitor.alerts().is_empty(),
        "drifted sensors must raise alerts"
    );
    Ok(())
}
