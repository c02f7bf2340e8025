//! Hyperparameter probe for the RL benchmarks: trains one game under a few
//! DQN settings and prints the greedy-evaluation learning curve. Used to
//! pick the defaults baked into `au_bench::rl`; kept as a tool for
//! reproducing that tuning.
//!
//! Usage: `cargo run --release -p au-bench --bin tune_rl [game] [episodes]`

use au_core::{Engine, Mode, ModelConfig};
use au_games::harness::{self, FeatureSource};
use au_games::{Arkanoid, Breakout, Flappybird, Game, Mario, Torcs};
use au_nn::rl::DqnConfig;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let game_name = args.get(1).map(String::as_str).unwrap_or("flappy");
    let episodes: usize = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(1000);

    let settings: Vec<(&str, DqnConfig)> = vec![
        (
            "base",
            DqnConfig {
                hidden: vec![64, 32],
                batch_size: 32,
                replay_capacity: 20_000,
                target_sync_every: 200,
                epsilon_decay: 0.998,
                epsilon_end: 0.05,
                learning_rate: 1.5e-3,
                learn_every: 4,
                gamma: 0.97,
                seed: 11,
                ..DqnConfig::default()
            },
        ),
        (
            "slow_eps",
            DqnConfig {
                hidden: vec![64, 32],
                batch_size: 32,
                replay_capacity: 50_000,
                target_sync_every: 500,
                epsilon_decay: 0.9995,
                epsilon_end: 0.02,
                learning_rate: 1e-3,
                learn_every: 2,
                gamma: 0.99,
                seed: 11,
                ..DqnConfig::default()
            },
        ),
        (
            "fast_lr",
            DqnConfig {
                hidden: vec![64, 32],
                batch_size: 64,
                replay_capacity: 50_000,
                target_sync_every: 300,
                epsilon_decay: 0.999,
                epsilon_end: 0.05,
                learning_rate: 3e-3,
                learn_every: 2,
                gamma: 0.99,
                seed: 11,
                ..DqnConfig::default()
            },
        ),
    ];

    for (name, dqn) in settings {
        print!("{name:>9}:");
        match game_name {
            "flappy" => run(&mut Flappybird::new(1), dqn, episodes),
            "mario" => run(&mut Mario::new(1), dqn, episodes),
            "arkanoid" => run(&mut Arkanoid::new(1), dqn, episodes),
            "torcs" => run(&mut Torcs::new(4), dqn, episodes),
            "breakout" => run(&mut Breakout::new(1), dqn, episodes),
            other => panic!("unknown game {other}"),
        }
    }
}

fn run<G: Game + Clone>(game: &mut G, dqn: DqnConfig, episodes: usize) {
    au_nn::set_init_seed(dqn.seed);
    let mut engine = Engine::new(Mode::Train);
    engine
        .au_config("M", ModelConfig::q_dnn(&[64, 32]).with_dqn(dqn))
        .unwrap();
    let blocks = 10;
    let per_block = episodes / blocks;
    let start = std::time::Instant::now();
    for _ in 0..blocks {
        harness::train(
            &mut engine,
            "M",
            game,
            per_block,
            450,
            FeatureSource::Internal,
        )
        .unwrap();
        let eval =
            harness::evaluate(&mut engine, "M", game, 5, 450, FeatureSource::Internal).unwrap();
        print!(" {:.2}", eval.recent_progress(5));
    }
    println!("  ({:.0}s)", start.elapsed().as_secs_f64());
}
