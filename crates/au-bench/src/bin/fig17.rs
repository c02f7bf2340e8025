//! Regenerates **Fig. 17**: TORCS driving score vs training epochs for four
//! settings — Players (oracle), `Raw` (pixels), `All` (automatically
//! extracted state), and `Manual` (expert-preprocessed features).

use au_core::{Engine, Mode, ModelConfig};
use au_games::harness::{self, FeatureSource};
use au_games::{Game, Torcs};
use au_nn::rl::DqnConfig;

fn dqn(seed: u64) -> DqnConfig {
    // Same tuned settings as `au_bench::rl::dqn` (see `tune_rl`).
    DqnConfig {
        hidden: vec![64, 32],
        batch_size: 32,
        replay_capacity: 50_000,
        target_sync_every: 500,
        epsilon_decay: 0.9995,
        epsilon_end: 0.02,
        learning_rate: 1e-3,
        gamma: 0.99,
        learn_every: 2,
        seed,
        ..DqnConfig::default()
    }
}

struct Curve {
    name: &'static str,
    scores: Vec<f64>,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let telemetry = au_bench::telemetry::init_from_args(&args);
    let quick = args.iter().any(|a| a == "--quick");
    let blocks = if quick { 4 } else { 10 };
    let episodes_per_block = if quick { 5 } else { 25 };
    let max_steps = 450;
    let eval_episodes = if quick { 3 } else { 10 };
    let seed = 11u64;

    // Players reference.
    let mut game = Torcs::new(4);
    let mut players = 0.0;
    for _ in 0..eval_episodes {
        players += harness::run_oracle(&mut game, max_steps).progress;
    }
    players /= eval_episodes as f64;

    let mut curves = Vec::new();

    // All: automatic extraction (Algorithm 2's surviving features).
    curves.push(run_setting(
        "All",
        seed,
        blocks,
        episodes_per_block,
        max_steps,
        eval_episodes,
        Setting::All,
    ));
    // Manual: expert-preprocessed features (error signal + lookahead),
    // mirroring the hand-engineered Keras/DDPG pipelines the paper cites.
    curves.push(run_setting(
        "Manual",
        seed ^ 2,
        blocks,
        episodes_per_block,
        max_steps,
        eval_episodes,
        Setting::Manual,
    ));
    // Raw: pixel frames through the convolutional model.
    curves.push(run_setting(
        "Raw",
        seed ^ 4,
        if quick { 2 } else { blocks },
        episodes_per_block,
        max_steps,
        eval_episodes,
        Setting::Raw,
    ));

    println!("Fig. 17: TORCS driving score vs training epochs (progress fraction)");
    print!("{:<8} {:>8}", "Epochs", "Players");
    for c in &curves {
        print!(" {:>8}", c.name);
    }
    println!();
    for block in 0..blocks {
        print!("{:<8} {:>8.3}", (block + 1) * episodes_per_block, players);
        for c in &curves {
            match c.scores.get(block) {
                Some(s) => print!(" {:>8.3}", s),
                None => print!(" {:>8}", "-"),
            }
        }
        println!();
    }
    println!();
    println!("Expected shape (paper): Manual learns fastest, All reaches players-level");
    println!("slightly later, Raw stays far below both within the budget.");
    if let Some(sink) = telemetry {
        au_bench::telemetry::finish_or_exit(sink);
    }
}

enum Setting {
    All,
    Manual,
    Raw,
}

fn run_setting(
    name: &'static str,
    seed: u64,
    blocks: usize,
    episodes_per_block: usize,
    max_steps: usize,
    eval_episodes: usize,
    setting: Setting,
) -> Curve {
    au_nn::set_init_seed(seed);
    let mut engine = Engine::new(Mode::Train);
    let mut game = Torcs::new(4);
    let frame = 12usize;
    let config = match setting {
        Setting::Raw => {
            let mut d = dqn(seed);
            d.batch_size = 16;
            d.learn_every = 8;
            ModelConfig::q_cnn(1, frame, frame, &[64, 32]).with_dqn(d)
        }
        _ => ModelConfig::q_dnn(&[64, 32]).with_dqn(dqn(seed)),
    };
    engine.au_config(name, config).expect("fresh engine");

    // Manual features: the already-combined steering error plus curvature
    // lookahead — what an expert would feed the model after ~2000 lines of
    // preprocessing in the cited TORCS projects.
    let mut manual_extract = |g: &Torcs, e: &mut Engine| -> String {
        let f = g.features();
        let (pos, angle) = (f[0], f[1]);
        let curv1 = f[5];
        // error: how far the car will drift next frame if nothing changes.
        e.au_extract("err", &[pos * 0.35 + angle + curv1 / 20.0]);
        e.au_extract("angle", &[angle]);
        e.au_extract("look", &[f[6], f[7], f[8]]);
        e.au_serialize(&["err", "angle", "look"])
    };

    let mut scores = Vec::with_capacity(blocks);
    for _ in 0..blocks {
        for _ in 0..episodes_per_block {
            match setting {
                Setting::All => {
                    harness::play_episode(
                        &mut engine,
                        name,
                        &mut game,
                        max_steps,
                        FeatureSource::Internal,
                        None,
                    )
                    .expect("episode runs");
                }
                Setting::Raw => {
                    harness::play_episode(
                        &mut engine,
                        name,
                        &mut game,
                        max_steps,
                        FeatureSource::Pixels {
                            width: frame,
                            height: frame,
                        },
                        None,
                    )
                    .expect("episode runs");
                }
                Setting::Manual => {
                    harness::play_episode_custom(
                        &mut engine,
                        name,
                        &mut game,
                        max_steps,
                        &mut manual_extract,
                        None,
                    )
                    .expect("episode runs");
                }
            }
        }
        // Greedy evaluation.
        engine.set_mode(Mode::Test);
        let mut total = 0.0;
        for _ in 0..eval_episodes {
            let out = match setting {
                Setting::All => harness::play_episode(
                    &mut engine,
                    name,
                    &mut game,
                    max_steps,
                    FeatureSource::Internal,
                    None,
                ),
                Setting::Raw => harness::play_episode(
                    &mut engine,
                    name,
                    &mut game,
                    max_steps,
                    FeatureSource::Pixels {
                        width: frame,
                        height: frame,
                    },
                    None,
                ),
                Setting::Manual => harness::play_episode_custom(
                    &mut engine,
                    name,
                    &mut game,
                    max_steps,
                    &mut manual_extract,
                    None,
                ),
            }
            .expect("evaluation runs");
            total += out.progress;
        }
        engine.set_mode(Mode::Train);
        scores.push(total / eval_episodes as f64);
    }
    Curve { name, scores }
}
