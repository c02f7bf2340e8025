//! `rl_selfplay`: the Fig. 2 game loop on `au_games` Flappybird and Mario,
//! driven here so every primitive call is timed.
//!
//! Per frame: `au_extract` per feature (or the rendered frame),
//! `au_serialize`, `au_nn_rl`, `au_write_back` and `Game::step`; each
//! episode opens with `checkpoint_with` and ends with `restore_with`. The
//! `All` variant is a `q_dnn` over internal state, the `Raw` variant a
//! `q_cnn` over 12×12 pixels. Budgets are in frames, not episodes, so the
//! amount of work does not depend on how well the model learns. A unit of
//! TS work is one greedy frame.

use crate::{engine_setup, Measured, Probe, Scale};
use au_core::{EngineHandle, Mode, ModelConfig};
use au_games::{Flappybird, Game, Mario};
use au_nn::rl::DqnConfig;
use std::time::{Duration, Instant};

/// Raw-variant frame side.
const FRAME: usize = 12;
/// Frames per episode at most.
const MAX_STEPS: usize = 500;
/// Mean greedy progress below this fails the run.
const PROGRESS_FLOOR: f64 = 0.02;

/// Workload sizes.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// TR frames per game for `All`.
    all_tr_frames: usize,
    /// TR frames per game for `Raw`.
    raw_tr_frames: usize,
    /// Greedy frames per game and variant in one TS block.
    ts_frames: usize,
}

impl Sizes {
    /// Sizes for `scale`.
    pub fn new(scale: Scale) -> Self {
        match scale {
            Scale::Full => Sizes {
                all_tr_frames: 10_000,
                raw_tr_frames: 1_250,
                ts_frames: 5_000,
            },
            Scale::Smoke => Sizes {
                all_tr_frames: 300,
                raw_tr_frames: 40,
                ts_frames: 100,
            },
        }
    }

    /// The sizes, for the run fingerprint.
    pub fn describe(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("all_tr_frames_per_game", self.all_tr_frames as f64),
            ("raw_tr_frames_per_game", self.raw_tr_frames as f64),
            ("ts_frames_per_game_variant", self.ts_frames as f64),
        ]
    }
}

/// Which input a model reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Variant {
    /// Internal program state: the paper's `All`.
    All,
    /// Rendered pixels: the paper's `Raw`.
    Raw,
}

/// Which game a model plays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Which {
    Flappy,
    Mario,
}

/// The four models, in the order TR trains them.
const MODELS: [(&str, Which, Variant); 4] = [
    ("flappy-all", Which::Flappy, Variant::All),
    ("mario-all", Which::Mario, Variant::All),
    ("flappy-raw", Which::Flappy, Variant::Raw),
    ("mario-raw", Which::Mario, Variant::Raw),
];

fn dqn(seed: u64, variant: Variant) -> DqnConfig {
    let base = DqnConfig {
        hidden: vec![64, 32],
        batch_size: 32,
        replay_capacity: 50_000,
        target_sync_every: 500,
        epsilon_decay: 0.9995,
        epsilon_end: 0.02,
        learning_rate: 1e-3,
        gamma: 0.99,
        seed,
        learn_every: 2,
        ..DqnConfig::default()
    };
    match variant {
        Variant::All => base,
        // Conv training per learning step costs far more; learn less often.
        Variant::Raw => DqnConfig {
            batch_size: 16,
            learn_every: 8,
            seed: seed ^ 1,
            ..base
        },
    }
}

fn config(seed: u64, variant: Variant) -> ModelConfig {
    match variant {
        Variant::All => ModelConfig::q_dnn(&[64, 32]),
        Variant::Raw => ModelConfig::q_cnn(1, FRAME, FRAME, &[64, 32]),
    }
    .with_dqn(dqn(seed, variant))
}

/// Set-up: the engine with all four models configured, and a warm pool.
pub fn setup(seed: u64) -> EngineHandle {
    let models: Vec<(&str, ModelConfig)> = MODELS
        .iter()
        .map(|&(name, _, variant)| (name, config(seed, variant)))
        .collect();
    engine_setup(&models)
}

/// The games a seed generates.
pub fn games(seed: u64) -> (Flappybird, Mario) {
    (Flappybird::new(seed), Mario::new(seed ^ 0x3a))
}

/// Plays `frames` frames of `model` through the primitives; returns the
/// progress of every episode that ended (terminal, or at [`MAX_STEPS`]).
fn play<G: Game + Clone>(
    h: &EngineHandle,
    model: &str,
    game: &mut G,
    variant: Variant,
    frames: usize,
    m: &mut Measured,
    probe: &mut Probe,
) -> Vec<f64> {
    let test = h.mode() == Mode::Test;
    let nn_span = if test {
        "au_core.au_nn_rl_ts_us"
    } else {
        "au_core.au_nn_rl_tr_us"
    };
    let n_actions = game.n_actions();
    let names = game.feature_names();
    let mut key = vec![0.0; n_actions];
    let mut progress = Vec::new();
    let mut done = 0;
    while done < frames {
        game.reset();
        let ckpt = {
            let _s = au_telemetry::span!("au_core.checkpoint_us");
            h.checkpoint_with(game)
        };
        let (mut reward, mut terminal, mut steps) = (0.0, false, 0);
        let mut episode_progress = game.progress();
        loop {
            let t0 = Instant::now();
            let unit = au_telemetry::span!("bench.frame");
            let ser = match variant {
                Variant::All => {
                    for (name, value) in names.iter().zip(game.features()) {
                        let _s = au_telemetry::span!("au_core.au_extract_us");
                        h.au_extract(name, &[value]);
                    }
                    let _s = au_telemetry::span!("au_core.au_serialize_us");
                    h.au_serialize(&names)
                }
                Variant::Raw => {
                    let pixels = {
                        let _s = au_telemetry::span!("au_games.render_us");
                        game.render(FRAME, FRAME)
                    };
                    let _s = au_telemetry::span!("au_core.au_extract_us");
                    h.au_extract("FRAME", &pixels);
                    "FRAME".to_owned()
                }
            };
            // At the end of an episode or of the budget, this call closes
            // the pending transition instead of starting a new one.
            let closing = terminal || steps >= MAX_STEPS || done >= frames;
            let action = {
                let _s = au_telemetry::span!(nn_span);
                h.au_nn_rl(model, &ser, reward, closing, "output", n_actions)
            };
            m.attempted += 1;
            let action = match action {
                Ok(a) if a < n_actions => a,
                Ok(a) => {
                    m.fail(format!("{model}: action {a} of {n_actions}"));
                    return progress;
                }
                Err(e) => {
                    m.fail(format!("{model}: {e}"));
                    return progress;
                }
            };
            if closing {
                if terminal || steps >= MAX_STEPS {
                    progress.push(episode_progress);
                }
                *game = {
                    let _s = au_telemetry::span!("au_core.restore_us");
                    h.restore_with(&ckpt)
                };
                break;
            }
            let written = {
                let _s = au_telemetry::span!("au_core.au_write_back_us");
                h.au_write_back("output", &mut key)
            };
            if written.is_err() || key[action] != 1.0 {
                m.fail(format!("{model}: wrote back {key:?} for action {action}"));
            }
            let result = {
                let _s = au_telemetry::span!("au_games.step_us");
                game.step(action)
            };
            drop(unit);
            if test {
                m.deploy(t0.elapsed());
            }
            reward = result.reward;
            terminal = result.terminal;
            episode_progress = game.progress();
            steps += 1;
            done += 1;
            probe.between_units();
        }
    }
    progress
}

/// Plays every model for its frame budget, in [`MODELS`] order.
fn play_all(
    h: &EngineHandle,
    games: &mut (Flappybird, Mario),
    frames: impl Fn(Variant) -> usize,
    m: &mut Measured,
    probe: &mut Probe,
) -> Vec<f64> {
    let mut progress = Vec::new();
    for (model, which, variant) in MODELS {
        let n = frames(variant);
        progress.extend(match which {
            Which::Flappy => play(h, model, &mut games.0, variant, n, m, probe),
            Which::Mario => play(h, model, &mut games.1, variant, n, m, probe),
        });
    }
    progress
}

/// One TR pass per handle, then blocks of greedy TS frames on the last
/// handle's models until `window` has elapsed since the start (one block
/// at least).
pub fn measure(
    handles: &[EngineHandle],
    seed: u64,
    sizes: Sizes,
    window: Duration,
    probe: &mut Probe,
) -> Measured {
    let mut m = Measured::new(2000);
    let mut games = games(seed);
    let start = Instant::now();
    let tr_frames = |v: Variant| match v {
        Variant::All => sizes.all_tr_frames,
        Variant::Raw => sizes.raw_tr_frames,
    };
    for (pass, h) in handles.iter().enumerate() {
        au_nn::set_init_seed(crate::nn_seed(seed));
        let t0 = Instant::now();
        let before = probe.tr_counters();
        play_all(h, &mut games, tr_frames, &mut m, probe);
        m.autonomize_s.push(t0.elapsed().as_secs_f64());
        if pass == 0 {
            probe.add_tr_counters(before, &mut m);
            m.add_count("au_core.trace_values", h.total_extracted() as f64);
            let trained: u64 = MODELS
                .iter()
                .filter_map(|(name, _, _)| h.model_stats(name).map(|s| s.train_steps))
                .sum();
            m.add_count("au_core.rows_trained", trained as f64);
        }
    }
    let h = handles.last().expect("at least one pass");

    // TS: greedy play. Every block replays the same deterministic
    // episodes, so the first block's progress is the quality verdict.
    h.set_mode(Mode::Test);
    let mut first: Option<Vec<f64>> = None;
    m.ts_start();
    while first.is_none() || start.elapsed() < window {
        let progress = play_all(h, &mut games, |_| sizes.ts_frames, &mut m, probe);
        first.get_or_insert(progress);
    }
    m.ts_stop();
    let episodes = first.unwrap_or_default();
    let mean = episodes.iter().sum::<f64>() / episodes.len().max(1) as f64;
    m.quality.insert("rl_progress", mean);
    m.attempted += 1;
    if episodes.is_empty() || !(mean.is_finite() && mean >= PROGRESS_FLOOR) {
        m.fail(format!(
            "greedy progress {mean} over {} episodes is below {PROGRESS_FLOOR}",
            episodes.len()
        ));
    }
    m
}
