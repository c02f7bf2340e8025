//! Training/deployment harness: drives a [`Game`] through the Autonomizer
//! primitives exactly as the paper's annotated game loop does (Fig. 2).
//!
//! Per frame the harness `au_extract`s the feature variables (or the raw
//! pixel frame for the `Raw` baseline), `au_serialize`s them,
//! calls `au_NN` with the reward/terminal signals, and `au_write_back`s the
//! action. Episodes end through `au_restore` of a checkpoint taken at the
//! start, mirroring lines 27 and 48 of the paper's Mario example.

use crate::game::Game;
use au_core::{AuError, Engine, Mode};

/// Where the model inputs come from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FeatureSource {
    /// Extracted internal program state — the paper's `All` setting.
    Internal,
    /// Rasterized pixel frames — the paper's `Raw` (DeepMind-style)
    /// setting.
    Pixels {
        /// Frame width.
        width: usize,
        /// Frame height.
        height: usize,
    },
}

/// Result of one episode.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpisodeOutcome {
    /// Final progress in `[0, 1]`.
    pub progress: f64,
    /// Whether the success condition was reached.
    pub succeeded: bool,
    /// Frames played.
    pub steps: usize,
    /// Sum of environment rewards.
    pub total_reward: f64,
}

/// Result of a training run.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainReport {
    /// Per-episode outcomes, in order.
    pub episodes: Vec<EpisodeOutcome>,
    /// Total scalars ever appended to the database store — the paper's
    /// trace-size metric (Table 2).
    pub trace_values: u64,
}

impl TrainReport {
    /// Mean progress over the last `n` episodes (the evaluation window).
    pub fn recent_progress(&self, n: usize) -> f64 {
        let tail: Vec<&EpisodeOutcome> = self.episodes.iter().rev().take(n).collect();
        if tail.is_empty() {
            return 0.0;
        }
        tail.iter().map(|e| e.progress).sum::<f64>() / tail.len() as f64
    }

    /// Success rate over the last `n` episodes.
    pub fn recent_success(&self, n: usize) -> f64 {
        let tail: Vec<&EpisodeOutcome> = self.episodes.iter().rev().take(n).collect();
        if tail.is_empty() {
            return 0.0;
        }
        tail.iter().filter(|e| e.succeeded).count() as f64 / tail.len() as f64
    }
}

/// Plays one full episode with the scripted oracle (the "human player").
pub fn run_oracle(game: &mut dyn Game, max_steps: usize) -> EpisodeOutcome {
    game.reset();
    let mut total_reward = 0.0;
    let mut steps = 0;
    for _ in 0..max_steps {
        let action = game.oracle_action();
        let result = game.step(action);
        total_reward += result.reward;
        steps += 1;
        if result.terminal {
            break;
        }
    }
    EpisodeOutcome {
        progress: game.progress(),
        succeeded: game.succeeded(),
        steps,
        total_reward,
    }
}

/// Plays one episode through the Autonomizer primitives.
///
/// In the engine's TR mode this trains the model online (Q-learning); in TS
/// mode it runs the greedy policy. An optional `shape_reward` callback adds
/// to the environment reward after each step — the self-testing case study
/// passes a coverage-delta bonus here.
///
/// # Errors
///
/// Propagates engine errors (unknown model, mismatched algorithm, …).
pub fn play_episode<G: Game + Clone>(
    engine: &mut Engine,
    model: &str,
    game: &mut G,
    max_steps: usize,
    source: FeatureSource,
    shape_reward: Option<&mut dyn FnMut(&G) -> f64>,
) -> Result<EpisodeOutcome, AuError> {
    let mut extract = move |game: &G, engine: &mut Engine| match source {
        FeatureSource::Internal => {
            let names = game.feature_names();
            for (name, value) in names.iter().zip(game.features()) {
                engine.au_extract(name, &[value]);
            }
            engine.au_serialize(&names)
        }
        FeatureSource::Pixels { width, height } => {
            engine.au_extract("FRAME", &game.render(width, height));
            "FRAME".to_owned()
        }
    };
    play_episode_custom(engine, model, game, max_steps, &mut extract, shape_reward)
}

/// Like [`play_episode`] but with a caller-supplied feature extractor —
/// used for the paper's `Manual` comparison setting (expert-preprocessed
/// features, Fig. 17).
///
/// The extractor receives the game and the engine; it must `au_extract` its
/// features and return the π name to feed `au_NN` (typically the result of
/// [`Engine::au_serialize`]).
///
/// # Errors
///
/// Propagates engine errors (unknown model, mismatched algorithm, …).
pub fn play_episode_custom<G: Game + Clone>(
    engine: &mut Engine,
    model: &str,
    game: &mut G,
    max_steps: usize,
    extract: &mut dyn FnMut(&G, &mut Engine) -> String,
    mut shape_reward: Option<&mut dyn FnMut(&G) -> f64>,
) -> Result<EpisodeOutcome, AuError> {
    game.reset();
    let checkpoint = engine.checkpoint_with(game);
    let n_actions = game.n_actions();
    let mut reward = 0.0;
    let mut terminal = false;
    let mut total_reward = 0.0;
    let mut steps = 0;
    let mut final_progress = game.progress();
    let mut final_success = game.succeeded();

    for _ in 0..max_steps {
        // Extract model inputs (Fig. 2 lines 9-22 / raw-frame variant).
        let ser = extract(game, engine);

        // au_NN: completes the previous transition with `reward`, selects
        // the next action (Fig. 2 lines 40-43).
        let action = engine.au_nn_rl(model, &ser, reward, terminal, "output", n_actions)?;
        if terminal {
            // Fig. 2 line 48: restore the checkpoint. The outcome was
            // recorded when the terminal step happened, below.
            *game = engine.restore_with(&checkpoint);
            break;
        }

        // au_write_back + act (lines 44-46).
        let mut action_key = vec![0.0; n_actions];
        engine.au_write_back("output", &mut action_key)?;
        debug_assert_eq!(action_key[action], 1.0);
        let result = game.step(action);
        steps += 1;
        reward = result.reward;
        if let Some(shaper) = shape_reward.as_deref_mut() {
            reward += shaper(game);
        }
        terminal = result.terminal;
        total_reward += reward;
        final_progress = game.progress();
        final_success = game.succeeded();
    }
    // Close the episode's pending transition so the next episode starts
    // clean. This runs both when the step budget expired mid-episode and
    // when the terminal step landed exactly on the last iteration (in
    // which case the in-loop delivery never executed).
    if steps >= max_steps {
        let ser = extract(game, engine);
        let _ = engine.au_nn_rl(model, &ser, reward, true, "output", n_actions)?;
    }

    Ok(EpisodeOutcome {
        progress: final_progress,
        succeeded: final_success,
        steps,
        total_reward,
    })
}

/// Builds a feature extractor for [`play_episode_custom`] that applies an
/// affine corruption `v * scale + offset` to every internal feature before
/// extraction — a drifted-sensor simulation for monitoring demos.
///
/// Train with [`FeatureSource::Internal`], deploy in TS mode with this
/// extractor, and the engine's drift detector sees inputs shifted off the
/// training distribution while the game itself plays unperturbed (only the
/// model's view of it drifts). `drift_extractor(1.0, 0.0)` is the identity
/// and reproduces [`FeatureSource::Internal`] exactly.
pub fn drift_extractor<G: Game>(scale: f64, offset: f64) -> impl FnMut(&G, &mut Engine) -> String {
    move |game: &G, engine: &mut Engine| {
        let names = game.feature_names();
        for (name, value) in names.iter().zip(game.features()) {
            engine.au_extract(name, &[value * scale + offset]);
        }
        engine.au_serialize(&names)
    }
}

/// Trains for `episodes` episodes (TR mode) and reports the learning curve.
///
/// # Errors
///
/// Propagates engine errors.
pub fn train<G: Game + Clone>(
    engine: &mut Engine,
    model: &str,
    game: &mut G,
    episodes: usize,
    max_steps: usize,
    source: FeatureSource,
) -> Result<TrainReport, AuError> {
    assert_eq!(engine.mode(), Mode::Train, "training requires TR mode");
    let mut outcomes = Vec::with_capacity(episodes);
    for _ in 0..episodes {
        outcomes.push(play_episode(engine, model, game, max_steps, source, None)?);
    }
    Ok(TrainReport {
        episodes: outcomes,
        trace_values: engine.total_extracted(),
    })
}

/// Evaluates the current policy greedily over `episodes` episodes without
/// learning (temporarily switching the engine to TS mode).
///
/// # Errors
///
/// Propagates engine errors.
pub fn evaluate<G: Game + Clone>(
    engine: &mut Engine,
    model: &str,
    game: &mut G,
    episodes: usize,
    max_steps: usize,
    source: FeatureSource,
) -> Result<TrainReport, AuError> {
    let prev = engine.mode();
    engine.set_mode(Mode::Test);
    let mut outcomes = Vec::with_capacity(episodes);
    for _ in 0..episodes {
        let out = play_episode(engine, model, game, max_steps, source, None);
        match out {
            Ok(o) => outcomes.push(o),
            Err(e) => {
                engine.set_mode(prev);
                return Err(e);
            }
        }
    }
    engine.set_mode(prev);
    Ok(TrainReport {
        episodes: outcomes,
        trace_values: engine.total_extracted(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flappy::Flappybird;
    use crate::mario::Mario;
    use crate::torcs::Torcs;
    use au_core::ModelConfig;
    use au_nn::rl::DqnConfig;

    fn small_q_config(seed: u64) -> ModelConfig {
        ModelConfig::q_dnn(&[32]).with_dqn(DqnConfig {
            hidden: vec![32],
            batch_size: 16,
            replay_capacity: 2000,
            target_sync_every: 50,
            epsilon_decay: 0.995,
            learning_rate: 2e-3,
            seed,
            ..DqnConfig::default()
        })
    }

    #[test]
    fn oracle_outcomes_are_sane() {
        let mut game = Flappybird::new(3);
        let out = run_oracle(&mut game, 2000);
        assert!(out.steps > 10);
        assert!(out.progress > 0.5);
    }

    #[test]
    fn episode_through_primitives_runs() {
        au_nn::set_init_seed(41);
        let mut engine = Engine::new(Mode::Train);
        engine.au_config("F", small_q_config(1)).unwrap();
        let mut game = Flappybird::new(1);
        let out = play_episode(
            &mut engine,
            "F",
            &mut game,
            500,
            FeatureSource::Internal,
            None,
        )
        .unwrap();
        assert!(out.steps > 0);
        // After restore, the database store is back to the checkpoint.
        assert_eq!(engine.db().get("output"), &[] as &[f64]);
    }

    #[test]
    fn training_improves_torcs_progress() {
        au_nn::set_init_seed(42);
        let mut engine = Engine::new(Mode::Train);
        engine.au_config("T", small_q_config(2)).unwrap();
        let mut game = Torcs::new(4);
        let report = train(
            &mut engine,
            "T",
            &mut game,
            60,
            450,
            FeatureSource::Internal,
        )
        .unwrap();
        let early: f64 = report.episodes[..10]
            .iter()
            .map(|e| e.progress)
            .sum::<f64>()
            / 10.0;
        let late = report.recent_progress(10);
        assert!(
            late > early,
            "learning should improve driving: early {early:.3} late {late:.3}"
        );
    }

    #[test]
    fn pixel_source_feeds_frames() {
        au_nn::set_init_seed(43);
        let mut engine = Engine::new(Mode::Train);
        let cfg = ModelConfig::q_cnn(1, 8, 8, &[16]).with_dqn(DqnConfig {
            hidden: vec![16],
            batch_size: 4,
            replay_capacity: 100,
            seed: 3,
            ..DqnConfig::default()
        });
        engine.au_config("Raw", cfg).unwrap();
        let mut game = Flappybird::new(2);
        let out = play_episode(
            &mut engine,
            "Raw",
            &mut game,
            30,
            FeatureSource::Pixels {
                width: 8,
                height: 8,
            },
            None,
        )
        .unwrap();
        assert!(out.steps > 0);
    }

    #[test]
    fn reward_shaping_hook_fires() {
        au_nn::set_init_seed(44);
        let mut engine = Engine::new(Mode::Train);
        engine.au_config("M", small_q_config(5)).unwrap();
        let mut game = Mario::new(1);
        let mut covered = 0usize;
        let mut bonus_total = 0.0;
        {
            let mut shaper = |g: &Mario| {
                let now = g.coverage().covered();
                let bonus = if now > covered { 30.0 } else { 0.0 };
                covered = now;
                bonus_total += bonus;
                bonus
            };
            play_episode(
                &mut engine,
                "M",
                &mut game,
                120,
                FeatureSource::Internal,
                Some(&mut shaper),
            )
            .unwrap();
        }
        assert!(
            bonus_total > 0.0,
            "coverage bonus should fire at least once"
        );
    }

    #[test]
    fn drift_extractor_applies_affine_corruption() {
        let mut engine = Engine::new(Mode::Train);
        let game = Flappybird::new(9);
        let expected: Vec<f64> = game.features().iter().map(|v| v * 2.0 + 10.0).collect();
        let mut extract = drift_extractor(2.0, 10.0);
        // au_serialize consumes the per-feature lists, so the corrupted
        // values are inspected through the combined entry it returns.
        let ser = extract(&game, &mut engine);
        assert_eq!(engine.db().get(&ser), expected.as_slice());
    }

    #[test]
    fn drifted_deployment_trips_monitor() {
        use au_core::monitor::{AlertKind, MonitorConfig};

        au_nn::set_init_seed(46);
        let mut engine = Engine::new(Mode::Train);
        // Greedy on-policy play legitimately wanders somewhat off the
        // exploratory training distribution (and may warn about it); the
        // high threshold reserves the *drift* alert for injected sensor
        // faults, which shift every feature by many training ranges.
        engine.set_monitor_config(MonitorConfig::default().with_drift_threshold(5.0));
        engine.au_config("D", small_q_config(8)).unwrap();
        let mut game = Flappybird::new(3);
        for _ in 0..3 {
            play_episode(
                &mut engine,
                "D",
                &mut game,
                200,
                FeatureSource::Internal,
                None,
            )
            .unwrap();
        }

        engine.set_mode(Mode::Test);
        let mut clean = drift_extractor(1.0, 0.0);
        play_episode_custom(&mut engine, "D", &mut game, 100, &mut clean, None).unwrap();
        // Reports are taken before the monitor guard: both acquire the
        // monitor lock, and the guard must drop before the next episode.
        let report = engine.monitor_report();
        let mon = engine.monitor("D").unwrap();
        assert!(
            mon.alerts().iter().all(|a| a.kind != AlertKind::Drift),
            "on-policy play must not look like sensor drift: {report}"
        );
        drop(mon);

        // Drifted sensors: every feature shifted far outside training range.
        let mut drifted = drift_extractor(1.0, 50.0);
        play_episode_custom(&mut engine, "D", &mut game, 100, &mut drifted, None).unwrap();
        let report = engine.monitor_report();
        let mon = engine.monitor("D").unwrap();
        assert!(
            mon.alerts().iter().any(|a| a.kind == AlertKind::Drift),
            "drifted extraction should raise a drift alert: {report}"
        );
        let last = mon.last_drift().expect("baseline attached");
        assert_eq!(
            last.out_of_range,
            game.feature_names().len(),
            "every corrupted feature is outside the learned range"
        );
    }

    #[test]
    fn evaluate_does_not_learn() {
        au_nn::set_init_seed(45);
        let mut engine = Engine::new(Mode::Train);
        engine.au_config("E", small_q_config(6)).unwrap();
        let mut game = Flappybird::new(5);
        // One training episode to build the backend.
        play_episode(
            &mut engine,
            "E",
            &mut game,
            50,
            FeatureSource::Internal,
            None,
        )
        .unwrap();
        let steps_before = engine.model_stats("E").unwrap().train_steps;
        evaluate(&mut engine, "E", &mut game, 2, 50, FeatureSource::Internal).unwrap();
        assert_eq!(engine.model_stats("E").unwrap().train_steps, steps_before);
        assert_eq!(engine.mode(), Mode::Train, "mode restored");
    }
}
