//! Golden DQN training: every TD loss, action and weight of two fixed-seed
//! training runs must match `tests/golden/dqn_train.txt` bit for bit.
//!
//! Part (a) drives a bare [`DqnAgent`] with a deterministic chained
//! trajectory (terminal breaks, a broken chain every so often, `-0.0`
//! states next to `+0.0` ones) through a replay buffer small enough for
//! FIFO eviction to wrap many times. Part (b) plays Flappybird through
//! `EngineHandle::au_nn_rl` with `checkpoint_with`/`restore_with`
//! episodes, the Fig. 2 game loop, and part (c) serves the trained model
//! on states recorded along the way (`predict` and `predict_batch_f32`).
//! A change to the replay store, the sampling order, the learning step
//! or the serving path that is meant to be a pure refactor has to leave
//! this file untouched. After an intended change in what training
//! computes, regenerate it with
//!
//! ```text
//! AU_BLESS=1 cargo test --test dqn_golden
//! ```
//!
//! All parts live in one `#[test]` because weight initialization draws
//! from a process-global seed: a second test running concurrently in this
//! binary could interleave its draws with ours.

use autonomizer::core::{EngineHandle, Mode, ModelConfig};
use autonomizer::games::{Flappybird, Game};
use autonomizer::nn::rl::{DqnAgent, DqnConfig, Transition};
use autonomizer::nn::{set_init_seed, Network};
use std::fmt::Write as _;
use std::path::Path;

const GOLDEN: &str = "tests/golden/dqn_train.txt";

/// An `f32` rendered exactly: its shortest round-trip form plus its bits.
fn num(x: f32) -> String {
    format!("{x:?}#{:08x}", x.to_bits())
}

/// Every parameter value of `net`, in layer order, as `f32` bits.
///
/// The model JSON writes each `f32` widened to `f64` in shortest
/// round-trip form, so parsing it back as `f64` and narrowing is exact.
fn weight_bits(net: &Network) -> Vec<u32> {
    let json = net.to_json();
    let mut bits = Vec::new();
    let mut rest = json.as_str();
    while let Some(at) = rest.find("\"data\":[") {
        rest = &rest[at + "\"data\":[".len()..];
        let end = rest.find(']').expect("data array closes");
        for tok in rest[..end].split(',').filter(|t| !t.is_empty()) {
            let v: f64 = tok.parse().expect("numeric weight");
            bits.push((v as f32).to_bits());
        }
        rest = &rest[end..];
    }
    bits
}

fn dump_weights(s: &mut String, label: &str, bits: &[u32]) {
    writeln!(s, "{label} {}", bits.len()).unwrap();
    for chunk in bits.chunks(8) {
        let line: Vec<String> = chunk.iter().map(|b| format!("{b:08x}")).collect();
        writeln!(s, "  {}", line.join(" ")).unwrap();
    }
}

/// The 4-feature state at step `i` of the synthetic trajectory.
fn synthetic_state(i: usize) -> [f32; 4] {
    let t = i as f32;
    let zero = if i.is_multiple_of(3) { -0.0 } else { 0.0 };
    [
        (t * 0.37).sin(),
        (t * 0.11).cos(),
        ((i % 7) as f32) / 7.0,
        zero,
    ]
}

/// Part (a): a bare agent on a chained trajectory with eviction wrapping.
fn agent_part(s: &mut String) {
    set_init_seed(0x0dd_9017);
    let cfg = DqnConfig {
        hidden: vec![12, 8],
        batch_size: 8,
        replay_capacity: 40,
        target_sync_every: 15,
        epsilon_decay: 0.99,
        learning_rate: 3e-3,
        gamma: 0.9,
        seed: 77,
        learn_every: 1,
        ..DqnConfig::default()
    };
    let sync_every = cfg.target_sync_every;
    let mut agent = DqnAgent::new(4, 3, cfg);
    writeln!(s, "== agent").unwrap();
    let mut losses = Vec::new();
    let mut actions = Vec::new();
    let mut learn_steps = 0usize;
    let mut target_bits = weight_bits(agent.network());
    let mut state = synthetic_state(0);
    for i in 0..300 {
        let action = agent.select_action(&state);
        actions.push(action);
        let terminal = i % 23 == 22;
        let mut next = synthetic_state(i + 1);
        // Every 17th step the next transition does not start where this
        // one ended, so the chain breaks without a terminal.
        let broken = i % 17 == 16;
        let reward = if action == i % 3 { 1.0 } else { -0.25 };
        let loss = agent.observe(Transition {
            state: &state,
            action,
            reward,
            next_state: &next,
            terminal,
        });
        if let Some(l) = loss {
            losses.push(l);
            learn_steps += 1;
            // The target network is a copy of the online one taken at
            // every sync step.
            if learn_steps.is_multiple_of(sync_every) {
                target_bits = weight_bits(agent.network());
            }
        }
        if broken {
            next[0] += 0.5;
        }
        // Every 29th step the next state starts with the zero feature's
        // sign flipped: equal as a number, different as bits.
        if i % 29 == 28 {
            next[3] = -next[3];
        }
        state = if terminal {
            synthetic_state(i + 101)
        } else {
            next
        };
    }
    writeln!(s, "epsilon {}", num(agent.epsilon())).unwrap();
    writeln!(s, "learn_steps {learn_steps}").unwrap();
    writeln!(s, "losses {}", losses.len()).unwrap();
    for chunk in losses.chunks(4) {
        let line: Vec<String> = chunk.iter().map(|&l| num(l)).collect();
        writeln!(s, "  {}", line.join(" ")).unwrap();
    }
    writeln!(s, "actions {}", actions.len()).unwrap();
    for chunk in actions.chunks(50) {
        let line: String = chunk.iter().map(|a| a.to_string()).collect();
        writeln!(s, "  {line}").unwrap();
    }
    dump_weights(s, "online", &weight_bits(agent.network()));
    dump_weights(s, "target", &target_bits);
}

/// Part (b): Flappybird through the engine's RL primitive, one
/// checkpoint/restore per episode.
fn engine_part(s: &mut String) {
    set_init_seed(0x0dd_9018);
    let h = EngineHandle::new(Mode::Train);
    let dqn = DqnConfig {
        batch_size: 8,
        replay_capacity: 64,
        target_sync_every: 20,
        epsilon_decay: 0.995,
        learning_rate: 2e-3,
        gamma: 0.95,
        seed: 5,
        learn_every: 2,
        ..DqnConfig::default()
    };
    h.au_config("flappy", ModelConfig::q_dnn(&[16, 8]).with_dqn(dqn))
        .unwrap();
    let mut game = Flappybird::new(9);
    let names = game.feature_names();
    let n_actions = game.n_actions();
    let mut key = vec![0.0; n_actions];
    let mut actions = Vec::new();
    let mut episodes = Vec::new();
    let mut recorded = Vec::new();
    for _ in 0..6 {
        game.reset();
        let ckpt = h.checkpoint_with(&game);
        let (mut reward, mut terminal, mut steps) = (0.0, false, 0);
        loop {
            for (name, value) in names.iter().zip(game.features()) {
                h.au_extract(name, &[value]);
            }
            let ser = h.au_serialize(&names);
            if actions.len() % 12 == 0 {
                recorded.push(game.features());
            }
            let closing = terminal || steps >= 60;
            let action = h
                .au_nn_rl("flappy", &ser, reward, closing, "output", n_actions)
                .unwrap();
            actions.push(action);
            if closing {
                break;
            }
            h.au_write_back("output", &mut key).unwrap();
            assert_eq!(key[action], 1.0, "write-back mirrors the action");
            let result = game.step(action);
            reward = result.reward;
            terminal = result.terminal;
            steps += 1;
        }
        episodes.push(steps);
        game = h.restore_with(&ckpt);
    }
    let stats = h.model_stats("flappy").expect("model built");
    writeln!(s, "== engine").unwrap();
    writeln!(s, "train_steps {}", stats.train_steps).unwrap();
    let lens: Vec<String> = episodes.iter().map(|e| e.to_string()).collect();
    writeln!(s, "episodes {}", lens.join(" ")).unwrap();
    writeln!(s, "actions {}", actions.len()).unwrap();
    for chunk in actions.chunks(50) {
        let line: String = chunk.iter().map(|a| a.to_string()).collect();
        writeln!(s, "  {line}").unwrap();
    }
    let dir = std::env::temp_dir().join(format!("dqn_golden_{}", std::process::id()));
    h.set_model_dir(&dir);
    h.save_model("flappy").unwrap();
    let net = Network::load(dir.join("flappy.json")).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    dump_weights(s, "online", &weight_bits(&net));
    serve_part(s, &h, &recorded);
}

/// Part (c): the trained `flappy` model served on states recorded during
/// part (b), through the per-row f64 entry point and the f32 batch one.
fn serve_part(s: &mut String, h: &EngineHandle, states: &[Vec<f64>]) {
    writeln!(s, "== serve").unwrap();
    writeln!(s, "predict {}", states.len()).unwrap();
    for state in states {
        let q = h.predict("flappy", state).unwrap();
        let line: Vec<String> = q.iter().map(|v| format!("{:016x}", v.to_bits())).collect();
        writeln!(s, "  {}", line.join(" ")).unwrap();
    }
    let flat: Vec<f32> = states.iter().flatten().map(|&v| v as f32).collect();
    let batch = h.predict_batch_f32("flappy", &flat).unwrap();
    writeln!(s, "predict_batch_f32 {}", batch.len()).unwrap();
    for chunk in batch.chunks(4) {
        let line: Vec<String> = chunk.iter().map(|&v| num(v)).collect();
        writeln!(s, "  {}", line.join(" ")).unwrap();
    }
}

#[test]
fn dqn_training_matches_golden() {
    let mut actual = String::new();
    agent_part(&mut actual);
    engine_part(&mut actual);
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(GOLDEN);
    if std::env::var_os("AU_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{GOLDEN} missing ({e}); regenerate with AU_BLESS=1"));
    if actual != expected {
        let first = actual
            .lines()
            .zip(expected.lines())
            .position(|(a, e)| a != e)
            .unwrap_or_else(|| actual.lines().count().min(expected.lines().count()));
        panic!(
            "DQN training diverges from {GOLDEN} at line {}:\n  golden: {:?}\n  actual: {:?}",
            first + 1,
            expected.lines().nth(first),
            actual.lines().nth(first)
        );
    }
}
