//! f32/f64 serving-path parity across the nine paper programs.
//!
//! The hot serving path is natively `f32` (`predict_f32`,
//! `predict_batch_f32`); the `f64` API narrows its input once at the
//! boundary and widens the output once (exactly — every `f32` is an
//! `f64`). Feeding both paths the same narrowed rows must therefore give
//! *bit-identical* results, on real feature vectors from all nine
//! benchmarks: Canny, Rothwell, Phylip, Sphinx (SL) and Flappybird,
//! Mario, Arkanoid, Torcs, Breakout (RL). Each program's rows are served
//! by a supervised model and by a Q-learning model, so both backends are
//! held to the same parity.

use autonomizer::core::{AuError, EngineHandle, Mode, ModelConfig};
use autonomizer::games::Game;
use autonomizer::image::scene::SceneGenerator;
use autonomizer::nn::rl::DqnConfig;
use autonomizer::speech::{self, Recognizer, Vocabulary};
use autonomizer::vision::{canny, rothwell};

/// Real per-frame feature rows from an RL game driven by its oracle.
fn game_rows(game: &mut dyn Game, frames: usize) -> Vec<Vec<f64>> {
    let mut rows = Vec::with_capacity(frames);
    for _ in 0..frames {
        rows.push(game.features());
        let a = game.oracle_action();
        if game.step(a).terminal {
            game.reset();
        }
    }
    rows
}

/// Feature matrices for all nine benchmarks, each from the program's own
/// feature source (histograms, magnitude summaries, distance summaries,
/// utterance summaries, live game state).
fn benchmark_rows() -> Vec<(&'static str, Vec<Vec<f64>>)> {
    let mut out = Vec::new();

    let mut gen = SceneGenerator::new(11);
    let norm = |h: &[f64]| {
        let t: f64 = h.iter().sum::<f64>().max(1.0);
        h.iter().map(|v| v / t).collect::<Vec<f64>>()
    };
    let mut canny_rows = Vec::new();
    let mut rothwell_rows = Vec::new();
    for _ in 0..6 {
        let scene = gen.generate(16, 16);
        canny_rows.push(norm(
            &canny::canny(&scene.image, canny::CannyParams::default()).hist,
        ));
        rothwell_rows
            .push(rothwell::rothwell(&scene.image, rothwell::RothwellParams::default()).summary);
    }
    out.push(("Canny", canny_rows));
    out.push(("Rothwell", rothwell_rows));

    let phylip_rows: Vec<Vec<f64>> = (0..6)
        .map(|i| {
            let data = autonomizer::phylo::generate_dataset(5, 40, 100 + i);
            autonomizer::phylo::distance_summary(&data.sequences)
        })
        .collect();
    out.push(("Phylip", phylip_rows));

    let recognizer = Recognizer::new(Vocabulary::new(4, 16));
    let sphinx_rows: Vec<Vec<f64>> = (0..6u64)
        .map(|i| speech::synthesize(recognizer.vocabulary(), (i % 4) as usize, i).summary())
        .collect();
    out.push(("Sphinx", sphinx_rows));

    out.push((
        "Flappybird",
        game_rows(&mut autonomizer::games::Flappybird::new(5), 24),
    ));
    out.push((
        "Mario",
        game_rows(&mut autonomizer::games::Mario::new(5), 24),
    ));
    out.push((
        "Arkanoid",
        game_rows(&mut autonomizer::games::Arkanoid::new(5), 24),
    ));
    out.push((
        "Torcs",
        game_rows(&mut autonomizer::games::Torcs::new(5), 24),
    ));
    out.push((
        "Breakout",
        game_rows(&mut autonomizer::games::Breakout::new(5), 24),
    ));
    out
}

/// Scalar and batch parity for one deployed model: widened `predict_f32`
/// ≡ `predict` ≡ `predict_f32_into`, and every batch row ≡ its per-row
/// result, on both the f32 and the f64 batch entry points. A row one
/// value too wide is the same typed error on both scalar paths.
fn assert_serving_parity(h: &EngineHandle, model: &str, rows: &[Vec<f64>]) {
    let rows32: Vec<Vec<f32>> = rows
        .iter()
        .map(|r| r.iter().map(|&v| v as f32).collect())
        .collect();

    // Scalar parity: widened f32 outputs == f64 outputs, bit for bit.
    let mut scratch_out = Vec::new();
    for (row, row32) in rows.iter().zip(&rows32) {
        let via_f64 = h.predict(model, row).unwrap();
        let via_f32 = h.predict_f32(model, row32).unwrap();
        assert_eq!(via_f64.len(), via_f32.len(), "{model}: width mismatch");
        for (a, b) in via_f64.iter().zip(&via_f32) {
            assert_eq!(
                a.to_bits(),
                f64::from(*b).to_bits(),
                "{model}: f32 path diverged from f64 path"
            );
        }
        // The allocation-free form appends the same bits.
        scratch_out.clear();
        h.predict_f32_into(model, row32, &mut scratch_out).unwrap();
        assert_eq!(scratch_out, via_f32, "{model}: _into diverged");
    }

    // Error parity: a row of the wrong width is refused alike.
    let wide: Vec<f64> = rows[0].iter().copied().chain([0.5]).collect();
    let wide32: Vec<f32> = wide.iter().map(|&v| v as f32).collect();
    let via_f64 = h.predict(model, &wide).unwrap_err();
    let via_f32 = h.predict_f32(model, &wide32).unwrap_err();
    assert!(
        matches!(via_f64, AuError::InputSizeChanged { .. }),
        "{model}: {via_f64}"
    );
    assert_eq!(via_f64.to_string(), via_f32.to_string(), "{model}");

    // Batch parity: the flat f32 batch equals per-row f32 serving, and
    // the f64 batch equals per-row f64 serving.
    let flat: Vec<f32> = rows32.iter().flatten().copied().collect();
    let batch32 = h.predict_batch_f32(model, &flat).unwrap();
    let batch64 = h.predict_batch(model, rows).unwrap();
    let out_width = batch32.len() / rows.len();
    for (i, row32) in rows32.iter().enumerate() {
        let per_row = h.predict_f32(model, row32).unwrap();
        assert_eq!(
            &batch32[i * out_width..(i + 1) * out_width],
            per_row.as_slice(),
            "{model}: batched f32 row {i} diverged"
        );
        assert_eq!(
            batch64[i],
            h.predict(model, &rows[i]).unwrap(),
            "{model}: batched f64 row {i} diverged"
        );
    }
}

#[test]
fn f32_serving_is_bit_identical_to_f64_on_all_nine_benchmarks() {
    for (bi, (name, rows)) in benchmark_rows().into_iter().enumerate() {
        assert!(!rows.is_empty(), "{name}: no feature rows");
        let width = rows[0].len();
        assert!(width > 0, "{name}: empty feature rows");

        // Train a small supervised model on the program's real features
        // (labels are an arbitrary smooth function — parity is about the
        // serving path, not accuracy).
        autonomizer::nn::set_init_seed(4000 + bi as u64);
        let h = EngineHandle::new(Mode::Train);
        h.au_config(name, ModelConfig::dnn(&[16, 8])).unwrap();
        let ys: Vec<Vec<f64>> = rows
            .iter()
            .map(|r| vec![r.iter().sum::<f64>() / r.len() as f64, r[0]])
            .collect();
        h.train_supervised(name, &rows, &ys, 3).unwrap();

        // A Q-learning model fed the same rows through `au_nn_rl`, so the
        // RL backend's serving path is held to the same parity.
        let q = format!("{name}_q");
        let dqn = DqnConfig {
            hidden: vec![16, 8],
            batch_size: 4,
            seed: 31 + bi as u64,
            ..DqnConfig::default()
        };
        h.au_config(&q, ModelConfig::q_dnn(&[16, 8]).with_dqn(dqn))
            .unwrap();
        for (i, row) in rows.iter().enumerate() {
            h.au_extract("state", row);
            let terminal = i + 1 == rows.len();
            h.au_nn_rl(&q, "state", row[0], terminal, "action", 3)
                .unwrap();
        }
        h.set_mode(Mode::Test);

        assert_serving_parity(&h, name, &rows);
        assert_serving_parity(&h, &q, &rows);
    }
}
