//! `sl_offline`: the paper's offline supervised flow through
//! `EngineHandle`, for a `Raw` and a `Min` model.
//!
//! Both models are dense `[64, 32]` with Adam. `Raw` reads the 1024
//! pixels of a 32×32 `au_image` scene; `Min` reads the same scene's
//! 16-bin histogram, so the two contrast a 256 KiB against a 4 KiB
//! first-layer working set. Labels are a closed-form function of the
//! scene's generating parameters. TR extracts the training rows into π,
//! reads them back and trains one epoch per `train_supervised` call; TS
//! serves held-out rows, three `Raw` rows per `Min` row. A unit of TS work
//! is one prediction.

use crate::{engine_setup, Measured, Probe, Scale};
use au_core::{EngineHandle, Mode, ModelConfig};
use au_image::scene::SceneGenerator;
use std::time::{Duration, Instant};

/// Scene side length: `Raw` has `SIDE²` inputs.
pub const SIDE: usize = 32;
/// Histogram bins: `Min`'s input width.
pub const BINS: usize = 16;
/// Label width.
pub const OUTPUTS: usize = 3;
/// The two models.
pub const RAW: &str = "Raw";
const MIN: &str = "Min";

/// Workload sizes.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Rows extracted and trained on.
    pub train_rows: usize,
    /// Rows held out for quality and serving.
    pub heldout_rows: usize,
    raw_epochs: usize,
    min_epochs: usize,
    /// Predictions served at least, however short the window.
    min_predictions: usize,
    /// Held-out MAE above these (`Raw`, `Min`) fails the run. Labels lie
    /// in `[0, 1]`: predicting their mean scores about 0.25, predicting 0
    /// about 0.49. With 150 rows `Raw` barely learns; `Min` does. A smoke
    /// run trains too little to learn and only rules out divergence.
    mae_ceilings: [f64; 2],
}

impl Sizes {
    /// Sizes for `scale`.
    pub fn new(scale: Scale) -> Self {
        match scale {
            Scale::Full => Sizes {
                train_rows: 150,
                heldout_rows: 256,
                raw_epochs: 10,
                min_epochs: 20,
                min_predictions: 10_000,
                mae_ceilings: [0.35, 0.2],
            },
            Scale::Smoke => Sizes {
                train_rows: 16,
                heldout_rows: 16,
                raw_epochs: 2,
                min_epochs: 3,
                min_predictions: 200,
                mae_ceilings: [1.0, 1.0],
            },
        }
    }

    /// The sizes, for the run fingerprint.
    pub fn describe(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("train_rows", self.train_rows as f64),
            ("heldout_rows", self.heldout_rows as f64),
            ("raw_epochs", self.raw_epochs as f64),
            ("min_epochs", self.min_epochs as f64),
        ]
    }
}

/// One scene's model inputs and label.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// `SIDE²` pixels in `[0, 1]`.
    pub raw: Vec<f32>,
    /// `BINS` normalized histogram counts.
    pub min: Vec<f32>,
    /// Normalized noise, contrast and shape count of the scene.
    pub label: Vec<f64>,
}

/// The generated inputs: training and held-out rows.
#[derive(Debug, Clone, PartialEq)]
pub struct Data {
    /// Rows TR extracts and trains on.
    pub train: Vec<Row>,
    /// Rows for quality and TS.
    pub heldout: Vec<Row>,
}

impl Data {
    /// Generates `train + heldout` scenes from `seed`.
    pub fn generate(seed: u64, train: usize, heldout: usize) -> Self {
        let mut gen = SceneGenerator::new(seed);
        let mut rows: Vec<Row> = (0..train + heldout)
            .map(|_| {
                let scene = gen.generate(SIDE, SIDE);
                let pixels = (SIDE * SIDE) as f64;
                Row {
                    raw: scene.image.pixels().to_vec(),
                    min: scene
                        .image
                        .histogram(BINS)
                        .into_iter()
                        .map(|c| (c / pixels) as f32)
                        .collect(),
                    label: vec![
                        f64::from(scene.noise) / 0.38,
                        f64::from(scene.contrast),
                        (scene.shapes as f64 - 2.0) / 3.0,
                    ],
                }
            })
            .collect();
        let heldout = rows.split_off(train);
        Data {
            train: rows,
            heldout,
        }
    }
}

fn config() -> ModelConfig {
    ModelConfig::dnn(&[64, 32])
}

/// Set-up: the engine with both models configured, and a warm pool.
pub fn setup() -> EngineHandle {
    engine_setup(&[(RAW, config()), (MIN, config())])
}

/// Training rows as `train_supervised` takes them.
pub struct Dataset {
    /// `Raw` inputs.
    pub raw: Vec<Vec<f64>>,
    /// `Min` inputs.
    pub min: Vec<Vec<f64>>,
    /// Labels.
    pub labels: Vec<Vec<f64>>,
}

/// Extracts `rows` into π the way a traced program run does, then reads
/// the lists back into per-model datasets — the paper's offline flow.
pub fn extract_dataset(h: &EngineHandle, rows: &[Row]) -> Dataset {
    for row in rows {
        for (name, values) in [("RAW", &row.raw), ("MIN", &row.min)] {
            let _s = au_telemetry::span!("au_core.au_extract_us");
            h.au_extract_f32(name, values);
        }
        let _s = au_telemetry::span!("au_core.au_extract_us");
        h.au_extract("LABEL", &row.label);
    }
    let db = h.db();
    let split = |name: &str, width: usize| -> Vec<Vec<f64>> {
        db.get(name).chunks(width).map(<[f64]>::to_vec).collect()
    };
    Dataset {
        raw: split("RAW", SIDE * SIDE),
        min: split("MIN", BINS),
        labels: split("LABEL", OUTPUTS),
    }
}

/// Trains `model` one epoch per `train_supervised` call on `(xs, ys)`,
/// each epoch in a `span_name` span; returns the epoch times, ms.
pub fn train_epochs(
    h: &EngineHandle,
    (model, span_name): (&str, &'static str),
    (xs, ys): (&[Vec<f64>], &[Vec<f64>]),
    epochs: usize,
    m: &mut Measured,
    probe: &mut Probe,
) -> Vec<f64> {
    let mut times = Vec::with_capacity(epochs);
    for _ in 0..epochs {
        let t0 = Instant::now();
        let loss = {
            let _s = au_telemetry::span!(span_name);
            h.train_supervised(model, xs, ys, 1)
        };
        times.push(t0.elapsed().as_secs_f64() * 1e3);
        m.attempted += 1;
        match loss {
            Ok(l) if l.is_finite() => {}
            Ok(l) => m.fail(format!("{model} epoch loss is {l}")),
            Err(e) => m.fail(format!("{model} training failed: {e}")),
        }
        probe.between_units();
    }
    times
}

/// Flat row-major `f32` inputs of `rows` for `model`.
fn inputs(rows: &[Row], model: &str) -> Vec<f32> {
    rows.iter()
        .flat_map(|r| if model == RAW { &r.raw } else { &r.min })
        .copied()
        .collect()
}

/// Mean absolute error of batch predictions against the labels.
pub fn mae(preds: &[f32], rows: &[Row]) -> f64 {
    let total: f64 = preds
        .chunks(OUTPUTS)
        .zip(rows)
        .flat_map(|(p, r)| {
            p.iter()
                .zip(&r.label)
                .map(|(&p, &y)| (f64::from(p) - y).abs())
        })
        .sum();
    total / (rows.len() * OUTPUTS) as f64
}

/// One TR pass per handle, then predictions on the last handle's models
/// until `window` has elapsed since the start.
pub fn measure(
    handles: &[EngineHandle],
    data: &Data,
    seed: u64,
    sizes: Sizes,
    window: Duration,
    probe: &mut Probe,
) -> Measured {
    let mut m = Measured::new(4096);
    let start = Instant::now();
    for (pass, h) in handles.iter().enumerate() {
        // TR: trace collection, then offline training.
        au_nn::set_init_seed(crate::nn_seed(seed));
        let t0 = Instant::now();
        let before = probe.tr_counters();
        let set = extract_dataset(h, &data.train);
        let raw = train_epochs(
            h,
            (RAW, "au_core.train_epoch_ms.raw"),
            (&set.raw, &set.labels),
            sizes.raw_epochs,
            &mut m,
            probe,
        );
        let min = train_epochs(
            h,
            (MIN, "au_core.train_epoch_ms.min"),
            (&set.min, &set.labels),
            sizes.min_epochs,
            &mut m,
            probe,
        );
        m.autonomize_s.push(t0.elapsed().as_secs_f64());
        if pass == 0 {
            probe.add_tr_counters(before, &mut m);
            m.series.insert("au_core.train_epoch_ms.raw", raw);
            m.series.insert("au_core.train_epoch_ms.min", min);
            m.add_count("au_core.trace_values", h.total_extracted() as f64);
            let trained: u64 = [RAW, MIN]
                .iter()
                .filter_map(|name| h.model_stats(name).map(|s| s.train_steps))
                .sum();
            m.add_count("au_core.rows_trained", trained as f64);
        }
    }
    let h = handles.last().expect("at least one pass");

    // Deploy: the reference outputs and held-out quality (benchmark work).
    h.set_mode(Mode::Test);
    let models = [RAW, MIN];
    let xs: Vec<Vec<f32>> = models.iter().map(|&md| inputs(&data.heldout, md)).collect();
    let mut reference = Vec::new();
    let mut maes = Vec::new();
    for (model, x) in models.iter().zip(&xs) {
        match h.predict_batch_f32(model, x) {
            Ok(p) => {
                maes.push(mae(&p, &data.heldout));
                reference.push(p);
            }
            Err(e) => {
                m.fail(format!("{model} batch prediction failed: {e}"));
                return m;
            }
        }
    }
    m.quality.insert(
        "sl_heldout_mae",
        maes.iter().sum::<f64>() / maes.len() as f64,
    );
    for ((model, mae), ceiling) in models.iter().zip(&maes).zip(sizes.mae_ceilings) {
        m.attempted += 1;
        if !(mae.is_finite() && *mae <= ceiling) {
            m.fail(format!(
                "{model} held-out MAE {mae} is not within {ceiling}"
            ));
        }
    }

    // TS: one prediction per unit of work, three `Raw` rows per `Min` row.
    // The two models' latencies lie far apart; an even mix would put the
    // median in the gap between them, where it jumps from run to run.
    let mut out = Vec::with_capacity(OUTPUTS);
    let rows = data.heldout.len();
    let mut i = 0usize;
    m.ts_start();
    loop {
        let (k, row) = (usize::from(i % 4 == 3), (i / 4) % rows);
        let width = if k == 0 { SIDE * SIDE } else { BINS };
        let x = &xs[k][row * width..(row + 1) * width];
        out.clear();
        let t0 = Instant::now();
        let served = {
            let _s = au_telemetry::span!("au_core.predict_f32_us");
            h.predict_f32_into(models[k], x, &mut out)
        };
        m.deploy(t0.elapsed());
        m.attempted += 1;
        let want = &reference[k][row * OUTPUTS..(row + 1) * OUTPUTS];
        match served {
            Ok(()) if bits(&out) == bits(want) => {}
            Ok(()) => m.fail(format!(
                "{} row {row}: served {out:?}, batch path {want:?}",
                models[k]
            )),
            Err(e) => m.fail(format!("{} row {row}: {e}", models[k])),
        }
        i += 1;
        if i.is_multiple_of(1024) {
            probe.between_units();
            if i >= sizes.min_predictions && start.elapsed() >= window {
                break;
            }
        }
    }
    m.ts_stop();
    m
}

/// Bit patterns, so `-0.0`/`NaN` compare exactly.
pub fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}
