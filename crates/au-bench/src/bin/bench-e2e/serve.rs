//! `serve_mixed`: two closed-loop clients share clones of one `Mode::Test`
//! handle serving the trained `Raw` model, while one of them retrains it.
//!
//! Each request is a read: 90 % `predict_f32_into`, 10 % the π path
//! (`au_extract` → `au_nn` → `au_write_back`) under per-client π names.
//! Client 0 also retrains the model on a few rows on a fixed schedule; a
//! retrain's lag is counted from its due time. A unit of TS work is one
//! read. Reads contend with each other on the registry shard and π locks
//! and with the retrain on the model's `RwLock`.

use crate::sl::{bits, extract_dataset, train_epochs, Data, OUTPUTS, RAW};
use crate::{engine_setup, Measured, Probe, Scale};
use au_core::{EngineHandle, Mode, ModelConfig};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// One read in this many takes the π path.
const PI_EVERY: u64 = 10;
/// Retrain period.
const RETRAIN_EVERY: Duration = Duration::from_millis(100);
/// Rows per retrain.
const RETRAIN_ROWS: usize = 8;
/// The clients meet this often, so the traced run can drain the recorder
/// while no span is open, and throughput is taken per slice.
const SLICE: Duration = Duration::from_millis(250);
/// Held-out rows checked against the batch path after serving.
const REFERENCE_ROWS: usize = 32;

/// Workload sizes.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Rows extracted and trained on before serving.
    pub train_rows: usize,
    /// Rows the clients request predictions for.
    pub heldout_rows: usize,
    epochs: usize,
    /// Serving time at least, however short the window.
    min_serve: Duration,
}

impl Sizes {
    /// Sizes for `scale`.
    pub fn new(scale: Scale) -> Self {
        match scale {
            Scale::Full => Sizes {
                train_rows: 150,
                heldout_rows: 256,
                epochs: 5,
                min_serve: Duration::from_secs(2),
            },
            Scale::Smoke => Sizes {
                train_rows: 16,
                heldout_rows: 32,
                epochs: 1,
                min_serve: Duration::from_millis(300),
            },
        }
    }

    /// The sizes, for the run fingerprint.
    pub fn describe(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("train_rows", self.train_rows as f64),
            ("heldout_rows", self.heldout_rows as f64),
            ("epochs", self.epochs as f64),
            ("clients", 2.0),
            ("retrain_every_ms", RETRAIN_EVERY.as_secs_f64() * 1e3),
            ("retrain_rows", RETRAIN_ROWS as f64),
        ]
    }
}

/// Set-up: the engine with the served model configured, and a warm pool.
pub fn setup() -> EngineHandle {
    engine_setup(&[(RAW, ModelConfig::dnn(&[64, 32]))])
}

/// A client's request stream: which row, and whether it takes the π path.
#[derive(Debug, Clone)]
pub struct Requests {
    state: u64,
}

impl Requests {
    /// The stream of client `client` under `seed`.
    pub fn new(seed: u64, client: usize) -> Self {
        Requests {
            state: (seed ^ (client as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15)) | 1,
        }
    }

    /// The next request: `(row, via_pi)`.
    pub fn next(&mut self, rows: usize) -> (usize, bool) {
        // xorshift64*
        self.state ^= self.state >> 12;
        self.state ^= self.state << 25;
        self.state ^= self.state >> 27;
        let r = self.state.wrapping_mul(0x2545_f491_4f6c_dd1d);
        ((r >> 32) as usize % rows, r.is_multiple_of(PI_EVERY))
    }
}

/// One client's state across slices.
struct Client {
    id: usize,
    requests: Requests,
    pi_in: String,
    pi_out: String,
    m: Measured,
}

/// The retrain schedule client 0 keeps.
struct Retrain<'a> {
    next_due: Instant,
    xs: &'a [Vec<f64>],
    ys: &'a [Vec<f64>],
    offset: usize,
}

/// One read; returns whether the reply is well formed.
fn read(h: &EngineHandle, c: &mut Client, data: &Data, out: &mut Vec<f32>) -> Result<(), String> {
    let (row, via_pi) = c.requests.next(data.heldout.len());
    let x = &data.heldout[row].raw;
    let t0 = Instant::now();
    let reply = if via_pi {
        let _unit = au_telemetry::span!("bench.pi_request");
        {
            let _s = au_telemetry::span!("au_core.au_extract_us");
            h.au_extract_f32(&c.pi_in, x);
        }
        let served = {
            let _s = au_telemetry::span!("au_core.au_nn_ts_us");
            h.au_nn(RAW, &c.pi_in, &[c.pi_out.as_str()])
        };
        let mut y = [0.0f64; OUTPUTS];
        let written = {
            let _s = au_telemetry::span!("au_core.au_write_back_us");
            served.and_then(|_| h.au_write_back(&c.pi_out, &mut y))
        };
        written.map(|()| {
            out.clear();
            out.extend(y.iter().map(|&v| v as f32));
        })
    } else {
        out.clear();
        let _s = au_telemetry::span!("au_core.predict_f32_us");
        h.predict_f32_into(RAW, x, out)
    };
    c.m.deploy(t0.elapsed());
    c.m.attempted += 1;
    match reply {
        Ok(()) if out.len() == OUTPUTS && out.iter().all(|v| v.is_finite()) => Ok(()),
        Ok(()) => Err(format!("row {row}: reply {out:?}")),
        Err(e) => Err(format!("row {row}: {e}")),
    }
}

/// Runs a client until `until`; client 0 also retrains when due.
fn client_slice(
    h: &EngineHandle,
    c: &mut Client,
    data: &Data,
    until: Instant,
    mut retrain: Option<&mut Retrain>,
) {
    let mut out = Vec::with_capacity(OUTPUTS);
    while Instant::now() < until {
        if let Some(r) = retrain.as_deref_mut() {
            let now = Instant::now();
            if now >= r.next_due {
                let lag = now - r.next_due;
                let rows = r.offset..r.offset + RETRAIN_ROWS;
                r.offset = (r.offset + RETRAIN_ROWS) % (r.xs.len() - RETRAIN_ROWS + 1);
                let trained = {
                    let _s = au_telemetry::span!("au_core.retrain_ms");
                    h.train_supervised(RAW, &r.xs[rows.clone()], &r.ys[rows], 1)
                };
                c.m.series
                    .entry("au_core.retrain_lag_ms")
                    .or_default()
                    .push(lag.as_secs_f64() * 1e3);
                c.m.attempted += 1;
                if let Err(e) = trained {
                    c.m.fail(format!("retrain: {e}"));
                }
                r.next_due += RETRAIN_EVERY;
                continue;
            }
        }
        if let Err(e) = read(h, c, data, &mut out) {
            c.m.fail(format!("client {}: {e}", c.id));
        }
    }
}

/// One TR pass per handle (the served model's training), then both
/// clients serve the last handle's model until `window` has elapsed since
/// the start.
pub fn measure(
    handles: &[EngineHandle],
    data: &Data,
    seed: u64,
    sizes: Sizes,
    window: Duration,
    probe: &mut Probe,
) -> Measured {
    let mut m = Measured::default();
    let start = Instant::now();
    let mut dataset = None;
    for (pass, h) in handles.iter().enumerate() {
        au_nn::set_init_seed(crate::nn_seed(seed));
        let t0 = Instant::now();
        let before = probe.tr_counters();
        let set = extract_dataset(h, &data.train);
        let epochs = train_epochs(
            h,
            (RAW, "au_core.train_epoch_ms.raw"),
            (&set.raw, &set.labels),
            sizes.epochs,
            &mut m,
            probe,
        );
        m.autonomize_s.push(t0.elapsed().as_secs_f64());
        if pass == 0 {
            probe.add_tr_counters(before, &mut m);
            m.series.insert("au_core.train_epoch_ms.raw", epochs);
            m.add_count("au_core.trace_values", h.total_extracted() as f64);
            let trained = h.model_stats(RAW).map_or(0, |s| s.train_steps);
            m.add_count("au_core.rows_trained", trained as f64);
        }
        dataset = Some(set);
    }
    let h = handles.last().expect("at least one pass");
    let set = dataset.expect("at least one pass");

    h.set_mode(Mode::Test);
    let client = |id: usize| Client {
        id,
        requests: Requests::new(seed, id),
        pi_in: format!("X{id}"),
        pi_out: format!("Y{id}"),
        m: Measured::default(),
    };
    let (mut first, mut second) = (client(0), client(1));
    let mut retrain = Retrain {
        next_due: Instant::now() + RETRAIN_EVERY,
        xs: &set.raw,
        ys: &set.labels,
        offset: 0,
    };
    // Both clients run the same schedule of slices and meet at a barrier
    // after each; the probe drains the recorder while they wait.
    let serve_start = Instant::now();
    let end = (start + window).max(serve_start + sizes.min_serve);
    let slices = (end - serve_start).as_secs_f64() / SLICE.as_secs_f64();
    let slice_end = |k: u32| (serve_start + SLICE * k).min(end);
    let barrier = Barrier::new(2);
    let second_reads = AtomicU64::new(0);
    let second = std::thread::scope(|s| {
        let worker = s.spawn(|| {
            for k in 1..=slices.ceil() as u32 {
                client_slice(h, &mut second, data, slice_end(k), None);
                second_reads.store(second.m.deploy_us.seen(), Ordering::Release);
                barrier.wait();
                barrier.wait();
            }
            second
        });
        let mut served = 0;
        let mut resumed = serve_start;
        for k in 1..=slices.ceil() as u32 {
            client_slice(h, &mut first, data, slice_end(k), Some(&mut retrain));
            barrier.wait();
            let secs = resumed.elapsed().as_secs_f64();
            let now_served = first.m.deploy_us.seen() + second_reads.load(Ordering::Acquire);
            m.push_rate(now_served - served, secs);
            served = now_served;
            probe.between_units();
            barrier.wait();
            resumed = Instant::now();
        }
        worker.join().expect("client thread panicked")
    });

    for c in [first, second] {
        m.deploy_us.merge(c.m.deploy_us);
        m.attempted += c.m.attempted;
        m.failed += c.m.failed;
        m.failures.extend(c.m.failures);
        for (k, v) in c.m.series {
            m.series.entry(k).or_default().extend(v);
        }
    }

    // The retrains changed the model under the readers; whatever it is
    // now, the serving path must agree with the batch path bit for bit.
    let reference = &data.heldout[..REFERENCE_ROWS.min(data.heldout.len())];
    let flat: Vec<f32> = reference
        .iter()
        .flat_map(|r| r.raw.iter().copied())
        .collect();
    m.attempted += 1;
    match h.predict_batch_f32(RAW, &flat) {
        Ok(batch) => {
            for (i, row) in reference.iter().enumerate() {
                let want = &batch[i * OUTPUTS..(i + 1) * OUTPUTS];
                match h.predict_f32(RAW, &row.raw) {
                    Ok(single) if bits(&single) == bits(want) => {}
                    single => m.fail(format!(
                        "row {i}: predict_f32 {single:?} differs from predict_batch_f32 {want:?}"
                    )),
                }
            }
        }
        Err(e) => m.fail(format!("batch reference: {e}")),
    }
    m
}
