//! `bench-e2e` — the end-to-end TR→TS benchmark.
//!
//! ```text
//! bench-e2e --workload <corpus_cycle|sl_offline|rl_selfplay|serve_mixed|all>
//!           [--seed <u64>] [--seconds <n>] [--trace <0|1>] [--smoke] [--out <dir>]
//! ```
//!
//! One invocation runs one workload (`all` re-executes this binary once
//! per workload, so process-global state — the NN init seed, the au-par
//! thread override — cannot leak between them). Each run times the
//! workload's set-up a few times, then measures for `--seconds`: the TR
//! side at a fixed amount of work and the TS side until the time is up,
//! timing more set-ups between units of work. Every output is checked.
//! The run prints each run-level metric as `name value unit (n=samples)`,
//! then a fingerprinted detail line, and last one JSON line `{"correct",
//! "attempted", "failed", "metrics"}` with the end-to-end metrics. It
//! exits 1 when a check failed.
//!
//! `--trace 1` measures half the time untraced and half with the
//! au-telemetry recorder on, and reports the per-layer metrics instead of
//! the end-to-end ones, plus the tracing overhead between the halves. It
//! writes `<out>/<workload>.layers.json` and a Chrome trace of the first
//! drained batch of spans to `<out>/<workload>.trace.json`.
//!
//! See `README.md` beside this file for the workloads and metrics.

mod corpus;
mod layers;
mod rl;
mod serve;
mod sl;
mod stats;

use layers::Ledger;
use stats::{median, metrics_json, push_json_num, push_json_str, summarize, Metric, Reservoir};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// The four workloads, in the order `all` runs them.
const WORKLOADS: [&str; 4] = ["corpus_cycle", "sl_offline", "rl_selfplay", "serve_mixed"];

/// Set-ups timed before measuring. More are timed between units of work
/// while the untraced half runs; `setup_s` is the median of all of them.
const SETUP_REPS: usize = 8;

/// Between-units set-ups are at least this far apart...
const SETUP_EVERY: Duration = Duration::from_millis(50);

/// ...and at least this many times the last one's duration, so they take
/// at most a twentieth of the run.
const SETUP_SPACING: u32 = 20;

/// Default measuring time per run, seconds.
const DEFAULT_SECONDS: f64 = 25.0;

/// How big a run is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The benchmark proper.
    Full,
    /// Tiny sizes for tests and quick checks: all four workloads well
    /// under ten seconds together.
    Smoke,
}

/// The run-level metrics, measured with tracing off: name, unit. An
/// untraced run prints them all.
const RUN_METRICS: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("autonomize_s", "s"),
    ("deploy_rate", "units/s"),
    ("deploy_p50_us", "us"),
    ("deploy_p99_us", "us"),
    ("peak_rss_mb", "MiB"),
];

/// The run-level metrics in an untraced run's result line: those whose
/// run-to-run spread on a shared host stays within their bound. The
/// others move with the host's speed by more than their bound between
/// runs of the same code, so they are reported per layer (`Src::Run`).
const END_TO_END: [&str; 2] = ["setup_s", "peak_rss_mb"];

/// Where a per-layer metric's value comes from.
#[derive(Debug, Clone, Copy)]
enum Src {
    /// Median duration of the benchmark span of the same name.
    Span,
    /// Median self time of `child` spans run directly under `parent`.
    SelfUnder(&'static str, &'static str),
    /// A count the workload measured over the first pass of its fixed TR
    /// work (or its first TS round).
    Count,
    /// Median of a series the workload recorded.
    Series,
    /// Mean per record of a crate latency histogram.
    HistMean(&'static str),
    /// Total of a crate latency histogram over the traced half.
    HistTotal(&'static str),
    /// A crate counter's total over the traced half.
    Counter(&'static str),
    /// The run-level metric of the same name, from the untraced half.
    Run,
    /// Computed from the run as a whole.
    Derived,
}

/// The per-layer metrics of the traced run: name, unit, source. Every
/// workload reports all of them; a layer a workload never calls reads 0.
const PER_LAYER: [(&str, &str, Src); 61] = [
    ("autonomize_s", "s", Src::Run),
    ("deploy_rate", "units/s", Src::Run),
    ("deploy_p50_us", "us", Src::Run),
    ("deploy_p99_us", "us", Src::Run),
    ("au_lang.parse_ms", "ms", Src::Span),
    ("au_lang.compile_ms", "ms", Src::Span),
    ("au_lang.compile_opt_ms", "ms", Src::Span),
    ("au_lang.static_analysis_ms", "ms", Src::Span),
    ("au_lang.vm_tr_run_ms", "ms", Src::Span),
    ("au_lang.vm_tr_steps", "count", Src::Count),
    (
        "au_lang.vm_self_ms",
        "ms",
        Src::SelfUnder("au_lang.vm_tr_run_ms", "aulang_vm_run"),
    ),
    ("au_lang.vm_ts_run_ms", "ms", Src::Span),
    ("au_lang.vm_ts_steps", "count", Src::Count),
    ("au_trace.alg1_ms", "ms", Src::Span),
    ("au_trace.alg2_ms", "ms", Src::Span),
    ("au_trace.db_vars", "count", Src::Count),
    ("au_trace.trace_values", "count", Src::Count),
    ("au_trace.prune_ratio", "ratio", Src::Derived),
    ("au_core.config_us", "us", Src::Span),
    ("au_core.au_extract_us", "us", Src::Span),
    ("au_core.au_serialize_us", "us", Src::Span),
    ("au_core.au_nn_rl_tr_us", "us", Src::Span),
    ("au_core.au_nn_rl_ts_us", "us", Src::Span),
    ("au_core.au_write_back_us", "us", Src::Span),
    ("au_core.checkpoint_us", "us", Src::Span),
    ("au_core.restore_us", "us", Src::Span),
    ("au_core.train_epoch_ms.raw", "ms", Src::Span),
    ("au_core.train_epoch_ms.min", "ms", Src::Span),
    ("au_core.predict_f32_us", "us", Src::Span),
    ("au_core.au_nn_ts_us", "us", Src::Span),
    ("au_core.retrain_ms", "ms", Src::Span),
    ("au_core.retrain_lag_ms", "ms", Src::Series),
    (
        "au_core.pi_lock_wait_ms",
        "ms",
        Src::HistTotal("au_core.pi_lock_wait"),
    ),
    (
        "au_core.pi_lock_contended",
        "count",
        Src::Counter("au_core.pi_lock_contended"),
    ),
    (
        "au_core.shard_lock_wait_ms",
        "ms",
        Src::HistTotal("au_core.shard_lock_wait"),
    ),
    (
        "au_core.shard_lock_contended",
        "count",
        Src::Counter("au_core.shard_lock_contended"),
    ),
    ("au_core.trace_values", "count", Src::Count),
    ("au_core.rows_trained", "count", Src::Count),
    ("au_core.predictions_served", "count", Src::Count),
    ("au_nn.forward_us", "us", Src::HistMean("au_nn.forward")),
    (
        "au_nn.train_batch_us",
        "us",
        Src::HistMean("au_nn.train_batch"),
    ),
    ("au_nn.gemm_us", "us", Src::HistMean("au_nn.gemm")),
    ("au_nn.im2col_us", "us", Src::HistMean("au_nn.im2col")),
    ("au_nn.batches_trained", "count", Src::Count),
    ("au_nn.gemm_parallel", "count", Src::Count),
    ("au_par.regions", "count", Src::Count),
    ("au_par.region_inline_total", "count", Src::Count),
    (
        "au_par.worker_busy_us",
        "us",
        Src::HistMean("au_par.worker_busy"),
    ),
    (
        "au_par.join_wait_us",
        "us",
        Src::HistMean("au_par.join_wait"),
    ),
    (
        "au_par.pool_queue_wait_us",
        "us",
        Src::HistMean("au_par.pool_queue_wait"),
    ),
    ("au_par.warmup_us", "us", Src::Span),
    ("au_games.step_us", "us", Src::Span),
    ("au_games.render_us", "us", Src::Span),
    ("bench.dropped_spans", "count", Src::Derived),
    ("bench.trace_overhead_autonomize", "ratio", Src::Derived),
    ("bench.trace_overhead_deploy_rate", "ratio", Src::Derived),
    ("bench.vm_share", "ratio", Src::Derived),
    ("bench.train_share", "ratio", Src::Derived),
    ("bench.fail_frac", "ratio", Src::Derived),
    ("quality.sl_heldout_mae", "label", Src::Derived),
    ("quality.rl_progress", "ratio", Src::Derived),
];

/// Crate counters read around the first pass of fixed TR work; reported
/// under the same names.
const TR_COUNTERS: [&str; 5] = [
    "au_core.predictions_served",
    "au_nn.batches_trained",
    "au_nn.gemm_parallel",
    "au_par.regions",
    "au_par.region_inline_total",
];

/// What one measured phase of a workload produced.
#[derive(Debug, Default)]
pub struct Measured {
    /// Wall time of each pass of the TR side at its fixed amount of work.
    pub autonomize_s: Vec<f64>,
    /// Latency of the TS units of work, µs.
    pub deploy_us: Reservoir,
    /// TS throughput of each window of `window_units` consecutive units,
    /// over the wall time the TS side ran.
    rates: Vec<f64>,
    /// Units per throughput window; 0 when the caller records windows
    /// itself with [`Measured::push_rate`].
    window_units: u64,
    /// The window being filled.
    window: Window,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed: engine errors and output mismatches.
    pub failed: u64,
    /// The first few failure messages.
    pub failures: Vec<String>,
    /// Counts of the first pass of the fixed TR work (every pass repeats
    /// the same work) and of the first TS round.
    counts: BTreeMap<&'static str, f64>,
    /// Output-quality values (`quality.*` metrics).
    pub quality: BTreeMap<&'static str, f64>,
    /// Series kept whole for the layers file (and medians of them).
    pub series: BTreeMap<&'static str, Vec<f64>>,
}

impl Measured {
    /// A phase whose TS throughput is taken over windows of
    /// `window_units` consecutive units.
    pub fn new(window_units: u64) -> Self {
        Measured {
            window_units,
            ..Measured::default()
        }
    }

    /// Starts the TS side's wall clock: from here until
    /// [`Measured::ts_stop`], everything the TS side does between units
    /// counts toward its throughput too.
    pub fn ts_start(&mut self) {
        self.window.since = Some(Instant::now());
    }

    /// Stops the TS side's wall clock.
    pub fn ts_stop(&mut self) {
        if let Some(since) = self.window.since.take() {
            self.window.secs += since.elapsed().as_secs_f64();
        }
    }

    /// Records one TS unit of work that took `dt`.
    pub fn deploy(&mut self, dt: Duration) {
        self.deploy_us.push(dt.as_secs_f64() * 1e6);
        if self.window_units == 0 {
            return;
        }
        self.window.units += 1;
        if self.window.units >= self.window_units {
            let now = Instant::now();
            let w = &mut self.window;
            let secs = w.secs + w.since.map_or(0.0, |t| (now - t).as_secs_f64());
            let units = w.units;
            *w = Window {
                since: w.since.map(|_| now),
                ..Window::default()
            };
            self.push_rate(units, secs);
        }
    }

    /// Records the throughput of one window: `units` in `secs`.
    pub fn push_rate(&mut self, units: u64, secs: f64) {
        if units > 0 && secs > 0.0 {
            self.rates.push(units as f64 / secs);
        }
    }

    /// Records a failed operation.
    pub fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(msg);
        }
    }

    /// Adds `v` to a count. Callers add during the first pass only.
    pub fn add_count(&mut self, name: &'static str, v: f64) {
        *self.counts.entry(name).or_default() += v;
    }

    fn count(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }

    /// TS units per second: the median over throughput windows, so a burst
    /// of interference from outside the process moves it little; over the
    /// unfinished window when none filled.
    fn deploy_rate(&self) -> f64 {
        if self.rates.is_empty() {
            self.window.units as f64 / self.window.secs.max(f64::MIN_POSITIVE)
        } else {
            median(&self.rates)
        }
    }
}

/// A throughput window being filled.
#[derive(Debug, Default)]
struct Window {
    /// Units completed in it.
    units: u64,
    /// TS wall time it has accumulated, not counting the running stretch.
    secs: f64,
    /// When the running stretch of TS wall time began; `None` while the
    /// TS side's clock is stopped.
    since: Option<Instant>,
}

/// The runner's hook into a workload. In the untraced half it times a
/// set-up between units of work now and then, so `setup_s` samples the
/// host over the whole run rather than over its first moments (the host's
/// speed switches between levels every fraction of a second). In the
/// traced half it drains the recorder between units of work and reads
/// crate counters around the fixed TR work.
#[derive(Default)]
pub struct Probe<'a> {
    ledger: Option<Ledger>,
    setup: Option<&'a mut dyn FnMut()>,
}

impl Probe<'_> {
    /// Call between units of work, outside the unit's timer, with no span
    /// open. The engine workloads call it inside TR passes and TS windows
    /// too; their set-ups take well under a hundredth of the spacing.
    pub fn between_units(&mut self) {
        if let Some(l) = self.ledger.as_mut() {
            l.maybe_drain();
        }
        if let Some(setup) = self.setup.as_mut() {
            setup();
        }
    }

    /// Current totals of [`TR_COUNTERS`]; zeros when untraced.
    pub fn tr_counters(&self) -> [u64; TR_COUNTERS.len()] {
        let rec = au_telemetry::global();
        TR_COUNTERS.map(|name| {
            self.ledger
                .as_ref()
                .map_or(0, |l| l.counter(name) + rec.counter_value(name))
        })
    }

    /// Adds what [`TR_COUNTERS`] grew by since `before` to `m`'s counts.
    pub fn add_tr_counters(&self, before: [u64; TR_COUNTERS.len()], m: &mut Measured) {
        if self.ledger.is_none() {
            return;
        }
        let now = self.tr_counters();
        for (i, name) in TR_COUNTERS.iter().enumerate() {
            m.add_count(name, now[i].saturating_sub(before[i]) as f64);
        }
    }
}

/// Engine set-up shared by the engine-level workloads: a fresh handle in
/// TR mode with `models` configured, then a warm worker pool.
pub fn engine_setup(models: &[(&str, au_core::ModelConfig)]) -> au_core::EngineHandle {
    let handle = {
        let _s = au_telemetry::span!("au_core.config_us");
        let h = au_core::EngineHandle::new(au_core::Mode::Train);
        for (name, config) in models {
            h.au_config(name, config.clone())
                .expect("a fresh engine accepts every model");
        }
        h
    };
    warm_pool();
    handle
}

/// Runs one region on the au-par pool, so measurement never pays for
/// spawning workers. The first set-up of a run spawns them; later ones
/// find them parked, as a program set up a second time would.
pub fn warm_pool() {
    let _s = au_telemetry::span!("au_par.warmup_us");
    let ranges = au_par::max_threads();
    std::hint::black_box(au_par::pool_map(ranges, 1, |i| i));
}

/// Command-line options.
#[derive(Debug, Clone)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out: PathBuf,
}

const USAGE: &str =
    "usage: bench-e2e --workload <corpus_cycle|sl_offline|rl_selfplay|serve_mixed|all> \
[--seed <u64>] [--seconds <n>] [--trace <0|1>] [--smoke] [--out <dir>]";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
        out: Path::new(&std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into()))
            .join("bench-e2e"),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => {
                args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                args.seconds = s;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                };
            }
            "--smoke" => args.smoke = true,
            "--out" => args.out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bench-e2e: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.out) {
        eprintln!("bench-e2e: cannot create {}: {e}", args.out.display());
        return ExitCode::from(2);
    }
    let correct = if args.workload == "all" {
        run_all(&argv)
    } else {
        run_one(&args)
    };
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs every workload in a child process of its own and prints one
/// combined result line, with metrics prefixed by workload.
fn run_all(argv: &[String]) -> bool {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("bench-e2e: cannot locate own executable: {e}");
            return false;
        }
    };
    let mut correct = true;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut metrics = String::new();
    for wl in WORKLOADS {
        let mut child_args = argv.to_vec();
        let at = child_args
            .iter()
            .position(|a| a == "--workload")
            .expect("parse_args saw --workload");
        child_args[at + 1] = wl.to_owned();
        let out = std::process::Command::new(&exe)
            .args(&child_args)
            .stderr(std::process::Stdio::inherit())
            .output();
        let out = match out {
            Ok(out) => out,
            Err(e) => {
                eprintln!("bench-e2e: cannot run {wl}: {e}");
                correct = false;
                continue;
            }
        };
        let stdout = String::from_utf8_lossy(&out.stdout);
        print!("{stdout}");
        let last = stdout.lines().last().unwrap_or("");
        match parse_result_line(last) {
            Some((ok, a, f, m)) => {
                correct &= ok && out.status.success();
                attempted += a;
                failed += f;
                for (name, value, unit) in m {
                    metrics.push(if metrics.is_empty() { '{' } else { ',' });
                    push_json_str(&mut metrics, &format!("{wl}.{name}"));
                    metrics.push_str(":{\"value\":");
                    push_json_num(&mut metrics, value);
                    metrics.push_str(",\"unit\":");
                    push_json_str(&mut metrics, &unit);
                    metrics.push('}');
                }
            }
            _ => {
                eprintln!("bench-e2e: {wl} exited with {} and no result", out.status);
                correct = false;
            }
        }
    }
    if metrics.is_empty() {
        metrics.push('{');
    }
    metrics.push('}');
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{failed},\"metrics\":{metrics}}}",
        attempted.max(1)
    );
    correct
}

/// A child's result line: correct, attempted, failed, and each metric's
/// `(name, value, unit)`.
type ResultLine = (bool, u64, u64, Vec<(String, f64, String)>);

fn parse_result_line(line: &str) -> Option<ResultLine> {
    use serde::Value;
    let v: Value = serde_json::from_str(line).ok()?;
    let correct = matches!(v.field("correct").ok()?, Value::Bool(true));
    let attempted = v.field("attempted").ok()?.as_f64().ok()? as u64;
    let failed = v.field("failed").ok()?.as_f64().ok()? as u64;
    let Value::Object(fields) = v.field("metrics").ok()? else {
        return None;
    };
    let mut metrics = Vec::new();
    for (name, m) in fields {
        let value = m.field("value").ok()?.as_f64().ok()?;
        let Value::Str(unit) = m.field("unit").ok()? else {
            return None;
        };
        metrics.push((name.clone(), value, unit.clone()));
    }
    Some((correct, attempted, failed, metrics))
}

/// Pins the au-par thread budget to at most two threads (the benchmark's
/// single-process load stays within `nproc` on a two-core host) before any
/// model exists; returns it.
fn pin_threads() -> usize {
    let threads = std::thread::available_parallelism()
        .map_or(1, std::num::NonZeroUsize::get)
        .min(2);
    au_par::set_thread_override(Some(threads));
    threads
}

/// What the runner collected for one workload.
struct Phases {
    setup_s: Vec<f64>,
    untraced: Measured,
    traced: Option<(Measured, Ledger)>,
    sizes: Vec<(&'static str, f64)>,
}

/// Times a few set-ups, then measures: `prepare` turns the states of the
/// last `keep` into what `measure` runs (the oracle and other benchmark
/// work: untimed, untraced). With tracing, an untraced half is measured
/// first, then a traced half on states of its own.
fn drive<S, P>(
    args: &Args,
    keep: usize,
    mut setup: impl FnMut() -> S,
    mut prepare: impl FnMut(Vec<S>) -> P,
    mut measure: impl FnMut(&mut P, Duration, &mut Probe) -> Measured,
) -> Phases {
    let scale = scale(args);
    let mut ledger = Ledger::default();
    if args.trace {
        au_telemetry::enable();
    }
    let needed = if args.trace { 2 * keep } else { keep };
    let reps = match scale {
        Scale::Full => SETUP_REPS.max(needed),
        Scale::Smoke => needed,
    };
    let mut setup_s = Vec::new();
    // Only the states measured on are kept, so peak memory does not
    // depend on how many set-ups were timed.
    let mut states = Vec::with_capacity(needed + 1);
    for _ in 0..reps {
        let t0 = Instant::now();
        states.push(setup());
        setup_s.push(t0.elapsed().as_secs_f64());
        if states.len() > needed {
            states.remove(0);
        }
        if args.trace {
            ledger.maybe_drain();
        }
    }
    if args.trace {
        ledger.drain();
        au_telemetry::disable();
    }
    let untraced_states = states.split_off(states.len() - keep);
    let traced_states = states;
    // A smoke run does each workload's minimum amount of work.
    let window = match (scale, args.trace) {
        (Scale::Smoke, _) => Duration::ZERO,
        (Scale::Full, true) => Duration::from_secs_f64(args.seconds / 2.0),
        (Scale::Full, false) => Duration::from_secs_f64(args.seconds),
    };
    let mut first = prepare(untraced_states);
    let mut next = Instant::now();
    let mut tick = || {
        if Instant::now() >= next {
            let t0 = Instant::now();
            let state = setup();
            let took = t0.elapsed();
            drop(state);
            setup_s.push(took.as_secs_f64());
            next = Instant::now() + SETUP_EVERY.max(took * SETUP_SPACING);
        }
    };
    let probe = &mut Probe {
        ledger: None,
        setup: Some(&mut tick),
    };
    let untraced = measure(&mut first, window, probe);
    drop(first);
    if !args.trace {
        return Phases {
            setup_s,
            untraced,
            traced: None,
            sizes: Vec::new(),
        };
    }
    let mut second = prepare(traced_states);
    ledger.write_chrome_next(args.out.join(format!("{}.trace.json", args.workload)));
    au_telemetry::enable();
    let mut probe = Probe {
        ledger: Some(ledger),
        setup: None,
    };
    let traced = measure(&mut second, window, &mut probe);
    let mut ledger = probe.ledger.take().expect("traced probe");
    ledger.drain();
    au_telemetry::disable();
    Phases {
        setup_s,
        untraced,
        traced: Some((traced, ledger)),
        sizes: Vec::new(),
    }
}

/// Passes of the engine workloads' fixed TR work per measured phase, each
/// on an engine of its own set-up; `autonomize_s` is their median, so one
/// pass hit by outside interference moves it little.
fn passes(scale: Scale) -> usize {
    match scale {
        Scale::Full => 3,
        Scale::Smoke => 1,
    }
}

fn scale(args: &Args) -> Scale {
    if args.smoke {
        Scale::Smoke
    } else {
        Scale::Full
    }
}

fn run_workload(args: &Args) -> Phases {
    let scale = scale(args);
    let seed = args.seed;
    let keep = passes(scale);
    let (mut phases, sizes) = match args.workload.as_str() {
        "corpus_cycle" => (
            drive(
                args,
                1,
                || {
                    let programs = corpus::setup();
                    warm_pool();
                    programs
                },
                |mut states| corpus::Corpus::new(states.pop().expect("one set-up"), seed),
                |c, window, probe| corpus::measure(c, window, probe),
            ),
            vec![("programs", 9.0)],
        ),
        "sl_offline" => {
            let sizes = sl::Sizes::new(scale);
            let data = sl::Data::generate(seed, sizes.train_rows, sizes.heldout_rows);
            (
                drive(
                    args,
                    keep,
                    sl::setup,
                    |handles| handles,
                    |handles, window, probe| {
                        sl::measure(handles, &data, seed, sizes, window, probe)
                    },
                ),
                sizes.describe(),
            )
        }
        "rl_selfplay" => {
            let sizes = rl::Sizes::new(scale);
            (
                drive(
                    args,
                    keep,
                    || rl::setup(seed),
                    |handles| handles,
                    |handles, window, probe| rl::measure(handles, seed, sizes, window, probe),
                ),
                sizes.describe(),
            )
        }
        "serve_mixed" => {
            let sizes = serve::Sizes::new(scale);
            let data = sl::Data::generate(seed, sizes.train_rows, sizes.heldout_rows);
            (
                drive(
                    args,
                    keep,
                    serve::setup,
                    |handles| handles,
                    |handles, window, probe| {
                        serve::measure(handles, &data, seed, sizes, window, probe)
                    },
                ),
                sizes.describe(),
            )
        }
        other => unreachable!("parse_args rejects workload {other:?}"),
    };
    phases.sizes = sizes;
    phases
}

/// Peak resident set of this process (`VmHWM`), MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn run_metrics(p: &Phases) -> Vec<Metric> {
    let m = &p.untraced;
    let units = m.deploy_us.seen() as usize;
    let latency = summarize(m.deploy_us.values());
    let values = [
        (median(&p.setup_s), p.setup_s.len()),
        (median(&m.autonomize_s), m.autonomize_s.len()),
        (m.deploy_rate(), units),
        (latency.p50, units),
        (latency.tail, units),
        (peak_rss_mb(), 1),
    ];
    RUN_METRICS
        .iter()
        .zip(values)
        .map(|(&(name, unit), (value, n))| Metric::new(name, value, unit, n))
        .collect()
}

fn per_layer(p: &Phases) -> Vec<Metric> {
    let (m, ledger) = p.traced.as_ref().expect("traced run");
    let scale_of = |unit: &str| match unit {
        "ms" => 1e-6,
        "us" => 1e-3,
        _ => 1.0,
    };
    let sum_ns = |name: &str| ledger.span(name).map_or(0, layers::SpanAgg::total_ns) as f64;
    let autonomize_ns = m.autonomize_s.iter().sum::<f64>() * 1e9;
    let run = run_metrics(p);
    PER_LAYER
        .iter()
        .map(|&(name, unit, src)| {
            let k = scale_of(unit);
            let (value, n) = match src {
                Src::Span => ledger
                    .span(name)
                    .map_or((0.0, 0), |a| (a.median_ns() * k, a.durs_ns.len())),
                Src::SelfUnder(parent, child) => ledger
                    .edge(parent, child)
                    .map_or((0.0, 0), |a| (a.median_self_ns() * k, a.selfs_ns.len())),
                Src::Count => (m.count(name), 1),
                Src::Series => m
                    .series
                    .get(name)
                    .map_or((0.0, 0), |s| (median(s), s.len())),
                Src::HistMean(h) => {
                    let (count, sum) = ledger.hist(h);
                    (sum as f64 / count.max(1) as f64 * k, count as usize)
                }
                Src::HistTotal(h) => {
                    let (count, sum) = ledger.hist(h);
                    (sum as f64 * k, count as usize)
                }
                Src::Counter(c) => (ledger.counter(c) as f64, 1),
                Src::Run => run
                    .iter()
                    .find(|r| r.name == name)
                    .map(|r| (r.value, r.n))
                    .expect("a run-level metric"),
                Src::Derived => derived(name, p, m, ledger, autonomize_ns, &sum_ns),
            };
            Metric::new(name, value, unit, n)
        })
        .collect()
}

fn derived(
    name: &str,
    p: &Phases,
    m: &Measured,
    ledger: &Ledger,
    autonomize_ns: f64,
    sum_ns: &dyn Fn(&str) -> f64,
) -> (f64, usize) {
    let share = |part: f64| {
        if autonomize_ns > 0.0 {
            part / autonomize_ns
        } else {
            0.0
        }
    };
    match name {
        "au_trace.prune_ratio" => {
            let considered = m.count("bench.prune_considered");
            let ratio = if considered > 0.0 {
                m.count("bench.prune_pruned") / considered
            } else {
                0.0
            };
            (ratio, 1)
        }
        "bench.dropped_spans" => (ledger.dropped() as f64, 1),
        "bench.trace_overhead_autonomize" => (
            median(&m.autonomize_s) / median(&p.untraced.autonomize_s),
            m.autonomize_s.len(),
        ),
        "bench.trace_overhead_deploy_rate" => (
            m.deploy_rate() / p.untraced.deploy_rate(),
            m.deploy_us.seen() as usize,
        ),
        "bench.vm_share" => (share(sum_ns("au_lang.vm_tr_run_ms")), 1),
        "bench.train_share" => (
            share(sum_ns("au_core.train_epoch_ms.raw") + sum_ns("au_core.train_epoch_ms.min")),
            1,
        ),
        "bench.fail_frac" => {
            let (a, f) = totals(p);
            (f as f64 / a.max(1) as f64, a as usize)
        }
        "quality.sl_heldout_mae" | "quality.rl_progress" => {
            let key = name.trim_start_matches("quality.");
            (m.quality.get(key).copied().unwrap_or(0.0), 1)
        }
        other => unreachable!("no derivation for {other}"),
    }
}

/// Attempted and failed operations over every measured phase.
fn totals(p: &Phases) -> (u64, u64) {
    let mut a = p.untraced.attempted;
    let mut f = p.untraced.failed;
    if let Some((m, _)) = &p.traced {
        a += m.attempted;
        f += m.failed;
    }
    (a, f)
}

/// The run's fingerprint and configuration, as JSON object fields.
fn fingerprint_json(args: &Args, threads: usize, p: &Phases) -> String {
    let fp = au_bench::history::Fingerprint::current();
    // `git` looks for a repository in parent directories too; only ask it
    // from the root of a checkout, so the benchmark reads nothing outside.
    let commit = if Path::new(".git").exists() {
        au_bench::history::current_commit()
    } else {
        "unknown".to_owned()
    };
    let mut out = String::new();
    out.push_str("\"commit\":");
    push_json_str(&mut out, &commit);
    let _ = write!(out, ",\"nproc\":{},\"cpu_model\":", fp.cpus);
    push_json_str(&mut out, &fp.cpu_model);
    out.push_str(",\"os\":");
    push_json_str(&mut out, &fp.os);
    out.push_str(",\"arch\":");
    push_json_str(&mut out, &fp.arch);
    out.push_str(",\"au_par_threads_env\":");
    match std::env::var("AU_PAR_THREADS") {
        Ok(v) => push_json_str(&mut out, &v),
        Err(_) => out.push_str("null"),
    }
    let _ = write!(
        out,
        ",\"thread_override\":{threads},\"pool_workers\":{},\"seed\":{},\"nn_seed\":{},\
         \"seconds\":{},\"trace\":{},\"smoke\":{},\"sizes\":{{",
        au_par::pool_worker_count(),
        args.seed,
        nn_seed(args.seed),
        args.seconds,
        args.trace,
        args.smoke
    );
    for (i, (k, v)) in p.sizes.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_json_str(&mut out, k);
        out.push(':');
        push_json_num(&mut out, *v);
    }
    out.push('}');
    out
}

/// The NN init seed the engine-level workloads pin from the workload
/// seed (the corpus uses each program's own `nn_seed ^ seed`).
pub fn nn_seed(seed: u64) -> u64 {
    seed ^ 0x5eed_0e2e
}

fn run_one(args: &Args) -> bool {
    au_telemetry::disable();
    let threads = pin_threads();
    let phases = run_workload(args);
    let (attempted, failed) = totals(&phases);
    let mut failures: Vec<String> = phases.untraced.failures.clone();
    let mut layers_json = None;
    let metrics = match &phases.traced {
        None => run_metrics(&phases),
        Some((traced, ledger)) => {
            failures.extend(traced.failures.iter().cloned());
            if ledger.dropped() > 0 {
                failures.push(format!(
                    "the recorder dropped {} spans at its cap",
                    ledger.dropped()
                ));
            }
            if let Some(e) = ledger.chrome_error() {
                eprintln!("bench-e2e: chrome trace not written: {e}");
            }
            let metrics = per_layer(&phases);
            layers_json = Some(layers_file(args, &phases, &metrics, ledger));
            metrics
        }
    };
    let correct = failed == 0 && failures.is_empty();
    for m in &metrics {
        println!("{} {} {} (n={})", m.name, m.value, m.unit, m.n);
    }
    let tail_p = summarize(phases.untraced.deploy_us.values()).tail_p;
    if phases.traced.is_some() {
        let get = |n: &str| {
            metrics
                .iter()
                .find(|m| m.name == n)
                .map_or(0.0, |m| m.value)
        };
        println!(
            "tracing overhead: autonomize_s x{:.3}, deploy_rate x{:.3} (traced / untraced)",
            get("bench.trace_overhead_autonomize"),
            get("bench.trace_overhead_deploy_rate")
        );
    } else if tail_p != 99.0 {
        println!("note: deploy_p99_us is p{tail_p:.2}, the highest percentile the sample supports");
    }
    for f in &failures {
        println!("FAILED: {f}");
    }

    let mut detail = String::from("{\"workload\":");
    push_json_str(&mut detail, &args.workload);
    detail.push(',');
    detail.push_str(&fingerprint_json(args, threads, &phases));
    detail.push_str(",\"autonomize_passes_s\":[");
    for (i, s) in phases.untraced.autonomize_s.iter().enumerate() {
        if i > 0 {
            detail.push(',');
        }
        push_json_num(&mut detail, *s);
    }
    detail.push_str("],\"quality\":{");
    for (i, (name, v)) in phases.untraced.quality.iter().enumerate() {
        if i > 0 {
            detail.push(',');
        }
        push_json_str(&mut detail, name);
        detail.push(':');
        push_json_num(&mut detail, *v);
    }
    let _ = write!(
        detail,
        "}},\"deploy_tail_p\":{tail_p},\"correct\":{correct},\"attempted\":{attempted},\
         \"failed\":{failed},\"metrics\":{}}}",
        metrics_json(&metrics, true)
    );
    println!("{detail}");
    write_file(
        &args.out.join(format!("{}.result.json", args.workload)),
        &detail,
    );
    if let Some(json) = layers_json {
        write_file(
            &args.out.join(format!("{}.layers.json", args.workload)),
            &json,
        );
    }
    // The result line: the end-to-end metrics, or with tracing every
    // per-layer one.
    let reported: Vec<Metric> = metrics
        .into_iter()
        .filter(|m| phases.traced.is_some() || END_TO_END.contains(&m.name.as_str()))
        .collect();
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{failed},\"metrics\":{}}}",
        attempted.max(1),
        metrics_json(&reported, false)
    );
    correct
}

/// The traced run's layers file: the per-layer metrics, every span and
/// edge aggregate, crate counters and histograms, and recorded series.
fn layers_file(args: &Args, p: &Phases, metrics: &[Metric], ledger: &Ledger) -> String {
    let (m, _) = p.traced.as_ref().expect("traced run");
    let mut out = String::from("{\"workload\":");
    push_json_str(&mut out, &args.workload);
    let _ = write!(
        out,
        ",\"seed\":{},\"metrics\":{},\"series\":{{",
        args.seed,
        metrics_json(metrics, true)
    );
    for (i, (name, s)) in m.series.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_json_str(&mut out, name);
        out.push_str(":[");
        for (j, v) in s.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            push_json_num(&mut out, *v);
        }
        out.push(']');
    }
    out.push_str("},\"counts\":{");
    for (i, name) in m.counts.keys().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_json_str(&mut out, name);
        out.push(':');
        push_json_num(&mut out, m.count(name));
    }
    out.push_str("},");
    out.push_str(&ledger.to_json_fields());
    out.push('}');
    out
}

fn write_file(path: &Path, contents: &str) {
    if let Err(e) = std::fs::write(path, contents) {
        eprintln!("bench-e2e: cannot write {}: {e}", path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use au_telemetry::SpanRecord;

    fn smoke_args(workload: &str, trace: bool) -> Args {
        Args {
            workload: workload.to_owned(),
            seed: 7,
            seconds: 1.0,
            trace,
            smoke: true,
            out: std::env::temp_dir().join(format!("bench-e2e-test-{}", std::process::id())),
        }
    }

    /// Every workload passes its correctness gate at smoke size, untraced
    /// and traced, and the traced run reports every per-layer metric with
    /// no span lost. One test, because the workloads pin process-global
    /// state (NN init seed, thread budget, the telemetry recorder).
    #[test]
    fn smoke_run_passes_the_correctness_gate() {
        pin_threads();
        for wl in WORKLOADS {
            for trace in [false, true] {
                let args = smoke_args(wl, trace);
                std::fs::create_dir_all(&args.out).unwrap();
                let p = run_workload(&args);
                let (attempted, failed) = totals(&p);
                let mut failures = p.untraced.failures.clone();
                if let Some((m, _)) = &p.traced {
                    failures.extend(m.failures.iter().cloned());
                }
                assert!(attempted > 0, "[{wl}] attempted nothing");
                assert_eq!(failed, 0, "[{wl} trace={trace}] {failures:#?}");
                if trace {
                    let metrics = per_layer(&p);
                    assert_eq!(metrics.len(), PER_LAYER.len());
                    let get = |n: &str| metrics.iter().find(|m| m.name == n).unwrap().value;
                    assert_eq!(get("bench.dropped_spans"), 0.0, "[{wl}]");
                    assert!(get("bench.trace_overhead_autonomize") > 0.0, "[{wl}]");
                } else {
                    let metrics = run_metrics(&p);
                    for m in metrics {
                        assert!(m.value > 0.0, "[{wl}] {} reads {}", m.name, m.value);
                    }
                }
                std::fs::remove_dir_all(&args.out).ok();
            }
        }
    }

    #[test]
    fn tail_percentile_leaves_ten_samples_beyond() {
        let ten: Vec<f64> = (0..10).map(f64::from).collect();
        assert_eq!(summarize(&ten).tail_p, 0.0, "ten samples support no tail");
        for n in 11..3000 {
            let values: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let s = summarize(&values);
            let p = s.tail_p;
            assert_eq!(p == 99.0, n >= 1000, "n={n} p={p}");
            let beyond = values.iter().filter(|&&v| v > s.tail).count();
            assert!(beyond >= 10, "n={n}: only {beyond} beyond p{p}");
            if n < 1000 {
                assert_eq!(beyond, 10, "n={n}: p{p} is not the highest supported");
            }
        }
    }

    #[test]
    fn generators_repeat_per_seed_and_differ_across_seeds() {
        let a = sl::Data::generate(5, 4, 4);
        assert_eq!(a, sl::Data::generate(5, 4, 4));
        assert_ne!(a, sl::Data::generate(6, 4, 4));

        use au_games::Game;
        let frames = |seed| {
            let (f, m) = rl::games(seed);
            (
                f.render(12, 12),
                m.render(12, 12),
                f.features(),
                m.features(),
            )
        };
        assert_eq!(frames(5), frames(5));
        assert_ne!(frames(5), frames(6));

        let stream = |seed| {
            let mut r = serve::Requests::new(seed, 0);
            (0..256).map(|_| r.next(100)).collect::<Vec<_>>()
        };
        assert_eq!(stream(5), stream(5));
        assert_ne!(stream(5), stream(6));
        let pi = stream(5).iter().filter(|(_, via_pi)| *via_pi).count();
        assert!((10..45).contains(&pi), "π share off: {pi}/256");
    }

    #[test]
    fn metric_names_are_well_formed_and_match_benchmark_json() {
        let json = include_str!("../../../../../BENCHMARK.json");
        let unit = |n: &str| RUN_METRICS.iter().find(|(m, _)| *m == n).unwrap().1;
        let names = END_TO_END
            .iter()
            .map(|n| (*n, unit(n)))
            .chain(PER_LAYER.iter().map(|(n, u, _)| (*n, *u)));
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in names {
            assert!(
                !name.is_empty()
                    && name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-')),
                "bad metric name {name:?}"
            );
            assert!(seen.insert(name), "duplicate metric {name}");
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for wl in WORKLOADS {
            assert!(json.contains(&format!("\"name\": \"{wl}\"")), "{wl}");
        }
    }

    fn rec(id: u64, parent: u64, start: u64, dur: u64) -> SpanRecord {
        SpanRecord {
            name: format!("s{id}"),
            args: Vec::new(),
            start_ns: start,
            dur_ns: dur,
            tid: 1,
            depth: 0,
            trace_id: 1,
            span_id: id,
            parent_id: parent,
        }
    }

    #[test]
    fn self_times_sum_to_the_root_inclusive_time() {
        // root [0,100): a [10,40) with a1 [15,25) and a2 [25,35); b [50,90)
        // with b1 [50,60); c [90,100) touching the root's end.
        let spans = vec![
            rec(3, 2, 15, 10),
            rec(4, 2, 25, 10),
            rec(2, 1, 10, 30),
            rec(6, 5, 50, 10),
            rec(5, 1, 50, 40),
            rec(7, 1, 90, 10),
            rec(1, 0, 0, 100),
        ];
        let selfs = layers::self_times(&spans);
        assert_eq!(selfs, vec![10, 10, 10, 10, 30, 10, 20]);
        assert_eq!(selfs.iter().sum::<u64>(), 100);
    }

    #[test]
    fn reservoir_bounds_memory_and_merges_in_proportion() {
        let mut a = Reservoir::default();
        for i in 0..10 {
            a.push(f64::from(i));
        }
        assert_eq!(a.values().len(), 10, "under the cap every value is kept");
        let mut big = Reservoir::default();
        for _ in 0..3 * Reservoir::CAP {
            big.push(1.0);
        }
        let mut small = Reservoir::default();
        for _ in 0..Reservoir::CAP {
            small.push(2.0);
        }
        assert_eq!(big.values().len(), Reservoir::CAP);
        big.merge(small);
        assert_eq!(big.seen(), 4 * Reservoir::CAP as u64);
        assert_eq!(big.values().len(), Reservoir::CAP);
        let twos = big.values().iter().filter(|&&v| v == 2.0).count();
        assert_eq!(twos, Reservoir::CAP / 4);
    }
}
