//! Structured tracing, metrics, and profiling hooks for the Autonomizer
//! runtime.
//!
//! The crate provides three instrument families behind one [`Recorder`]:
//!
//! - **Spans** — scoped timings with key/value arguments, recorded on drop
//!   ([`span!`], [`Recorder::span_with`]). Every span carries a causal
//!   identity: a [`TraceId`] naming the request tree it belongs to, its own
//!   [`SpanId`], and the `SpanId` of its parent (0 for roots). Parents
//!   are tracked per thread, so an exported trace shows one causal tree
//!   per request instead of a flat span list; a span opened on another
//!   thread roots a trace of its own. Nesting depth is tracked per thread
//!   too, so exports reconstruct the call tree.
//! - **Metrics** — saturating monotonic counters, last-write-wins gauges,
//!   and fixed log₂-bucket latency histograms ([`count!`], [`time!`]).
//! - **Events** — leveled log records ([`Recorder::event`]) that echo to
//!   stderr according to a verbosity threshold and are captured in the
//!   recorder when it is enabled.
//!
//! Exporters: a human-readable [`Recorder::summary`], a JSONL event log
//! ([`Recorder::write_jsonl`]), and Chrome `trace_event` JSON
//! ([`Recorder::write_chrome_trace`]) loadable in Perfetto / `chrome://tracing`.
//!
//! The global recorder starts **disabled**; every macro first checks one
//! relaxed atomic load ([`enabled`]) so the off path costs a test-and-branch
//! and never allocates. Instrumented callsites cache their counter/histogram
//! handles in a `OnceLock`, so the on path is lock-free after first touch.

#![forbid(unsafe_code)]

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Number of log₂ histogram buckets; bucket `i ≥ 1` covers `[2^(i-1), 2^i)`
/// nanoseconds and bucket 0 holds exact zeros.
pub const BUCKETS: usize = 64;

/// Retained span/event records are capped so a runaway loop cannot exhaust
/// memory; drops beyond the cap are counted and reported in the summary.
pub const MAX_RECORDS: usize = 262_144;

// ---------------------------------------------------------------------
// Levels
// ---------------------------------------------------------------------

/// Event severity, ordered from most to least severe.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Level {
    Error = 0,
    Warn = 1,
    Info = 2,
    Debug = 3,
    Trace = 4,
}

impl Level {
    fn from_u8(v: u8) -> Level {
        match v {
            0 => Level::Error,
            1 => Level::Warn,
            2 => Level::Info,
            3 => Level::Debug,
            _ => Level::Trace,
        }
    }

    /// Lower-case name used in exports.
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
            Level::Trace => "trace",
        }
    }
}

// ---------------------------------------------------------------------
// Metric cells
// ---------------------------------------------------------------------

/// A saturating monotonic counter handle; cheap to clone and lock-free to
/// update. Saturates at `u64::MAX` instead of wrapping so long-running
/// processes never report a small value after overflow.
#[derive(Clone)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl Counter {
    /// Adds `n`, saturating at `u64::MAX`.
    pub fn add(&self, n: u64) {
        let mut cur = self.cell.load(Ordering::Relaxed);
        loop {
            let next = cur.saturating_add(n);
            match self
                .cell
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// A last-write-wins `f64` gauge handle (bits stored in an atomic u64).
#[derive(Clone)]
pub struct Gauge {
    cell: Arc<AtomicU64>,
}

impl Gauge {
    /// Replaces the gauge value.
    pub fn set(&self, v: f64) {
        self.cell.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.cell.load(Ordering::Relaxed))
    }
}

struct HistCell {
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
    buckets: [AtomicU64; BUCKETS],
}

impl HistCell {
    fn new() -> Self {
        HistCell {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    fn record(&self, v: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
    }

    fn reset(&self) {
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.min.store(u64::MAX, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
    }
}

/// Maps a nanosecond value to its log₂ bucket: 0 stays in bucket 0, any
/// other `v` lands in bucket `floor(log2(v)) + 1`, clamped to [`BUCKETS`]` - 1`.
pub fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        ((64 - v.leading_zeros()) as usize).min(BUCKETS - 1)
    }
}

/// Inclusive upper bound of a bucket, used when estimating percentiles.
pub fn bucket_upper_bound(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= BUCKETS - 1 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

/// A latency-histogram handle; records nanosecond durations lock-free.
#[derive(Clone)]
pub struct Histogram {
    cell: Arc<HistCell>,
}

impl Histogram {
    /// Records one duration, in nanoseconds.
    pub fn record(&self, nanos: u64) {
        self.cell.record(nanos);
    }

    /// Starts a timer that records into this histogram when dropped.
    pub fn start_timer(&self) -> Timer {
        Timer {
            hist: self.clone(),
            start: Instant::now(),
        }
    }

    /// Consistent-enough snapshot of the current contents.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.cell.count.load(Ordering::Relaxed),
            sum: self.cell.sum.load(Ordering::Relaxed),
            min: self.cell.min.load(Ordering::Relaxed),
            max: self.cell.max.load(Ordering::Relaxed),
            buckets: std::array::from_fn(|i| self.cell.buckets[i].load(Ordering::Relaxed)),
        }
    }
}

/// Point-in-time view of a histogram.
#[derive(Clone)]
pub struct HistogramSnapshot {
    pub count: u64,
    /// Sum of all recorded nanoseconds.
    pub sum: u64,
    pub min: u64,
    pub max: u64,
    pub buckets: [u64; BUCKETS],
}

impl HistogramSnapshot {
    /// Mean recorded value, or 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Upper-bound estimate of the `p`-th percentile (`p` in `[0, 100]`),
    /// resolved to bucket granularity.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_upper_bound(i).min(self.max);
            }
        }
        self.max
    }
}

/// Drop guard recording elapsed wall time into a histogram.
pub struct Timer {
    hist: Histogram,
    start: Instant,
}

impl Drop for Timer {
    fn drop(&mut self) {
        self.hist.record(self.start.elapsed().as_nanos() as u64);
    }
}

// ---------------------------------------------------------------------
// Spans & events
// ---------------------------------------------------------------------

static NEXT_TID: AtomicU64 = AtomicU64::new(1);
/// Process-wide span/trace id wells. Ids start at 1 so 0 can mean "none".
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_TRACE_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static SPAN_DEPTH: std::cell::Cell<u32> = const { std::cell::Cell::new(0) };
    static THREAD_ID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
    /// The calling thread's current `(trace_id, span_id)`; `(0, 0)` when no
    /// span is open.
    static CONTEXT: std::cell::Cell<(u64, u64)> = const { std::cell::Cell::new((0, 0)) };
}

fn thread_id() -> u64 {
    THREAD_ID.with(|t| *t)
}

/// Identity of one causal tree of spans (usually: one request). Allocated
/// when a root span opens and inherited by every descendant.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TraceId(pub u64);

/// Identity of a single span within a trace; unique process-wide.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SpanId(pub u64);

/// One completed span, as stored by the recorder.
#[derive(Clone, Debug)]
pub struct SpanRecord {
    pub name: String,
    pub args: Vec<(String, String)>,
    /// Start offset from the recorder epoch, in nanoseconds.
    pub start_ns: u64,
    pub dur_ns: u64,
    pub tid: u64,
    /// Nesting depth at entry (0 = top level).
    pub depth: u32,
    /// Causal tree this span belongs to (one per root request).
    pub trace_id: u64,
    /// This span's process-wide unique id.
    pub span_id: u64,
    /// `span_id` of the parent span; 0 for trace roots.
    pub parent_id: u64,
}

/// One captured log event.
#[derive(Clone, Debug)]
pub struct EventRecord {
    pub level: Level,
    /// Offset from the recorder epoch, in nanoseconds.
    pub ts_ns: u64,
    pub target: String,
    pub message: String,
    /// Whether this event is a monitoring alert ([`Recorder::alert`]);
    /// alerts export as `"kind":"alert"` and are counted separately.
    pub alert: bool,
}

/// Live span; records itself into the recorder when dropped.
pub struct SpanGuard<'a> {
    rec: &'a Recorder,
    name: &'static str,
    args: Vec<(String, String)>,
    start_ns: u64,
    start: Instant,
    depth: u32,
    trace_id: u64,
    span_id: u64,
    parent_id: u64,
    /// The thread context to restore when this span closes.
    prev_context: (u64, u64),
}

impl SpanGuard<'_> {
    /// The causal tree this span belongs to.
    pub fn trace_id(&self) -> TraceId {
        TraceId(self.trace_id)
    }

    /// This span's process-wide unique id.
    pub fn span_id(&self) -> SpanId {
        SpanId(self.span_id)
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        SPAN_DEPTH.with(|d| d.set(d.get().saturating_sub(1)));
        CONTEXT.with(|c| c.set(self.prev_context));
        self.rec.finish_span(SpanRecord {
            name: self.name.to_string(),
            args: std::mem::take(&mut self.args),
            start_ns: self.start_ns,
            dur_ns: self.start.elapsed().as_nanos() as u64,
            tid: thread_id(),
            depth: self.depth,
            trace_id: self.trace_id,
            span_id: self.span_id,
            parent_id: self.parent_id,
        });
    }
}

// ---------------------------------------------------------------------
// Recorder
// ---------------------------------------------------------------------

#[derive(Default)]
struct Registry {
    counters: BTreeMap<String, Counter>,
    gauges: BTreeMap<String, Gauge>,
    histograms: BTreeMap<String, Histogram>,
}

/// The telemetry sink: metric registry plus span/event buffers.
///
/// Use [`global`] (plus the free-function wrappers and macros) for normal
/// instrumentation; construct instances directly in tests.
pub struct Recorder {
    enabled: AtomicBool,
    verbosity: AtomicU8,
    epoch: Instant,
    registry: Mutex<Registry>,
    spans: Mutex<Vec<SpanRecord>>,
    events: Mutex<Vec<EventRecord>>,
    dropped: AtomicU64,
    alerts: AtomicU64,
    /// Bumped by every [`Recorder::reset`] so incremental readers (the
    /// scope server's SSE poller) can detect that their saved offsets
    /// belong to a previous epoch and must restart from zero.
    reset_epoch: AtomicU64,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    /// Creates a disabled recorder with default (`Info`) verbosity.
    pub fn new() -> Self {
        Recorder {
            enabled: AtomicBool::new(false),
            verbosity: AtomicU8::new(Level::Info as u8),
            epoch: Instant::now(),
            registry: Mutex::new(Registry::default()),
            spans: Mutex::new(Vec::new()),
            events: Mutex::new(Vec::new()),
            dropped: AtomicU64::new(0),
            alerts: AtomicU64::new(0),
            reset_epoch: AtomicU64::new(0),
        }
    }

    /// Starts recording.
    pub fn enable(&self) {
        self.enabled.store(true, Ordering::Relaxed);
    }

    /// Stops recording; existing data is kept.
    pub fn disable(&self) {
        self.enabled.store(false, Ordering::Relaxed);
    }

    /// Whether the recorder currently accepts data.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Sets the stderr echo threshold for [`Recorder::event`].
    pub fn set_verbosity(&self, level: Level) {
        self.verbosity.store(level as u8, Ordering::Relaxed);
    }

    /// Current stderr echo threshold.
    pub fn verbosity(&self) -> Level {
        Level::from_u8(self.verbosity.load(Ordering::Relaxed))
    }

    /// Zeroes every metric and clears span/event buffers. Existing handles
    /// stay valid (cells are zeroed in place, not replaced).
    ///
    /// The reset is *epoch-consistent*: counters, gauges, histograms,
    /// spans, events, the drop count, and the alert count all clear in one
    /// call, and [`Recorder::reset_epoch`] is bumped last so a scraper that
    /// snapshots the epoch before and after a read can tell whether the
    /// data it saw mixes epochs.
    pub fn reset(&self) {
        let reg = self.registry.lock().unwrap();
        for c in reg.counters.values() {
            c.cell.store(0, Ordering::Relaxed);
        }
        for g in reg.gauges.values() {
            g.cell.store(0f64.to_bits(), Ordering::Relaxed);
        }
        for h in reg.histograms.values() {
            h.cell.reset();
        }
        drop(reg);
        self.spans.lock().unwrap().clear();
        self.events.lock().unwrap().clear();
        self.dropped.store(0, Ordering::Relaxed);
        self.alerts.store(0, Ordering::Relaxed);
        self.reset_epoch.fetch_add(1, Ordering::Release);
    }

    /// Number of times [`Recorder::reset`] has run. Incremental readers
    /// compare epochs across reads and restart their offsets when the
    /// value changed, so a scrape never silently mixes data from two
    /// epochs.
    pub fn reset_epoch(&self) -> u64 {
        self.reset_epoch.load(Ordering::Acquire)
    }

    fn nanos_since_epoch(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Returns (registering if needed) the counter handle for `name`.
    pub fn counter(&self, name: &str) -> Counter {
        let mut reg = self.registry.lock().unwrap();
        reg.counters
            .entry(name.to_string())
            .or_insert_with(|| Counter {
                cell: Arc::new(AtomicU64::new(0)),
            })
            .clone()
    }

    /// Current value of a counter; 0 when never touched.
    pub fn counter_value(&self, name: &str) -> u64 {
        self.registry
            .lock()
            .unwrap()
            .counters
            .get(name)
            .map_or(0, Counter::get)
    }

    /// Returns (registering if needed) the gauge handle for `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut reg = self.registry.lock().unwrap();
        reg.gauges
            .entry(name.to_string())
            .or_insert_with(|| Gauge {
                cell: Arc::new(AtomicU64::new(0f64.to_bits())),
            })
            .clone()
    }

    /// Returns (registering if needed) the histogram handle for `name`.
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut reg = self.registry.lock().unwrap();
        reg.histograms
            .entry(name.to_string())
            .or_insert_with(|| Histogram {
                cell: Arc::new(HistCell::new()),
            })
            .clone()
    }

    /// Snapshot of a histogram; `None` when never touched.
    pub fn histogram_snapshot(&self, name: &str) -> Option<HistogramSnapshot> {
        self.registry
            .lock()
            .unwrap()
            .histograms
            .get(name)
            .map(Histogram::snapshot)
    }

    /// Opens a span when enabled; the guard records it on drop.
    pub fn span(&self, name: &'static str) -> Option<SpanGuard<'_>> {
        self.span_with(name, &[])
    }

    /// Opens a span with key/value arguments when enabled.
    pub fn span_with(&self, name: &'static str, args: &[(&str, String)]) -> Option<SpanGuard<'_>> {
        if !self.is_enabled() {
            return None;
        }
        let depth = SPAN_DEPTH.with(|d| {
            let v = d.get();
            d.set(v + 1);
            v
        });
        // Causal identity: inherit the thread's current (trace, span) as
        // (trace, parent); a span opened with no active context roots a
        // fresh trace. The new span becomes the thread's context until it
        // drops.
        let (cur_trace, parent_id) = CONTEXT.with(std::cell::Cell::get);
        let trace_id = if cur_trace == 0 {
            NEXT_TRACE_ID.fetch_add(1, Ordering::Relaxed)
        } else {
            cur_trace
        };
        let span_id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
        let prev_context = CONTEXT.with(|c| {
            let prev = c.get();
            c.set((trace_id, span_id));
            prev
        });
        Some(SpanGuard {
            rec: self,
            name,
            args: args
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect(),
            start_ns: self.nanos_since_epoch(),
            start: Instant::now(),
            depth,
            trace_id,
            span_id,
            parent_id,
            prev_context,
        })
    }

    fn finish_span(&self, record: SpanRecord) {
        let mut spans = self.spans.lock().unwrap();
        if spans.len() < MAX_RECORDS {
            spans.push(record);
        } else {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records a log event. The event echoes to stderr whenever `level` is
    /// at or above the verbosity threshold (even with recording disabled),
    /// and is captured in the buffer when the recorder is enabled.
    pub fn event(&self, level: Level, target: &str, message: &str) {
        self.record_event(level, target, message, false);
    }

    /// Records a monitoring **alert**: a leveled event flagged for operator
    /// attention. Alerts always echo to stderr (an operator must see a
    /// degraded model regardless of verbosity), are counted separately
    /// ([`Recorder::alert_count`]), and export as `"kind":"alert"` in JSONL.
    pub fn alert(&self, level: Level, target: &str, message: &str) {
        self.alerts.fetch_add(1, Ordering::Relaxed);
        self.record_event(level, target, message, true);
    }

    fn record_event(&self, level: Level, target: &str, message: &str, alert: bool) {
        if alert {
            eprintln!("[ALERT {}] {}: {}", level.as_str(), target, message);
        } else if level <= self.verbosity() {
            eprintln!("[{}] {}: {}", level.as_str(), target, message);
        }
        if self.is_enabled() {
            let mut events = self.events.lock().unwrap();
            if events.len() < MAX_RECORDS {
                let ts_ns = self.nanos_since_epoch();
                events.push(EventRecord {
                    level,
                    ts_ns,
                    target: target.to_string(),
                    message: message.to_string(),
                    alert,
                });
            } else {
                self.dropped.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Alerts raised so far (counted even when recording is disabled).
    pub fn alert_count(&self) -> u64 {
        self.alerts.load(Ordering::Relaxed)
    }

    /// Number of completed spans, without cloning them — lets incremental
    /// readers seed their offsets cheaply.
    pub fn span_count(&self) -> usize {
        self.spans.lock().unwrap().len()
    }

    /// Number of captured events (see [`Recorder::span_count`]).
    pub fn event_count(&self) -> usize {
        self.events.lock().unwrap().len()
    }

    /// All completed spans, in completion order.
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.spans.lock().unwrap().clone()
    }

    /// All captured events, in order.
    pub fn events(&self) -> Vec<EventRecord> {
        self.events.lock().unwrap().clone()
    }

    /// Spans completed since index `from` (in completion order), for
    /// incremental readers. Pair with [`Recorder::reset_epoch`]: after a
    /// reset, restart from 0.
    pub fn spans_since(&self, from: usize) -> Vec<SpanRecord> {
        let spans = self.spans.lock().unwrap();
        spans
            .get(from..)
            .map(<[SpanRecord]>::to_vec)
            .unwrap_or_default()
    }

    /// Zero-copy variant of [`Recorder::spans_since`]: runs `f` over the
    /// spans recorded since index `from` while the span buffer is locked,
    /// so incremental consumers (the au-prof profiler) can fold a burst of
    /// records without cloning the backlog first. Keep `f` short — the
    /// hot path blocks on the same lock while it runs.
    pub fn tap_spans_since<R>(&self, from: usize, f: impl FnOnce(&[SpanRecord]) -> R) -> R {
        let spans = self.spans.lock().unwrap();
        f(spans.get(from..).unwrap_or(&[]))
    }

    /// Events captured since index `from`, for incremental readers.
    pub fn events_since(&self, from: usize) -> Vec<EventRecord> {
        let events = self.events.lock().unwrap();
        events
            .get(from..)
            .map(<[EventRecord]>::to_vec)
            .unwrap_or_default()
    }

    /// Snapshot of every registered counter, in name order.
    pub fn counters(&self) -> Vec<(String, u64)> {
        self.registry
            .lock()
            .unwrap()
            .counters
            .iter()
            .map(|(name, c)| (name.clone(), c.get()))
            .collect()
    }

    /// Snapshot of every registered gauge, in name order.
    pub fn gauges(&self) -> Vec<(String, f64)> {
        self.registry
            .lock()
            .unwrap()
            .gauges
            .iter()
            .map(|(name, g)| (name.clone(), g.get()))
            .collect()
    }

    /// Snapshot of every registered histogram, in name order.
    pub fn histograms(&self) -> Vec<(String, HistogramSnapshot)> {
        self.registry
            .lock()
            .unwrap()
            .histograms
            .iter()
            .map(|(name, h)| (name.clone(), h.snapshot()))
            .collect()
    }

    /// Records dropped after the [`MAX_RECORDS`] cap was hit.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    // -----------------------------------------------------------------
    // Exporters
    // -----------------------------------------------------------------

    /// Human-readable report of every counter, gauge, and histogram plus
    /// span totals, suitable for printing at the end of a run.
    pub fn summary(&self) -> String {
        let reg = self.registry.lock().unwrap();
        let mut out = String::new();
        out.push_str("== telemetry summary ==\n");
        if !reg.counters.is_empty() {
            out.push_str("counters:\n");
            for (name, c) in &reg.counters {
                out.push_str(&format!("  {:<40} {}\n", name, c.get()));
            }
        }
        if !reg.gauges.is_empty() {
            out.push_str("gauges:\n");
            for (name, g) in &reg.gauges {
                out.push_str(&format!("  {:<40} {}\n", name, g.get()));
            }
        }
        if !reg.histograms.is_empty() {
            out.push_str("histograms (latency, ns):\n");
            for (name, h) in &reg.histograms {
                let s = h.snapshot();
                if s.count == 0 {
                    out.push_str(&format!("  {:<40} (empty)\n", name));
                } else {
                    out.push_str(&format!(
                        "  {:<40} n={} mean={:.0} p50<={} p99<={} min={} max={}\n",
                        name,
                        s.count,
                        s.mean(),
                        s.percentile(50.0),
                        s.percentile(99.0),
                        s.min,
                        s.max
                    ));
                }
            }
        }
        drop(reg);
        let spans = self.spans.lock().unwrap();
        let events = self.events.lock().unwrap();
        out.push_str(&format!(
            "spans: {}   events: {}   alerts: {}   dropped: {}\n",
            spans.len(),
            events.len(),
            self.alert_count(),
            self.dropped()
        ));
        out
    }

    /// Writes one JSON object per line: metric snapshots first, then spans
    /// and events in time order.
    pub fn write_jsonl<W: Write>(&self, w: &mut W) -> io::Result<()> {
        let reg = self.registry.lock().unwrap();
        for (name, c) in &reg.counters {
            writeln!(
                w,
                "{{\"kind\":\"counter\",\"name\":{},\"value\":{}}}",
                json_str(name),
                c.get()
            )?;
        }
        for (name, g) in &reg.gauges {
            writeln!(
                w,
                "{{\"kind\":\"gauge\",\"name\":{},\"value\":{}}}",
                json_str(name),
                json_f64(g.get())
            )?;
        }
        for (name, h) in &reg.histograms {
            let s = h.snapshot();
            let buckets: Vec<String> = s
                .buckets
                .iter()
                .enumerate()
                .filter(|(_, &n)| n > 0)
                .map(|(i, &n)| format!("[{},{}]", i, n))
                .collect();
            writeln!(
                w,
                "{{\"kind\":\"histogram\",\"name\":{},\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"buckets\":[{}]}}",
                json_str(name),
                s.count,
                s.sum,
                if s.count == 0 { 0 } else { s.min },
                s.max,
                buckets.join(",")
            )?;
        }
        drop(reg);
        for s in self.spans.lock().unwrap().iter() {
            let args: Vec<String> = s
                .args
                .iter()
                .map(|(k, v)| format!("{}:{}", json_str(k), json_str(v)))
                .collect();
            writeln!(
                w,
                "{{\"kind\":\"span\",\"name\":{},\"start_ns\":{},\"dur_ns\":{},\"tid\":{},\"depth\":{},\"trace\":{},\"span\":{},\"parent\":{},\"args\":{{{}}}}}",
                json_str(&s.name),
                s.start_ns,
                s.dur_ns,
                s.tid,
                s.depth,
                s.trace_id,
                s.span_id,
                s.parent_id,
                args.join(",")
            )?;
        }
        for e in self.events.lock().unwrap().iter() {
            writeln!(
                w,
                "{{\"kind\":{},\"level\":{},\"ts_ns\":{},\"target\":{},\"message\":{}}}",
                if e.alert { "\"alert\"" } else { "\"event\"" },
                json_str(e.level.as_str()),
                e.ts_ns,
                json_str(&e.target),
                json_str(&e.message)
            )?;
        }
        Ok(())
    }

    /// Writes Chrome `trace_event` JSON (the `{"traceEvents": [...]}` form)
    /// loadable in Perfetto or `chrome://tracing`. Spans become complete
    /// (`"X"`) events with microsecond timestamps carrying their
    /// trace/span/parent ids in `args`; cross-thread parent→child edges are
    /// drawn as flow events (`"s"`/`"f"` pairs) so a fanned-out request
    /// renders as one connected tree; counters are appended as a final
    /// `"C"` sample.
    pub fn write_chrome_trace<W: Write>(&self, w: &mut W) -> io::Result<()> {
        write!(w, "{{\"traceEvents\":[")?;
        let mut first = true;
        let spans = self.spans.lock().unwrap().clone();
        // span_id → (tid, start_ns) for resolving cross-thread edges.
        let by_id: BTreeMap<u64, (u64, u64)> = spans
            .iter()
            .map(|s| (s.span_id, (s.tid, s.start_ns)))
            .collect();
        for s in &spans {
            if !first {
                write!(w, ",")?;
            }
            first = false;
            let mut args: Vec<String> = s
                .args
                .iter()
                .map(|(k, v)| format!("{}:{}", json_str(k), json_str(v)))
                .collect();
            args.push(format!("\"depth\":{}", s.depth));
            args.push(format!("\"trace\":{}", s.trace_id));
            args.push(format!("\"span\":{}", s.span_id));
            args.push(format!("\"parent\":{}", s.parent_id));
            write!(
                w,
                "{{\"name\":{},\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{},\"dur\":{},\"args\":{{{}}}}}",
                json_str(&s.name),
                s.tid,
                json_f64(s.start_ns as f64 / 1_000.0),
                json_f64((s.dur_ns as f64 / 1_000.0).max(0.001)),
                args.join(",")
            )?;
        }
        // Parent edges that cross threads are invisible to the nesting
        // renderer; emit them as bound flow events (id = child span id,
        // start at the parent's slice, finish at the child's).
        for s in &spans {
            let Some(&(parent_tid, parent_start)) = (s.parent_id != 0)
                .then(|| by_id.get(&s.parent_id))
                .flatten()
            else {
                continue;
            };
            if parent_tid == s.tid {
                continue;
            }
            let ts_parent = json_f64(parent_start as f64 / 1_000.0);
            let ts_child = json_f64(s.start_ns as f64 / 1_000.0);
            write!(
                w,
                ",{{\"name\":\"parent\",\"cat\":\"causal\",\"ph\":\"s\",\"pid\":1,\"tid\":{},\"ts\":{},\"id\":{}}}",
                parent_tid, ts_parent, s.span_id
            )?;
            write!(
                w,
                ",{{\"name\":\"parent\",\"cat\":\"causal\",\"ph\":\"f\",\"bp\":\"e\",\"pid\":1,\"tid\":{},\"ts\":{},\"id\":{}}}",
                s.tid, ts_child, s.span_id
            )?;
        }
        drop(spans);
        let last_ts = self.nanos_since_epoch() as f64 / 1_000.0;
        let reg = self.registry.lock().unwrap();
        for (name, c) in &reg.counters {
            if !first {
                write!(w, ",")?;
            }
            first = false;
            write!(
                w,
                "{{\"name\":{},\"ph\":\"C\",\"pid\":1,\"ts\":{},\"args\":{{\"value\":{}}}}}",
                json_str(name),
                json_f64(last_ts),
                c.get()
            )?;
        }
        drop(reg);
        for e in self.events.lock().unwrap().iter() {
            if !first {
                write!(w, ",")?;
            }
            first = false;
            write!(
                w,
                "{{\"name\":{},\"ph\":\"i\",\"pid\":1,\"tid\":1,\"ts\":{},\"s\":\"g\",\"args\":{{\"level\":{},\"message\":{},\"alert\":{}}}}}",
                json_str(&e.target),
                json_f64(e.ts_ns as f64 / 1_000.0),
                json_str(e.level.as_str()),
                json_str(&e.message),
                e.alert
            )?;
        }
        write!(w, "]}}")?;
        Ok(())
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

// ---------------------------------------------------------------------
// Global recorder
// ---------------------------------------------------------------------

static GLOBAL: OnceLock<Recorder> = OnceLock::new();
/// Mirror of the global recorder's enabled flag, checked before touching
/// the `OnceLock` so the disabled hot path is one relaxed load.
static GLOBAL_ENABLED: AtomicBool = AtomicBool::new(false);

/// The process-wide recorder, created on first use (disabled).
pub fn global() -> &'static Recorder {
    GLOBAL.get_or_init(Recorder::new)
}

/// Enables the global recorder.
pub fn enable() {
    global().enable();
    GLOBAL_ENABLED.store(true, Ordering::Relaxed);
}

/// Disables the global recorder (data is kept).
pub fn disable() {
    global().disable();
    GLOBAL_ENABLED.store(false, Ordering::Relaxed);
}

/// Fast check used by all instrumentation macros: one relaxed atomic load.
#[inline(always)]
pub fn enabled() -> bool {
    GLOBAL_ENABLED.load(Ordering::Relaxed)
}

/// Sets the stderr echo threshold on the global recorder.
pub fn set_verbosity(level: Level) {
    global().set_verbosity(level);
}

/// Registers/fetches a counter on the global recorder.
pub fn counter(name: &str) -> Counter {
    global().counter(name)
}

/// Registers/fetches a gauge on the global recorder.
pub fn gauge(name: &str) -> Gauge {
    global().gauge(name)
}

/// Registers/fetches a histogram on the global recorder.
pub fn histogram(name: &str) -> Histogram {
    global().histogram(name)
}

/// Opens a span on the global recorder (no-op `None` when disabled).
pub fn span_with(name: &'static str, args: &[(&str, String)]) -> Option<SpanGuard<'static>> {
    global().span_with(name, args)
}

/// Records an event on the global recorder; see [`Recorder::event`].
pub fn event(level: Level, target: &str, message: &str) {
    global().event(level, target, message);
}

/// Records a monitoring alert on the global recorder; see [`Recorder::alert`].
pub fn alert(level: Level, target: &str, message: &str) {
    global().alert(level, target, message);
}

// ---------------------------------------------------------------------
// Instrumentation macros
// ---------------------------------------------------------------------

/// Increments a named counter on the global recorder. The handle is cached
/// per callsite; the disabled path is a single branch.
#[macro_export]
macro_rules! count {
    ($name:expr, $n:expr) => {{
        if $crate::enabled() {
            static __CELL: ::std::sync::OnceLock<$crate::Counter> = ::std::sync::OnceLock::new();
            __CELL.get_or_init(|| $crate::counter($name)).add($n as u64);
        }
    }};
    ($name:expr) => {
        $crate::count!($name, 1u64)
    };
}

/// Starts a per-callsite-cached histogram timer; bind the result so the
/// duration is recorded when the guard drops:
/// `let _t = au_telemetry::time!("au_extract");`
#[macro_export]
macro_rules! time {
    ($name:expr) => {{
        if $crate::enabled() {
            static __CELL: ::std::sync::OnceLock<$crate::Histogram> = ::std::sync::OnceLock::new();
            ::std::option::Option::Some(
                __CELL
                    .get_or_init(|| $crate::histogram($name))
                    .start_timer(),
            )
        } else {
            ::std::option::Option::None
        }
    }};
}

/// Opens a structured span on the global recorder; bind the result:
/// `let _s = au_telemetry::span!("au_nn", model = name);`
/// Argument expressions are only evaluated when recording is enabled.
#[macro_export]
macro_rules! span {
    ($name:expr $(, $key:ident = $val:expr)* $(,)?) => {
        if $crate::enabled() {
            $crate::span_with(
                $name,
                &[$((stringify!($key), ::std::string::ToString::to_string(&$val))),*],
            )
        } else {
            ::std::option::Option::None
        }
    };
}

/// Sets a named gauge on the global recorder (cached per callsite).
#[macro_export]
macro_rules! gauge_set {
    ($name:expr, $v:expr) => {{
        if $crate::enabled() {
            static __CELL: ::std::sync::OnceLock<$crate::Gauge> = ::std::sync::OnceLock::new();
            __CELL.get_or_init(|| $crate::gauge($name)).set($v as f64);
        }
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_boundaries() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
        // Every bucket's upper bound maps back into that bucket.
        for i in 1..BUCKETS - 1 {
            assert_eq!(bucket_index(bucket_upper_bound(i)), i, "bucket {i}");
            assert_eq!(bucket_index(bucket_upper_bound(i) + 1), i + 1);
        }
    }

    #[test]
    fn histogram_stats_and_percentiles() {
        let rec = Recorder::new();
        let h = rec.histogram("h");
        for v in [1u64, 2, 3, 100, 1000, 100_000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 6);
        assert_eq!(s.sum, 101_106);
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 100_000);
        assert!((s.mean() - 101_106.0 / 6.0).abs() < 1e-9);
        // p100 is clamped to the true max, p50 to a bucket bound >= median.
        assert_eq!(s.percentile(100.0), 100_000);
        assert!(s.percentile(50.0) >= 3);
        assert!(s.percentile(50.0) <= 127);
        assert_eq!(
            HistogramSnapshot {
                count: 0,
                sum: 0,
                min: u64::MAX,
                max: 0,
                buckets: [0; BUCKETS]
            }
            .percentile(50.0),
            0
        );
    }

    #[test]
    fn counter_saturates_instead_of_wrapping() {
        let rec = Recorder::new();
        let c = rec.counter("c");
        c.add(u64::MAX - 5);
        c.add(3);
        assert_eq!(c.get(), u64::MAX - 2);
        c.add(10);
        assert_eq!(c.get(), u64::MAX, "must saturate, not wrap");
        c.add(1);
        assert_eq!(c.get(), u64::MAX);
    }

    #[test]
    fn counter_handles_share_one_cell() {
        let rec = Recorder::new();
        rec.counter("shared").add(2);
        rec.counter("shared").add(3);
        assert_eq!(rec.counter_value("shared"), 5);
        assert_eq!(rec.counter_value("never"), 0);
    }

    #[test]
    fn gauge_last_write_wins() {
        let rec = Recorder::new();
        let g = rec.gauge("loss");
        g.set(0.5);
        g.set(0.125);
        assert_eq!(g.get(), 0.125);
    }

    #[test]
    fn spans_nest_and_record_depth() {
        let rec = Recorder::new();
        rec.enable();
        {
            let _outer = rec.span("outer");
            {
                let _mid = rec.span_with("mid", &[("k", "v".to_string())]);
                let _inner = rec.span("inner");
            }
            let _sibling = rec.span("sibling");
        }
        let spans = rec.spans();
        // Spans are recorded on drop: inner, mid, sibling, outer.
        let by_name: BTreeMap<&str, u32> =
            spans.iter().map(|s| (s.name.as_str(), s.depth)).collect();
        assert_eq!(by_name["outer"], 0);
        assert_eq!(by_name["mid"], 1);
        assert_eq!(by_name["inner"], 2);
        assert_eq!(by_name["sibling"], 1);
        let mid = spans.iter().find(|s| s.name == "mid").unwrap();
        assert_eq!(mid.args, vec![("k".to_string(), "v".to_string())]);
        // Depth restored: a fresh span is top-level again.
        {
            let _later = rec.span("later");
        }
        assert_eq!(
            rec.spans()
                .iter()
                .find(|s| s.name == "later")
                .unwrap()
                .depth,
            0
        );
    }

    #[test]
    fn nested_spans_share_a_trace_and_link_parents() {
        let rec = Recorder::new();
        rec.enable();
        {
            let _outer = rec.span("outer");
            {
                let _mid = rec.span("mid");
                let _inner = rec.span("inner");
            }
            let _sibling = rec.span("sibling");
        }
        let spans = rec.spans();
        let by_name: BTreeMap<&str, &SpanRecord> =
            spans.iter().map(|s| (s.name.as_str(), s)).collect();
        let outer = by_name["outer"];
        assert_eq!(outer.parent_id, 0, "root span has no parent");
        assert_ne!(outer.trace_id, 0);
        assert_ne!(outer.span_id, 0);
        // One causal tree: everyone shares the root's trace id.
        for name in ["mid", "inner", "sibling"] {
            assert_eq!(by_name[name].trace_id, outer.trace_id, "{name}");
        }
        assert_eq!(by_name["mid"].parent_id, outer.span_id);
        assert_eq!(by_name["inner"].parent_id, by_name["mid"].span_id);
        assert_eq!(by_name["sibling"].parent_id, outer.span_id);
        // A span opened after the tree closed roots a *new* trace.
        {
            let _later = rec.span("later");
        }
        let later = rec.spans().into_iter().find(|s| s.name == "later").unwrap();
        assert_ne!(later.trace_id, outer.trace_id);
        assert_eq!(later.parent_id, 0);
    }

    #[test]
    fn reset_clears_all_state_in_one_epoch() {
        let rec = Recorder::new();
        rec.enable();
        rec.set_verbosity(Level::Error);
        let c = rec.counter("c");
        c.add(5);
        rec.gauge("g").set(2.5);
        rec.histogram("h").record(77);
        {
            let _s = rec.span("s");
        }
        rec.event(Level::Info, "t", "hello");
        rec.alert(Level::Warn, "t", "watch out");
        let epoch_before = rec.reset_epoch();
        rec.reset();
        // Spans, events, alert counter, drop counter, and every metric
        // family clear together — a scrape after reset sees one epoch.
        assert!(rec.spans().is_empty());
        assert!(rec.events().is_empty());
        assert_eq!(rec.alert_count(), 0);
        assert_eq!(rec.dropped(), 0);
        assert_eq!(rec.counter_value("c"), 0);
        assert_eq!(rec.gauge("g").get(), 0.0);
        assert_eq!(rec.histogram_snapshot("h").unwrap().count, 0);
        assert_eq!(rec.reset_epoch(), epoch_before + 1);
        // Incremental readers restart cleanly after the epoch bump.
        assert!(rec.spans_since(0).is_empty());
        assert!(rec.events_since(0).is_empty());
    }

    #[test]
    fn incremental_readers_see_only_new_records() {
        let rec = Recorder::new();
        rec.enable();
        rec.set_verbosity(Level::Error);
        {
            let _a = rec.span("a");
        }
        {
            let _b = rec.span("b");
        }
        let first = rec.spans_since(0);
        assert_eq!(first.len(), 2);
        assert!(rec.spans_since(2).is_empty());
        {
            let _c = rec.span("c");
        }
        let next = rec.spans_since(2);
        assert_eq!(next.len(), 1);
        assert_eq!(next[0].name, "c");
        // Out-of-range offsets (e.g. saved before a reset) return empty
        // instead of panicking.
        assert!(rec.spans_since(999).is_empty());
        rec.event(Level::Info, "t", "one");
        assert_eq!(rec.events_since(0).len(), 1);
        assert!(rec.events_since(1).is_empty());
    }

    #[test]
    fn disabled_recorder_produces_no_spans_or_events() {
        let rec = Recorder::new();
        // Silence the stderr echo so `cargo test` output stays clean.
        rec.set_verbosity(Level::Error);
        assert!(rec.span("nothing").is_none());
        rec.event(Level::Info, "t", "ignored");
        assert!(rec.spans().is_empty());
        assert!(rec.events().is_empty());
    }

    #[test]
    fn events_respect_recording_flag() {
        let rec = Recorder::new();
        rec.set_verbosity(Level::Error);
        rec.enable();
        rec.event(Level::Info, "engine", "hello");
        rec.event(Level::Trace, "engine", "details");
        let events = rec.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].message, "hello");
        assert_eq!(events[1].level, Level::Trace);
    }

    #[test]
    fn reset_zeroes_but_keeps_handles() {
        let rec = Recorder::new();
        rec.enable();
        let c = rec.counter("n");
        c.add(7);
        let h = rec.histogram("h");
        h.record(9);
        {
            let _s = rec.span("s");
        }
        rec.reset();
        assert_eq!(c.get(), 0);
        assert_eq!(h.snapshot().count, 0);
        assert!(rec.spans().is_empty());
        // Old handle still feeds the same registered cell.
        c.add(2);
        assert_eq!(rec.counter_value("n"), 2);
    }

    #[test]
    fn summary_lists_metrics() {
        let rec = Recorder::new();
        rec.enable();
        rec.counter("au_extract.rows").add(42);
        rec.histogram("au_nn.predict").record(1500);
        let s = rec.summary();
        assert!(s.contains("au_extract.rows"), "{s}");
        assert!(s.contains("42"), "{s}");
        assert!(s.contains("au_nn.predict"), "{s}");
    }

    #[test]
    fn jsonl_export_shape() {
        let rec = Recorder::new();
        rec.enable();
        rec.set_verbosity(Level::Error);
        rec.counter("c\"x").add(1);
        rec.histogram("h").record(5);
        {
            let _s = rec.span_with("s", &[("model", "m1".to_string())]);
        }
        rec.event(Level::Warn, "t", "line\nbreak");
        let mut buf = Vec::new();
        rec.write_jsonl(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), 4);
        assert!(text.contains("\"kind\":\"counter\""));
        assert!(text.contains("c\\\"x"), "name must be escaped: {text}");
        assert!(text.contains("\"kind\":\"span\""));
        assert!(text.contains("\"model\":\"m1\""));
        assert!(text.contains("line\\nbreak"));
    }

    #[test]
    fn chrome_trace_is_balanced_json() {
        let rec = Recorder::new();
        rec.enable();
        rec.counter("rows").add(3);
        {
            let _a = rec.span("phase_a");
            let _b = rec.span("phase_b");
        }
        let mut buf = Vec::new();
        rec.write_chrome_trace(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.starts_with("{\"traceEvents\":["));
        assert!(text.ends_with("]}"));
        assert!(text.contains("\"ph\":\"X\""));
        assert!(text.contains("\"ph\":\"C\""));
        // Structural sanity: braces and brackets balance outside strings.
        let (mut braces, mut brackets, mut in_str, mut esc) = (0i64, 0i64, false, false);
        for c in text.chars() {
            if esc {
                esc = false;
                continue;
            }
            match c {
                '\\' if in_str => esc = true,
                '"' => in_str = !in_str,
                '{' if !in_str => braces += 1,
                '}' if !in_str => braces -= 1,
                '[' if !in_str => brackets += 1,
                ']' if !in_str => brackets -= 1,
                _ => {}
            }
        }
        assert_eq!(braces, 0);
        assert_eq!(brackets, 0);
    }

    #[test]
    fn alerts_are_flagged_counted_and_exported() {
        let rec = Recorder::new();
        rec.enable();
        rec.set_verbosity(Level::Error);
        rec.event(Level::Info, "engine", "routine");
        rec.alert(Level::Warn, "au_core.monitor", "model `M` drifting");
        assert_eq!(rec.alert_count(), 1);
        let events = rec.events();
        assert_eq!(events.len(), 2);
        assert!(!events[0].alert);
        assert!(events[1].alert);
        let mut buf = Vec::new();
        rec.write_jsonl(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("\"kind\":\"event\""), "{text}");
        assert!(text.contains("\"kind\":\"alert\""), "{text}");
        assert!(text.contains("model `M` drifting"));
        let s = rec.summary();
        assert!(s.contains("alerts: 1"), "{s}");
        let mut trace = Vec::new();
        rec.write_chrome_trace(&mut trace).unwrap();
        let trace = String::from_utf8(trace).unwrap();
        assert!(trace.contains("\"alert\":true"), "{trace}");
        rec.reset();
        assert_eq!(rec.alert_count(), 0);
    }

    #[test]
    fn alerts_count_even_when_recording_disabled() {
        let rec = Recorder::new();
        rec.set_verbosity(Level::Error);
        rec.alert(Level::Error, "m", "boom");
        assert_eq!(rec.alert_count(), 1);
        assert!(rec.events().is_empty(), "buffer untouched while disabled");
    }

    #[test]
    fn record_cap_counts_drops() {
        let rec = Recorder::new();
        rec.enable();
        rec.set_verbosity(Level::Error);
        // Fill the event buffer directly to the cap, then overflow.
        {
            let mut events = rec.events.lock().unwrap();
            events.resize(
                MAX_RECORDS,
                EventRecord {
                    level: Level::Info,
                    ts_ns: 0,
                    target: String::new(),
                    message: String::new(),
                    alert: false,
                },
            );
        }
        rec.event(Level::Info, "t", "overflow");
        assert_eq!(rec.dropped(), 1);
        assert_eq!(rec.events().len(), MAX_RECORDS);
    }
}
