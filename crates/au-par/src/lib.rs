//! Zero-dependency parallel runtime: one persistent worker pool.
//!
//! The workspace builds offline from `vendor/`, so this crate provides the
//! small slice of rayon the Autonomizer runtime actually needs — an
//! order-preserving map over chunked index ranges and a fork/join region —
//! using nothing but `std` threads.
//!
//! Work leaves the calling thread only through the **persistent pool**
//! ([`pool_map_ranges`], [`pool_map`], [`Fork`]): parked workers live
//! across regions, so a region pays a queue push + condvar wake instead of
//! a thread spawn. Jobs must own their data (`'static`); callers share big
//! read-only inputs via `Arc`.
//!
//! Design rules, in priority order:
//!
//! 1. **Determinism.** Work is split into *contiguous* index ranges and
//!    results are always recombined in range order, so every helper returns
//!    bit-identical results regardless of thread count. Callers that cannot
//!    guarantee that on their own (e.g. floating-point reductions across
//!    chunk boundaries) must document their tolerance.
//! 2. **Zero overhead when serial.** With one thread (or one range, or when
//!    already inside an au-par worker) everything runs inline on the calling
//!    thread — no queue push, no allocation beyond the range list.
//! 3. **No nesting.** A worker thread that calls back into au-par runs the
//!    nested region inline. Parallelism is spent at the outermost level
//!    (e.g. an engine-level batch split) and inner kernels stay serial
//!    instead of oversubscribing.
//!
//! Thread count resolution: programmatic [`set_thread_override`] >
//! `AU_PAR_THREADS` environment variable (read per call, so benchmark
//! sweeps can vary it) > [`std::thread::available_parallelism`].
//!
//! With the `telemetry` feature on, every parallel region captures the
//! caller's `au_telemetry` trace context before fanning out and installs
//! it in each worker, so spans opened inside a fork/join region parent
//! under the span that forked them — a fanned-out request exports as one
//! causal tree instead of per-thread orphans. The feature is off by
//! default, keeping the crate zero-dependency for standalone use.
//!
//! **Unsafe audit (none needed).** Jobs own their inputs and send their
//! results back over a channel; the join recombines them in submission
//! order. There is nothing to write a SAFETY comment about, and the crate
//! pins that property with `forbid(unsafe_code)` so a future
//! "optimization" cannot quietly reintroduce shared-mutation raciness.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cell::Cell;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

mod pool;

pub use pool::{pool_map, pool_map_ranges, pool_worker_count, shutdown_pool, Fork};

/// Upper bound on the resolved thread count; a safety valve against
/// misconfigured overrides, far above any machine this targets.
const MAX_THREADS: usize = 256;

/// `0` means "no override"; any other value wins over the environment.
static OVERRIDE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// True while executing inside an au-par worker; used to run nested
    /// parallel regions inline instead of spawning threads under threads.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// The caller's telemetry trace context, captured before fanning work out
/// so spans opened inside workers parent under the span that forked them.
/// With the `telemetry` feature off this is a zero-sized no-op.
#[cfg(feature = "telemetry")]
type ForkContext = au_telemetry::TraceContext;
#[cfg(not(feature = "telemetry"))]
#[derive(Clone, Copy)]
struct NoContext;
#[cfg(not(feature = "telemetry"))]
type ForkContext = NoContext;

#[cfg(feature = "telemetry")]
fn capture_context() -> ForkContext {
    au_telemetry::current_context()
}
#[cfg(not(feature = "telemetry"))]
fn capture_context() -> ForkContext {
    NoContext
}

/// Fork/join observability series (all on the global recorder, handles
/// cached per process): how many regions ran, how wide, how long each
/// worker was busy, how long the forking thread waited at the join, and
/// how lopsided the per-region work split was.
#[cfg(feature = "telemetry")]
mod metrics {
    use std::sync::OnceLock;

    pub(crate) fn region(ranges: usize, threads: usize) {
        static REGIONS: OnceLock<au_telemetry::Counter> = OnceLock::new();
        static RANGES: OnceLock<au_telemetry::Counter> = OnceLock::new();
        static THREADS: OnceLock<au_telemetry::Gauge> = OnceLock::new();
        REGIONS
            .get_or_init(|| au_telemetry::counter("au_par.regions"))
            .add(1);
        RANGES
            .get_or_init(|| au_telemetry::counter("au_par.ranges"))
            .add(ranges as u64);
        THREADS
            .get_or_init(|| au_telemetry::gauge("au_par.threads"))
            .set(threads as f64);
    }

    pub(crate) fn worker_busy(ns: u64) {
        static H: OnceLock<au_telemetry::Histogram> = OnceLock::new();
        H.get_or_init(|| au_telemetry::histogram("au_par.worker_busy"))
            .record(ns);
    }

    pub(crate) fn join_wait(ns: u64) {
        static H: OnceLock<au_telemetry::Histogram> = OnceLock::new();
        H.get_or_init(|| au_telemetry::histogram("au_par.join_wait"))
            .record(ns);
    }

    pub(crate) fn imbalance(ns: u64) {
        static H: OnceLock<au_telemetry::Histogram> = OnceLock::new();
        H.get_or_init(|| au_telemetry::histogram("au_par.region_imbalance"))
            .record(ns);
    }

    pub(crate) fn region_inline() {
        static C: OnceLock<au_telemetry::Counter> = OnceLock::new();
        C.get_or_init(|| au_telemetry::counter("au_par.region_inline_total"))
            .add(1);
    }
}

/// Counts a region that ran inline (one range / one thread / nested) so
/// the pool's profitability threshold is observable: a high
/// `au_par.region_inline_total` relative to `au_par.regions` means most
/// call sites fall under the `min_chunk` split or run nested.
fn note_inline_region() {
    #[cfg(feature = "telemetry")]
    if au_telemetry::enabled() {
        metrics::region_inline();
    }
}

/// Per-region accounting shared by every worker of one parallel region:
/// times each chunk, folds a min/max busy envelope, and reports the
/// region's join wait and imbalance when it finishes. With the
/// `telemetry` feature off (or the recorder disabled) everything here is
/// a no-op and no clock is read.
#[cfg(feature = "telemetry")]
struct RegionStats {
    enabled: bool,
    min_busy: std::sync::atomic::AtomicU64,
    max_busy: std::sync::atomic::AtomicU64,
}

#[cfg(feature = "telemetry")]
impl RegionStats {
    fn new(ranges: usize) -> Self {
        let enabled = au_telemetry::enabled();
        if enabled {
            metrics::region(ranges, max_threads());
        }
        RegionStats {
            enabled,
            min_busy: std::sync::atomic::AtomicU64::new(u64::MAX),
            max_busy: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// Runs one worker's chunk, recording its busy time.
    fn measure<R>(&self, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let start = std::time::Instant::now();
        let out = f();
        let ns = start.elapsed().as_nanos() as u64;
        metrics::worker_busy(ns);
        self.min_busy.fetch_min(ns, Ordering::Relaxed);
        self.max_busy.fetch_max(ns, Ordering::Relaxed);
        out
    }

    /// Marks the moment the forking thread starts waiting on its workers.
    fn join_point(&self) -> Option<std::time::Instant> {
        self.enabled.then(std::time::Instant::now)
    }

    /// Records the join wait and the busy-time spread (max − min) of the
    /// finished region.
    fn finish(&self, join_from: Option<std::time::Instant>) {
        if !self.enabled {
            return;
        }
        if let Some(t) = join_from {
            metrics::join_wait(t.elapsed().as_nanos() as u64);
        }
        let min = self.min_busy.load(Ordering::Relaxed);
        let max = self.max_busy.load(Ordering::Relaxed);
        if min != u64::MAX {
            metrics::imbalance(max.saturating_sub(min));
        }
    }
}

#[cfg(not(feature = "telemetry"))]
struct RegionStats;

#[cfg(not(feature = "telemetry"))]
impl RegionStats {
    fn new(_ranges: usize) -> Self {
        RegionStats
    }
    fn measure<R>(&self, f: impl FnOnce() -> R) -> R {
        f()
    }
    fn join_point(&self) -> Option<std::time::Instant> {
        None
    }
    fn finish(&self, _join_from: Option<std::time::Instant>) {}
}

/// Runs `f` on a worker thread with the forked context installed (and the
/// in-worker marker set), restoring both on the way out.
fn in_worker_with<R>(ctx: ForkContext, f: impl FnOnce() -> R) -> R {
    #[cfg(feature = "telemetry")]
    let _ctx = au_telemetry::set_context(ctx);
    #[cfg(not(feature = "telemetry"))]
    let NoContext = ctx;
    IN_WORKER.with(|w| {
        w.set(true);
        let out = f();
        w.set(false);
        out
    })
}

/// Sets (or with `None` clears) a process-wide thread-count override that
/// takes precedence over `AU_PAR_THREADS`. `Some(0)` is treated as `None`.
///
/// Intended for benchmarks and tests that sweep thread counts without
/// mutating the process environment.
pub fn set_thread_override(threads: Option<usize>) {
    OVERRIDE.store(threads.unwrap_or(0).min(MAX_THREADS), Ordering::SeqCst);
}

/// Resolves the maximum number of worker threads a parallel region may use:
/// override > `AU_PAR_THREADS` > available parallelism, clamped to
/// `1..=256`. Always at least 1.
pub fn max_threads() -> usize {
    let forced = OVERRIDE.load(Ordering::SeqCst);
    if forced > 0 {
        return forced.min(MAX_THREADS);
    }
    if let Ok(v) = std::env::var("AU_PAR_THREADS") {
        match v.trim().parse::<usize>() {
            Ok(n) if n > 0 => return n.min(MAX_THREADS),
            _ => warn_invalid_threads(&v),
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(MAX_THREADS)
}

/// Surfaces a rejected `AU_PAR_THREADS` value instead of falling back
/// silently: one leveled telemetry warning per process naming the value
/// (echoed to stderr by the recorder's verbosity filter even when span
/// capture is off). Without the `telemetry` feature the fallback stays
/// silent — there is nowhere to report to.
fn warn_invalid_threads(value: &str) {
    #[cfg(feature = "telemetry")]
    {
        static WARNED: std::sync::Once = std::sync::Once::new();
        WARNED.call_once(|| {
            au_telemetry::event(
                au_telemetry::Level::Warn,
                "au_par",
                &format!(
                    "ignoring invalid AU_PAR_THREADS={value:?} (want an integer >= 1); \
                     falling back to available parallelism"
                ),
            );
        });
    }
    #[cfg(not(feature = "telemetry"))]
    let _ = value;
}

/// True while the calling thread is an au-par worker; nested parallel
/// regions run inline.
fn in_worker() -> bool {
    IN_WORKER.with(Cell::get)
}

/// Splits `0..len` into at most [`max_threads`] contiguous ranges of at
/// least `min_chunk` items each (a single range when `len < 2 * min_chunk`).
/// Returns an empty vector for `len == 0`.
///
/// Ranges are as even as possible and cover `0..len` exactly, in order.
pub fn split_ranges(len: usize, min_chunk: usize) -> Vec<Range<usize>> {
    if len == 0 {
        return Vec::new();
    }
    let min_chunk = min_chunk.max(1);
    let cap = if in_worker() { 1 } else { max_threads() };
    let pieces = cap.min(len / min_chunk).max(1);
    let base = len / pieces;
    let rem = len % pieces;
    let mut ranges = Vec::with_capacity(pieces);
    let mut start = 0;
    for i in 0..pieces {
        let extra = usize::from(i < rem);
        let end = start + base + extra;
        ranges.push(start..end);
        start = end;
    }
    debug_assert_eq!(start, len);
    ranges
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Serializes tests that mutate the process-wide override (shared
    /// with the pool module's tests).
    pub(crate) static OVERRIDE_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn split_covers_exactly_in_order() {
        let _g = OVERRIDE_LOCK.lock().unwrap();
        set_thread_override(Some(4));
        for len in [0usize, 1, 3, 4, 5, 17, 100] {
            for min_chunk in [1usize, 2, 8, 64] {
                let ranges = split_ranges(len, min_chunk);
                let mut next = 0;
                for r in &ranges {
                    assert_eq!(r.start, next, "gap in ranges for len={len}");
                    assert!(r.end > r.start, "empty range for len={len}");
                    next = r.end;
                }
                assert_eq!(next, len, "ranges do not cover len={len}");
                if ranges.len() > 1 {
                    assert!(
                        ranges.iter().all(|r| r.end - r.start >= min_chunk),
                        "undersized chunk for len={len} min_chunk={min_chunk}"
                    );
                }
            }
        }
        set_thread_override(None);
    }

    #[test]
    fn override_beats_environment() {
        let _g = OVERRIDE_LOCK.lock().unwrap();
        set_thread_override(Some(3));
        assert_eq!(max_threads(), 3);
        set_thread_override(Some(0));
        assert!(max_threads() >= 1);
        set_thread_override(None);
    }

    /// A nested region runs inline on its worker (the suppression path),
    /// so spans it opens must stay on the worker's thread, inside the
    /// caller's trace, parented under the worker's own span — not under a
    /// second-generation fork context.
    #[cfg(feature = "telemetry")]
    #[test]
    fn nested_spawn_spans_inherit_the_outer_trace() {
        let _g = OVERRIDE_LOCK.lock().unwrap();
        set_thread_override(Some(4));
        let rec = au_telemetry::global();
        au_telemetry::enable();
        let before = rec.span_count();
        let (root_trace, root_span) = {
            let root = rec.span("nested_root").expect("enabled");
            let ids = (root.trace_id().0, root.span_id().0);
            let _ = pool_map(4, 1, move |i| {
                let outer = rec.span("nested_outer").expect("enabled");
                let _ = (outer.trace_id(), i);
                let inner: Vec<usize> = pool_map(3, 1, move |j| {
                    let _s = rec.span("nested_inner");
                    j
                });
                inner.into_iter().sum::<usize>()
            });
            ids
        };
        au_telemetry::disable();
        let spans = rec.spans_since(before);
        let outers: Vec<_> = spans.iter().filter(|s| s.name == "nested_outer").collect();
        let inners: Vec<_> = spans.iter().filter(|s| s.name == "nested_inner").collect();
        assert_eq!(outers.len(), 4);
        assert_eq!(inners.len(), 12);
        for o in &outers {
            assert_eq!(o.trace_id, root_trace, "worker span joins the trace");
            assert_eq!(o.parent_id, root_span, "worker span parents under root");
        }
        for i in &inners {
            assert_eq!(i.trace_id, root_trace, "inner span stays in the trace");
            let parent = outers
                .iter()
                .find(|o| o.span_id == i.parent_id)
                .expect("inner span parents under one of the worker spans");
            assert_eq!(i.tid, parent.tid, "nested region ran inline, same thread");
        }
        set_thread_override(None);
    }

    /// A junk `AU_PAR_THREADS` must fall back *and* say so — once.
    #[cfg(feature = "telemetry")]
    #[test]
    fn invalid_au_par_threads_warns_once_and_falls_back() {
        let _g = OVERRIDE_LOCK.lock().unwrap();
        set_thread_override(None);
        let rec = au_telemetry::global();
        au_telemetry::enable();
        let before = rec.event_count();
        std::env::set_var("AU_PAR_THREADS", "banana");
        assert!(max_threads() >= 1, "falls back to available parallelism");
        let _ = max_threads(); // the warning must not repeat
        std::env::remove_var("AU_PAR_THREADS");
        au_telemetry::disable();
        let warnings: Vec<_> = rec
            .events_since(before)
            .into_iter()
            .filter(|e| {
                e.level == au_telemetry::Level::Warn
                    && e.target == "au_par"
                    && e.message.contains("AU_PAR_THREADS=\"banana\"")
            })
            .collect();
        assert_eq!(warnings.len(), 1, "exactly one warning naming the value");
    }

    #[test]
    fn empty_input_is_a_no_op() {
        assert!(pool_map(0, 1, |i| i).is_empty());
        assert!(split_ranges(0, 4).is_empty());
        let none: Vec<()> = pool_map_ranges(0, 1, |_| panic!("must not run"));
        assert!(none.is_empty());
    }
}
