//! Persistent worker pool: parked threads that outlive any one region.
//!
//! Spawning threads per region makes small regions (per-row inference,
//! short extraction loops) unprofitable. This module keeps a process-wide
//! pool of parked workers so a region's only cost is pushing closures onto
//! a queue and waking sleepers.
//!
//! Shape of the thing:
//!
//! - **Lazy init, lazy growth.** No thread exists until the first job is
//!   submitted. The pool grows one worker at a time, only when a job
//!   arrives and nobody is idle, up to [`max_threads`](crate::max_threads)
//!   (re-resolved per submission, so `AU_PAR_THREADS` / the programmatic
//!   override keep working). It never shrinks except through
//!   [`shutdown_pool`].
//! - **`'static` jobs.** Pool workers outlive any caller's stack frame, so
//!   jobs must own their data (`FnOnce() + Send + 'static`); callers share
//!   their inputs via `Arc` and use [`pool_map_ranges`] / [`Fork`].
//! - **Order-preserving joins, panic propagation.** [`Fork::join`] returns
//!   results in submission order and re-raises the first panic (by
//!   submission order) *after* every job has settled — a panicking region
//!   never wedges or poisons the pool.
//! - **Nested-region suppression.** A `Fork` used from inside a pool
//!   worker runs its jobs inline on the submitting thread, so nesting
//!   degrades to serial execution instead of deadlocking a fixed-size
//!   pool.
//! - **Trace-context inheritance.** Jobs capture the forking thread's
//!   telemetry context when the `Fork` is created and install it on the
//!   worker, so spans opened inside pooled workers parent under the span
//!   that forked them.
//!
//! All of this is safe Rust (`forbid(unsafe_code)` is inherited from the
//! crate root): the queue is a `Mutex<VecDeque>` + `Condvar`, results come
//! back over `std::sync::mpsc`, and panics travel as `Box<dyn Any>` via
//! `catch_unwind`/`resume_unwind`.

use crate::{capture_context, in_worker, in_worker_with, max_threads, ForkContext};
use std::collections::VecDeque;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::thread;

/// A unit of pool work: owns everything it touches.
type Job = Box<dyn FnOnce() + Send + 'static>;

struct PoolQueue {
    jobs: VecDeque<Job>,
    /// Live worker threads (spawned minus exited).
    workers: usize,
    /// Workers currently parked on the condvar.
    idle: usize,
    /// True while [`shutdown_pool`] is draining; new submissions run
    /// inline and workers exit once the queue is empty.
    shutdown: bool,
    handles: Vec<thread::JoinHandle<()>>,
}

struct PoolShared {
    q: Mutex<PoolQueue>,
    cv: Condvar,
}

static POOL: OnceLock<Arc<PoolShared>> = OnceLock::new();

fn pool() -> &'static Arc<PoolShared> {
    POOL.get_or_init(|| {
        Arc::new(PoolShared {
            q: Mutex::new(PoolQueue {
                jobs: VecDeque::new(),
                workers: 0,
                idle: 0,
                shutdown: false,
                handles: Vec::new(),
            }),
            cv: Condvar::new(),
        })
    })
}

/// Jobs run under `catch_unwind`, so a worker never panics while holding
/// the queue lock; recover from poisoning anyway rather than cascading.
fn lock(shared: &PoolShared) -> MutexGuard<'_, PoolQueue> {
    shared
        .q
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Warns once per process if the pool grows past the machine's available
/// parallelism — extra workers only oversubscribe cores, so a persistent
/// `AU_PAR_THREADS`/override above the core count deserves a visible note.
fn warn_if_oversubscribed(workers: usize) {
    #[cfg(feature = "telemetry")]
    {
        let avail = thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        if workers > avail {
            static WARNED: std::sync::Once = std::sync::Once::new();
            WARNED.call_once(|| {
                au_telemetry::event(
                    au_telemetry::Level::Warn,
                    "au_par",
                    &format!(
                        "worker pool grew to {workers} threads but this host reports \
                         {avail} available core(s); the extra workers can only \
                         oversubscribe (check AU_PAR_THREADS / set_thread_override)"
                    ),
                );
            });
        }
    }
    #[cfg(not(feature = "telemetry"))]
    let _ = workers;
}

/// Pushes one job, growing the pool if every worker is busy and the cap
/// allows, then wakes a sleeper. During shutdown the job runs inline on
/// the submitting thread instead (progress is guaranteed either way).
fn submit_job(job: Job) {
    let shared = pool();
    let mut q = lock(shared);
    if q.shutdown {
        drop(q);
        job();
        return;
    }
    #[cfg(feature = "telemetry")]
    let job: Job = if au_telemetry::enabled() {
        let queued = std::time::Instant::now();
        Box::new(move || {
            pmetrics::queue_wait(queued.elapsed().as_nanos() as u64);
            job();
        })
    } else {
        job
    };
    q.jobs.push_back(job);
    if q.idle == 0 && q.workers < max_threads() {
        q.workers += 1;
        let workers = q.workers;
        let sh = Arc::clone(shared);
        let handle = thread::Builder::new()
            .name(format!("au-par-pool-{workers}"))
            .spawn(move || worker_loop(&sh))
            .expect("failed to spawn au-par pool worker");
        q.handles.push(handle);
        pmetrics::pool_size(workers);
        warn_if_oversubscribed(workers);
    }
    drop(q);
    shared.cv.notify_one();
}

/// Park-until-work loop. Exits (decrementing the live count) only when
/// shutdown is flagged *and* the queue has been drained.
fn worker_loop(shared: &PoolShared) {
    loop {
        let job = {
            let mut q = lock(shared);
            loop {
                if let Some(job) = q.jobs.pop_front() {
                    break Some(job);
                }
                if q.shutdown {
                    break None;
                }
                q.idle += 1;
                pmetrics::park();
                q = shared
                    .cv
                    .wait(q)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                q.idle -= 1;
                pmetrics::wake();
            }
        };
        match job {
            Some(job) => {
                pmetrics::job_run();
                // Jobs built by Fork already catch panics; this is the
                // belt-and-suspenders layer keeping the worker alive for
                // raw submissions.
                let _ = catch_unwind(AssertUnwindSafe(job));
            }
            None => {
                let mut q = lock(shared);
                q.workers -= 1;
                pmetrics::pool_size(q.workers);
                return;
            }
        }
    }
}

/// Drains the queue, parks out every worker, and joins them. The pool
/// stays usable afterwards: the next submission lazily respawns workers.
///
/// Call this from tests that assert on thread lifecycles or from hosts
/// that want a quiescent process before exiting; regular callers never
/// need it (parked workers cost nothing).
pub fn shutdown_pool() {
    let Some(shared) = POOL.get() else { return };
    let handles = {
        let mut q = lock(shared);
        q.shutdown = true;
        shared.cv.notify_all();
        std::mem::take(&mut q.handles)
    };
    for h in handles {
        let _ = h.join();
    }
    let mut q = lock(shared);
    debug_assert_eq!(q.workers, 0, "every pool worker joined");
    q.shutdown = false;
}

/// Number of live pool worker threads (0 before first use / after
/// [`shutdown_pool`]).
pub fn pool_worker_count() -> usize {
    POOL.get().map_or(0, |shared| lock(shared).workers)
}

/// An in-flight fan-out region on the persistent pool.
///
/// [`submit`](Fork::submit) hands owned closures to pool workers;
/// [`join`](Fork::join) blocks until all of them settle and returns their
/// results **in submission order**, re-raising the first panic (by
/// submission order) if any job panicked. Submissions made from inside an
/// au-par worker run inline on the submitting thread, so nested regions
/// degrade to serial execution instead of deadlocking the pool.
///
/// The forking thread's telemetry trace context is captured at
/// [`Fork::new`] and installed around every job, so spans opened inside
/// pooled workers parent under the span that forked them.
pub struct Fork<R> {
    tx: Sender<(usize, thread::Result<R>)>,
    rx: Receiver<(usize, thread::Result<R>)>,
    submitted: usize,
    inline: Vec<(usize, thread::Result<R>)>,
    ctx: ForkContext,
}

impl<R: Send + 'static> Fork<R> {
    /// Opens a region, capturing the caller's trace context.
    #[allow(clippy::new_without_default)]
    pub fn new() -> Self {
        let (tx, rx) = channel();
        Fork {
            tx,
            rx,
            submitted: 0,
            inline: Vec::new(),
            ctx: capture_context(),
        }
    }

    /// The trace context captured when this region was opened, for the
    /// chunk [`pool_map_ranges`] runs on the forking thread itself.
    pub(crate) fn context(&self) -> ForkContext {
        self.ctx
    }

    /// Submits one job. Runs inline (still catching panics, so join-order
    /// semantics are identical) when called from inside an au-par worker.
    pub fn submit(&mut self, f: impl FnOnce() -> R + Send + 'static) {
        let idx = self.submitted;
        self.submitted += 1;
        if in_worker() {
            let res = catch_unwind(AssertUnwindSafe(f));
            self.inline.push((idx, res));
            return;
        }
        let tx = self.tx.clone();
        let ctx = self.ctx;
        submit_job(Box::new(move || {
            let res = catch_unwind(AssertUnwindSafe(|| in_worker_with(ctx, f)));
            // The region may have unwound past its join; a dead receiver
            // is fine, the result is simply dropped.
            let _ = tx.send((idx, res));
        }));
    }

    /// Waits for every submitted job and returns the results in
    /// submission order.
    ///
    /// # Panics
    ///
    /// Re-raises the first panic (by submission order) after **all** jobs
    /// have settled, so a panicking region never leaves stray work running
    /// and the pool stays usable.
    pub fn join(self) -> Vec<R> {
        let Fork {
            tx,
            rx,
            submitted,
            inline,
            ..
        } = self;
        drop(tx);
        let mut slots: Vec<Option<thread::Result<R>>> = (0..submitted).map(|_| None).collect();
        let pending = submitted - inline.len();
        for (idx, res) in inline {
            slots[idx] = Some(res);
        }
        for _ in 0..pending {
            let (idx, res) = rx
                .recv()
                .expect("au-par pool worker dropped a result without sending");
            slots[idx] = Some(res);
        }
        let mut out = Vec::with_capacity(submitted);
        let mut first_panic = None;
        for slot in slots {
            match slot.expect("every submitted job settles") {
                Ok(v) => out.push(v),
                Err(p) => {
                    if first_panic.is_none() {
                        first_panic = Some(p);
                    }
                }
            }
        }
        if let Some(p) = first_panic {
            resume_unwind(p);
        }
        out
    }
}

/// Runs `f` once per range of [`split_ranges(len, min_chunk)`](crate::split_ranges)
/// and returns the per-range results in range order. The calling thread
/// takes the first range instead of idling; the rest go to parked pool
/// workers.
///
/// Requires an owning closure (`Send + Sync + 'static`) — share big
/// read-only inputs via `Arc` and move clones in. Results are identical
/// to a serial map at every thread count.
pub fn pool_map_ranges<T, F>(len: usize, min_chunk: usize, f: F) -> Vec<T>
where
    T: Send + 'static,
    F: Fn(Range<usize>) -> T + Send + Sync + 'static,
{
    let ranges = crate::split_ranges(len, min_chunk);
    if ranges.len() <= 1 {
        crate::note_inline_region();
        return ranges.into_iter().map(f).collect();
    }
    let stats = Arc::new(crate::RegionStats::new(ranges.len()));
    let f = Arc::new(f);
    let mut fork: Fork<T> = Fork::new();
    let mut iter = ranges.into_iter();
    let first = iter.next().expect("at least two ranges");
    for r in iter {
        let f = Arc::clone(&f);
        let stats = Arc::clone(&stats);
        fork.submit(move || stats.measure(|| f(r)));
    }
    let ctx = fork.context();
    let head = in_worker_with(ctx, || stats.measure(|| f(first)));
    let join_from = stats.join_point();
    let tail = fork.join();
    stats.finish(join_from);
    let mut out = Vec::with_capacity(tail.len() + 1);
    out.push(head);
    out.extend(tail);
    out
}

/// Order-preserving parallel map returning `[f(0), …, f(len-1)]`. Same
/// `'static` requirement as [`pool_map_ranges`].
pub fn pool_map<T, F>(len: usize, min_chunk: usize, f: F) -> Vec<T>
where
    T: Send + 'static,
    F: Fn(usize) -> T + Send + Sync + 'static,
{
    let f = Arc::new(f);
    let parts = pool_map_ranges(len, min_chunk, move |r: Range<usize>| {
        r.map(|i| f(i)).collect::<Vec<T>>()
    });
    let mut out = Vec::with_capacity(len);
    for part in parts {
        out.extend(part);
    }
    out
}

/// Pool-specific observability: park/wake totals, jobs executed, queue
/// wait, and the live pool size, alongside the crate's region series.
#[cfg(feature = "telemetry")]
mod pmetrics {
    use std::sync::OnceLock;

    pub(crate) fn park() {
        if !au_telemetry::enabled() {
            return;
        }
        static C: OnceLock<au_telemetry::Counter> = OnceLock::new();
        C.get_or_init(|| au_telemetry::counter("au_par.pool_park_total"))
            .add(1);
    }

    pub(crate) fn wake() {
        if !au_telemetry::enabled() {
            return;
        }
        static C: OnceLock<au_telemetry::Counter> = OnceLock::new();
        C.get_or_init(|| au_telemetry::counter("au_par.pool_wake_total"))
            .add(1);
    }

    pub(crate) fn job_run() {
        if !au_telemetry::enabled() {
            return;
        }
        static C: OnceLock<au_telemetry::Counter> = OnceLock::new();
        C.get_or_init(|| au_telemetry::counter("au_par.pool_jobs_total"))
            .add(1);
    }

    pub(crate) fn queue_wait(ns: u64) {
        static H: OnceLock<au_telemetry::Histogram> = OnceLock::new();
        H.get_or_init(|| au_telemetry::histogram("au_par.pool_queue_wait"))
            .record(ns);
    }

    pub(crate) fn pool_size(workers: usize) {
        if !au_telemetry::enabled() {
            return;
        }
        static G: OnceLock<au_telemetry::Gauge> = OnceLock::new();
        G.get_or_init(|| au_telemetry::gauge("au_par.pool_size"))
            .set(workers as f64);
    }
}

#[cfg(not(feature = "telemetry"))]
mod pmetrics {
    // queue_wait has no feature-off twin: its only call site is the
    // telemetry-gated job wrapper in `submit_job`.
    pub(crate) fn park() {}
    pub(crate) fn wake() {}
    pub(crate) fn job_run() {}
    pub(crate) fn pool_size(_workers: usize) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::set_thread_override;
    use crate::tests::OVERRIDE_LOCK;

    #[test]
    fn pool_map_matches_serial_at_every_thread_count() {
        let _g = OVERRIDE_LOCK.lock().unwrap();
        let want: Vec<usize> = (0..100).map(|i| i * 3 + 1).collect();
        for threads in [1usize, 2, 4, 8] {
            set_thread_override(Some(threads));
            let got = pool_map(100, 1, |i| i * 3 + 1);
            assert_eq!(got, want, "threads={threads}");
        }
        set_thread_override(None);
    }

    #[test]
    fn pool_map_ranges_preserves_range_order() {
        let _g = OVERRIDE_LOCK.lock().unwrap();
        set_thread_override(Some(4));
        let got = pool_map_ranges(40, 1, |r| (r.start, r.end));
        let mut next = 0;
        for (s, e) in got {
            assert_eq!(s, next, "ranges come back in order");
            assert!(e > s);
            next = e;
        }
        assert_eq!(next, 40);
        set_thread_override(None);
    }

    #[test]
    fn lazy_init_grows_and_parks_workers() {
        let _g = OVERRIDE_LOCK.lock().unwrap();
        set_thread_override(Some(4));
        let _ = pool_map(64, 1, |i| i);
        let live = pool_worker_count();
        assert!(live >= 1, "at least one worker spawned, got {live}");
        assert!(live <= 4, "never more than the cap, got {live}");
        set_thread_override(None);
    }

    #[test]
    fn panic_in_one_job_propagates_and_pool_stays_usable() {
        let _g = OVERRIDE_LOCK.lock().unwrap();
        set_thread_override(Some(4));
        let err = std::panic::catch_unwind(|| {
            pool_map(16, 1, |i| {
                if i == 7 {
                    panic!("job seven exploded");
                }
                i
            })
        });
        let payload = err.expect_err("the panic must propagate to the caller");
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .map(String::from)
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(msg.contains("job seven exploded"), "got {msg:?}");
        // The pool must still produce correct results afterwards.
        let got = pool_map(32, 1, |i| i + 1);
        let want: Vec<usize> = (1..=32).collect();
        assert_eq!(got, want, "pool usable after a panicking region");
        set_thread_override(None);
    }

    #[test]
    fn first_panic_by_submission_order_wins() {
        let _g = OVERRIDE_LOCK.lock().unwrap();
        set_thread_override(Some(4));
        let mut fork: Fork<()> = Fork::new();
        for i in 0..6usize {
            fork.submit(move || {
                if i >= 2 {
                    panic!("panic-{i}");
                }
            });
        }
        let payload =
            std::panic::catch_unwind(AssertUnwindSafe(|| fork.join())).expect_err("join re-raises");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert_eq!(msg, "panic-2", "earliest submitted panic is the one raised");
        set_thread_override(None);
    }

    #[test]
    fn shutdown_joins_all_workers_and_pool_restarts() {
        let _g = OVERRIDE_LOCK.lock().unwrap();
        set_thread_override(Some(4));
        let _ = pool_map(64, 1, |i| i * 2);
        assert!(pool_worker_count() >= 1, "workers live before shutdown");
        shutdown_pool();
        assert_eq!(pool_worker_count(), 0, "shutdown joined every worker");
        // The next region lazily respawns workers and still works.
        let got = pool_map(64, 1, |i| i * 2);
        let want: Vec<usize> = (0..64).map(|i| i * 2).collect();
        assert_eq!(got, want);
        set_thread_override(None);
    }

    #[test]
    fn nested_fork_runs_inline_without_deadlock() {
        let _g = OVERRIDE_LOCK.lock().unwrap();
        set_thread_override(Some(2));
        let outer = pool_map(4, 1, |i| {
            assert!(crate::in_worker());
            // Nested region: must complete inline even though every pool
            // worker is already busy with the outer region.
            assert_eq!(crate::split_ranges(100, 1).len(), 1);
            let inner = pool_map(10, 1, move |j| i * 10 + j);
            inner.into_iter().sum::<usize>()
        });
        let want: Vec<usize> = (0..4).map(|i| (0..10).map(|j| i * 10 + j).sum()).collect();
        assert_eq!(outer, want);
        set_thread_override(None);
    }

    #[test]
    fn fork_collects_results_in_submission_order() {
        let _g = OVERRIDE_LOCK.lock().unwrap();
        set_thread_override(Some(4));
        let mut fork: Fork<usize> = Fork::new();
        for i in 0..16usize {
            fork.submit(move || {
                // Stagger completion so out-of-order finishes are likely.
                std::thread::sleep(std::time::Duration::from_micros(((16 - i) as u64) * 50));
                i * i
            });
        }
        let got = fork.join();
        let want: Vec<usize> = (0..16).map(|i| i * i).collect();
        assert_eq!(got, want);
        set_thread_override(None);
    }

    /// Spans opened inside pooled workers must parent under the forking
    /// span — the propagation contract au-core's batch and extraction
    /// fan-outs rely on.
    #[cfg(feature = "telemetry")]
    #[test]
    fn pooled_worker_spans_parent_under_the_forking_span() {
        let _g = OVERRIDE_LOCK.lock().unwrap();
        set_thread_override(Some(4));
        let rec = au_telemetry::global();
        au_telemetry::enable();
        let before = rec.span_count();
        let (root_trace, root_span) = {
            let root = rec.span("pool_root").expect("enabled");
            let ids = (root.trace_id().0, root.span_id().0);
            let _results = pool_map(8, 1, |i| {
                let _s = rec.span("pool_worker");
                i
            });
            ids
        };
        au_telemetry::disable();
        let workers: Vec<_> = rec
            .spans_since(before)
            .into_iter()
            .filter(|s| s.name == "pool_worker")
            .collect();
        assert_eq!(workers.len(), 8);
        for w in &workers {
            assert_eq!(w.trace_id, root_trace, "worker joined the trace");
            assert_eq!(w.parent_id, root_span, "worker parents under root");
        }
        set_thread_override(None);
    }
}
