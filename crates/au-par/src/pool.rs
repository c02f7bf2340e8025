//! Persistent worker pool: parked threads that outlive any one region.
//!
//! Spawning threads per region makes small regions (per-row inference,
//! short extraction loops) unprofitable. This module keeps a process-wide
//! pool of parked workers so a region's only cost is pushing closures onto
//! a queue and notifying a sleeper.
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
//!   their inputs via `Arc` and use [`pool_map_ranges`] / [`pool_map`].
//! - **The join takes back unstarted jobs.** Every queued job carries its
//!   region's id. [`Fork::join`] removes its region's oldest job that no
//!   worker has popped, runs it on the joining thread, and repeats until
//!   none is left; then it blocks only for the jobs a worker started —
//!   the rule rayon's `join` follows. Waking a worker parked for tens of
//!   milliseconds costs about 100 µs, so a region whose jobs are shorter
//!   than that finishes on the caller instead of waiting for the wake.
//!   Workers still pop in FIFO order, and one that wakes while the caller
//!   runs a taken-back job takes the region's next one.
//! - **Order-preserving joins, panic propagation.** [`Fork::join`] returns
//!   results in submission order and re-raises the first panic (by
//!   submission order) *after* every job has settled — a panicking region
//!   never wedges or poisons the pool.
//! - **Nested-region suppression.** A `Fork` used from inside a pool
//!   worker runs its jobs inline on the submitting thread, so nesting
//!   degrades to serial execution instead of deadlocking a fixed-size
//!   pool.
//! - **Trace-context inheritance.** Jobs capture the forking thread's
//!   telemetry context when the `Fork` is created and install it around
//!   the job, on a worker or on the joining thread, so spans opened inside
//!   pooled jobs parent under the span that forked them.
//!
//! All of this is safe Rust (`forbid(unsafe_code)` is inherited from the
//! crate root): the queue is a `Mutex<VecDeque>` + `Condvar`, results come
//! back over `std::sync::mpsc`, and panics travel as `Box<dyn Any>` via
//! `catch_unwind`/`resume_unwind`.

use crate::{capture_context, in_worker, in_worker_with, max_threads, ForkContext};
use std::collections::VecDeque;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::thread;

/// A unit of pool work: owns everything it touches.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// A queued job and the id of the [`Fork`] that submitted it, so that
/// region's join can take back the jobs no worker has started.
struct Queued {
    region: u64,
    job: Job,
}

/// Source of [`Fork`] region ids, unique per process.
static NEXT_REGION: AtomicU64 = AtomicU64::new(0);

struct PoolQueue {
    jobs: VecDeque<Queued>,
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
    let avail = crate::available_cores();
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

/// Pushes one job of `region`, growing the pool if every worker is busy
/// and the cap allows, then wakes a sleeper. During shutdown the job runs
/// inline on the submitting thread instead (progress is guaranteed either
/// way).
fn submit_job(region: u64, job: Job) {
    let shared = pool();
    let mut q = lock(shared);
    if q.shutdown {
        drop(q);
        job();
        return;
    }
    let job: Job = if au_telemetry::enabled() {
        let queued = std::time::Instant::now();
        Box::new(move || {
            pmetrics::queue_wait(queued.elapsed().as_nanos() as u64);
            job();
        })
    } else {
        job
    };
    q.jobs.push_back(Queued { region, job });
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
                if let Some(queued) = q.jobs.pop_front() {
                    break Some(queued.job);
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

/// Removes the oldest queued job of `region`, if any, leaving the other
/// jobs in FIFO order. One job per lock acquisition, so a worker that
/// frees up while the caller runs this job can still pop the next one.
fn take_back_one(region: u64) -> Option<Job> {
    let mut q = lock(pool());
    let at = q.jobs.iter().position(|queued| queued.region == region)?;
    q.jobs.remove(at).map(|queued| queued.job)
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
/// [`submit`](Fork::submit) queues owned closures for pool workers;
/// [`join`](Fork::join) runs the ones no worker has started on the
/// joining thread, waits for the rest, and returns their results **in
/// submission order**, re-raising the first panic (by submission order)
/// if any job panicked. A job may therefore run on the thread that calls
/// `join`. Submissions made from inside an au-par worker run inline on
/// the submitting thread, so nested regions degrade to serial execution
/// instead of deadlocking the pool.
///
/// The forking thread's telemetry trace context is captured at
/// [`Fork::new`] and installed around every job, wherever it runs, so
/// spans opened inside pooled jobs parent under the span that forked them.
pub(crate) struct Fork<R> {
    tx: Sender<(usize, thread::Result<R>)>,
    rx: Receiver<(usize, thread::Result<R>)>,
    /// Tags this region's queued jobs for [`take_back_one`].
    region: u64,
    submitted: usize,
    inline: Vec<(usize, thread::Result<R>)>,
    ctx: ForkContext,
}

impl<R: Send + 'static> Fork<R> {
    /// Opens a region, capturing the caller's trace context.
    pub(crate) fn new() -> Self {
        let (tx, rx) = channel();
        Fork {
            tx,
            rx,
            region: NEXT_REGION.fetch_add(1, Ordering::Relaxed),
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
    pub(crate) fn submit(&mut self, f: impl FnOnce() -> R + Send + 'static) {
        let idx = self.submitted;
        self.submitted += 1;
        if in_worker() {
            let res = catch_unwind(AssertUnwindSafe(f));
            self.inline.push((idx, res));
            return;
        }
        let tx = self.tx.clone();
        let ctx = self.ctx;
        submit_job(
            self.region,
            Box::new(move || {
                let res = catch_unwind(AssertUnwindSafe(|| in_worker_with(ctx, f)));
                // The region may have unwound past its join; a dead
                // receiver is fine, the result is simply dropped.
                let _ = tx.send((idx, res));
            }),
        );
    }

    /// Runs the jobs no worker has started on this thread, waits for the
    /// rest, and returns the results in submission order.
    ///
    /// # Panics
    ///
    /// Re-raises the first panic (by submission order) after **all** jobs
    /// have settled, so a panicking region never leaves stray work running
    /// and the pool stays usable.
    #[cfg(test)]
    pub(crate) fn join(self) -> Vec<R> {
        self.run_unstarted();
        values_or_first_panic(self.wait_all())
    }

    /// Takes back this region's jobs that no worker has started, one at a
    /// time, and runs them on this thread. Each job catches its own panic
    /// and sends its outcome over the region's channel, as on a worker.
    fn run_unstarted(&self) {
        if self.submitted == self.inline.len() {
            return;
        }
        while let Some(job) = take_back_one(self.region) {
            pmetrics::reclaimed();
            pmetrics::job_run();
            job();
        }
    }

    /// Blocks until every job has sent its outcome and yields the outcomes
    /// in submission order; panics are not re-raised.
    fn wait_all(self) -> impl Iterator<Item = thread::Result<R>> {
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
        slots
            .into_iter()
            .map(|slot| slot.expect("every submitted job settles"))
    }
}

/// The values of settled jobs in order, or a re-raise of the first panic.
fn values_or_first_panic<R>(settled: impl Iterator<Item = thread::Result<R>>) -> Vec<R> {
    settled
        .collect::<thread::Result<Vec<R>>>()
        .unwrap_or_else(|p| resume_unwind(p))
}

/// Runs `f` once per range of `0..len`, split into at most
/// [`max_threads`](crate::max_threads) contiguous ranges of at least
/// `min_chunk` items (one range when `len < 2 * min_chunk`, none when
/// `len == 0`), and returns the per-range results in range order. The
/// calling thread takes the first range instead of idling, then at the
/// join every range no pool worker has started yet.
///
/// Requires an owning closure (`Send + Sync + 'static`) — share big
/// read-only inputs via `Arc` and move clones in. Results are identical
/// to a serial map at every thread count.
///
/// # Panics
///
/// Re-raises the first panic in range order only after every range has
/// settled, also when the panic came from the first range, which runs on
/// the calling thread.
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
    // A panic in the first range waits for the rest of the region.
    let head = catch_unwind(AssertUnwindSafe(|| {
        in_worker_with(ctx, || stats.measure(|| f(first)))
    }));
    fork.run_unstarted();
    // The join-wait clock starts after the take-back: it times blocking.
    let join_from = stats.join_point();
    let tail = fork.wait_all();
    stats.finish(join_from);
    values_or_first_panic(std::iter::once(head).chain(tail))
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

/// Pool-specific observability: park/wake totals, jobs executed (and how
/// many of them the join took back), queue wait, and the live pool size,
/// alongside the crate's region series.
mod pmetrics {
    use std::sync::OnceLock;

    pub(crate) fn park() {
        au_telemetry::count!("au_par.pool_park_total");
    }

    pub(crate) fn wake() {
        au_telemetry::count!("au_par.pool_wake_total");
    }

    pub(crate) fn job_run() {
        au_telemetry::count!("au_par.pool_jobs_total");
    }

    pub(crate) fn reclaimed() {
        au_telemetry::count!("au_par.pool_reclaimed_total");
    }

    pub(crate) fn queue_wait(ns: u64) {
        static H: OnceLock<au_telemetry::Histogram> = OnceLock::new();
        H.get_or_init(|| au_telemetry::histogram("au_par.pool_queue_wait"))
            .record(ns);
    }

    pub(crate) fn pool_size(workers: usize) {
        au_telemetry::gauge_set!("au_par.pool_size", workers);
    }
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

    /// The text of a panic payload raised by `panic!` with or without
    /// format arguments.
    fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
        payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_owned())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default()
    }

    /// Runs `body` at a 1-thread budget while the pool's only worker is
    /// blocked in another region's job, which a timer releases after 2 s.
    /// Leaves the override set to 1; callers reset it.
    fn with_only_worker_busy(body: impl FnOnce()) {
        set_thread_override(Some(1));
        shutdown_pool();
        let (started_tx, started) = channel();
        let (release, gate) = channel::<()>();
        let mut busy: Fork<()> = Fork::new();
        busy.submit(move || {
            started_tx.send(()).unwrap();
            let _ = gate.recv();
        });
        started.recv().unwrap();
        assert_eq!(pool_worker_count(), 1, "one worker, and it is busy");
        let timer = thread::spawn(move || {
            thread::sleep(std::time::Duration::from_secs(2));
            let _ = release.send(());
        });
        body();
        busy.join();
        timer.join().unwrap();
    }

    #[test]
    #[cfg_attr(miri, ignore)]
    fn join_runs_unstarted_jobs_instead_of_waiting_for_a_worker() {
        let _g = OVERRIDE_LOCK.lock().unwrap();
        with_only_worker_busy(|| {
            let start = std::time::Instant::now();
            let mut fork: Fork<thread::ThreadId> = Fork::new();
            fork.submit(|| thread::current().id());
            let ran_on = fork.join();
            let waited = start.elapsed();
            assert!(
                waited < std::time::Duration::from_millis(500),
                "join waited {waited:?} for the busy worker"
            );
            assert_eq!(ran_on, [thread::current().id()], "the join ran the job");
        });
        set_thread_override(None);
    }

    #[test]
    #[cfg_attr(miri, ignore)]
    fn taken_back_panic_is_raised_in_submission_order_and_caller_still_fans_out() {
        let _g = OVERRIDE_LOCK.lock().unwrap();
        with_only_worker_busy(|| {
            let mut fork: Fork<usize> = Fork::new();
            fork.submit(|| 1);
            fork.submit(|| panic!("taken-back-1"));
            fork.submit(|| panic!("taken-back-2"));
            let start = std::time::Instant::now();
            let payload = std::panic::catch_unwind(AssertUnwindSafe(|| fork.join()))
                .expect_err("join re-raises");
            assert!(
                start.elapsed() < std::time::Duration::from_millis(500),
                "the join ran the jobs itself"
            );
            assert_eq!(panic_text(&*payload), "taken-back-1");
            assert!(!crate::in_worker(), "the joining thread is no worker");
            set_thread_override(Some(2));
            assert_eq!(crate::split_ranges(100, 1).len(), 2, "caller fans out");
        });
        set_thread_override(None);
    }

    /// A taken-back job runs under the context captured at `Fork::new`,
    /// not under whatever span is open on the joining thread.
    #[test]
    #[cfg_attr(miri, ignore)]
    fn taken_back_job_spans_parent_under_the_forking_span() {
        let _g = OVERRIDE_LOCK.lock().unwrap();
        let rec = au_telemetry::global();
        with_only_worker_busy(|| {
            au_telemetry::enable();
            let before = rec.span_count();
            let (root_trace, root_span) = {
                let root = rec.span("reclaim_root").expect("enabled");
                let ids = (root.trace_id().0, root.span_id().0);
                let mut fork: Fork<thread::ThreadId> = Fork::new();
                fork.submit(move || {
                    let _s = rec.span("reclaimed_job");
                    thread::current().id()
                });
                let ran_on = {
                    let _other = rec.span("reclaim_join");
                    fork.join()
                };
                assert_eq!(ran_on, [thread::current().id()], "the join ran the job");
                ids
            };
            au_telemetry::disable();
            let jobs: Vec<_> = rec
                .spans_since(before)
                .into_iter()
                .filter(|s| s.name == "reclaimed_job")
                .collect();
            assert_eq!(jobs.len(), 1);
            assert_eq!(jobs[0].trace_id, root_trace, "job span joins the trace");
            assert_eq!(jobs[0].parent_id, root_span, "job span parents under root");
        });
        set_thread_override(None);
    }

    /// A panic in the head range must not leave the forking thread
    /// flagged as a worker: its later regions still fan out.
    #[test]
    fn head_range_panic_leaves_the_caller_able_to_fan_out() {
        let _g = OVERRIDE_LOCK.lock().unwrap();
        set_thread_override(Some(2));
        let err = std::panic::catch_unwind(|| {
            pool_map_ranges(2, 1, |r| {
                if r.start == 0 {
                    panic!("head range exploded");
                }
                r.start
            })
        });
        assert!(err.is_err(), "the head's panic propagates");
        assert_eq!(crate::split_ranges(100, 1).len(), 2, "caller fans out");
        set_thread_override(None);
    }

    /// A head-range panic reaches the caller only after the region's
    /// other ranges have finished.
    #[test]
    #[cfg_attr(miri, ignore)]
    fn head_range_panic_waits_for_the_rest_of_the_region() {
        let _g = OVERRIDE_LOCK.lock().unwrap();
        set_thread_override(Some(2));
        let done = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let flag = Arc::clone(&done);
        let err = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool_map_ranges(2, 1, move |r| {
                if r.start == 0 {
                    panic!("head range exploded");
                }
                thread::sleep(std::time::Duration::from_millis(200));
                flag.store(true, Ordering::SeqCst);
            })
        }));
        let payload = err.expect_err("the head's panic propagates");
        assert_eq!(panic_text(&*payload), "head range exploded");
        assert!(done.load(Ordering::SeqCst), "range 1 finished first");
        set_thread_override(None);
    }

    /// A burst of submissions on a cold pool spawns one worker per job
    /// while no worker is idle, up to the cap.
    #[test]
    fn a_burst_on_a_cold_pool_spawns_a_worker_per_job() {
        let _g = OVERRIDE_LOCK.lock().unwrap();
        set_thread_override(Some(4));
        shutdown_pool();
        let mut gates = Vec::new();
        let mut fork: Fork<()> = Fork::new();
        for _ in 0..3 {
            let (open, gate) = channel::<()>();
            gates.push(open);
            fork.submit(move || {
                let _ = gate.recv();
            });
        }
        assert_eq!(pool_worker_count(), 3, "one worker per submitted job");
        drop(gates);
        fork.join();
        set_thread_override(None);
    }

    /// The join takes back one job at a time: a worker that frees up while
    /// the caller runs the first taken-back job runs the next one.
    #[test]
    #[cfg_attr(miri, ignore)]
    fn a_worker_freed_during_a_taken_back_job_runs_the_next_one() {
        let _g = OVERRIDE_LOCK.lock().unwrap();
        set_thread_override(Some(4));
        shutdown_pool();
        // Occupy all four workers, each until its own gate opens.
        let (started_tx, started) = channel();
        let mut gates = Vec::new();
        let mut busy: Fork<()> = Fork::new();
        for _ in 0..4 {
            let (open, gate) = channel::<()>();
            gates.push(open);
            let started_tx = started_tx.clone();
            busy.submit(move || {
                started_tx.send(()).unwrap();
                let _ = gate.recv();
            });
        }
        for _ in 0..4 {
            started.recv().unwrap();
        }
        assert_eq!(pool_worker_count(), 4, "four workers, all busy");
        let free_one = gates.pop().expect("four gates");
        let (second_started_tx, second_started) = channel();
        let mut fork: Fork<thread::ThreadId> = Fork::new();
        fork.submit(move || {
            free_one.send(()).unwrap();
            // The freed worker pops the second job unless the join took
            // it back together with this one.
            let _ = second_started.recv_timeout(std::time::Duration::from_secs(5));
            thread::current().id()
        });
        fork.submit(move || {
            let _ = second_started_tx.send(());
            thread::current().id()
        });
        let ran_on = fork.join();
        let me = thread::current().id();
        assert_eq!(ran_on[0], me, "the join took back the first job");
        assert_ne!(ran_on[1], me, "the freed worker ran the second job");
        drop(gates);
        busy.join();
        set_thread_override(None);
    }
}
