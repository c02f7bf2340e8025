//! Serial stand-in for the retired au-par worker pool.
//!
//! Batch serving runs on the calling thread, and nothing in the runtime
//! forks. The crate exists only because the end-to-end benchmark's files
//! (`bench-e2e`) still call these four functions and cannot change
//! without a change to the benchmark; delete it with that change.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Has no effect: there is no thread budget to set.
pub fn set_thread_override(_threads: Option<usize>) {}

/// Always 1: every map runs on the calling thread.
pub fn max_threads() -> usize {
    1
}

/// `[f(0), …, f(len-1)]`, computed in order on the calling thread.
/// `min_chunk` is ignored.
pub fn pool_map<T, F>(len: usize, _min_chunk: usize, f: F) -> Vec<T>
where
    F: Fn(usize) -> T,
{
    (0..len).map(f).collect()
}

/// Always 0: there are no pool workers.
pub fn pool_worker_count() -> usize {
    0
}
