//! Contention observability for the runtime's two hottest shared locks:
//! the π-store mutex ([`crate::handle`]'s `shared.db`) and the registry's
//! name→entry `RwLock`.
//!
//! Each wrapper tries the lock first; the uncontended fast path is one
//! `try_lock` (no clock read, no recorder touch). Only when that fails
//! does it time the blocking acquire and record the wait into a
//! histogram plus a contended-acquisition counter on the global
//! recorder:
//!
//! | series                        | kind      | meaning                          |
//! |-------------------------------|-----------|----------------------------------|
//! | `au_core.pi_lock_wait`        | histogram | ns blocked on the π-store mutex  |
//! | `au_core.pi_lock_contended`   | counter   | contended π-store acquisitions   |
//! | `au_core.shard_lock_wait`     | histogram | ns blocked on the registry lock  |
//! | `au_core.shard_lock_contended`| counter   | contended registry acquisitions  |
//!
//! The registry series keep the `shard_lock` names the benchmark reads,
//! from when θ was split over several maps.
//!
//! Poisoning recovers via `into_inner` exactly like the plain helpers in
//! [`crate::registry`].

use std::sync::OnceLock;
use std::sync::{Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard, TryLockError};

/// One instrumented lock site: lazily registered histogram + counter.
struct Site {
    wait: &'static str,
    contended: &'static str,
    cell: OnceLock<(au_telemetry::Histogram, au_telemetry::Counter)>,
}

impl Site {
    const fn new(wait: &'static str, contended: &'static str) -> Self {
        Site {
            wait,
            contended,
            cell: OnceLock::new(),
        }
    }

    fn record(&self, ns: u64) {
        let (hist, count) = self.cell.get_or_init(|| {
            (
                au_telemetry::histogram(self.wait),
                au_telemetry::counter(self.contended),
            )
        });
        hist.record(ns);
        count.add(1);
    }
}

static PI: Site = Site::new("au_core.pi_lock_wait", "au_core.pi_lock_contended");
static REGISTRY: Site = Site::new("au_core.shard_lock_wait", "au_core.shard_lock_contended");

/// Locks the π-store mutex, timing the wait when contended.
pub(crate) fn pi_lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    match m.try_lock() {
        Ok(g) => return g,
        Err(TryLockError::Poisoned(e)) => return e.into_inner(),
        Err(TryLockError::WouldBlock) => {}
    }
    timed(&PI, || crate::registry::lock(m))
}

/// Read-locks the registry map, timing the wait when contended.
pub(crate) fn registry_read<T>(l: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    match l.try_read() {
        Ok(g) => return g,
        Err(TryLockError::Poisoned(e)) => return e.into_inner(),
        Err(TryLockError::WouldBlock) => {}
    }
    timed(&REGISTRY, || crate::registry::read(l))
}

/// Write-locks the registry map, timing the wait when contended.
pub(crate) fn registry_write<T>(l: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    match l.try_write() {
        Ok(g) => return g,
        Err(TryLockError::Poisoned(e)) => return e.into_inner(),
        Err(TryLockError::WouldBlock) => {}
    }
    timed(&REGISTRY, || crate::registry::write(l))
}

/// Times a blocking acquire; skips the recorder (but still acquires)
/// when telemetry capture is globally off.
fn timed<G>(site: &Site, acquire: impl FnOnce() -> G) -> G {
    if !au_telemetry::enabled() {
        return acquire();
    }
    let start = std::time::Instant::now();
    let g = acquire();
    site.record(start.elapsed().as_nanos() as u64);
    g
}
