//! The model-registry layer: the model store θ behind per-model locks.
//!
//! θ is one name→entry map. Each [`ModelEntry`] sits behind its own
//! [`EntryLock`], so two threads serving *different* models never contend
//! past the lookup, threads serving the *same* model in deployment mode
//! share a read lock, and training writes the weights in place under the
//! write lock.
//!
//! Lock discipline: the registry hands out `Arc`s to entries; callers lock
//! an entry only after releasing the map lock, never lock an entry they
//! already hold, and the engine layer never holds an entry lock and the π
//! lock at the same time.

use crate::error::AuError;
use crate::lockwait::{registry_read, registry_write};
use crate::model::{ModelConfig, ModelEntry};
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Locks a mutex, recovering the data if a previous holder panicked — the
/// stores hold plain data that stays structurally valid across unwinds, so
/// poisoning must not cascade into every other serving thread.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Read-locks an `RwLock`, recovering from poisoning (see [`lock`]).
pub(crate) fn read<T>(l: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    l.read().unwrap_or_else(|e| e.into_inner())
}

/// Write-locks an `RwLock`, recovering from poisoning (see [`lock`]).
pub(crate) fn write<T>(l: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    l.write().unwrap_or_else(|e| e.into_inner())
}

/// One model's entry behind a writer-preferring lock. Behind a plain
/// `RwLock`, a reader that re-locks right after each release kept a
/// waiting writer out for seconds; here a writer holds `gate` while it
/// waits, and a reader passes `gate` before it read-locks.
#[derive(Debug)]
pub(crate) struct EntryLock {
    gate: Mutex<()>,
    entry: RwLock<ModelEntry>,
}

impl EntryLock {
    fn new(entry: ModelEntry) -> Self {
        EntryLock {
            gate: Mutex::new(()),
            entry: RwLock::new(entry),
        }
    }

    /// Read-locks the entry once no writer is waiting.
    pub fn read(&self) -> RwLockReadGuard<'_, ModelEntry> {
        drop(lock(&self.gate));
        read(&self.entry)
    }

    /// Write-locks the entry, holding off new readers while it waits.
    pub fn write(&self) -> RwLockWriteGuard<'_, ModelEntry> {
        let _gate = lock(&self.gate);
        write(&self.entry)
    }
}

/// A shared, lockable handle to one model's entry.
pub(crate) type SharedEntry = Arc<EntryLock>;

/// The model store θ: name → entry, with per-entry locks.
#[derive(Debug, Default)]
pub(crate) struct ModelRegistry {
    models: RwLock<BTreeMap<String, SharedEntry>>,
}

impl ModelRegistry {
    /// Looks a model up, returning a clone of its shared entry. The map
    /// lock is released before the caller locks the entry.
    pub fn get(&self, name: &str) -> Option<SharedEntry> {
        registry_read(&self.models).get(name).cloned()
    }

    /// Registers a model, treating re-registration with an *identical*
    /// configuration as a no-op (rule CONFIG-TRAIN's θ(mdName) ≢ ⊥ case).
    ///
    /// # Errors
    ///
    /// [`AuError::ModelExists`] if the name is taken by a different
    /// configuration.
    pub fn insert(&self, name: &str, entry: ModelEntry) -> Result<(), AuError> {
        let existing = match registry_write(&self.models).entry(name.to_owned()) {
            Entry::Vacant(slot) => {
                slot.insert(Arc::new(EntryLock::new(entry)));
                return Ok(());
            }
            Entry::Occupied(slot) => Arc::clone(slot.get()),
        };
        if existing.read().config == entry.config {
            Ok(())
        } else {
            Err(AuError::ModelExists(name.to_owned()))
        }
    }

    /// Registers a model that must not exist yet (custom networks carry no
    /// comparable configuration, so idempotent re-registration is unsound).
    ///
    /// # Errors
    ///
    /// [`AuError::ModelExists`] if the name is taken.
    pub fn insert_new(&self, name: &str, entry: ModelEntry) -> Result<(), AuError> {
        let mut models = registry_write(&self.models);
        if models.contains_key(name) {
            return Err(AuError::ModelExists(name.to_owned()));
        }
        models.insert(name.to_owned(), Arc::new(EntryLock::new(entry)));
        Ok(())
    }

    /// All registered names in sorted order.
    pub fn names(&self) -> Vec<String> {
        registry_read(&self.models).keys().cloned().collect()
    }

    /// Validates a configuration against an existing entry, mirroring
    /// [`ModelRegistry::insert`]'s comparison without inserting.
    pub fn check_config(&self, name: &str, config: &ModelConfig) -> Option<Result<(), AuError>> {
        let entry = self.get(name)?;
        let same = entry.read().config == *config;
        Some(if same {
            Ok(())
        } else {
            Err(AuError::ModelExists(name.to_owned()))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::{Duration, Instant};

    /// A reader that re-locks right after each 1 ms hold (a busy one, like
    /// a forward pass) cannot keep a writer out: each write waits at most
    /// for the read already inside. Behind a plain `RwLock` such a reader
    /// held writers out for seconds.
    #[test]
    fn a_relocking_reader_does_not_starve_writers() {
        const WRITES: usize = 20;
        let limit = Duration::from_secs(1);
        let entry = EntryLock::new(ModelEntry::new(ModelConfig::dnn(&[4])));
        let (reading, stop) = (AtomicBool::new(false), AtomicBool::new(false));
        let mut waits = Vec::new();
        std::thread::scope(|scope| {
            scope.spawn(|| {
                while !stop.load(Ordering::SeqCst) {
                    let _g = entry.read();
                    reading.store(true, Ordering::SeqCst);
                    let hold = Instant::now();
                    while hold.elapsed() < Duration::from_millis(1) {
                        std::hint::spin_loop();
                    }
                }
            });
            while !reading.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
            for i in 0..WRITES {
                std::thread::sleep(Duration::from_millis(2));
                let start = Instant::now();
                entry.write().n_actions = i;
                waits.push(start.elapsed());
                if waits[i] >= limit {
                    break;
                }
            }
            stop.store(true, Ordering::SeqCst);
        });
        assert_eq!(waits.len(), WRITES, "a write waited {:?}", waits.last());
        assert!(waits.iter().all(|w| *w < limit), "{waits:?}");
    }

    #[test]
    fn insert_then_get_round_trips() {
        let reg = ModelRegistry::default();
        reg.insert("M", ModelEntry::new(ModelConfig::dnn(&[4])))
            .unwrap();
        let entry = reg.get("M").unwrap();
        assert_eq!(entry.read().n_actions, 0);
        assert!(reg.get("other").is_none());
    }

    #[test]
    fn reinsert_same_config_is_idempotent() {
        let reg = ModelRegistry::default();
        reg.insert("M", ModelEntry::new(ModelConfig::dnn(&[4])))
            .unwrap();
        assert!(reg
            .insert("M", ModelEntry::new(ModelConfig::dnn(&[4])))
            .is_ok());
        assert!(matches!(
            reg.insert("M", ModelEntry::new(ModelConfig::dnn(&[8]))),
            Err(AuError::ModelExists(_))
        ));
        assert!(matches!(
            reg.insert_new("M", ModelEntry::new(ModelConfig::dnn(&[4]))),
            Err(AuError::ModelExists(_))
        ));
    }

    #[test]
    fn names_are_sorted() {
        let reg = ModelRegistry::default();
        for name in ["zeta", "alpha", "mid", "beta", "omega", "kappa"] {
            reg.insert(name, ModelEntry::new(ModelConfig::dnn(&[2])))
                .unwrap();
        }
        assert_eq!(
            reg.names(),
            vec!["alpha", "beta", "kappa", "mid", "omega", "zeta"]
        );
    }
}
