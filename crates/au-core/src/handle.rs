//! The layered, concurrently servable Autonomizer runtime.
//!
//! [`EngineHandle`] is a cheap `Clone` (`Arc`) over the runtime's layered
//! state, and every primitive takes `&self`, so clones can serve predictions
//! from many threads at once. The layers (see `docs/architecture.md`):
//!
//! - **model registry** (θ) — [`crate::registry::ModelRegistry`]: one
//!   name→entry map with per-model `RwLock`s, so deployment-mode serving of
//!   one model shares a read lock and different models never contend;
//! - **db store** (π) — a [`DbLayer`] behind one mutex: the `DbStore` and
//!   the label-freshness marks derived from it, which must stay mutually
//!   consistent;
//! - **inference** — the `au_nn`/`au_nn_rl`/`predict`/`predict_batch`
//!   methods: a read-locked fast path in TS mode, a write-locked slow path
//!   for training and first-call network construction;
//! - **monitoring/telemetry** — interior-mutable counters (atomics) plus the
//!   monitor state behind its own mutex, usable from `&self`.
//!
//! Lock discipline: no method holds two of {registry map, model entry, π,
//! monitor} locks at once; file I/O happens with no lock held.

use crate::error::AuError;
use crate::lockwait::pi_lock;
use crate::model::{
    rl_step, run_model_f32_into, run_model_ref, supervised_step, to_f32, Algorithm, Backend,
    ModelConfig, ModelEntry, ModelStats,
};
use crate::monitoring::BaselineMeta;
use crate::monitoring::MonitorState;
use crate::registry::lock;
use crate::registry::{read, write, ModelRegistry};
use crate::store::DbStore;
use au_nn::rl::DqnAgent;
use au_nn::{net_mut, Adam, Network, Tensor};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock};

/// Execution mode ω from Fig. 8: training (TR) or deployment/testing (TS).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mode {
    /// TR — the program's execution trains the model(s) while running.
    Train,
    /// TS — trained models replace human interaction; no learning happens.
    Test,
}

impl Mode {
    fn as_u8(self) -> u8 {
        match self {
            Mode::Train => 0,
            Mode::Test => 1,
        }
    }

    fn from_u8(v: u8) -> Mode {
        if v == 0 {
            Mode::Train
        } else {
            Mode::Test
        }
    }
}

/// Per (model, wb-name) append-counter marks distinguishing fresh labels
/// from stale predictions in `au_nn`.
pub(crate) type LabelMarks = BTreeMap<(String, String), u64>;

/// A combined snapshot of host program state `S` and the database store π.
///
/// Fig. 8's CHECKPOINT rule snapshots ⟨σ, π⟩ *together* (their consistency
/// matters) while the model store θ is exempt so learning accumulates across
/// episode rollbacks.
#[derive(Debug, Clone)]
pub struct Checkpoint<S> {
    program: S,
    db: DbStore,
    /// Label-freshness marks are derived from π's append counters, so they
    /// roll back with it.
    label_marks: LabelMarks,
}

#[derive(Serialize, Deserialize)]
pub(crate) struct ModelMeta {
    pub output_split: Vec<usize>,
    pub n_actions: usize,
    /// Mean absolute training error, when monitoring collected one; the
    /// deployed monitor compares live rolling MAE against it.
    pub baseline_mae: Option<f64>,
    /// Per-feature training input distribution, when monitoring collected
    /// one; the deployed monitor detects drift against it.
    pub feature_baseline: Option<BaselineMeta>,
}

impl ModelMeta {
    /// Checks the sidecar's shapes against the network it was saved with,
    /// so a mismatched pair fails at load instead of panicking when the
    /// model first serves.
    fn check_against(&self, net: &Network) -> Result<(), String> {
        let (inputs, outputs) = (net.in_features(), net.out_features());
        if self.n_actions != 0 && self.n_actions != outputs {
            return Err(format!(
                "n_actions {} but the network has {outputs} outputs",
                self.n_actions
            ));
        }
        let split_width = self
            .output_split
            .iter()
            .try_fold(0usize, |sum, &w| sum.checked_add(w));
        if split_width.is_none_or(|w| w > outputs) {
            return Err(format!(
                "output_split {:?} needs more than the network's {outputs} outputs",
                self.output_split
            ));
        }
        if let Some(b) = &self.feature_baseline {
            let widths = [b.min.len(), b.max.len(), b.mean.len(), b.var.len()];
            if widths.iter().any(|&w| w != inputs) {
                return Err(format!(
                    "feature_baseline columns {widths:?} but the network has {inputs} inputs"
                ));
            }
        }
        Ok(())
    }
}

/// The π layer: the database store plus the state that must stay
/// transactionally consistent with it — the label-freshness marks derived
/// from its append counters.
#[derive(Debug, Default)]
pub(crate) struct DbLayer {
    pub db: DbStore,
    pub label_marks: LabelMarks,
}

/// The layered state shared by every clone of an [`EngineHandle`].
#[derive(Debug)]
struct EngineShared {
    /// Mode ω as an atomic so reads never take a lock.
    mode: AtomicU8,
    model_dir: RwLock<Option<PathBuf>>,
    /// The model store θ.
    registry: ModelRegistry,
    /// The database store π with its dependent state.
    db: Mutex<DbLayer>,
    /// Lifetime count of scalars extracted, *not* rolled back by checkpoint
    /// restores — the paper's trace-size metric (Table 2).
    extracted_total: AtomicU64,
    /// Per-model monitors, baseline accumulators, and the active monitor
    /// configuration (inert until monitoring is switched on).
    monitor: Mutex<MonitorState>,
}

/// A cloneable, thread-safe handle to one Autonomizer runtime.
///
/// All primitives take `&self`; clone the handle into as many threads as
/// needed. Deployment-mode (`TS`) prediction paths run under read locks so
/// they proceed in parallel; training and registration serialize per model.
#[derive(Debug, Clone)]
pub struct EngineHandle {
    shared: Arc<EngineShared>,
}

/// Read guard over the database store π, returned by
/// [`EngineHandle::db`]/`Engine::db`. Holds the π lock — drop it before
/// calling primitives that write π.
pub struct DbRef<'a> {
    guard: MutexGuard<'a, DbLayer>,
}

impl std::ops::Deref for DbRef<'_> {
    type Target = DbStore;

    fn deref(&self) -> &DbStore {
        &self.guard.db
    }
}

/// Read guard over one model's live monitor, returned by
/// [`EngineHandle::monitor`]/`Engine::monitor`. Holds the monitor lock —
/// drop it before calling primitives that observe into the monitor.
pub struct MonitorRef<'a> {
    guard: MutexGuard<'a, MonitorState>,
    model: String,
}

impl std::ops::Deref for MonitorRef<'_> {
    type Target = au_monitor::ModelMonitor;

    fn deref(&self) -> &au_monitor::ModelMonitor {
        self.guard
            .monitors
            .get(&self.model)
            .expect("checked at construction")
    }
}

impl EngineHandle {
    /// Creates a runtime in the given mode.
    pub fn new(mode: Mode) -> Self {
        EngineHandle {
            shared: Arc::new(EngineShared {
                mode: AtomicU8::new(mode.as_u8()),
                model_dir: RwLock::new(None),
                registry: ModelRegistry::default(),
                db: Mutex::new(DbLayer::default()),
                extracted_total: AtomicU64::new(0),
                monitor: Mutex::new(MonitorState::default()),
            }),
        }
    }

    /// Current execution mode.
    pub fn mode(&self) -> Mode {
        Mode::from_u8(self.shared.mode.load(Ordering::Relaxed))
    }

    /// Switches mode (e.g. finish training, then deploy in the same
    /// process — the in-process equivalent of the paper's two executables).
    pub fn set_mode(&self, mode: Mode) {
        self.shared.mode.store(mode.as_u8(), Ordering::Relaxed);
    }

    /// Directory used to persist and load trained models.
    pub fn set_model_dir(&self, dir: impl Into<PathBuf>) {
        *write(&self.shared.model_dir) = Some(dir.into());
    }

    fn model_dir_or_cwd(&self) -> PathBuf {
        read(&self.shared.model_dir)
            .clone()
            .unwrap_or_else(|| PathBuf::from("."))
    }

    /// Read access to the database store π (a guard — see [`DbRef`]).
    pub fn db(&self) -> DbRef<'_> {
        DbRef {
            guard: pi_lock(&self.shared.db),
        }
    }

    // ------------------------------------------------------------------
    // Primitives
    // ------------------------------------------------------------------

    /// `@au_config(modelName, modelType, algo, layers, n1, …)`.
    ///
    /// Rule CONFIG-TRAIN: in TR mode, registers a fresh model (a no-op if
    /// the same configuration is already registered). Rule CONFIG-TEST: in
    /// TS mode, loads the trained model from the model directory.
    ///
    /// # Errors
    ///
    /// [`AuError::ModelExists`] if the name is taken by a *different*
    /// configuration; [`AuError::ModelNotTrained`] in TS mode when no saved
    /// model exists; [`AuError::Backend`] if a saved model fails to parse.
    pub fn au_config(&self, name: &str, config: ModelConfig) -> Result<(), AuError> {
        let _s = au_telemetry::span!("au_config", model = name);
        au_telemetry::count!("au_core.au_config_calls");
        if let Some(result) = self.shared.registry.check_config(name, &config) {
            return result; // θ(mdName) ≢ ⊥ ⇒ θ′ = θ, or ModelExists
        }
        let mut entry = ModelEntry::new(config);
        if self.mode() == Mode::Test {
            let (net, meta) = self.load_model_files(name)?;
            if !meta.output_split.is_empty() {
                entry.output_split = Some(meta.output_split.clone());
            }
            entry.n_actions = meta.n_actions;
            lock(&self.shared.monitor).install_loaded(
                name,
                meta.feature_baseline.as_ref(),
                meta.baseline_mae,
            );
            entry.backend = Some(match entry.config.algorithm {
                Algorithm::AdamOpt => Backend::Supervised {
                    net: Arc::new(net),
                    opt: Adam::new(entry.config.learning_rate),
                    train_steps: 0,
                },
                Algorithm::QLearn => {
                    let inputs = net.in_features();
                    let actions = if entry.n_actions > 0 {
                        entry.n_actions
                    } else {
                        net.out_features()
                    };
                    entry.n_actions = actions;
                    let mut dqn = entry.config.dqn.clone();
                    dqn.epsilon_start = 0.0;
                    dqn.epsilon_end = 0.0;
                    Backend::Reinforcement {
                        agent: Box::new(DqnAgent::with_network(inputs, actions, dqn, net)),
                        pending: None,
                        train_steps: 0,
                    }
                }
            });
        }
        self.shared.registry.insert(name, entry)
    }

    /// `au_config` with a caller-built network — the paper's escape hatch:
    /// "We also provide a callback function in which the users can create
    /// arbitrary neural networks from scratch". The network's input/output
    /// widths are fixed by the caller; `algorithm` selects supervised or
    /// Q-learning use.
    ///
    /// # Errors
    ///
    /// [`AuError::ModelExists`] if the name is already configured.
    pub fn au_config_custom(
        &self,
        name: &str,
        algorithm: Algorithm,
        network: Network,
    ) -> Result<(), AuError> {
        let _s = au_telemetry::span!("au_config_custom", model = name);
        au_telemetry::count!("au_core.au_config_calls");
        let config = match algorithm {
            Algorithm::AdamOpt => ModelConfig::dnn(&[]),
            Algorithm::QLearn => ModelConfig::q_dnn(&[]),
        };
        let mut entry = ModelEntry::new(config);
        entry.backend = Some(match algorithm {
            Algorithm::AdamOpt => Backend::Supervised {
                net: Arc::new(network),
                opt: Adam::new(1e-3),
                train_steps: 0,
            },
            Algorithm::QLearn => {
                let inputs = network.in_features();
                let n_actions = network.out_features();
                entry.n_actions = n_actions;
                Backend::Reinforcement {
                    agent: Box::new(DqnAgent::with_network(
                        inputs,
                        n_actions,
                        entry.config.dqn.clone(),
                        network,
                    )),
                    pending: None,
                    train_steps: 0,
                }
            }
        });
        self.shared.registry.insert_new(name, entry)
    }

    /// Persists the database store π to a JSON file — the paper's runtime
    /// "saves [feature values] to database"; a later process (offline SL
    /// training) loads them back with [`EngineHandle::load_db`].
    ///
    /// # Errors
    ///
    /// [`AuError::Backend`] on I/O failure.
    pub fn save_db(&self, path: impl AsRef<std::path::Path>) -> Result<(), AuError> {
        let _t = au_telemetry::time!("au_core.db_save");
        au_telemetry::count!("au_core.db_saves");
        let json = {
            let d = pi_lock(&self.shared.db);
            let map: BTreeMap<&str, &[f64]> = d.db.iter().collect();
            serde_json::to_string(&map).expect("db serializes")
        };
        std::fs::write(path, json).map_err(|e| AuError::Backend(e.into()))?;
        Ok(())
    }

    /// Loads a database store saved by [`EngineHandle::save_db`], replacing π.
    ///
    /// # Errors
    ///
    /// [`AuError::Backend`] on I/O failure or malformed content.
    pub fn load_db(&self, path: impl AsRef<std::path::Path>) -> Result<(), AuError> {
        let _t = au_telemetry::time!("au_core.db_load");
        au_telemetry::count!("au_core.db_loads");
        let raw = std::fs::read_to_string(path).map_err(|e| AuError::Backend(e.into()))?;
        let map: BTreeMap<String, Vec<f64>> = serde_json::from_str(&raw)
            .map_err(|e| AuError::Backend(au_nn::NnError::Format(e.to_string())))?;
        let mut loaded = 0u64;
        let mut db = DbStore::new();
        for (name, values) in map {
            db.append(&name, &values);
            loaded += values.len() as u64;
        }
        pi_lock(&self.shared.db).db = db;
        self.shared
            .extracted_total
            .fetch_add(loaded, Ordering::Relaxed);
        Ok(())
    }

    /// `@au_extract(extName, size, data)` — rule EXTRACT.
    ///
    /// Appends the current values of a feature variable to the π list named
    /// `name`. The slice length plays the role of the paper's `size`.
    pub fn au_extract(&self, name: &str, values: &[f64]) {
        let _t = au_telemetry::time!("au_core.au_extract");
        au_telemetry::count!("au_core.extract_rows", values.len() as u64);
        self.shared
            .extracted_total
            .fetch_add(values.len() as u64, Ordering::Relaxed);
        pi_lock(&self.shared.db).db.append(name, values);
    }

    /// `@au_extract` for native-`f32` feature vectors — the hot-path twin
    /// of [`EngineHandle::au_extract`]. Each value is widened exactly
    /// (every `f32` is representable as an `f64`) straight into π with no
    /// intermediate buffer, so extract→serve loops built on
    /// [`EngineHandle::predict_f32_into`] never convert through `f64` on
    /// their own account.
    pub fn au_extract_f32(&self, name: &str, values: &[f32]) {
        let _t = au_telemetry::time!("au_core.au_extract");
        au_telemetry::count!("au_core.extract_rows", values.len() as u64);
        self.shared
            .extracted_total
            .fetch_add(values.len() as u64, Ordering::Relaxed);
        pi_lock(&self.shared.db).db.append_f32(name, values);
    }

    /// Lifetime count of scalars extracted through
    /// [`EngineHandle::au_extract`]. It survives checkpoint restores — it
    /// is the paper's Table 2 trace-size metric.
    pub fn total_extracted(&self) -> u64 {
        self.shared.extracted_total.load(Ordering::Relaxed)
    }

    /// `@au_serialize(t1, t2, …)` — rule SERIALIZE.
    ///
    /// Concatenates the named π lists into a single list (neural networks
    /// take vector inputs) stored under the concatenated name, which is
    /// returned for passing to [`EngineHandle::au_nn`]/
    /// [`EngineHandle::au_nn_rl`].
    ///
    /// The component lists are *consumed* (reset to ⊥): rule TRAIN/TEST
    /// resets only the combined `extName`, and without consuming the
    /// components a loop like Fig. 2's would feed an ever-growing input to
    /// a fixed-width model. Consuming keeps the semantics' invariant that
    /// each `au_NN` call sees exactly the values extracted since the last
    /// one.
    pub fn au_serialize(&self, names: &[&str]) -> String {
        let _t = au_telemetry::time!("au_core.au_serialize");
        let mut d = pi_lock(&self.shared.db);
        let combined = d.db.serialize(names);
        for name in names {
            if **name != *combined {
                d.db.clear(name);
            }
        }
        combined
    }

    /// `@au_NN(modelName, extName, wbName1, …)` for supervised models —
    /// rules TRAIN and TEST.
    ///
    /// In TR mode, if π holds recorded desirable outputs under the `wb`
    /// names (the labels — e.g. the ideal parameter values for the current
    /// input), one gradient step is taken toward them. The model is then run
    /// on π(`ext`); its output is split across the `wb` names in π and the
    /// input list is reset to ⊥. Returns the flat model output.
    ///
    /// In TS mode with the output split already known, the whole call runs
    /// under a model *read* lock, so cloned handles serve concurrently.
    ///
    /// # Errors
    ///
    /// [`AuError::UnknownModel`] if `au_config` never ran for `model`;
    /// [`AuError::MissingData`] if π(`ext`) is empty or (on the first TR
    /// call) no labels exist to fix the output width;
    /// [`AuError::WrongAlgorithm`] for QLearn models.
    pub fn au_nn(&self, model: &str, ext: &str, wbs: &[&str]) -> Result<Vec<f64>, AuError> {
        let _s = au_telemetry::span!("au_nn", model = model);
        let _t = au_telemetry::time!("au_core.au_nn");
        let mode = self.mode();
        let input = pi_lock(&self.shared.db).db.get(ext).to_vec();
        if input.is_empty() {
            return Err(AuError::MissingData {
                name: ext.to_owned(),
                wanted: 1,
                available: 0,
            });
        }
        // Graceful degradation: once the monitor's fallback policy trips,
        // refuse to serve. The input is still consumed (π(ext) → ⊥) so the
        // caller's fallback path starts from a clean store.
        if mode == Mode::Test && self.monitor_degraded(model) {
            pi_lock(&self.shared.db).db.clear(ext);
            return Err(AuError::ModelDegraded(model.to_owned()));
        }
        let entry = self
            .shared
            .registry
            .get(model)
            .ok_or_else(|| AuError::UnknownModel(model.to_owned()))?;
        let known_split = read(&entry).output_split.clone();
        // Labels recorded under the wb names (training mode only). After a
        // previous au_NN call, each wb list starts with that call's
        // prediction; a freshly extracted label is *appended* behind it. A
        // wb list counts as carrying a label only if au_extract has touched
        // it since the last au_NN call on this model, and once the output
        // split is known only the tail of each list is the label.
        let labels: Vec<Vec<f64>> = {
            let d = pi_lock(&self.shared.db);
            wbs.iter()
                .enumerate()
                .map(|(i, wb)| {
                    let mark_key = (model.to_owned(), (*wb).to_owned());
                    let fresh =
                        d.db.append_count(wb) > d.label_marks.get(&mark_key).copied().unwrap_or(0);
                    if !fresh {
                        return Vec::new();
                    }
                    let full = d.db.get(wb);
                    match &known_split {
                        Some(split) if full.len() >= split[i] && split[i] > 0 => {
                            full[full.len() - split[i]..].to_vec()
                        }
                        _ => full.to_vec(),
                    }
                })
                .collect()
        };
        let have_labels = mode == Mode::Train && labels.iter().all(|l| !l.is_empty());
        let label_flat: Vec<f64> = labels.iter().flatten().copied().collect();

        // Deployment fast path: split and backend already fixed ⇒ serve
        // under the model's read lock so clones predict in parallel.
        let mut fast: Option<(Vec<f64>, Vec<usize>)> = None;
        if mode == Mode::Test {
            let g = read(&entry);
            if let (Some(s), Some(Backend::Supervised { net, .. })) =
                (g.output_split.as_ref(), g.backend.as_ref())
            {
                if s.len() == wbs.len() {
                    if net.in_features() != input.len() {
                        return Err(AuError::InputSizeChanged {
                            model: model.to_owned(),
                            built: net.in_features(),
                            got: input.len(),
                        });
                    }
                    au_telemetry::count!("au_core.predictions_served");
                    fast = Some((run_model_ref(net, &input), s.clone()));
                }
            }
        }
        let (output, split) = match fast {
            Some(ready) => ready,
            None => {
                // Slow path: first call (split/backend unknown) or training
                // — serialize on the model's write lock.
                let mut g = write(&entry);
                let split: Vec<usize> = if let Some(split) = g.output_split.clone() {
                    split
                } else if have_labels {
                    labels.iter().map(Vec::len).collect()
                } else if let Some(Backend::Supervised { net, .. }) = g.backend.as_ref() {
                    // Loaded model without sidecar: split evenly.
                    let out = net.out_features();
                    let each = out / wbs.len().max(1);
                    vec![each; wbs.len()]
                } else {
                    return Err(AuError::MissingData {
                        name: wbs.first().copied().unwrap_or("<wb>").to_owned(),
                        wanted: 1,
                        available: 0,
                    });
                };
                if split.len() != wbs.len() {
                    return Err(AuError::MissingData {
                        name: wbs.first().copied().unwrap_or("<wb>").to_owned(),
                        wanted: split.len(),
                        available: wbs.len(),
                    });
                }
                let out_width: usize = split.iter().sum();
                g.output_split = Some(split.clone());
                let backend = g.ensure_supervised(model, input.len(), out_width)?;
                let output = match backend {
                    Backend::Supervised {
                        net,
                        opt,
                        train_steps,
                    } => {
                        if have_labels {
                            let loss = supervised_step(net_mut(net), opt, &input, &label_flat);
                            au_telemetry::count!("au_core.rows_trained");
                            au_telemetry::gauge_set!("au_core.last_loss", f64::from(loss));
                            *train_steps += 1;
                        }
                        au_telemetry::count!("au_core.predictions_served");
                        run_model_ref(net, &input)
                    }
                    Backend::Reinforcement { .. } => unreachable!("ensure_supervised checked"),
                };
                (output, split)
            }
        };

        if mode == Mode::Train {
            // TR mode: grow the training baseline — input distribution
            // plus (when labels flowed) the post-step absolute error.
            let abs_err = if have_labels {
                mean_abs_err(&output, &label_flat)
            } else {
                None
            };
            lock(&self.shared.monitor).observe_training(model, &input, abs_err);
        } else if self.monitoring_enabled() {
            // TS mode: shadow accuracy — when ground-truth labels still
            // flow through au_extract, score the served prediction
            // against them.
            let outcome: Option<&[f64]> =
                if !labels.is_empty() && labels.iter().all(|l| !l.is_empty()) {
                    Some(&label_flat)
                } else {
                    None
                };
            if self.monitor_observe(model, &input, &output, outcome) {
                pi_lock(&self.shared.db).db.clear(ext);
                return Err(AuError::ModelDegraded(model.to_owned()));
            }
        }

        // π[wb_i → slice of output], extName → ⊥ — one π transaction.
        let mut d = pi_lock(&self.shared.db);
        let mut offset = 0;
        for (wb, width) in wbs.iter().zip(&split) {
            d.db.put(wb, output[offset..offset + width].to_vec());
            let count = d.db.append_count(wb);
            d.label_marks
                .insert((model.to_owned(), (*wb).to_owned()), count);
            offset += width;
        }
        d.db.clear(ext);
        drop(d);
        Ok(output)
    }

    /// `@au_NN(modelName, extName, reward, term, wbName)` for Q-learning
    /// models — the RL form used by the paper's game loop (Fig. 2).
    ///
    /// `n_actions` fixes the discrete action space (the paper derives it
    /// from the `size` argument of the matching `au_write_back`; here it is
    /// explicit). In TR mode the call completes the previous transition with
    /// `reward`/`terminal` and trains; in TS mode it only predicts — under a
    /// model *read* lock once the agent is built and no transition is
    /// pending.
    ///
    /// # Errors
    ///
    /// [`AuError::UnknownModel`], [`AuError::MissingData`] (empty π(`ext`)),
    /// or [`AuError::WrongAlgorithm`] for AdamOpt models.
    pub fn au_nn_rl(
        &self,
        model: &str,
        ext: &str,
        reward: f64,
        terminal: bool,
        wb: &str,
        n_actions: usize,
    ) -> Result<usize, AuError> {
        let _s = au_telemetry::span!("au_nn_rl", model = model);
        let _t = au_telemetry::time!("au_core.au_nn_rl");
        let mode = self.mode();
        let state = pi_lock(&self.shared.db).db.get(ext).to_vec();
        if state.is_empty() {
            return Err(AuError::MissingData {
                name: ext.to_owned(),
                wanted: 1,
                available: 0,
            });
        }
        if mode == Mode::Test && self.monitor_degraded(model) {
            pi_lock(&self.shared.db).db.clear(ext);
            return Err(AuError::ModelDegraded(model.to_owned()));
        }
        let train = mode == Mode::Train;
        let entry = self
            .shared
            .registry
            .get(model)
            .ok_or_else(|| AuError::UnknownModel(model.to_owned()))?;
        // Deployment fast path: built agent, matching shape, no pending
        // transition to clear ⇒ greedy action under the read lock.
        let mut fast: Option<usize> = None;
        if !train {
            let g = read(&entry);
            if let Some(Backend::Reinforcement {
                agent,
                pending: None,
                ..
            }) = g.backend.as_ref()
            {
                if agent.state_dim() == state.len() && agent.n_actions() == n_actions {
                    au_telemetry::count!("au_core.predictions_served");
                    fast = Some(agent.greedy_action(&to_f32(&state)));
                }
            }
        }
        let action = match fast {
            Some(a) => a,
            None => {
                let mut g = write(&entry);
                let backend = g.ensure_reinforcement(model, state.len(), n_actions)?;
                let a = match backend {
                    Backend::Reinforcement {
                        agent,
                        pending,
                        train_steps,
                    } => {
                        let a = rl_step(agent, pending, &state, reward, terminal, train);
                        if train {
                            au_telemetry::count!("au_core.rows_trained");
                            *train_steps += 1;
                        }
                        au_telemetry::count!("au_core.predictions_served");
                        a
                    }
                    Backend::Supervised { .. } => unreachable!("ensure_reinforcement checked"),
                };
                g.n_actions = n_actions;
                a
            }
        };
        let mut one_hot = vec![0.0; n_actions];
        one_hot[action] = 1.0;
        if train {
            lock(&self.shared.monitor).observe_training(model, &state, None);
        } else if self.monitoring_enabled() && self.monitor_observe(model, &state, &one_hot, None) {
            pi_lock(&self.shared.db).db.clear(ext);
            return Err(AuError::ModelDegraded(model.to_owned()));
        }
        let mut d = pi_lock(&self.shared.db);
        d.db.put(wb, one_hot);
        d.db.clear(ext);
        drop(d);
        Ok(action)
    }

    /// `@au_write_back(wbName, size, x)` — rule WRITE-BACK.
    ///
    /// Copies the first `dst.len()` values of π(`name`) into the program
    /// variable `dst` (the slice length plays the role of `size`).
    ///
    /// # Errors
    ///
    /// [`AuError::MissingData`] if π(`name`) holds fewer values than
    /// requested.
    pub fn au_write_back(&self, name: &str, dst: &mut [f64]) -> Result<(), AuError> {
        self.write_back_with(name, dst.len(), |src| dst.copy_from_slice(src))
    }

    /// [`EngineHandle::au_write_back`] into a fresh vector of `n` values —
    /// AuLang's `au_write_back_n`.
    ///
    /// # Errors
    ///
    /// [`AuError::MissingData`] if π(`name`) holds fewer than `n` values;
    /// the size is checked before anything is allocated, so no `n` can
    /// overflow an allocation.
    pub fn au_write_back_n(&self, name: &str, n: usize) -> Result<Vec<f64>, AuError> {
        self.write_back_with(name, n, <[f64]>::to_vec)
    }

    /// Rule WRITE-BACK's size check, then `read` over the first `n` values
    /// of π(`name`), under the π lock.
    fn write_back_with<R>(
        &self,
        name: &str,
        n: usize,
        read: impl FnOnce(&[f64]) -> R,
    ) -> Result<R, AuError> {
        let _t = au_telemetry::time!("au_core.au_write_back");
        au_telemetry::count!("au_core.write_backs");
        let d = pi_lock(&self.shared.db);
        let src = d.db.get(name);
        if src.len() < n {
            return Err(AuError::MissingData {
                name: name.to_owned(),
                wanted: n,
                available: src.len(),
            });
        }
        Ok(read(&src[..n]))
    }

    /// Scalar convenience form of [`EngineHandle::au_write_back`].
    ///
    /// # Errors
    ///
    /// [`AuError::MissingData`] if π(`name`) is empty.
    pub fn au_write_back_scalar(&self, name: &str) -> Result<f64, AuError> {
        let mut v = [0.0];
        self.au_write_back(name, &mut v)?;
        Ok(v[0])
    }

    /// `@au_checkpoint()` — rule CHECKPOINT: clones the host program state
    /// `S` (σ) together with π, keeping both consistent as the semantics
    /// require. The paper creates a checkpoint once and restores it at
    /// every episode end, so [`EngineHandle::restore_with`] does not
    /// consume it.
    pub fn checkpoint_with<S: Clone>(&self, program: &S) -> Checkpoint<S> {
        let _t = au_telemetry::time!("au_core.au_checkpoint");
        au_telemetry::count!("au_core.checkpoints");
        let d = pi_lock(&self.shared.db);
        Checkpoint {
            program: program.clone(),
            db: d.db.clone(),
            label_marks: d.label_marks.clone(),
        }
    }

    /// `@au_restore()` — rule RESTORE: rolls π back to `ckpt` and returns
    /// the program state to reinstall. The model store θ is deliberately
    /// untouched so learning accumulates: only the π lock is taken, and a
    /// restore never waits for a model another thread is training.
    pub fn restore_with<S: Clone>(&self, ckpt: &Checkpoint<S>) -> S {
        let _t = au_telemetry::time!("au_core.au_restore");
        au_telemetry::count!("au_core.restores");
        {
            let mut d = pi_lock(&self.shared.db);
            d.db = ckpt.db.clone();
            d.label_marks = ckpt.label_marks.clone();
        }
        ckpt.program.clone()
    }

    // ------------------------------------------------------------------
    // Model persistence and experiment support
    // ------------------------------------------------------------------

    /// Persists a trained model (plus its output-split sidecar) to the
    /// model directory so a TS-mode run can `au_config`-load it.
    ///
    /// # Errors
    ///
    /// [`AuError::UnknownModel`] if unknown, [`AuError::ModelNotTrained`] if
    /// the backend was never built, or [`AuError::Backend`] on I/O failure.
    pub fn save_model(&self, name: &str) -> Result<(), AuError> {
        let dir = self.model_dir_or_cwd();
        std::fs::create_dir_all(&dir).map_err(|e| AuError::Backend(e.into()))?;
        let entry = self
            .shared
            .registry
            .get(name)
            .ok_or_else(|| AuError::UnknownModel(name.to_owned()))?;
        let (net_json, output_split, n_actions) = {
            let g = read(&entry);
            let json = match g.backend.as_ref() {
                Some(backend) => backend.network().to_json(),
                None => return Err(AuError::ModelNotTrained(name.to_owned())),
            };
            (
                json,
                g.output_split.clone().unwrap_or_default(),
                g.n_actions,
            )
        };
        std::fs::write(dir.join(format!("{name}.json")), net_json)
            .map_err(|e| AuError::Backend(e.into()))?;
        let (baseline_mae, feature_baseline) = {
            let st = lock(&self.shared.monitor);
            (
                st.training_mae(name),
                st.training_baseline(name)
                    .as_ref()
                    .map(BaselineMeta::from_baseline),
            )
        };
        let meta = ModelMeta {
            output_split,
            n_actions,
            baseline_mae,
            feature_baseline,
        };
        let meta_json = serde_json::to_string(&meta).expect("meta serializes");
        std::fs::write(dir.join(format!("{name}.meta.json")), meta_json)
            .map_err(|e| AuError::Backend(e.into()))?;
        Ok(())
    }

    fn load_model_files(&self, name: &str) -> Result<(Network, ModelMeta), AuError> {
        let dir = self.model_dir_or_cwd();
        let net_path = dir.join(format!("{name}.json"));
        if !net_path.exists() {
            return Err(AuError::ModelNotTrained(name.to_owned()));
        }
        let net = Network::load(&net_path)?;
        let meta_path = dir.join(format!("{name}.meta.json"));
        let meta = if meta_path.exists() {
            let raw =
                std::fs::read_to_string(&meta_path).map_err(|e| AuError::Backend(e.into()))?;
            let meta: ModelMeta = serde_json::from_str(&raw)
                .map_err(|e| AuError::Backend(au_nn::NnError::Format(e.to_string())))?;
            meta.check_against(&net).map_err(|e| {
                AuError::Backend(au_nn::NnError::Format(format!(
                    "{}: {e}",
                    meta_path.display()
                )))
            })?;
            meta
        } else {
            ModelMeta {
                output_split: Vec::new(),
                n_actions: 0,
                baseline_mae: None,
                feature_baseline: None,
            }
        };
        Ok((net, meta))
    }

    /// Offline supervised training over a dataset — the paper trains SL
    /// models "offline after execution" on the collected traces. One epoch
    /// performs one gradient step per `(x, y)` pair. Returns the mean loss
    /// of the final epoch.
    ///
    /// # Errors
    ///
    /// Same conditions as [`EngineHandle::au_nn`].
    ///
    /// # Panics
    ///
    /// Panics if `xs` and `ys` lengths differ or the dataset is empty.
    pub fn train_supervised(
        &self,
        model: &str,
        xs: &[Vec<f64>],
        ys: &[Vec<f64>],
        epochs: usize,
    ) -> Result<f64, AuError> {
        assert_eq!(xs.len(), ys.len(), "dataset inputs and labels must pair up");
        assert!(!xs.is_empty(), "dataset must be non-empty");
        let _s = au_telemetry::span!(
            "train_supervised",
            model = model,
            pairs = xs.len(),
            epochs = epochs
        );
        let _t = au_telemetry::time!("au_core.train_supervised");
        let entry = self
            .shared
            .registry
            .get(model)
            .ok_or_else(|| AuError::UnknownModel(model.to_owned()))?;
        let last_epoch_loss = {
            let mut g = write(&entry);
            let backend = g.ensure_supervised(model, xs[0].len(), ys[0].len())?;
            let last_epoch_loss = match backend {
                Backend::Supervised {
                    net,
                    opt,
                    train_steps,
                } => {
                    // One copy-on-write unshare for the whole training run,
                    // not one per gradient step.
                    let net = net_mut(net);
                    let mut last_epoch_loss = 0.0f64;
                    for _ in 0..epochs {
                        let _e = au_telemetry::time!("au_core.train_epoch");
                        let mut total = 0.0f64;
                        for (x, y) in xs.iter().zip(ys) {
                            total += f64::from(supervised_step(net, opt, x, y));
                            *train_steps += 1;
                        }
                        au_telemetry::count!("au_core.rows_trained", xs.len() as u64);
                        last_epoch_loss = total / xs.len() as f64;
                        au_telemetry::gauge_set!("au_core.last_loss", last_epoch_loss);
                    }
                    last_epoch_loss
                }
                Backend::Reinforcement { .. } => unreachable!("ensure_supervised checked"),
            };
            if g.output_split.is_none() {
                g.output_split = Some(vec![ys[0].len()]);
            }
            last_epoch_loss
        };
        // With monitoring on, one extra pass over the dataset records the
        // trained model's input distribution and per-sample absolute error —
        // the baselines the deployed monitor will compare against.
        if self.monitoring_enabled() {
            for (x, y) in xs.iter().zip(ys) {
                let pred = self.predict(model, x)?;
                lock(&self.shared.monitor).observe_training(model, x, mean_abs_err(&pred, y));
            }
        }
        Ok(last_epoch_loss)
    }

    /// Runs `f` on the network `model` serves, whichever backend holds
    /// it, under the model's read lock — the one way every predict entry
    /// point reaches θ.
    fn with_network<R>(
        &self,
        model: &str,
        f: impl FnOnce(&Arc<Network>) -> R,
    ) -> Result<R, AuError> {
        let entry = self
            .shared
            .registry
            .get(model)
            .ok_or_else(|| AuError::UnknownModel(model.to_owned()))?;
        let g = read(&entry);
        let backend = g
            .backend
            .as_ref()
            .ok_or_else(|| AuError::ModelNotTrained(model.to_owned()))?;
        Ok(f(backend.network()))
    }

    /// Direct prediction bypassing π — used by experiment harnesses to
    /// score models on held-out inputs. Runs entirely under the model's
    /// read lock.
    ///
    /// # Errors
    ///
    /// [`AuError::UnknownModel`] or [`AuError::ModelNotTrained`].
    pub fn predict(&self, model: &str, x: &[f64]) -> Result<Vec<f64>, AuError> {
        let _s = au_telemetry::span!("predict", model = model);
        let _t = au_telemetry::time!("au_core.predict");
        au_telemetry::count!("au_core.predictions_served");
        self.with_network(model, |net| run_model_ref(net, x))
    }

    /// Batched [`EngineHandle::predict`]: the `f64` boundary adapter over
    /// [`EngineHandle::predict_batch_f32`]'s core — one narrowing
    /// pass over the batch in, one exact widening pass out.
    ///
    /// # Errors
    ///
    /// [`AuError::UnknownModel`], [`AuError::ModelNotTrained`], or
    /// [`AuError::InputSizeChanged`] if any row's width differs from the
    /// built network's input width.
    pub fn predict_batch(&self, model: &str, xs: &[Vec<f64>]) -> Result<Vec<Vec<f64>>, AuError> {
        if xs.is_empty() {
            return Ok(Vec::new());
        }
        let out = self.predict_rows(model, |width| {
            check_batch_widths(model, xs, width)?;
            Ok((xs.iter().flatten().map(|&v| v as f32).collect(), xs.len()))
        })?;
        let out_width = out.len() / xs.len();
        Ok((0..xs.len())
            .map(|i| {
                out[i * out_width..(i + 1) * out_width]
                    .iter()
                    .map(|&v| f64::from(v))
                    .collect()
            })
            .collect())
    }

    /// Native-`f32` [`EngineHandle::predict`]: no `f64` boundary
    /// conversions at all. See [`EngineHandle::predict_f32_into`] for the
    /// allocation-free form.
    ///
    /// # Errors
    ///
    /// Same conditions as [`EngineHandle::predict_f32_into`].
    pub fn predict_f32(&self, model: &str, x: &[f32]) -> Result<Vec<f32>, AuError> {
        let mut out = Vec::new();
        self.predict_f32_into(model, x, &mut out)?;
        Ok(out)
    }

    /// The hot serving path: runs the model on one `f32` feature row,
    /// appending the outputs to `out`. All intermediate buffers come from
    /// per-thread scratch, so the steady state performs **zero** heap
    /// allocations and zero `f64`↔`f32` conversions. Runs entirely under
    /// the model's read lock; cloned handles serve concurrently.
    ///
    /// # Errors
    ///
    /// [`AuError::UnknownModel`], [`AuError::ModelNotTrained`], or
    /// [`AuError::InputSizeChanged`] if `x`'s width differs from the built
    /// network's input width.
    pub fn predict_f32_into(
        &self,
        model: &str,
        x: &[f32],
        out: &mut Vec<f32>,
    ) -> Result<(), AuError> {
        let _s = au_telemetry::span!("predict_f32", model = model);
        let _t = au_telemetry::time!("au_core.predict_f32");
        au_telemetry::count!("au_core.predictions_served");
        self.with_network(model, |net| {
            if net.in_features() != x.len() {
                return Err(AuError::InputSizeChanged {
                    model: model.to_owned(),
                    built: net.in_features(),
                    got: x.len(),
                });
            }
            run_model_f32_into(net, x, out);
            Ok(())
        })?
    }

    /// Native-`f32` [`EngineHandle::predict_batch`] over a flat row-major
    /// matrix: `xs.len()` must be a multiple of the model's input width,
    /// and the result is the flat row-major `[rows × out_width]` output.
    ///
    /// # Errors
    ///
    /// [`AuError::UnknownModel`], [`AuError::ModelNotTrained`], or
    /// [`AuError::InputSizeChanged`] if `xs.len()` is not a multiple of the
    /// built network's input width.
    pub fn predict_batch_f32(&self, model: &str, xs: &[f32]) -> Result<Vec<f32>, AuError> {
        if xs.is_empty() {
            return Ok(Vec::new());
        }
        self.predict_rows(model, |width| {
            let rows = check_flat_width(model, xs, width)?;
            Ok((xs.to_vec(), rows))
        })
    }

    /// The core under both batch entry points: one forward pass over the
    /// whole batch on the calling thread. `layout` checks the caller's
    /// batch against the served network's input width and returns it as
    /// one flat row-major `f32` matrix with its row count. The network
    /// `Arc` is cloned out of the read lock, so a retrain on another
    /// thread is not blocked for the length of a batch. Every kernel keeps
    /// each row's accumulation order, so row `i` of the output has the
    /// bits [`EngineHandle::predict_f32`] gives for row `i` alone.
    fn predict_rows(
        &self,
        model: &str,
        layout: impl FnOnce(usize) -> Result<(Vec<f32>, usize), AuError>,
    ) -> Result<Vec<f32>, AuError> {
        let _s = au_telemetry::span!("predict_batch", model = model);
        let _t = au_telemetry::time!("au_core.predict_batch");
        let net = self.with_network(model, Arc::clone)?;
        let width = net.in_features();
        let (flat, rows) = layout(width)?;
        au_telemetry::count!("au_core.predictions_served", rows as u64);
        Ok(net
            .infer(&Tensor::from_vec(&[rows, width], flat))
            .into_vec())
    }

    /// Size/training statistics for a built model (Table 2's model size).
    pub fn model_stats(&self, name: &str) -> Option<ModelStats> {
        let entry = self.shared.registry.get(name)?;
        let g = read(&entry);
        g.stats()
    }

    /// Names of configured models, sorted.
    pub fn model_names(&self) -> Vec<String> {
        self.shared.registry.names()
    }

    /// Human-readable report of the global telemetry recorder: every
    /// counter, gauge, and latency histogram the runtime has touched.
    /// Returns an empty-ish header until `au_telemetry::enable()` has been
    /// called and instrumented paths have run.
    pub fn telemetry_report(&self) -> String {
        au_telemetry::global().summary()
    }

    // ------------------------------------------------------------------
    // Monitoring
    // ------------------------------------------------------------------

    /// Switches prediction-quality monitoring on for this runtime.
    ///
    /// Call *before* `au_config` in TS mode so loaded models pick up their
    /// persisted training baselines. In TR mode the runtime accumulates
    /// baselines from the training stream and persists them with
    /// [`EngineHandle::save_model`]; an in-process TR→TS switch hands them
    /// to the monitor directly. A runtime starts unmonitored.
    pub fn set_monitor_config(&self, config: au_monitor::MonitorConfig) {
        lock(&self.shared.monitor).config = Some(config);
    }

    /// Whether monitoring is active on this runtime.
    pub fn monitoring_enabled(&self) -> bool {
        lock(&self.shared.monitor).enabled()
    }

    /// The live monitor for a model, once it has served in TS mode.
    /// Returns a guard ([`MonitorRef`]) — drop it before the next serving
    /// call.
    pub fn monitor(&self, model: &str) -> Option<MonitorRef<'_>> {
        let guard = lock(&self.shared.monitor);
        if guard.monitors.contains_key(model) {
            Some(MonitorRef {
                guard,
                model: model.to_owned(),
            })
        } else {
            None
        }
    }

    /// Re-arms a model degraded by the fallback policy (e.g. after
    /// retraining, or an operator decision to trust it again).
    pub fn clear_degraded(&self, model: &str) {
        if let Some(m) = lock(&self.shared.monitor).monitors.get_mut(model) {
            m.clear_degraded();
            if au_telemetry::enabled() {
                au_telemetry::global()
                    .gauge(&format!("au_monitor.{model}.degraded"))
                    .set(0.0);
            }
        }
    }

    /// Human-readable monitoring report across every observed model — the
    /// monitoring sibling of [`EngineHandle::telemetry_report`].
    pub fn monitor_report(&self) -> String {
        let st = lock(&self.shared.monitor);
        let mut out = String::from("== monitor report ==\n");
        if !st.enabled() {
            out.push_str("(monitoring disabled)\n");
            return out;
        }
        if st.monitors.is_empty() {
            out.push_str("(no models observed in TS mode yet)\n");
            return out;
        }
        for (name, m) in &st.monitors {
            out.push_str(&format!("  {name}: {}\n", m.report()));
        }
        out
    }

    /// Structured monitoring reports for every observed model, in name
    /// order — the machine-readable sibling of
    /// [`EngineHandle::monitor_report`], consumed by the observability
    /// plane's `/health` and `/snapshot.json` endpoints.
    pub fn monitor_reports(&self) -> Vec<(String, au_monitor::MonitorReport)> {
        let st = lock(&self.shared.monitor);
        st.monitors
            .iter()
            .map(|(name, m)| (name.clone(), m.report()))
            .collect()
    }

    /// Names of models the fallback policy has currently degraded.
    pub fn degraded_models(&self) -> Vec<String> {
        let st = lock(&self.shared.monitor);
        st.monitors
            .iter()
            .filter(|(_, m)| m.is_degraded())
            .map(|(name, _)| name.clone())
            .collect()
    }

    /// Dumps a model's flight recorder to `<model>.flight.jsonl` in the
    /// model directory, returning the path. Also invoked automatically when
    /// a critical alert fires.
    ///
    /// # Errors
    ///
    /// [`AuError::UnknownModel`] if the model has no monitor yet;
    /// [`AuError::Backend`] on I/O failure.
    pub fn dump_flight_recorder(&self, model: &str) -> Result<PathBuf, AuError> {
        let buf = {
            let st = lock(&self.shared.monitor);
            let mon = st
                .monitors
                .get(model)
                .ok_or_else(|| AuError::UnknownModel(model.to_owned()))?;
            let mut buf = Vec::new();
            mon.flight()
                .write_jsonl(&mut buf)
                .map_err(|e| AuError::Backend(e.into()))?;
            buf
        };
        self.write_flight_dump(model, &buf)
    }

    /// Writes already serialized flight-recorder bytes with no lock held.
    fn write_flight_dump(&self, model: &str, buf: &[u8]) -> Result<PathBuf, AuError> {
        let dir = self.model_dir_or_cwd();
        std::fs::create_dir_all(&dir).map_err(|e| AuError::Backend(e.into()))?;
        let path = dir.join(format!("{model}.flight.jsonl"));
        std::fs::write(&path, buf).map_err(|e| AuError::Backend(e.into()))?;
        Ok(path)
    }

    /// Whether the fallback policy has already degraded `model`.
    pub(crate) fn monitor_degraded(&self, model: &str) -> bool {
        lock(&self.shared.monitor)
            .monitors
            .get(model)
            .is_some_and(au_monitor::ModelMonitor::is_degraded)
    }

    /// Feeds one TS-mode observation to the model's monitor, emits any
    /// newly raised alerts, dumps the flight recorder on a critical alert,
    /// and returns whether the model is now degraded (fallback policy).
    fn monitor_observe(
        &self,
        model: &str,
        features: &[f64],
        prediction: &[f64],
        outcome: Option<&[f64]>,
    ) -> bool {
        // The lifetime extracted-scalar count doubles as a correlation id:
        // it lines the flight record up with the trace position at serve
        // time (spans have no exposed ids).
        let corr = self.shared.extracted_total.load(Ordering::Relaxed);
        let (flight, degraded) = {
            let mut st = lock(&self.shared.monitor);
            match st.ensure_monitor(model) {
                Some(mon) => {
                    let alerts = mon.observe(features, prediction, outcome, corr);
                    let critical = alerts
                        .iter()
                        .any(|a| a.level == au_monitor::AlertLevel::Critical);
                    crate::monitoring::emit_alerts(model, &alerts);
                    // Black-box discipline: persist the moments leading up
                    // to the incident while they are still in the ring
                    // buffer. Serialize under the lock, write the file after
                    // release (the monitor mutex is not re-entrant).
                    let flight = if critical {
                        let mut buf = Vec::new();
                        match mon.flight().write_jsonl(&mut buf) {
                            Ok(()) => Some(buf),
                            Err(e) => {
                                eprintln!(
                                    "au_core.monitor: flight-recorder dump for `{model}` failed: {e}"
                                );
                                None
                            }
                        }
                    } else {
                        None
                    };
                    publish_monitor_gauges(model, mon);
                    (flight, mon.is_degraded())
                }
                None => (None, false),
            }
        };
        if let Some(buf) = flight {
            if let Err(e) = self.write_flight_dump(model, &buf) {
                eprintln!("au_core.monitor: flight-recorder dump for `{model}` failed: {e}");
            }
        }
        degraded
    }
}

/// Mirrors one model's monitor state into live gauges
/// (`au_monitor.<model>.rolling_mae` / `.drift_score` / `.flight_depth` /
/// `.degraded`) so the observability plane's `/metrics` scrape sees the
/// current values without locking the monitor map. Gauge names are built
/// per model, so this goes through `au_telemetry::global()` directly
/// rather than the per-callsite-cached `au_telemetry::gauge_set!`.
fn publish_monitor_gauges(model: &str, mon: &au_monitor::ModelMonitor) {
    if !au_telemetry::enabled() {
        return;
    }
    let rec = au_telemetry::global();
    if let Some(mae) = mon.quality().rolling_mae() {
        rec.gauge(&format!("au_monitor.{model}.rolling_mae"))
            .set(mae);
    }
    if let Some(drift) = mon.last_drift() {
        rec.gauge(&format!("au_monitor.{model}.drift_score"))
            .set(drift.score);
    }
    rec.gauge(&format!("au_monitor.{model}.flight_depth"))
        .set(mon.flight().len() as f64);
    rec.gauge(&format!("au_monitor.{model}.degraded"))
        .set(if mon.is_degraded() { 1.0 } else { 0.0 });
}

/// Checks every row of a nested batch against the built input width.
fn check_batch_widths(model: &str, xs: &[Vec<f64>], width: usize) -> Result<(), AuError> {
    for x in xs {
        if x.len() != width {
            return Err(AuError::InputSizeChanged {
                model: model.to_owned(),
                built: width,
                got: x.len(),
            });
        }
    }
    Ok(())
}

/// Checks a flat row-major batch divides evenly into `width`-wide rows,
/// returning the row count.
fn check_flat_width(model: &str, xs: &[f32], width: usize) -> Result<usize, AuError> {
    if width == 0 || !xs.len().is_multiple_of(width) {
        return Err(AuError::InputSizeChanged {
            model: model.to_owned(),
            built: width,
            got: xs.len(),
        });
    }
    Ok(xs.len() / width)
}

/// Mean absolute element-wise error over the overlapping prefix; `None`
/// when either side is empty.
fn mean_abs_err(prediction: &[f64], truth: &[f64]) -> Option<f64> {
    let n = prediction.len().min(truth.len());
    if n == 0 {
        return None;
    }
    let sum: f64 = prediction
        .iter()
        .zip(truth.iter())
        .map(|(p, t)| (p - t).abs())
        .sum();
    Some(sum / n as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handle_is_send_sync_and_clone() {
        fn assert_bounds<T: Send + Sync + Clone>() {}
        assert_bounds::<EngineHandle>();
    }

    #[test]
    fn clones_share_state() {
        let h = EngineHandle::new(Mode::Train);
        let h2 = h.clone();
        h.au_extract("A", &[1.0, 2.0]);
        assert_eq!(h2.db().get("A"), &[1.0, 2.0]);
        h2.set_mode(Mode::Test);
        assert_eq!(h.mode(), Mode::Test);
        assert_eq!(h.total_extracted(), 2);
    }

    #[test]
    fn predict_batch_matches_predict() {
        au_nn::set_init_seed(77);
        let h = EngineHandle::new(Mode::Train);
        h.au_config("M", ModelConfig::dnn(&[8])).unwrap();
        let xs: Vec<Vec<f64>> = (0..6)
            .map(|i| vec![i as f64 / 6.0, 1.0 - i as f64 / 6.0])
            .collect();
        let ys: Vec<Vec<f64>> = xs.iter().map(|x| vec![x[0] * 2.0]).collect();
        h.train_supervised("M", &xs, &ys, 5).unwrap();
        let batched = h.predict_batch("M", &xs).unwrap();
        for (x, row) in xs.iter().zip(&batched) {
            assert_eq!(&h.predict("M", x).unwrap(), row);
        }
    }

    #[test]
    fn predict_batch_checks_width() {
        au_nn::set_init_seed(78);
        let h = EngineHandle::new(Mode::Train);
        h.au_config("M", ModelConfig::dnn(&[4])).unwrap();
        h.train_supervised("M", &[vec![0.1, 0.2]], &[vec![0.3]], 1)
            .unwrap();
        assert!(h.predict_batch("M", &[]).unwrap().is_empty());
        assert!(matches!(
            h.predict_batch("M", &[vec![0.1, 0.2], vec![0.5]]),
            Err(AuError::InputSizeChanged {
                built: 2,
                got: 1,
                ..
            })
        ));
    }

    /// Trains and saves a monitored supervised model `S` (2 inputs, 1
    /// output) and a Q-learning model `Q` (2 inputs, 3 actions) into `dir`.
    fn save_two_models(dir: &std::path::Path) {
        au_nn::set_init_seed(79);
        let h = EngineHandle::new(Mode::Train);
        h.set_monitor_config(au_monitor::MonitorConfig::default());
        h.set_model_dir(dir);
        h.au_config("S", ModelConfig::dnn(&[4])).unwrap();
        h.train_supervised(
            "S",
            &[vec![0.1, 0.2], vec![0.3, 0.4]],
            &[vec![0.5], vec![0.7]],
            2,
        )
        .unwrap();
        h.au_config("Q", ModelConfig::q_dnn(&[4])).unwrap();
        for i in 0..3 {
            h.au_extract("St", &[f64::from(i), 1.0]);
            h.au_nn_rl("Q", "St", 1.0, false, "A", 3).unwrap();
        }
        h.save_model("S").unwrap();
        h.save_model("Q").unwrap();
    }

    fn edit_sidecar(dir: &std::path::Path, name: &str, edit: impl FnOnce(&mut ModelMeta)) {
        let path = dir.join(format!("{name}.meta.json"));
        let mut meta: ModelMeta =
            serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
        edit(&mut meta);
        std::fs::write(&path, serde_json::to_string(&meta).unwrap()).unwrap();
    }

    /// Loads `name` in TS mode and serves one call through it.
    fn load_and_serve(dir: &std::path::Path, name: &str) -> Result<(), AuError> {
        let h = EngineHandle::new(Mode::Test);
        h.set_monitor_config(au_monitor::MonitorConfig::default());
        h.set_model_dir(dir);
        let config = if name == "Q" {
            ModelConfig::q_dnn(&[4])
        } else {
            ModelConfig::dnn(&[4])
        };
        h.au_config(name, config)?;
        h.au_extract("F", &[0.2, 0.3]);
        if name == "Q" {
            h.au_nn_rl(name, "F", 0.0, false, "A", 3).map(drop)
        } else {
            h.au_nn(name, "F", &["P"]).map(drop)
        }
    }

    /// Each sidecar field edited on its own: a shape that disagrees with
    /// the saved network is a typed format error at `au_config`, never a
    /// panic; values that fit the network still load and serve.
    #[test]
    fn edited_sidecars_are_checked_against_the_network() {
        let dir = std::env::temp_dir().join(format!("au_core_sidecar_{}", std::process::id()));
        type Edit = fn(&mut ModelMeta);
        // (model, edit, the field the error names — or `None`: still loads)
        let cases: [(&str, Edit, Option<&str>); 7] = [
            ("Q", |m| m.n_actions = 4, Some("n_actions")),
            ("Q", |m| m.n_actions = 0, None),
            ("S", |m| m.output_split = vec![2], Some("output_split")),
            (
                "S",
                |m| m.output_split = vec![usize::MAX, 2],
                Some("output_split"),
            ),
            ("S", |m| m.output_split = vec![0], None),
            (
                "S",
                |m| m.feature_baseline.as_mut().unwrap().mean.truncate(1),
                Some("feature_baseline"),
            ),
            ("S", |m| m.baseline_mae = Some(0.25), None),
        ];
        for (i, (model, edit, rejected)) in cases.into_iter().enumerate() {
            let _ = std::fs::remove_dir_all(&dir);
            save_two_models(&dir);
            load_and_serve(&dir, model).unwrap_or_else(|e| panic!("pristine {model}: {e}"));
            edit_sidecar(&dir, model, edit);
            match (load_and_serve(&dir, model), rejected) {
                (Ok(()), None) => {}
                (Err(AuError::Backend(au_nn::NnError::Format(msg))), Some(field)) => {
                    assert!(msg.contains(field), "case {i}: {msg}");
                    assert!(
                        msg.contains(&format!("{model}.meta.json")),
                        "case {i}: {msg}"
                    );
                }
                (got, _) => panic!("case {i}: unexpected {got:?}"),
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
