//! Autonomizer framework core — the paper's primitives and runtime.
//!
//! This crate implements the heart of *Programming Support for Autonomizing
//! Software* (PLDI 2019): the seven `au_*` primitives, the two isolated
//! stores of the operational semantics (Fig. 8), the model registry, and
//! checkpoint/restore.
//!
//! | Paper primitive | This crate |
//! |---|---|
//! | `@au_config(name, type, algo, layers, n1, …)` | [`Engine::au_config`] |
//! | `@au_extract(name, size, data)` | [`Engine::au_extract`] |
//! | `@au_NN(name, ext, wb)` (SL) | [`Engine::au_nn`] |
//! | `@au_NN(name, ext, reward, term, wb)` (RL) | [`Engine::au_nn_rl`] |
//! | `@au_write_back(name, size, var)` | [`Engine::au_write_back`] |
//! | `@au_serialize(t1, t2, …)` | [`Engine::au_serialize`] |
//! | `@au_checkpoint()` | [`Engine::au_checkpoint`] |
//! | `@au_restore()` | [`Engine::au_restore`] |
//!
//! The *program store* σ belongs to the host program (its own variables);
//! the engine owns the *database store* π ([`DbStore`]) and the model store
//! θ. The two stores are isolated: data moves between them only through
//! `au_extract` and `au_write_back`, exactly as in the paper.
//!
//! # Example: autonomizing a parameterized computation (SL)
//!
//! ```
//! use au_core::{Engine, Mode, ModelConfig};
//!
//! let mut engine = Engine::new(Mode::Train);
//! engine.au_config("TinyNN", ModelConfig::dnn(&[8]))?;
//!
//! // Training run: extract features, record the ideal output, step the model.
//! for i in 0..40 {
//!     let feature = i as f64 / 40.0;
//!     engine.au_extract("F", &[feature]);
//!     engine.au_extract("P", &[2.0 * feature]); // ground-truth parameter
//!     engine.au_nn("TinyNN", "F", &["P"])?;     // trains toward π("P")
//! }
//! # Ok::<(), au_core::AuError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
mod error;
mod handle;
mod lockwait;
mod model;
mod monitoring;
mod registry;
mod store;

pub use engine::Engine;
pub use error::AuError;
pub use handle::MonitorRef;
pub use handle::{Checkpoint, DbRef, EngineHandle, FeatureBuffer, Mode};
pub use model::{Algorithm, ModelConfig, ModelKind, ModelStats};
pub use monitoring::BaselineMeta;
pub use store::DbStore;

/// Re-export of the monitoring subsystem (alerts, drift detection, flight
/// recording) so engine users need not depend on `au-monitor` directly.
pub use au_monitor as monitor;
