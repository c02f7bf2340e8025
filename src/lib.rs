//! **Autonomizer** — a Rust reproduction of *Programming Support for
//! Autonomizing Software* (Lee, Liu, Liu, Ma, Zhang; PLDI 2019).
//!
//! Autonomizer retrofits AI control into traditional programs: a handful of
//! `au_*` primitive calls designate *target variables* (values a model
//! should predict — tunable parameters of data-processing programs, or
//! actions of interactive programs) and the runtime does the rest —
//! collecting feature values, training supervised or Q-learning models,
//! writing predictions back into program variables, and checkpointing
//! program state across reinforcement-learning episodes.
//!
//! This umbrella crate re-exports the whole workspace:
//!
//! | Module | Crate | Role |
//! |---|---|---|
//! | [`core`] | `au-core` | the primitives and runtime (Fig. 8 semantics) |
//! | [`nn`] | `au-nn` | the from-scratch neural-network backend |
//! | [`trace`] | `au-trace` | dynamic dependence graphs + Algorithms 1–2 |
//! | [`lang`] | `au-lang` | AuLang: an instrumented language with the primitives |
//! | [`lint`] | `au-lint` | span-aware static verifier for the `au_*` protocol |
//! | [`image`] | `au-image` | image substrate (scenes, SSIM) |
//! | [`vision`] | `au-vision` | Canny & Rothwell SL benchmarks |
//! | [`phylo`] | `au-phylo` | Phylip-style SL benchmark |
//! | [`speech`] | `au-speech` | Sphinx-style SL benchmark |
//! | [`games`] | `au-games` | the five RL benchmarks + harness |
//!
//! # Quickstart
//!
//! ```
//! use autonomizer::core::{Engine, Mode, ModelConfig};
//!
//! // Autonomize a tiny parameterized computation: learn the ideal
//! // `threshold` for each input from the input's summary statistics.
//! let mut engine = Engine::new(Mode::Train);
//! engine.au_config("T", ModelConfig::dnn(&[16]))?;
//! for i in 0..50 {
//!     let input_mean = i as f64 / 50.0;
//!     let ideal_threshold = 0.5 + input_mean / 2.0;
//!     engine.au_extract("MEAN", &[input_mean]);
//!     engine.au_extract("TH", &[ideal_threshold]); // recorded ideal value
//!     engine.au_nn("T", "MEAN", &["TH"])?;         // trains toward it
//! }
//! // Deployment: predict the threshold for an unseen input.
//! engine.set_mode(Mode::Test);
//! engine.au_extract("MEAN", &[0.4]);
//! engine.au_nn("T", "MEAN", &["TH"])?;
//! let threshold = engine.au_write_back_scalar("TH")?;
//! assert!(threshold.is_finite());
//! # Ok::<(), autonomizer::core::AuError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use au_core as core;
pub use au_games as games;
pub use au_image as image;
pub use au_lang as lang;
pub use au_lint as lint;
pub use au_nn as nn;
pub use au_phylo as phylo;
pub use au_speech as speech;
pub use au_trace as trace;
pub use au_vision as vision;

pub use au_prof as prof;
pub use au_scope as scope;
pub use au_telemetry as telemetry;

/// Everything a typical autonomization needs, in one import.
pub mod prelude {
    pub use au_core::{AuError, Engine, EngineHandle, Mode, ModelConfig};
    pub use au_games::harness::{evaluate, play_episode, run_oracle, train, FeatureSource};
    pub use au_games::{Game, StepResult};
    pub use au_trace::{extract_rl, extract_sl, select_band, AnalysisDb, DistanceBand, RlParams};
}
