//! Dynamic program analysis for the Autonomizer reproduction.
//!
//! The PLDI 2019 paper selects *feature variables* (model inputs) for a
//! user-annotated *target variable* (model output) by analyzing a **dynamic
//! dependence graph** collected with Valgrind. This crate is the Rust
//! stand-in for that infrastructure:
//!
//! - [`AnalysisDb`]: the recording substrate — a dependence graph over
//!   variables interned in a [`Symbols`] table, per-variable runtime value
//!   traces, a variable→functions usage map (`UseFunc` in the paper), and
//!   the input/target variable sets, the graph and the map as
//!   [`BitMatrix`] rows. Instrumented programs (the `au-lang`
//!   interpreter, or Rust apps via the explicit API) emit events into it.
//! - [`extract_sl`]: **Algorithm 1** — supervised-learning feature extraction
//!   with BFS distance ranking, from which the paper's `Min`/`Med`/`Raw`
//!   variants are selected ([`DistanceBand`], [`select_band`]).
//! - [`extract_rl`]: **Algorithm 2** — reinforcement-learning feature
//!   extraction with ε₁ redundancy pruning (Euclidean distance between
//!   min–max-scaled traces) and ε₂ variance pruning.
//! - [`extract_sl_pruned`] / [`extract_rl_pruned`]: the same algorithms
//!   behind a [`StaticFilter`] pre-pass that uses a *static* dependence
//!   graph to discard candidates provably unrelated to a target before the
//!   per-candidate dynamic BFS — same results, fewer graph walks
//!   ([`PrepruneStats`] reports the savings).
//!
//! # Example
//!
//! ```
//! use au_trace::{AnalysisDb, DistanceBand, extract_sl, select_band};
//!
//! let mut db = AnalysisDb::new();
//! // image -> sImg -> mag -> hist -> result; lo -> result  (the Canny shape)
//! db.record_assign("sImg", &["image"], None, "canny");
//! db.record_assign("mag", &["sImg"], None, "canny");
//! db.record_assign("hist", &["mag"], None, "hysteresis");
//! db.record_assign("result", &["hist", "lo"], None, "hysteresis");
//! db.mark_input("image");
//! db.mark_target("lo");
//!
//! let features = extract_sl(&db);
//! let ranked = &features[&db.id("lo").unwrap()];
//! // hist is the closest feature to the common dependent `result`.
//! assert_eq!(db.name(ranked[0].var), "hist");
//! let min = select_band(ranked, DistanceBand::Min);
//! assert_eq!(min.len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bits;
mod db;
mod preprune;
mod rl;
mod sl;
mod stats;
mod symbols;

pub use bits::{intersects, members, BitMatrix};
pub use db::{AnalysisDb, VarId};
pub use preprune::{extract_rl_pruned, extract_sl_pruned, PrepruneStats, StaticFilter};
pub use rl::{extract_rl, extract_rl_detailed, RlExtraction, RlParams};
pub use sl::{extract_sl, select_band, DistanceBand, RankedFeature};
pub use stats::{euclidean_distance, min_max_scale, summarize, variance, TraceSummary};
pub use symbols::{Sym, Symbols};
