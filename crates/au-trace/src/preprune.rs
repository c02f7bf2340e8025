//! Static pre-pruning for Algorithms 1 and 2.
//!
//! The paper chose dynamic dependence analysis because static analysis has
//! too many *false positives* — but over-approximation cuts the other way
//! too: when the **static** graph proves that `w` and target `v` share no
//! dependent, the dynamic graph (a subgraph, edge-wise) cannot contain one
//! either, so Algorithm 1/2 would reject `w` anyway. A static pre-pass can
//! therefore discard such candidates *before* the per-candidate dynamic
//! BFS, without ever changing the extraction result. The win is pure cost:
//! the static graph is computed once per program (not per run), and each
//! pruned candidate skips a transitive-closure walk of the dynamic graph.
//!
//! Soundness rests on two rules, both enforced here:
//!
//! 1. prune only candidates whose *disjointness* the static graph proves —
//!    a shared static dependent never causes pruning (that would be using
//!    static false positives for selection, which the paper rejects);
//! 2. a variable the static graph has never heard of (runtime-only
//!    recording, e.g. a game's per-frame state) is always kept.
//!
//! `extract_sl_pruned`/`extract_rl_pruned` run the same per-target loops
//! as [`crate::extract_sl`] / [`crate::extract_rl_detailed`], with the
//! filter as one extra test; the repo's end-to-end tests assert result
//! equality on all nine benchmarks.

use crate::bits::BitMatrix;
use crate::db::{AnalysisDb, VarId};
use crate::rl::{RlExtraction, RlParams};
use crate::sl::RankedFeature;
use crate::symbols::Symbols;
use std::collections::BTreeMap;

/// How much work the static pre-pass saved.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PrepruneStats {
    /// (target, candidate) pairs that reached the static filter.
    pub considered: usize,
    /// Pairs the filter discarded, each skipping one dynamic
    /// transitive-closure walk.
    pub pruned: usize,
}

impl PrepruneStats {
    /// Fraction of candidate pairs removed, in `[0, 1]`.
    pub fn reduction(&self) -> f64 {
        if self.considered == 0 {
            0.0
        } else {
            self.pruned as f64 / self.considered as f64
        }
    }
}

/// Precomputed reachability over a static dependence graph (from
/// `au_lang::static_analysis::analyze`, or any [`AnalysisDb`] built from
/// program text rather than a run).
///
/// The filter keeps a copy of the graph's variable names and its
/// transitive closure as a [`BitMatrix`].
#[derive(Clone)]
pub struct StaticFilter {
    /// The graph's variable names; a symbol's index is its row in `deps`.
    names: Symbols,
    /// Row `v`: the transitive dependents of `v`.
    deps: BitMatrix,
}

impl StaticFilter {
    /// Computes the transitive-dependents closure of every static variable
    /// once, so each candidate test is two name lookups and a few word
    /// operations.
    pub fn new(static_db: &AnalysisDb) -> Self {
        let mut deps = static_db.edges().clone();
        deps.close();
        StaticFilter {
            names: static_db.symbols().clone(),
            deps,
        }
    }

    fn id(&self, name: &str) -> Option<usize> {
        self.names.get(name).map(|s| s.index())
    }

    /// True when the static graph *proves* `w` and `v` share no dependent.
    /// Unknown names prove nothing (rule 2): the candidate is kept.
    pub fn proves_unrelated(&self, w: &str, v: &str) -> bool {
        match (self.id(w), self.id(v)) {
            (Some(wi), Some(vi)) => {
                let deps = &self.deps;
                wi != vi
                    && !deps.contains(wi, vi)
                    && !deps.contains(vi, wi)
                    && deps
                        .row(wi)
                        .iter()
                        .zip(deps.row(vi))
                        .all(|(a, b)| a & b == 0)
            }
            _ => false,
        }
    }
}

/// Algorithm 1 with the static pre-pass: identical output to
/// [`crate::extract_sl`], plus a count of the dynamic BFS walks skipped.
pub fn extract_sl_pruned(
    db: &AnalysisDb,
    filter: &StaticFilter,
) -> (BTreeMap<VarId, Vec<RankedFeature>>, PrepruneStats) {
    let _t = au_telemetry::time!("au_trace.extract_sl_pruned");
    crate::sl::algorithm1(db, Some(filter))
}

/// Algorithm 2 with the static pre-pass: identical output to
/// [`crate::extract_rl_detailed`]. A statically-unrelated variable was
/// never a dynamic candidate, so the ε₁/ε₂ pruning passes see the same
/// candidate sequence and make the same decisions.
pub fn extract_rl_pruned(
    db: &AnalysisDb,
    filter: &StaticFilter,
    params: RlParams,
) -> (BTreeMap<VarId, RlExtraction>, PrepruneStats) {
    let _t = au_telemetry::time!("au_trace.extract_rl_pruned");
    crate::rl::algorithm2(db, params, Some(filter))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{extract_rl_detailed, extract_sl};
    use std::collections::BTreeSet;

    /// The Canny shape plus an uncorrelated `noise` branch.
    fn canny_db() -> AnalysisDb {
        let mut db = AnalysisDb::new();
        db.record_assign("sImg", &["image"], None, "canny");
        db.record_assign("mag", &["sImg"], None, "canny");
        db.record_assign("hist", &["mag"], None, "hysteresis");
        db.record_assign("result", &["hist", "lo", "hi"], None, "hysteresis");
        db.record_assign("noise", &["image"], None, "other");
        db.mark_input("image");
        db.mark_target("lo");
        db.mark_target("hi");
        db
    }

    #[test]
    fn sl_pruned_matches_unpruned_with_exact_static_graph() {
        let db = canny_db();
        // The static graph is the same shape (the best case: zero
        // over-approximation), so `noise` is provably unrelated to lo/hi.
        let filter = StaticFilter::new(&db);
        let (pruned, stats) = extract_sl_pruned(&db, &filter);
        assert_eq!(pruned, extract_sl(&db));
        assert!(
            stats.pruned >= 2,
            "noise pruned for both targets: {stats:?}"
        );
        assert!(stats.pruned <= stats.considered);
        assert!(stats.reduction() > 0.0);
    }

    #[test]
    fn sl_pruned_matches_unpruned_with_over_approximated_static_graph() {
        let db = canny_db();
        // A strictly larger static graph (extra false-positive edges) may
        // prune less, but never changes the result.
        let mut static_db = canny_db();
        static_db.record_assign("noise", &["image", "hist"], None, "other");
        static_db.record_assign("result", &["noise"], None, "other");
        let filter = StaticFilter::new(&static_db);
        let (pruned, stats) = extract_sl_pruned(&db, &filter);
        assert_eq!(pruned, extract_sl(&db));
        // noise now statically shares `result` with lo: nothing is provably
        // unrelated, so nothing is pruned...
        assert_eq!(stats.pruned, 0);
        // ...and the dynamic pass still rejects it.
        let lo = db.id("lo").unwrap();
        assert!(pruned[&lo].iter().all(|f| db.name(f.var) != "noise"));
    }

    #[test]
    fn unknown_static_names_are_never_pruned() {
        let db = canny_db();
        let empty = AnalysisDb::new();
        let filter = StaticFilter::new(&empty);
        let (pruned, stats) = extract_sl_pruned(&db, &filter);
        assert_eq!(pruned, extract_sl(&db));
        assert_eq!(stats.pruned, 0, "no static knowledge, no pruning");
        assert!(stats.considered > 0);
    }

    /// A Mario-shaped game loop where every variable is used in `update`,
    /// so every non-target variable reaches the static filter.
    fn hud_db() -> AnalysisDb {
        let mut db = AnalysisDb::new();
        for i in 0..20 {
            let t = i as f64;
            db.record_assign("playerX", &["playerX", "speed"], Some(t * 2.0), "update");
            db.record_assign("minionX", &["minionX"], Some(100.0 - t), "update");
            db.record_assign("lives", &["lives"], Some(3.0), "update");
            db.record_assign("speed", &["right"], Some((t * 0.5).sin()), "update");
            // `hud` shares functions with dep(right) but never a dependent.
            db.record_assign("hud", &["hud"], Some(t * 3.0), "update");
            db.record_assign(
                "score",
                &["playerX", "minionX", "speed", "lives"],
                Some(t),
                "update",
            );
        }
        db.mark_target("right");
        db
    }

    #[test]
    fn rl_pruned_matches_unpruned() {
        let db = hud_db();
        let filter = StaticFilter::new(&db);
        let params = RlParams::default();
        let (pruned, stats) = extract_rl_pruned(&db, &filter, params);
        assert_eq!(pruned, extract_rl_detailed(&db, params));
        assert!(stats.pruned >= 1, "hud is provably unrelated: {stats:?}");
        let right = db.id("right").unwrap();
        assert!(pruned[&right]
            .candidates
            .iter()
            .all(|&w| db.name(w) != "hud"));
    }

    /// The exact counts, not just `pruned <= considered`.
    ///
    /// Algorithm 1 on `canny_db`: the candidates are `image` and its
    /// dependents. For each of the two targets, `result` depends on the
    /// target and is skipped, and the other five (`sImg`, `image`, `mag`,
    /// `hist`, `noise`) reach the filter, which prunes `noise`.
    ///
    /// Algorithm 2 on `hud_db`: all six non-target variables share `update`
    /// with dep(`right`), and the filter prunes only `hud`.
    #[test]
    fn preprune_stats_are_exact() {
        let db = canny_db();
        let (_, sl) = extract_sl_pruned(&db, &StaticFilter::new(&db));
        assert_eq!(
            sl,
            PrepruneStats {
                considered: 10,
                pruned: 2
            }
        );

        let db = hud_db();
        let (_, rl) = extract_rl_pruned(&db, &StaticFilter::new(&db), RlParams::default());
        assert_eq!(
            rl,
            PrepruneStats {
                considered: 6,
                pruned: 1
            }
        );
    }

    #[test]
    fn filter_proofs_are_directional_and_exact() {
        let db = canny_db();
        let filter = StaticFilter::new(&db);
        // image reaches result, lo reaches result: shared dependent.
        assert!(!filter.proves_unrelated("image", "lo"));
        // noise's only dependent set is empty; lo's is {result}.
        assert!(filter.proves_unrelated("noise", "lo"));
        assert!(filter.proves_unrelated("lo", "noise"));
        // A direct ancestor/descendant pair is related even when the
        // downstream var has no further dependents.
        assert!(!filter.proves_unrelated("hist", "result"));
        assert!(!filter.proves_unrelated("result", "hist"));
        // Unknown names prove nothing.
        assert!(!filter.proves_unrelated("ghost", "lo"));
        assert!(!filter.proves_unrelated("lo", "ghost"));
    }

    #[test]
    fn closure_rows_are_the_dependents_sets() {
        let mut db = canny_db();
        // A cycle, so some rows contain their own index.
        db.record_assign("image", &["result"], None, "loop");
        for graph in [canny_db(), db] {
            let mut m = BitMatrix::new(graph.var_count());
            for v in graph.all_vars() {
                for d in graph.direct_dependents(v) {
                    m.insert(v.0, d.0);
                }
            }
            m.close();
            for v in graph.all_vars() {
                let row: BTreeSet<VarId> =
                    graph.all_vars().filter(|d| m.contains(v.0, d.0)).collect();
                assert_eq!(row, graph.dependents(v), "row of {}", graph.name(v));
            }
        }
    }

    #[test]
    fn stats_reduction_is_safe_on_empty() {
        assert_eq!(PrepruneStats::default().reduction(), 0.0);
    }
}
