//! Algorithm 2: automatic reinforcement-learning feature extraction.

use crate::bits::intersects;
use crate::db::{AnalysisDb, VarId};
use crate::preprune::{PrepruneStats, StaticFilter};
use crate::stats::{euclidean_distance, min_max_scale, variance};
use std::collections::{BTreeMap, BTreeSet};

/// Pruning thresholds for [`extract_rl`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RlParams {
    /// ε₁: two candidates whose scaled traces are within this Euclidean
    /// distance are redundant; the later one is pruned. The TORCS case study
    /// uses 0 (prune exact duplicates only).
    pub epsilon1: f64,
    /// ε₂: candidates whose scaled-trace variance is at most this threshold
    /// are unchanging and pruned. The TORCS case study uses 0.01.
    pub epsilon2: f64,
}

impl Default for RlParams {
    fn default() -> Self {
        // The thresholds used in the paper's TORCS case study (Section 6.3).
        RlParams {
            epsilon1: 0.0,
            epsilon2: 0.01,
        }
    }
}

/// Runs **Algorithm 2** from the paper on the recorded dynamic facts.
///
/// For each target variable `v`, a program variable `w` is a candidate iff
/// `w ≠ v`, `w` is used in some function that also uses a dependent of `v`
/// (`UseFunc[dep(v)] ∩ UseFunc[w] ≠ ∅`), and `v` and `w` share a common
/// descendent (`dep(v) ∩ dep(w) ≠ ∅`). Candidates are then pruned:
///
/// - **redundant**: if the min–max-scaled traces of `w` and a later
///   candidate `x` are within Euclidean distance ε₁, `x` is deleted
///   (Fig. 15's `posX` vs `roll`);
/// - **unchanging**: if the scaled trace of `w` has variance ≤ ε₂, `w` is
///   skipped (Fig. 16's `accX`).
///
/// Returns, per target, the surviving feature variables in interning order.
/// Variables with empty traces are treated as unchanging.
pub fn extract_rl(db: &AnalysisDb, params: RlParams) -> BTreeMap<VarId, Vec<VarId>> {
    extract_rl_detailed(db, params)
        .into_iter()
        .map(|(v, d)| (v, d.selected))
        .collect()
}

/// Per-target diagnostics from Algorithm 2 — exposes the pre-pruning
/// candidate set (Table 1's "Candidate Vars" column) alongside the final
/// selection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RlExtraction {
    /// Candidates before ε₁/ε₂ pruning.
    pub candidates: Vec<VarId>,
    /// Candidates removed as redundant (ε₁).
    pub pruned_redundant: Vec<VarId>,
    /// Candidates removed as unchanging (ε₂).
    pub pruned_unchanging: Vec<VarId>,
    /// Surviving feature variables.
    pub selected: Vec<VarId>,
}

/// Runs Algorithm 2 returning full diagnostics per target.
pub fn extract_rl_detailed(db: &AnalysisDb, params: RlParams) -> BTreeMap<VarId, RlExtraction> {
    let _s = au_telemetry::span!("extract_rl", targets = db.targets().len());
    let _t = au_telemetry::time!("au_trace.extract_rl");
    au_telemetry::count!("au_trace.rl_extractions");
    algorithm2(db, params, None).0
}

/// Algorithm 2's per-target loop, for [`extract_rl_detailed`] and, with a
/// static filter, [`crate::extract_rl_pruned`]. Every (target, variable)
/// pair that shares a function with dep(target) is counted as considered;
/// one the filter proves unrelated is counted as pruned and never becomes
/// a candidate, which the dynamic test would have rejected anyway, so the
/// ε₁/ε₂ passes see the same candidates either way.
pub(crate) fn algorithm2(
    db: &AnalysisDb,
    params: RlParams,
    filter: Option<&StaticFilter>,
) -> (BTreeMap<VarId, RlExtraction>, PrepruneStats) {
    let mut stats = PrepruneStats::default();
    let mut extractions = BTreeMap::new();
    for &v in db.targets() {
        let dep_v = db.dependents(v);
        // UseFunc[dep(v)]: union of usage functions over v's dependents.
        let mut dep_funcs = vec![0u64; db.use_words()];
        for &d in &dep_v {
            for (a, b) in dep_funcs.iter_mut().zip(db.use_row(d)) {
                *a |= b;
            }
        }

        // Candidate map: VarId -> scaled trace (BTreeMap keeps a stable,
        // interning-ordered iteration like the paper's insertion order).
        let mut candidates: BTreeMap<VarId, Vec<f64>> = BTreeMap::new();
        for w in db.all_vars() {
            if w == v || db.targets().contains(&w) {
                continue;
            }
            if !intersects(db.use_row(w), &dep_funcs) {
                continue;
            }
            stats.considered += 1;
            if filter.is_some_and(|f| f.proves_unrelated(db.name(w), db.name(v))) {
                stats.pruned += 1;
                continue;
            }
            let dep_w = db.dependents(w);
            if dep_v.intersection(&dep_w).next().is_none() {
                continue;
            }
            candidates.insert(w, min_max_scale(db.trace(w)));
        }

        // Redundancy pruning (ε₁): keep the first of each similar pair.
        let order: Vec<VarId> = candidates.keys().copied().collect();
        let mut deleted: BTreeSet<VarId> = BTreeSet::new();
        for (i, &w) in order.iter().enumerate() {
            if deleted.contains(&w) {
                continue;
            }
            for &x in &order[i + 1..] {
                if !deleted.contains(&x)
                    && euclidean_distance(&candidates[&w], &candidates[&x]) <= params.epsilon1
                {
                    deleted.insert(x);
                }
            }
        }

        // Variance pruning (ε₂) over the survivors.
        let mut selected = Vec::new();
        let mut pruned_unchanging = Vec::new();
        for &w in &order {
            if deleted.contains(&w) {
                continue;
            }
            if variance(&candidates[&w]) <= params.epsilon2 {
                pruned_unchanging.push(w);
                continue;
            }
            selected.push(w);
        }
        extractions.insert(
            v,
            RlExtraction {
                candidates: order,
                pruned_redundant: deleted.into_iter().collect(),
                pruned_unchanging,
                selected,
            },
        );
    }
    (extractions, stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The Mario shape from Fig. 10: player.x and minion.x update themselves
    /// each frame, feed `speed`/`collide`, which feed the action `right`.
    fn mario_db() -> AnalysisDb {
        let mut db = AnalysisDb::new();
        for i in 0..20 {
            let t = i as f64;
            db.record_assign(
                "playerX",
                &["playerX", "speed"],
                Some(t * 2.0),
                "updatePlayer",
            );
            db.record_assign("minionX", &["minionX"], Some(100.0 - t), "minionCollision");
            // mX is a duplicate alias of minionX (pruned by ε₁).
            db.record_assign("mX", &["minionX"], Some(100.0 - t), "minionCollision");
            // lives is unchanging (pruned by ε₂).
            db.record_assign("lives", &["lives"], Some(3.0), "updatePlayer");
            db.record_assign("speed", &["right"], Some((t * 0.5).sin()), "updatePlayer");
            db.record_assign(
                "collide",
                &["playerX", "minionX", "mX"],
                Some(t % 2.0),
                "gameLoop",
            );
            db.record_assign("score", &["collide", "speed", "lives"], Some(t), "gameLoop");
        }
        db.mark_target("right");
        db
    }

    #[test]
    fn fig10_selects_positions_and_prunes_duplicates() {
        let db = mario_db();
        let features = extract_rl(&db, RlParams::default());
        let right = db.id("right").unwrap();
        let names: Vec<&str> = features[&right].iter().map(|&v| db.name(v)).collect();
        assert!(names.contains(&"playerX"), "got {names:?}");
        assert!(names.contains(&"minionX"), "got {names:?}");
        assert!(
            !names.contains(&"mX"),
            "duplicate of minionX must be ε₁-pruned: {names:?}"
        );
        assert!(
            !names.contains(&"lives"),
            "constant must be ε₂-pruned: {names:?}"
        );
    }

    #[test]
    fn target_itself_never_selected() {
        let db = mario_db();
        let features = extract_rl(&db, RlParams::default());
        let right = db.id("right").unwrap();
        assert!(!features[&right].contains(&right));
    }

    #[test]
    fn epsilon1_widens_pruning() {
        let mut db = AnalysisDb::new();
        for i in 0..10 {
            let t = i as f64;
            db.record_assign("a", &["a"], Some(t), "f");
            // b is *near*-identical to a after scaling, but not exact.
            db.record_assign("b", &["b"], Some(t + 0.001 * (i % 2) as f64), "f");
            db.record_assign("out", &["a", "b", "act"], Some(t), "f");
        }
        db.mark_target("act");
        let act = db.id("act").unwrap();

        let strict = extract_rl(
            &db,
            RlParams {
                epsilon1: 0.0,
                epsilon2: 0.0,
            },
        );
        assert_eq!(
            strict[&act].len(),
            2,
            "no pruning at ε₁=0 for near-equal traces"
        );
        let loose = extract_rl(
            &db,
            RlParams {
                epsilon1: 0.1,
                epsilon2: 0.0,
            },
        );
        assert_eq!(loose[&act].len(), 1, "ε₁=0.1 prunes the near-duplicate");
    }

    #[test]
    fn epsilon2_prunes_low_variance() {
        let mut db = AnalysisDb::new();
        for i in 0..10 {
            let t = i as f64;
            db.record_assign("wiggle", &["wiggle"], Some((t * 10.0).sin() * 0.01), "f");
            db.record_assign("big", &["big"], Some(t), "f");
            db.record_assign("out", &["wiggle", "big", "act"], Some(t), "f");
        }
        db.mark_target("act");
        let act = db.id("act").unwrap();
        // Note: variance is computed on the *scaled* trace, so both have
        // non-trivial variance after scaling; ε₂=0.2 keeps both, ε₂ large
        // prunes everything.
        let keep = extract_rl(
            &db,
            RlParams {
                epsilon1: 0.0,
                epsilon2: 0.0,
            },
        );
        assert_eq!(keep[&act].len(), 2);
        let prune_all = extract_rl(
            &db,
            RlParams {
                epsilon1: 0.0,
                epsilon2: 10.0,
            },
        );
        assert!(prune_all[&act].is_empty());
    }

    #[test]
    fn empty_trace_counts_as_unchanging() {
        let mut db = AnalysisDb::new();
        db.record_assign("ghost", &["ghost"], None, "f");
        db.record_assign("out", &["ghost", "act"], Some(1.0), "f");
        db.record_value("out", 2.0);
        db.mark_target("act");
        let act = db.id("act").unwrap();
        let features = extract_rl(&db, RlParams::default());
        assert!(features[&act].iter().all(|&v| db.name(v) != "ghost"));
    }

    #[test]
    fn candidates_require_shared_function() {
        let mut db = AnalysisDb::new();
        for i in 0..5 {
            let t = i as f64;
            // `far` varies and shares a descendent, but is used only in a
            // function where no dependent of the target appears.
            db.record_assign("near", &["near"], Some(t), "gameLoop");
            db.record_assign("out", &["near", "act"], Some(t), "gameLoop");
        }
        // far -> out edge recorded from an unrelated function: the edge
        // exists but far's UseFunc does not intersect UseFunc[dep(act)].
        db.record_value("far", 1.0);
        db.record_value("far", 5.0);
        db.record_use("far", "elsewhere");
        db.mark_target("act");
        let act = db.id("act").unwrap();
        let features = extract_rl(
            &db,
            RlParams {
                epsilon1: 0.0,
                epsilon2: 0.0,
            },
        );
        let names: Vec<&str> = features[&act].iter().map(|&v| db.name(v)).collect();
        assert_eq!(names, vec!["near"]);
    }
}
