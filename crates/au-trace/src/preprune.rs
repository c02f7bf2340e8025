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
//! `extract_sl_pruned`/`extract_rl_pruned` mirror [`crate::extract_sl`] /
//! [`crate::extract_rl_detailed`] exactly, adding only the filter; the
//! repo's end-to-end tests assert result equality on all nine benchmarks.

use crate::db::{AnalysisDb, VarId};
use crate::rl::{RlExtraction, RlParams};
use crate::sl::RankedFeature;
use crate::stats::{euclidean_distance, min_max_scale, variance};
use std::collections::{BTreeMap, BTreeSet};

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

    fn absorb(&mut self, other: PrepruneStats) {
        self.considered += other.considered;
        self.pruned += other.pruned;
    }
}

/// A square matrix of bits over `0..n`, one row of `u64` words per index.
///
/// Static dependence graphs are small and dense enough that a row of bits
/// beats a `BTreeSet` per variable: [`StaticFilter`] and AuLang's static
/// analysis keep their edges and transitive closures in one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitMatrix {
    n: usize,
    words: usize,
    bits: Vec<u64>,
}

impl BitMatrix {
    /// An `n × n` matrix with no bit set.
    pub fn new(n: usize) -> Self {
        let words = n.div_ceil(64);
        BitMatrix {
            n,
            words,
            bits: vec![0; n * words],
        }
    }

    /// Sets bit `(row, col)`.
    pub fn insert(&mut self, row: usize, col: usize) {
        self.bits[row * self.words + col / 64] |= 1 << (col % 64);
    }

    /// Whether bit `(row, col)` is set.
    pub fn contains(&self, row: usize, col: usize) -> bool {
        self.bits[row * self.words + col / 64] >> (col % 64) & 1 == 1
    }

    /// Row `row` as words: column `c` is bit `c % 64` of word `c / 64`.
    pub fn row(&self, row: usize) -> &[u64] {
        &self.bits[row * self.words..(row + 1) * self.words]
    }

    /// Replaces the relation with its transitive closure (Warshall's
    /// algorithm, 64 columns per word operation): afterwards `(i, j)` is
    /// set exactly when a path of one or more steps leads from `i` to
    /// `j`, so `(i, i)` is set only for an `i` on a cycle. Over
    /// dependence edges, row `v` becomes [`AnalysisDb::dependents`]`(v)`.
    pub fn close(&mut self) {
        let w = self.words;
        for k in 0..self.n {
            for i in 0..self.n {
                if i != k && self.contains(i, k) {
                    for x in 0..w {
                        self.bits[i * w + x] |= self.bits[k * w + x];
                    }
                }
            }
        }
    }
}

/// Precomputed reachability over a static dependence graph (from
/// `au_lang::static_analysis::analyze`, or any [`AnalysisDb`] built from
/// program text rather than a run).
///
/// The filter keeps only a sorted name index and the graph's transitive
/// closure as a [`BitMatrix`], behind an `Arc`, so `clone()` is O(1) —
/// the pooled extraction loops hand each `'static` worker job its own
/// handle without recomputing or deep-copying anything.
#[derive(Clone)]
pub struct StaticFilter {
    core: std::sync::Arc<FilterCore>,
}

struct FilterCore {
    /// Every variable name, sorted, with its row in `deps`.
    index: Vec<(Box<str>, usize)>,
    /// Row `v`: the transitive dependents of `v`.
    deps: BitMatrix,
}

impl FilterCore {
    fn id(&self, name: &str) -> Option<usize> {
        let at = self.index.binary_search_by(|(n, _)| (**n).cmp(name)).ok()?;
        Some(self.index[at].1)
    }
}

impl StaticFilter {
    /// Computes the transitive-dependents closure of every static variable
    /// once, so each candidate test is two name lookups and a few word
    /// operations.
    pub fn new(static_db: &AnalysisDb) -> Self {
        let mut index = Vec::with_capacity(static_db.var_count());
        let mut deps = BitMatrix::new(static_db.var_count());
        for v in static_db.all_vars() {
            index.push((Box::from(static_db.name(v)), v.0));
            for &d in static_db.direct_dependents(v) {
                deps.insert(v.0, d.0);
            }
        }
        index.sort_unstable();
        deps.close();
        StaticFilter {
            core: std::sync::Arc::new(FilterCore { index, deps }),
        }
    }

    /// True when the static graph *proves* `w` and `v` share no dependent.
    /// Unknown names prove nothing (rule 2): the candidate is kept.
    pub fn proves_unrelated(&self, w: &str, v: &str) -> bool {
        let core = &*self.core;
        match (core.id(w), core.id(v)) {
            (Some(wi), Some(vi)) => {
                let deps = &core.deps;
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
    let _t = t_time!("au_trace.extract_sl_pruned");
    let mut candidates = db.inputs().clone();
    candidates.extend(db.dependents_of_set(db.inputs()));

    // Pooled like `extract_sl`: each `'static` job owns cheap Arc handles
    // to the database snapshot and the precomputed static filter.
    let targets: Vec<VarId> = db.targets().iter().copied().collect();
    let db = db.snapshot();
    let filter = filter.clone();
    let per_target = au_par::pool_map(targets.len(), 1, move |ti| {
        let v = targets[ti];
        let dep_v = db.dependents(v);
        let mut ranked = Vec::new();
        let mut stats = PrepruneStats::default();
        for &w in &candidates {
            if w == v || db.targets().contains(&w) {
                continue;
            }
            if dep_v.contains(&w) {
                continue;
            }
            stats.considered += 1;
            if filter.proves_unrelated(db.name(w), db.name(v)) {
                stats.pruned += 1;
                continue;
            }
            let dep_w = db.dependents(w);
            let common: BTreeSet<VarId> = dep_w.intersection(&dep_v).copied().collect();
            if common.is_empty() {
                continue;
            }
            let distance = db
                .bfs_distance_to_set(w, &common)
                .expect("common dependent is reachable from w by construction");
            ranked.push(RankedFeature { var: w, distance });
        }
        ranked.sort_by_key(|f| (f.distance, f.var));
        (v, ranked, stats)
    });

    let mut total = PrepruneStats::default();
    let map = per_target
        .into_iter()
        .map(|(v, ranked, stats)| {
            total.absorb(stats);
            (v, ranked)
        })
        .collect();
    (map, total)
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
    let _t = t_time!("au_trace.extract_rl_pruned");
    // Pooled per target like `extract_rl_detailed`.
    let targets: Vec<VarId> = db.targets().iter().copied().collect();
    let db = db.snapshot();
    let filter = filter.clone();
    let per_target = au_par::pool_map(targets.len(), 1, move |ti| {
        let v = targets[ti];
        let dep_v = db.dependents(v);
        let mut dep_funcs: BTreeSet<&str> = BTreeSet::new();
        for &d in &dep_v {
            dep_funcs.extend(db.use_funcs(d).iter().map(|s| s.as_str()));
        }

        let mut stats = PrepruneStats::default();
        let mut candidates: BTreeMap<VarId, Vec<f64>> = BTreeMap::new();
        for w in db.all_vars() {
            if w == v || db.targets().contains(&w) {
                continue;
            }
            let shares_func = db
                .use_funcs(w)
                .iter()
                .any(|f| dep_funcs.contains(f.as_str()));
            if !shares_func {
                continue;
            }
            stats.considered += 1;
            if filter.proves_unrelated(db.name(w), db.name(v)) {
                stats.pruned += 1;
                continue;
            }
            let dep_w = db.dependents(w);
            if dep_v.intersection(&dep_w).next().is_none() {
                continue;
            }
            candidates.insert(w, min_max_scale(db.trace(w)));
        }

        // ε₁/ε₂ passes — byte-for-byte the logic of extract_rl_detailed.
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
        (
            v,
            RlExtraction {
                candidates: order.clone(),
                pruned_redundant: deleted.into_iter().collect(),
                pruned_unchanging,
                selected,
            },
            stats,
        )
    });

    let mut total = PrepruneStats::default();
    let map = per_target
        .into_iter()
        .map(|(v, e, stats)| {
            total.absorb(stats);
            (v, e)
        })
        .collect();
    (map, total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{extract_rl_detailed, extract_sl};

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

    #[test]
    fn rl_pruned_matches_unpruned() {
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
                for &d in graph.direct_dependents(v) {
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
