//! Algorithm 1: automatic supervised-learning feature extraction.

use crate::db::{AnalysisDb, VarId};
use crate::preprune::{PrepruneStats, StaticFilter};
use std::collections::{BTreeMap, BTreeSet};

/// A candidate feature variable with its dependence-graph distance to the
/// first common dependent shared with the target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RankedFeature {
    /// The feature variable.
    pub var: VarId,
    /// BFS distance from the feature to the nearest common dependent.
    /// Smaller ⇒ more abstract ⇒ better (the paper's key ranking insight).
    pub distance: usize,
}

/// Which slice of the distance ranking to use — the paper's three SL
/// evaluation versions (Section 6.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DistanceBand {
    /// Feature variables with the minimum distance (best quality).
    Min,
    /// Feature variables with the median distance.
    Med,
    /// Feature variables with the maximum distance — typically the raw
    /// program inputs.
    Raw,
}

/// Runs **Algorithm 1** from the paper on the recorded dynamic facts.
///
/// For each target variable `v`:
/// 1. candidates are the input variables plus their transitive dependents;
/// 2. a candidate `w` is a feature of `v` iff `dep(w) ∩ dep(v) ≠ ∅` (they
///    share a common dependent) and `w` does not itself depend on `v` (a
///    variable downstream of the prediction cannot be an input to it);
/// 3. each feature is ranked by the BFS distance from `w` to the nearest
///    common dependent, ascending.
///
/// Returns a map from each target to its ranked feature list. Targets with
/// no correlated candidates map to an empty list.
pub fn extract_sl(db: &AnalysisDb) -> BTreeMap<VarId, Vec<RankedFeature>> {
    let _s = au_telemetry::span!("extract_sl", targets = db.targets().len());
    let _t = au_telemetry::time!("au_trace.extract_sl");
    au_telemetry::count!("au_trace.sl_extractions");
    algorithm1(db, None).0
}

/// Algorithm 1's per-target loop, for [`extract_sl`] and, with a static
/// filter, [`crate::extract_sl_pruned`]. Every (target, candidate) pair
/// that survives the dynamic exclusions is counted as considered; one the
/// filter proves unrelated is counted as pruned and skips its dynamic
/// closure and BFS.
pub(crate) fn algorithm1(
    db: &AnalysisDb,
    filter: Option<&StaticFilter>,
) -> (BTreeMap<VarId, Vec<RankedFeature>>, PrepruneStats) {
    // Candidate ← In ∪ dep(In)
    let mut candidates = db.inputs().clone();
    candidates.extend(db.dependents_of_set(db.inputs()));

    let mut stats = PrepruneStats::default();
    let mut features = BTreeMap::new();
    for &v in db.targets() {
        let dep_v = db.dependents(v);
        let mut ranked = Vec::new();
        for &w in &candidates {
            // Other targets are outputs, and a w that depends on v is
            // unavailable at prediction time.
            if w == v || db.targets().contains(&w) || dep_v.contains(&w) {
                continue;
            }
            stats.considered += 1;
            if filter.is_some_and(|f| f.proves_unrelated(db.name(w), db.name(v))) {
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
        features.insert(v, ranked);
    }
    (features, stats)
}

/// Selects the feature variables in the requested distance band:
/// all features whose distance equals the minimum / median / maximum
/// distance present in the ranking.
///
/// Returns an empty vector for an empty ranking.
pub fn select_band(ranked: &[RankedFeature], band: DistanceBand) -> Vec<VarId> {
    if ranked.is_empty() {
        return Vec::new();
    }
    let distances: Vec<usize> = ranked.iter().map(|f| f.distance).collect();
    let pick = match band {
        DistanceBand::Min => *distances.first().expect("non-empty"),
        DistanceBand::Raw => *distances.last().expect("non-empty"),
        DistanceBand::Med => distances[distances.len() / 2],
    };
    ranked
        .iter()
        .filter(|f| f.distance == pick)
        .map(|f| f.var)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The Canny shape from Fig. 9:
    /// image -> sImg -> mag -> hist -> result, with lo/hi -> result.
    fn canny_db() -> AnalysisDb {
        let mut db = AnalysisDb::new();
        db.record_assign("sImg", &["image"], None, "canny");
        db.record_assign("mag", &["sImg"], None, "canny");
        db.record_assign("hist", &["mag"], None, "hysteresis");
        db.record_assign("result", &["hist", "lo", "hi"], None, "hysteresis");
        db.mark_input("image");
        db.mark_target("lo");
        db.mark_target("hi");
        db
    }

    #[test]
    fn fig9_ranking_matches_paper() {
        let db = canny_db();
        let features = extract_sl(&db);
        let lo = db.id("lo").unwrap();
        let ranked = &features[&lo];
        let names: Vec<(&str, usize)> = ranked
            .iter()
            .map(|f| (db.name(f.var), f.distance))
            .collect();
        // Paper: hist has distance 1, sImg distance 3 (via mag -> hist ->
        // result), mag distance 2, image distance 4.
        assert_eq!(
            names,
            vec![("hist", 1), ("mag", 2), ("sImg", 3), ("image", 4)]
        );
    }

    #[test]
    fn band_selection() {
        let db = canny_db();
        let features = extract_sl(&db);
        let lo = db.id("lo").unwrap();
        let ranked = &features[&lo];
        let min = select_band(ranked, DistanceBand::Min);
        let med = select_band(ranked, DistanceBand::Med);
        let raw = select_band(ranked, DistanceBand::Raw);
        assert_eq!(db.name(min[0]), "hist");
        assert_eq!(db.name(med[0]), "sImg");
        assert_eq!(db.name(raw[0]), "image");
    }

    #[test]
    fn other_targets_are_not_features() {
        let db = canny_db();
        let features = extract_sl(&db);
        let lo = db.id("lo").unwrap();
        let hi = db.id("hi").unwrap();
        assert!(features[&lo].iter().all(|f| f.var != hi));
    }

    #[test]
    fn uncorrelated_candidates_are_excluded() {
        let mut db = canny_db();
        // `noise` flows from the input but shares no dependent with lo.
        db.record_assign("noise", &["image"], None, "other");
        let features = extract_sl(&db);
        let lo = db.id("lo").unwrap();
        assert!(features[&lo].iter().all(|f| db.name(f.var) != "noise"));
    }

    #[test]
    fn downstream_of_target_is_excluded() {
        let mut db = canny_db();
        // `post` depends on lo (and on the input chain); it is downstream of
        // the prediction and must not be selected.
        db.record_assign("post", &["lo", "sImg"], None, "post");
        db.record_assign("final", &["post", "result"], None, "post");
        let features = extract_sl(&db);
        let lo = db.id("lo").unwrap();
        assert!(features[&lo].iter().all(|f| db.name(f.var) != "post"));
    }

    #[test]
    fn target_without_correlation_gets_empty_list() {
        let mut db = AnalysisDb::new();
        db.mark_input("x");
        db.mark_target("t");
        let features = extract_sl(&db);
        let t = db.id("t").unwrap();
        assert!(features[&t].is_empty());
        assert!(select_band(&features[&t], DistanceBand::Min).is_empty());
    }

    #[test]
    fn band_with_uniform_distances_selects_all() {
        let mut db = AnalysisDb::new();
        // a and b both feed result directly; lo also feeds result.
        db.record_assign("result", &["a", "b", "lo"], None, "f");
        db.mark_input("a");
        db.mark_input("b");
        db.mark_target("lo");
        let features = extract_sl(&db);
        let lo = db.id("lo").unwrap();
        let min = select_band(&features[&lo], DistanceBand::Min);
        assert_eq!(min.len(), 2);
    }
}
