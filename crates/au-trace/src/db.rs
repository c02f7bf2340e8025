//! The analysis database: dependence graph + traces + usage map.

use std::collections::{BTreeSet, HashMap, VecDeque};

/// An interned program variable.
///
/// Produced by [`AnalysisDb::var`]; stable for the lifetime of the database.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VarId(pub(crate) usize);

impl VarId {
    /// The raw index (useful for dense side tables).
    pub fn index(self) -> usize {
        self.0
    }
}

/// Dynamic-analysis facts recorded while an instrumented program runs.
///
/// This is the Rust substitute for the paper's Valgrind tooling: it stores
/// the dynamic dependence graph `GDep`, per-variable runtime value traces,
/// the `UseFunc` map (variable → functions in which it is used), and the
/// input (`In`) and target (`Trg`) variable sets consumed by Algorithms 1–2.
#[derive(Debug, Clone, Default)]
pub struct AnalysisDb {
    names: Vec<String>,
    index: HashMap<String, VarId>,
    /// `forward[a]` = variables with a direct dependence edge `a → b`
    /// (i.e. `b` is computed from `a`; `b` is a *dependent* of `a`).
    forward: Vec<BTreeSet<VarId>>,
    traces: Vec<Vec<f64>>,
    use_funcs: Vec<BTreeSet<String>>,
    inputs: BTreeSet<VarId>,
    targets: BTreeSet<VarId>,
}

impl AnalysisDb {
    /// Creates an empty database.
    pub fn new() -> Self {
        AnalysisDb::default()
    }

    /// Interns `name`, returning its stable id.
    pub fn var(&mut self, name: &str) -> VarId {
        if let Some(&id) = self.index.get(name) {
            return id;
        }
        let id = VarId(self.names.len());
        self.names.push(name.to_owned());
        self.index.insert(name.to_owned(), id);
        self.forward.push(BTreeSet::new());
        self.traces.push(Vec::new());
        self.use_funcs.push(BTreeSet::new());
        id
    }

    /// Looks up an already-interned variable.
    pub fn id(&self, name: &str) -> Option<VarId> {
        self.index.get(name).copied()
    }

    /// The variable's source name.
    ///
    /// # Panics
    ///
    /// Panics if `id` came from a different database.
    pub fn name(&self, id: VarId) -> &str {
        &self.names[id.0]
    }

    /// Number of distinct variables recorded.
    pub fn var_count(&self) -> usize {
        self.names.len()
    }

    /// All variables, in interning order — the paper's `ProgVar` set.
    pub fn all_vars(&self) -> impl Iterator<Item = VarId> + '_ {
        (0..self.names.len()).map(VarId)
    }

    /// Records a dynamic assignment `dst := f(srcs…)` executed inside
    /// function `func`, optionally observing the assigned numeric `value`.
    ///
    /// Adds dependence edges `src → dst`, appends `value` to `dst`'s runtime
    /// trace, and marks every involved variable as used in `func`.
    pub fn record_assign(&mut self, dst: &str, srcs: &[&str], value: Option<f64>, func: &str) {
        au_telemetry::count!("au_trace.records");
        let d = self.var(dst);
        let src_ids: Vec<VarId> = srcs.iter().map(|src| self.var(src)).collect();
        for s in src_ids {
            if s != d {
                self.forward[s.0].insert(d);
            }
            self.use_funcs[s.0].insert(func.to_owned());
        }
        if let Some(v) = value {
            self.traces[d.0].push(v);
        }
        self.use_funcs[d.0].insert(func.to_owned());
    }

    /// Adds a bare dependence edge `src → dst` without touching traces or
    /// usage maps — used by graphs built from a static analysis, which
    /// record function usage separately.
    pub fn record_edge(&mut self, src: &str, dst: &str) {
        let s = self.var(src);
        let d = self.var(dst);
        if s != d {
            self.forward[s.0].insert(d);
        }
    }

    /// Records an observed runtime value for `var` without any new edges
    /// (e.g. loop-carried updates sampled once per iteration).
    pub fn record_value(&mut self, var: &str, value: f64) {
        au_telemetry::count!("au_trace.records");
        let v = self.var(var);
        self.traces[v.0].push(value);
    }

    /// Notes that `var` is used inside `func` without recording dataflow.
    pub fn record_use(&mut self, var: &str, func: &str) {
        let v = self.var(var);
        self.use_funcs[v.0].insert(func.to_owned());
    }

    /// Marks a variable as a program input (`In` in Algorithm 1).
    pub fn mark_input(&mut self, name: &str) {
        let v = self.var(name);
        self.inputs.insert(v);
    }

    /// Marks a variable as a prediction target (`Trg`).
    pub fn mark_target(&mut self, name: &str) {
        let v = self.var(name);
        self.targets.insert(v);
    }

    /// The input variable set.
    pub fn inputs(&self) -> &BTreeSet<VarId> {
        &self.inputs
    }

    /// The target variable set.
    pub fn targets(&self) -> &BTreeSet<VarId> {
        &self.targets
    }

    /// The recorded runtime trace of `var` (possibly empty).
    pub fn trace(&self, var: VarId) -> &[f64] {
        &self.traces[var.0]
    }

    /// Functions in which `var` is used.
    pub fn use_funcs(&self, var: VarId) -> &BTreeSet<String> {
        &self.use_funcs[var.0]
    }

    /// Direct dependents of `var` (one dependence edge away).
    pub fn direct_dependents(&self, var: VarId) -> &BTreeSet<VarId> {
        &self.forward[var.0]
    }

    /// The paper's `dep(v)`: all variables transitively computed from `v`
    /// (excluding `v` itself unless it is on a dependence cycle).
    pub fn dependents(&self, var: VarId) -> BTreeSet<VarId> {
        let forward = &self.forward;
        let mut seen = BTreeSet::new();
        let mut queue: VecDeque<VarId> = forward[var.0].iter().copied().collect();
        while let Some(v) = queue.pop_front() {
            if seen.insert(v) {
                queue.extend(forward[v.0].iter().copied());
            }
        }
        seen
    }

    /// `dep` of a whole set, unioned.
    pub fn dependents_of_set(&self, vars: &BTreeSet<VarId>) -> BTreeSet<VarId> {
        let mut out = BTreeSet::new();
        for &v in vars {
            out.extend(self.dependents(v));
        }
        out
    }

    /// BFS distance (#edges) from `from` to `to` along dependence edges, or
    /// `None` if unreachable. Distance 0 means `from == to`.
    pub fn bfs_distance(&self, from: VarId, to: VarId) -> Option<usize> {
        if from == to {
            return Some(0);
        }
        let mut dist: HashMap<VarId, usize> = HashMap::new();
        let mut queue = VecDeque::new();
        dist.insert(from, 0);
        queue.push_back(from);
        while let Some(v) = queue.pop_front() {
            let d = dist[&v];
            for &next in &self.forward[v.0] {
                if next == to {
                    return Some(d + 1);
                }
                if let std::collections::hash_map::Entry::Vacant(e) = dist.entry(next) {
                    e.insert(d + 1);
                    queue.push_back(next);
                }
            }
        }
        None
    }

    /// Renders the dependence graph in Graphviz DOT syntax. Inputs are
    /// drawn as boxes, targets as double circles; every other variable is a
    /// plain ellipse.
    pub fn to_dot(&self) -> String {
        use std::fmt::Write;
        let mut out = String::from("digraph gdep {\n  rankdir=LR;\n");
        for v in self.all_vars() {
            let shape = if self.inputs().contains(&v) {
                "box"
            } else if self.targets().contains(&v) {
                "doublecircle"
            } else {
                "ellipse"
            };
            let _ = writeln!(out, "  \"{}\" [shape={shape}];", self.name(v));
        }
        for v in self.all_vars() {
            for &d in self.direct_dependents(v) {
                let _ = writeln!(out, "  \"{}\" -> \"{}\";", self.name(v), self.name(d));
            }
        }
        out.push_str("}\n");
        out
    }

    /// Shortest BFS distance from `from` to any member of `goals` —
    /// Algorithm 1's "first common descendent found by BFS".
    pub fn bfs_distance_to_set(&self, from: VarId, goals: &BTreeSet<VarId>) -> Option<usize> {
        if goals.contains(&from) {
            return Some(0);
        }
        let mut seen: BTreeSet<VarId> = BTreeSet::new();
        let mut queue = VecDeque::new();
        seen.insert(from);
        queue.push_back((from, 0usize));
        while let Some((v, d)) = queue.pop_front() {
            for &next in &self.forward[v.0] {
                if goals.contains(&next) {
                    return Some(d + 1);
                }
                if seen.insert(next) {
                    queue.push_back((next, d + 1));
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> AnalysisDb {
        // a -> b -> d ; a -> c -> d
        let mut db = AnalysisDb::new();
        db.record_assign("b", &["a"], None, "f");
        db.record_assign("c", &["a"], None, "f");
        db.record_assign("d", &["b", "c"], None, "g");
        db
    }

    #[test]
    fn interning_is_stable() {
        let mut db = AnalysisDb::new();
        let a1 = db.var("a");
        let a2 = db.var("a");
        assert_eq!(a1, a2);
        assert_eq!(db.name(a1), "a");
        assert_eq!(db.var_count(), 1);
        assert_eq!(db.id("missing"), None);
    }

    #[test]
    fn dependents_are_transitive() {
        let db = diamond();
        let a = db.id("a").unwrap();
        let deps: Vec<&str> = db.dependents(a).iter().map(|&v| db.name(v)).collect();
        assert_eq!(deps, vec!["b", "c", "d"]);
    }

    #[test]
    fn dependents_exclude_self_without_cycle() {
        let db = diamond();
        let a = db.id("a").unwrap();
        assert!(!db.dependents(a).contains(&a));
    }

    #[test]
    fn cycle_includes_self() {
        let mut db = AnalysisDb::new();
        // player.x depends on itself across loop iterations (Fig. 10).
        db.record_assign("x", &["x", "speed"], None, "update");
        let x = db.id("x").unwrap();
        // `x -> x` self edges are skipped, but x -> speed? No: speed -> x.
        let speed = db.id("speed").unwrap();
        assert!(db.dependents(speed).contains(&x));
    }

    #[test]
    fn bfs_distance_shortest_path() {
        let mut db = AnalysisDb::new();
        // a -> b -> c and a -> c directly: distance 1 wins.
        db.record_assign("b", &["a"], None, "f");
        db.record_assign("c", &["b"], None, "f");
        db.record_assign("c", &["a"], None, "f");
        let a = db.id("a").unwrap();
        let c = db.id("c").unwrap();
        assert_eq!(db.bfs_distance(a, c), Some(1));
        assert_eq!(db.bfs_distance(c, a), None, "edges are directed");
        assert_eq!(db.bfs_distance(a, a), Some(0));
    }

    #[test]
    fn bfs_distance_to_set_takes_nearest() {
        let db = diamond();
        let a = db.id("a").unwrap();
        let goals: BTreeSet<VarId> = [db.id("d").unwrap(), db.id("b").unwrap()]
            .into_iter()
            .collect();
        assert_eq!(db.bfs_distance_to_set(a, &goals), Some(1));
    }

    #[test]
    fn traces_and_use_funcs_record() {
        let mut db = AnalysisDb::new();
        db.record_assign("y", &["x"], Some(3.0), "main");
        db.record_value("y", 4.0);
        db.record_use("x", "helper");
        let y = db.id("y").unwrap();
        let x = db.id("x").unwrap();
        assert_eq!(db.trace(y), &[3.0, 4.0]);
        assert!(db.use_funcs(x).contains("main"));
        assert!(db.use_funcs(x).contains("helper"));
        assert!(db.use_funcs(y).contains("main"));
    }

    #[test]
    fn inputs_and_targets_are_sets() {
        let mut db = AnalysisDb::new();
        db.mark_input("img");
        db.mark_input("img");
        db.mark_target("lo");
        assert_eq!(db.inputs().len(), 1);
        assert_eq!(db.targets().len(), 1);
    }

    #[test]
    fn dot_export_names_all_nodes_and_edges() {
        let db = diamond();
        let mut db = db;
        db.mark_input("a");
        db.mark_target("d");
        let dot = db.to_dot();
        assert!(dot.starts_with("digraph"));
        assert!(dot.contains("\"a\" [shape=box]"), "{dot}");
        assert!(dot.contains("\"d\" [shape=doublecircle]"), "{dot}");
        assert!(dot.contains("\"a\" -> \"b\""));
        assert!(dot.contains("\"c\" -> \"d\""));
    }

    #[test]
    fn dependents_of_set_unions() {
        let db = diamond();
        let set: BTreeSet<VarId> = [db.id("b").unwrap(), db.id("c").unwrap()]
            .into_iter()
            .collect();
        let deps = db.dependents_of_set(&set);
        assert_eq!(deps.len(), 1);
        assert!(deps.contains(&db.id("d").unwrap()));
    }
}
