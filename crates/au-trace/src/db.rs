//! The analysis database: dependence graph + traces + usage map.
//!
//! Variables and functions are [`Symbols`], each name stored once, and
//! both the dependence edges and each variable's function set are rows
//! of a growable [`BitMatrix`]: an edge or a use is one bit, a closure or
//! a BFS runs 64 variables per word operation, and a database built from
//! static facts is a copy of their rows.

use crate::bits::{intersects, members, BitMatrix};
use crate::symbols::{Sym, Symbols};
use std::collections::BTreeSet;

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
    /// Variable names; a variable's [`VarId`] is its symbol's index.
    names: Symbols,
    /// Function names, numbered as the columns of `uses`.
    funcs: Symbols,
    /// Row `a` holds `b` when there is a direct dependence edge `a → b`
    /// (`b` is computed from `a`; `b` is a *dependent* of `a`). Square
    /// over the variables.
    forward: BitMatrix,
    /// Row `v` holds the functions `v` is used in.
    uses: BitMatrix,
    /// Per variable, its observed values; a variable past the end has
    /// none yet.
    traces: Vec<Vec<f64>>,
    inputs: BTreeSet<VarId>,
    targets: BTreeSet<VarId>,
}

impl AnalysisDb {
    /// Creates an empty database.
    pub fn new() -> Self {
        AnalysisDb::default()
    }

    /// Creates an empty database with room for `vars` variables.
    pub fn with_capacity(vars: usize) -> Self {
        AnalysisDb {
            names: Symbols::with_capacity(vars, 8 * vars),
            traces: Vec::with_capacity(vars),
            ..AnalysisDb::default()
        }
    }

    /// A database over the variables of `vars` whose edges and uses are
    /// already known, as a static analysis proves them: row `a` of
    /// `edges` holds `b` for each edge `a → b` (never `a → a`), row `v` of
    /// `uses` holds the symbol in `funcs` of each function `v` is used in,
    /// and `inputs` and `targets` hold variable indices. No variable has a
    /// trace.
    ///
    /// # Panics
    ///
    /// Panics unless `edges` is square over the variables, `uses` has a
    /// row per variable and a column per function, and every input and
    /// target is a variable.
    pub fn from_rows(
        vars: Symbols,
        funcs: Symbols,
        edges: BitMatrix,
        uses: BitMatrix,
        inputs: impl IntoIterator<Item = usize>,
        targets: impl IntoIterator<Item = usize>,
    ) -> Self {
        let n = vars.len();
        assert_eq!((edges.rows(), edges.cols()), (n, n), "edge rows");
        assert_eq!((uses.rows(), uses.cols()), (n, funcs.len()), "use rows");
        let set = |vars: &mut dyn Iterator<Item = usize>| -> BTreeSet<VarId> {
            vars.map(|v| {
                assert!(v < n, "input or target {v} is not a variable");
                VarId(v)
            })
            .collect()
        };
        AnalysisDb {
            inputs: set(&mut inputs.into_iter()),
            targets: set(&mut targets.into_iter()),
            names: vars,
            funcs,
            forward: edges,
            uses,
            traces: Vec::new(),
        }
    }

    /// Interns `name`, returning its stable id.
    pub fn var(&mut self, name: &str) -> VarId {
        let n = self.names.len();
        let v = self.names.intern(name).index();
        if v == n {
            self.forward.grow(n + 1, n + 1);
            self.uses.grow(n + 1, self.funcs.len());
        }
        VarId(v)
    }

    /// Looks up an already-interned variable.
    pub fn id(&self, name: &str) -> Option<VarId> {
        self.names.get(name).map(|s| VarId(s.index()))
    }

    /// The variable's source name.
    ///
    /// # Panics
    ///
    /// Panics if `id` came from a different database.
    pub fn name(&self, id: VarId) -> &str {
        self.names.name(Sym::from_index(id.0))
    }

    /// The variable names, numbered by [`VarId::index`].
    pub(crate) fn symbols(&self) -> &Symbols {
        &self.names
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
        let f = self.func(func);
        for src in srcs {
            let s = self.var(src);
            if s != d {
                self.forward.insert(s.0, d.0);
            }
            self.uses.insert(s.0, f);
        }
        if let Some(v) = value {
            self.push_value(d, v);
        }
        self.uses.insert(d.0, f);
    }

    /// Adds a bare dependence edge `src → dst` without touching traces or
    /// usage maps — used by graphs built from a static analysis, which
    /// record function usage separately.
    pub fn record_edge(&mut self, src: &str, dst: &str) {
        let s = self.var(src);
        let d = self.var(dst);
        if s != d {
            self.forward.insert(s.0, d.0);
        }
    }

    /// Records an observed runtime value for `var` without any new edges
    /// (e.g. loop-carried updates sampled once per iteration).
    pub fn record_value(&mut self, var: &str, value: f64) {
        au_telemetry::count!("au_trace.records");
        let v = self.var(var);
        self.push_value(v, value);
    }

    /// Notes that `var` is used inside `func` without recording dataflow.
    pub fn record_use(&mut self, var: &str, func: &str) {
        let v = self.var(var);
        let f = self.func(func);
        self.uses.insert(v.0, f);
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

    /// The column of function `name` in `uses`, added if it is new.
    fn func(&mut self, name: &str) -> usize {
        let f = self.funcs.intern(name).index();
        if f == self.uses.cols() {
            self.uses.grow(self.names.len(), f + 1);
        }
        f
    }

    fn push_value(&mut self, v: VarId, value: f64) {
        if self.traces.len() <= v.0 {
            self.traces.resize_with(v.0 + 1, Vec::new);
        }
        self.traces[v.0].push(value);
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
        self.traces.get(var.0).map_or(&[], Vec::as_slice)
    }

    /// The functions in which `var` is used, in name order.
    pub fn use_funcs(&self, var: VarId) -> Vec<&str> {
        let mut names: Vec<&str> = members(self.use_row(var))
            .map(|f| self.funcs.name(Sym::from_index(f)))
            .collect();
        names.sort_unstable();
        names
    }

    /// The functions `var` is used in, as a row of function bits; rows
    /// of one database compare bit for bit.
    pub(crate) fn use_row(&self, var: VarId) -> &[u64] {
        self.uses.row(var.0)
    }

    /// The width of a [`use_row`](Self::use_row), in words.
    pub(crate) fn use_words(&self) -> usize {
        self.funcs.len().div_ceil(64)
    }

    /// The direct dependence edges: row `a` holds `b` for each edge
    /// `a → b`.
    pub(crate) fn edges(&self) -> &BitMatrix {
        &self.forward
    }

    /// Direct dependents of `var` (one dependence edge away), ascending.
    pub fn direct_dependents(&self, var: VarId) -> impl Iterator<Item = VarId> + '_ {
        members(self.forward.row(var.0)).map(VarId)
    }

    /// The paper's `dep(v)`: all variables transitively computed from `v`
    /// (excluding `v` itself unless it is on a dependence cycle).
    pub fn dependents(&self, var: VarId) -> BTreeSet<VarId> {
        let mut seen = self.forward.row(var.0).to_vec();
        let mut todo: Vec<usize> = members(&seen).collect();
        while let Some(v) = todo.pop() {
            self.visit(v, &mut seen, &mut todo);
        }
        members(&seen).map(VarId).collect()
    }

    /// Adds `v`'s direct dependents missing from `seen` to it and to
    /// `next`.
    fn visit(&self, v: usize, seen: &mut [u64], next: &mut Vec<usize>) {
        for (i, (s, &r)) in seen.iter_mut().zip(self.forward.row(v)).enumerate() {
            let new = r & !*s;
            if new != 0 {
                *s |= new;
                next.extend(members(&[new]).map(|b| i * 64 + b));
            }
        }
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
        self.bfs(from, |row| {
            row.get(to.0 / 64)
                .is_some_and(|w| w >> (to.0 % 64) & 1 == 1)
        })
    }

    /// Shortest BFS distance from `from` to any member of `goals` —
    /// Algorithm 1's "first common descendent found by BFS".
    pub fn bfs_distance_to_set(&self, from: VarId, goals: &BTreeSet<VarId>) -> Option<usize> {
        if goals.contains(&from) {
            return Some(0);
        }
        let mut bits = vec![0u64; self.var_count().div_ceil(64)];
        for g in goals {
            bits[g.0 / 64] |= 1 << (g.0 % 64);
        }
        self.bfs(from, |row| intersects(row, &bits))
    }

    /// The number of edges on a shortest path from `from` to a variable
    /// whose row of direct dependents `hits`, plus one; `None` if no
    /// variable reachable from `from` (itself included) has one.
    fn bfs(&self, from: VarId, hits: impl Fn(&[u64]) -> bool) -> Option<usize> {
        let mut seen = vec![0u64; self.var_count().div_ceil(64)];
        seen[from.0 / 64] |= 1 << (from.0 % 64);
        let (mut frontier, mut next) = (vec![from.0], Vec::new());
        let mut distance = 1;
        while !frontier.is_empty() {
            for &v in &frontier {
                if hits(self.forward.row(v)) {
                    return Some(distance);
                }
            }
            for &v in &frontier {
                self.visit(v, &mut seen, &mut next);
            }
            std::mem::swap(&mut frontier, &mut next);
            next.clear();
            distance += 1;
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
            for d in self.direct_dependents(v) {
                let _ = writeln!(out, "  \"{}\" -> \"{}\";", self.name(v), self.name(d));
            }
        }
        out.push_str("}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The database as it was before its rows became bits: a `BTreeSet`
    /// per variable for edges and for function names, and a hash map from
    /// names to ids. The bit-row database must answer every query as it
    /// does.
    mod reference {
        use super::super::VarId;
        use std::collections::{BTreeSet, HashMap, VecDeque};
        use std::sync::Arc;

        #[derive(Default)]
        pub struct Reference {
            names: Vec<Arc<str>>,
            index: HashMap<Arc<str>, VarId>,
            forward: Vec<BTreeSet<VarId>>,
            traces: Vec<Vec<f64>>,
            use_funcs: Vec<BTreeSet<String>>,
            inputs: BTreeSet<VarId>,
            targets: BTreeSet<VarId>,
        }

        impl Reference {
            pub fn var(&mut self, name: &str) -> VarId {
                if let Some(&id) = self.index.get(name) {
                    return id;
                }
                let id = VarId(self.names.len());
                let name: Arc<str> = Arc::from(name);
                self.names.push(Arc::clone(&name));
                self.index.insert(name, id);
                self.forward.push(BTreeSet::new());
                self.traces.push(Vec::new());
                self.use_funcs.push(BTreeSet::new());
                id
            }

            pub fn id(&self, name: &str) -> Option<VarId> {
                self.index.get(name).copied()
            }

            pub fn name(&self, id: VarId) -> &str {
                &self.names[id.0]
            }

            pub fn var_count(&self) -> usize {
                self.names.len()
            }

            pub fn all_vars(&self) -> impl Iterator<Item = VarId> + '_ {
                (0..self.names.len()).map(VarId)
            }

            pub fn record_assign(
                &mut self,
                dst: &str,
                srcs: &[&str],
                value: Option<f64>,
                func: &str,
            ) {
                let d = self.var(dst);
                for src in srcs {
                    let s = self.var(src);
                    if s != d {
                        self.forward[s.0].insert(d);
                    }
                    note_use(&mut self.use_funcs[s.0], func);
                }
                if let Some(v) = value {
                    self.traces[d.0].push(v);
                }
                note_use(&mut self.use_funcs[d.0], func);
            }

            pub fn record_edge(&mut self, src: &str, dst: &str) {
                let s = self.var(src);
                let d = self.var(dst);
                if s != d {
                    self.forward[s.0].insert(d);
                }
            }

            pub fn record_value(&mut self, var: &str, value: f64) {
                let v = self.var(var);
                self.traces[v.0].push(value);
            }

            pub fn record_use(&mut self, var: &str, func: &str) {
                let v = self.var(var);
                note_use(&mut self.use_funcs[v.0], func);
            }

            pub fn mark_input(&mut self, name: &str) {
                let v = self.var(name);
                self.inputs.insert(v);
            }

            pub fn mark_target(&mut self, name: &str) {
                let v = self.var(name);
                self.targets.insert(v);
            }

            pub fn inputs(&self) -> &BTreeSet<VarId> {
                &self.inputs
            }

            pub fn targets(&self) -> &BTreeSet<VarId> {
                &self.targets
            }

            pub fn trace(&self, var: VarId) -> &[f64] {
                &self.traces[var.0]
            }

            pub fn use_funcs(&self, var: VarId) -> &BTreeSet<String> {
                &self.use_funcs[var.0]
            }

            pub fn direct_dependents(&self, var: VarId) -> &BTreeSet<VarId> {
                &self.forward[var.0]
            }

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

            pub fn bfs_distance_to_set(
                &self,
                from: VarId,
                goals: &BTreeSet<VarId>,
            ) -> Option<usize> {
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

        fn note_use(funcs: &mut BTreeSet<String>, func: &str) {
            if !funcs.contains(func) {
                funcs.insert(func.to_owned());
            }
        }
    }

    /// A xorshift64* stream, so each seed replays one operation sequence.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: usize) -> usize {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            (self.0.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 33) as usize % n
        }
    }

    /// Applies the same random operations to a database and to the
    /// reference model: names repeat, some assignments read their own
    /// destination, and there are more than 64 variables and functions.
    fn replay(seed: u64, ops: usize) -> (AnalysisDb, reference::Reference) {
        let mut rng = Rng(seed | 1);
        let (mut db, mut model) = (AnalysisDb::new(), reference::Reference::default());
        let var = |rng: &mut Rng| format!("v{}", rng.below(90));
        let func = |rng: &mut Rng| format!("f{}", rng.below(80));
        for _ in 0..ops {
            match rng.below(8) {
                0..=2 => {
                    let dst = var(&mut rng);
                    let mut srcs: Vec<String> = (0..rng.below(4)).map(|_| var(&mut rng)).collect();
                    if rng.below(4) == 0 {
                        srcs.push(dst.clone());
                    }
                    let srcs: Vec<&str> = srcs.iter().map(String::as_str).collect();
                    let value = (rng.below(3) > 0).then(|| rng.below(100) as f64);
                    let f = func(&mut rng);
                    db.record_assign(&dst, &srcs, value, &f);
                    model.record_assign(&dst, &srcs, value, &f);
                }
                3 => {
                    let (src, dst) = (var(&mut rng), var(&mut rng));
                    db.record_edge(&src, &dst);
                    model.record_edge(&src, &dst);
                }
                4 => {
                    let (v, f) = (var(&mut rng), func(&mut rng));
                    db.record_use(&v, &f);
                    model.record_use(&v, &f);
                }
                5 => {
                    let (v, x) = (var(&mut rng), rng.below(10) as f64);
                    db.record_value(&v, x);
                    model.record_value(&v, x);
                }
                6 => {
                    let v = var(&mut rng);
                    db.mark_input(&v);
                    model.mark_input(&v);
                }
                _ => {
                    let v = var(&mut rng);
                    db.mark_target(&v);
                    model.mark_target(&v);
                }
            }
        }
        (db, model)
    }

    #[test]
    fn bit_rows_answer_like_the_reference_model() {
        for seed in 1..=12u64 {
            let (db, model) = replay(seed, 40 + 30 * seed as usize);
            assert_eq!(db.var_count(), model.var_count(), "seed {seed}");
            let vars: Vec<VarId> = db.all_vars().collect();
            assert_eq!(vars, model.all_vars().collect::<Vec<_>>());
            for &v in &vars {
                let name = db.name(v);
                assert_eq!(name, model.name(v));
                assert_eq!(db.id(name), model.id(name));
                assert_eq!(db.trace(v), model.trace(v));
                let funcs: Vec<&str> = model.use_funcs(v).iter().map(String::as_str).collect();
                assert_eq!(db.use_funcs(v), funcs, "seed {seed} {name}");
                let direct: Vec<VarId> = model.direct_dependents(v).iter().copied().collect();
                assert_eq!(db.direct_dependents(v).collect::<Vec<_>>(), direct);
                assert_eq!(db.dependents(v), model.dependents(v), "seed {seed} {name}");
                for &w in vars.iter().skip(v.0 % 7).step_by(7) {
                    assert_eq!(db.bfs_distance(v, w), model.bfs_distance(v, w));
                }
                assert_eq!(
                    db.bfs_distance_to_set(v, db.targets()),
                    model.bfs_distance_to_set(v, model.targets())
                );
            }
            assert_eq!(db.id("ghost"), model.id("ghost"));
            assert_eq!(db.inputs(), model.inputs());
            assert_eq!(db.targets(), model.targets());
            assert_eq!(db.to_dot(), model.to_dot());
        }
        let (db, _) = replay(12, 400);
        assert!(db.var_count() > 64, "rows span two words");
        assert!(db.funcs.len() > 64, "use rows span two words");
    }

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
        assert!(db.use_funcs(x).contains(&"main"));
        assert!(db.use_funcs(x).contains(&"helper"));
        assert!(db.use_funcs(y).contains(&"main"));
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
