//! Static dependence analysis over AuLang ASTs.
//!
//! Section 4 of the paper justifies its design choice: "We adopt dynamic
//! dependency analysis instead of static analysis which incurs too many
//! false positives." This module implements the static alternative so the
//! claim can be measured: it conservatively over-approximates dataflow
//! (all array elements alias; both branches of every `if` execute; every
//! assignment in a loop body connects regardless of iteration; calls
//! connect arguments to parameters and the callee's returns to the call
//! result). The `static_vs_dynamic` ablation bench counts the resulting
//! extra candidate edges against the interpreter's observed dynamic graph.
//!
//! The repo also uses the graph soundly: Selective compiles trace only the
//! sites it cannot prove unrelated to every target, and the pre-pruned
//! Algorithms 1/2 skip candidates it proves disjoint from a target. Both
//! start from one `StaticFacts` value, built by a single walk over the
//! program that keeps every may-read set as a bitset of symbol ids:
//! Selective compiles read it directly, and [`analyze`] turns it into the
//! `AnalysisDb` that `au_trace::StaticFilter` is built from.

use crate::ast::{Expr, ExprKind, Program, Stmt, StmtKind, Sym};
use au_trace::{AnalysisDb, BitMatrix};
use std::ops::Range;

/// Builds a static over-approximated dependence graph for `program`.
///
/// Edges use the same variable-name space as the dynamic tracer, so the
/// result can be fed to the same extraction algorithms. A call to a user
/// function connects argument variables to parameter names, and the
/// callee's return-dependence summary (the variables its returned value
/// may depend on, through nested calls) to the call result. As in the
/// interpreter and the VM, a name starting with `au_` always calls the
/// builtin, never a user function of that name.
pub fn analyze(program: &Program) -> AnalysisDb {
    let facts = StaticFacts::new(program);
    let mut db = AnalysisDb::with_capacity(facts.vars.len());
    for &s in &facts.vars {
        db.var(facts.names.name(s));
    }
    for v in 0..facts.vars.len() {
        for dst in members(facts.dep.row(v)) {
            db.record_edge(facts.var_name(v as u32), facts.var_name(dst));
        }
    }
    for v in 0..facts.vars.len() {
        for f in members(facts.used_in(v as u32)) {
            db.record_use(facts.var_name(v as u32), facts.names.name(f));
        }
    }
    for &v in &facts.inputs {
        db.mark_input(facts.var_name(v));
    }
    for &v in &facts.targets {
        db.mark_target(facts.var_name(v));
    }
    db
}

/// Marks a symbol id that the static graph never interned.
const NONE: u32 = u32::MAX;

/// The symbol ids of one walk, read through the parser's symbols.
///
/// Ids below `program.functions.len()` are reserved: id `f` stands for
/// "what function `f`'s return value may depend on" (its return summary),
/// so a call adds one bit to a may-read set and the summary is resolved
/// once, after the walk. Id `funcs + s` is the program's symbol `s`, and
/// the ids after those are the literal `input`, `mark_input` and
/// `mark_target` names that no identifier of the program spells.
struct Names<'p> {
    program: &'p Program,
    /// Number of reserved summary ids (`program.functions.len()`).
    funcs: u32,
    /// The literal names past the program's symbols, in walk order.
    literals: Vec<&'p str>,
}

impl<'p> Names<'p> {
    fn new(program: &'p Program) -> Self {
        Names {
            program,
            funcs: program.functions.len() as u32,
            literals: Vec::new(),
        }
    }

    fn of(&self, sym: Sym) -> u32 {
        self.funcs + sym.index() as u32
    }

    /// One past the largest id.
    fn count(&self) -> usize {
        self.funcs as usize + self.program.symbols().len() + self.literals.len()
    }

    /// The name of id `id`: a function's for a summary id.
    fn name(&self, id: u32) -> &'p str {
        let program = self.program;
        match id.checked_sub(self.funcs) {
            None => program.name(program.functions[id as usize].name),
            Some(s) => match (s as usize).checked_sub(program.symbols().len()) {
                None => program.name(Sym::from_index(s as usize)),
                Some(l) => self.literals[l],
            },
        }
    }

    /// The id of a literal name; a program has few that no identifier
    /// spells, so a scan finds those.
    fn literal(&mut self, name: &'p str) -> u32 {
        self.find(name).unwrap_or_else(|| {
            self.literals.push(name);
            (self.count() - 1) as u32
        })
    }

    /// The id of a name the walk may have met, if it has one.
    fn find(&self, name: &str) -> Option<u32> {
        match self.program.sym(name) {
            Some(sym) => Some(self.of(sym)),
            None => self
                .literals
                .iter()
                .position(|&l| l == name)
                .map(|l| (self.funcs as usize + self.program.symbols().len() + l) as u32),
        }
    }
}

/// Everything one walk over a program proves statically.
///
/// Every may-read set is a bitset of [`Names`] ids. The graph's variables
/// are the ids the dependence records name, in the order [`analyze`]
/// interns them: these are its `VarId`s.
pub(crate) struct StaticFacts<'p> {
    names: Names<'p>,
    /// Per function (first definition of its name), the variables its
    /// returned value may depend on, through nested calls.
    summaries: Vec<Bits>,
    /// `VarId` → symbol.
    vars: Vec<u32>,
    /// Symbol → `VarId`, or [`NONE`].
    var_of: Vec<u32>,
    /// Direct dependence edges between `VarId`s: row `src` holds `dst`.
    dep: BitMatrix,
    /// Per `VarId`, a row of [`Self::words`] words: the functions it is
    /// used in.
    uses: Vec<u64>,
    inputs: Vec<u32>,
    targets: Vec<u32>,
    /// Every trace site in walk order, and where each function's start.
    sites: Vec<SiteSet>,
    fn_sites: Vec<u32>,
    /// The words of every stored may-read set.
    arena: Vec<u64>,
    /// Whether an `input`, `mark_input` or `mark_target` name is computed:
    /// the static input and target sets may then miss dynamic ones.
    computed_names: bool,
}

/// A may-read set stored in [`StaticFacts::arena`].
#[derive(Clone, Copy)]
struct SetRef {
    start: u32,
    len: u32,
}

/// A trace site: an assignment (with its destination) or a condition.
#[derive(Clone, Copy)]
struct SiteSet {
    dst: Option<u32>,
    reads: SetRef,
}

/// One dependence record, in the order the walk meets it.
enum Event {
    /// `dst` is computed from `reads` inside function `func`.
    Assign {
        dst: u32,
        reads: SetRef,
        func: u32,
    },
    /// `reads` are used inside function `func` (a condition).
    Use {
        reads: SetRef,
        func: u32,
    },
    Input(u32),
    Target(u32),
}

/// How a Selective compile instruments one trace site.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Site {
    /// The assigned variable may reach a prediction target.
    pub writes_relevant: bool,
    /// Some variable the site may read may reach a prediction target.
    pub reads_relevant: bool,
}

/// What a Selective compile reads from the static facts.
pub(crate) struct TracePlan<'p> {
    names: Names<'p>,
    relevant: Bits,
    /// The answer for a name the static graph never interned.
    unknown_relevant: bool,
    sites: Vec<Site>,
    fn_sites: Vec<u32>,
}

impl<'p> TracePlan<'p> {
    /// A name is relevant unless the static graph proves it unrelated to
    /// *every* prediction target; a name the graph does not know is
    /// relevant whenever there is a target.
    pub(crate) fn is_relevant(&self, name: &str) -> bool {
        match self.names.find(name) {
            Some(s) => self.relevant.contains(s),
            None => self.unknown_relevant,
        }
    }

    /// The indices of `program.functions[func]`'s trace sites: its
    /// assignments and conditions in source order, which is the order the
    /// compiler meets them.
    pub(crate) fn function_sites(&self, func: usize) -> Range<usize> {
        let start = self.fn_sites[func] as usize;
        let end = self
            .fn_sites
            .get(func + 1)
            .map_or(self.sites.len(), |&e| e as usize);
        start..end
    }

    pub(crate) fn site(&self, i: usize) -> Site {
        self.sites[i]
    }
}

impl<'p> StaticFacts<'p> {
    /// Walks `program` once and resolves what the walk recorded.
    pub(crate) fn new(program: &'p Program) -> Self {
        let funcs = program.functions.len() as u32;
        // About one site per statement, sized from the source text.
        let sites = program.source_len() / 16;
        let mut w = Walk {
            program,
            names: Names::new(program),
            first_def: program.first_defs(),
            returns: vec![Bits::default(); funcs as usize],
            events: Vec::with_capacity(sites),
            sites: Vec::with_capacity(sites),
            fn_sites: Vec::with_capacity(funcs as usize),
            arena: Vec::with_capacity(sites),
            arg_sets: Vec::new(),
            pool: Vec::new(),
            computed_names: false,
        };
        for func in &program.functions {
            w.fn_sites.push(w.sites.len() as u32);
            let f = w.first_def[func.name.index()].expect("defined");
            w.block(&func.body, f);
        }
        let mut facts = StaticFacts {
            summaries: summaries(&w.returns, funcs),
            names: w.names,
            vars: Vec::new(),
            var_of: Vec::new(),
            dep: BitMatrix::new(0),
            uses: Vec::new(),
            inputs: Vec::new(),
            targets: Vec::new(),
            sites: w.sites,
            fn_sites: w.fn_sites,
            arena: w.arena,
            computed_names: w.computed_names,
        };
        facts.record(&w.events);
        facts
    }

    /// True when Selective tracing must fall back to Full: a computed name
    /// in `input`, `mark_input` or `mark_target` can make the static input
    /// and target sets miss dynamic ones.
    pub(crate) fn defeats_selective(&self) -> bool {
        self.computed_names
    }

    fn var_name(&self, v: u32) -> &'p str {
        self.names.name(self.vars[v as usize])
    }

    /// The words of one row of function bits.
    fn words(&self) -> usize {
        (self.names.funcs as usize).div_ceil(64)
    }

    /// The functions variable `v` is used in, as bits.
    fn used_in(&self, v: u32) -> &[u64] {
        let w = self.words();
        &self.uses[v as usize * w..(v as usize + 1) * w]
    }

    fn set(&self, r: SetRef) -> &[u64] {
        &self.arena[r.start as usize..(r.start + r.len) as usize]
    }

    /// `reads` with every summary id replaced by that function's summary.
    fn expand(&self, reads: SetRef, out: &mut Bits) {
        out.clear();
        let words = self.set(reads);
        out.union_words(words);
        for f in members(words).take_while(|&s| s < self.names.funcs) {
            out.remove(f);
            out.union_words(&self.summaries[f as usize].0);
        }
    }

    /// Interns `sym` as the next `VarId` if it is not one yet.
    fn var(&mut self, sym: u32) -> u32 {
        let slot = &mut self.var_of[sym as usize];
        if *slot == NONE {
            *slot = self.vars.len() as u32;
            self.vars.push(sym);
        }
        *slot
    }

    /// Replays the walk's records into the graph. A record interns its
    /// destination first, then its sources in name order, exactly as
    /// `AnalysisDb::record_assign` does with a sorted source list. Edges
    /// and uses land in bit rows, which keep them sorted and unique.
    fn record(&mut self, events: &[Event]) {
        self.var_of = vec![NONE; self.names.count()];
        self.vars
            .reserve(self.names.count() - self.names.funcs as usize);
        let (mut reads, mut order) = (Bits::default(), Vec::new());
        let mut edges = Vec::with_capacity(2 * events.len());
        let mut uses = Vec::with_capacity(3 * events.len());
        for event in events {
            match *event {
                Event::Assign {
                    dst,
                    reads: r,
                    func,
                } => {
                    let d = self.var(dst);
                    self.sources(r, &mut reads, &mut order);
                    for &s in &order {
                        let v = self.var(s);
                        if v != d {
                            edges.push((v, d));
                        }
                        uses.push((v, func));
                    }
                    uses.push((d, func));
                }
                Event::Use { reads: r, func } => {
                    self.sources(r, &mut reads, &mut order);
                    for &s in &order {
                        let v = self.var(s);
                        uses.push((v, func));
                    }
                }
                Event::Input(s) => {
                    let v = self.var(s);
                    self.inputs.push(v);
                }
                Event::Target(s) => {
                    let v = self.var(s);
                    self.targets.push(v);
                }
            }
        }
        for list in [&mut self.inputs, &mut self.targets] {
            list.sort_unstable();
            list.dedup();
        }
        self.dep = BitMatrix::new(self.vars.len());
        for (src, dst) in edges {
            self.dep.insert(src as usize, dst as usize);
        }
        let w = self.words();
        self.uses = vec![0; self.vars.len() * w];
        for (v, f) in uses {
            self.uses[v as usize * w + f as usize / 64] |= 1 << (f % 64);
        }
    }

    /// The expanded members of `r`, in an order that interns them as a
    /// name-sorted list would: by name when two or more are not `VarId`s
    /// yet (the order of the others decides nothing).
    fn sources(&self, r: SetRef, scratch: &mut Bits, order: &mut Vec<u32>) {
        self.expand(r, scratch);
        order.clear();
        order.extend(members(&scratch.0));
        let new = order
            .iter()
            .filter(|&&s| self.var_of[s as usize] == NONE)
            .count();
        if new > 1 {
            order.sort_unstable_by_key(|&s| self.names.name(s));
        }
    }

    /// The relevance of every symbol and the instrumentation of every
    /// site, for a Selective compile.
    ///
    /// `w` is relevant when some target `t` is related to it: `w == t`,
    /// one reaches the other, or they share a dependent. With `R` the
    /// targets plus everything they reach, that is `({w} ∪ dep(w)) ∩ R ≠
    /// ∅`, one row test per variable.
    pub(crate) fn trace_plan(mut self) -> TracePlan<'p> {
        let mut dep = std::mem::replace(&mut self.dep, BitMatrix::new(0));
        dep.close();
        let mut reach = Bits::default();
        for &t in &self.targets {
            reach.insert(t);
            reach.union_words(dep.row(t as usize));
        }
        let unknown_relevant = !self.targets.is_empty();
        let funcs = self.names.funcs;
        let mut relevant = Bits::default();
        for (sym, &v) in self.var_of.iter().enumerate().skip(funcs as usize) {
            let yes = if v == NONE {
                unknown_relevant
            } else {
                reach.contains(v) || intersects(dep.row(v as usize), &reach.0)
            };
            if yes {
                relevant.insert(sym as u32);
            }
        }
        // A summary id is relevant when its summary reads a relevant name.
        for f in 0..funcs {
            if intersects(&self.summaries[f as usize].0, &relevant.0) {
                relevant.insert(f);
            }
        }
        let sites = self
            .sites
            .iter()
            .map(|site| Site {
                writes_relevant: site.dst.is_some_and(|d| relevant.contains(d)),
                reads_relevant: intersects(self.set(site.reads), &relevant.0),
            })
            .collect();
        TracePlan {
            names: self.names,
            relevant,
            unknown_relevant,
            sites,
            fn_sites: self.fn_sites,
        }
    }
}

/// Resolves return summaries: function `f`'s summary is the variables its
/// own `return` expressions read plus those of every function they call,
/// transitively — a closure over the call bits in `returns`.
fn summaries(returns: &[Bits], funcs: u32) -> Vec<Bits> {
    let mut calls = BitMatrix::new(funcs as usize);
    for (f, ret) in returns.iter().enumerate() {
        for g in members(&ret.0).take_while(|&g| g < funcs) {
            calls.insert(f, g as usize);
        }
    }
    calls.close();
    (0..funcs as usize)
        .map(|f| {
            let mut summary = returns[f].clone();
            for g in members(calls.row(f)) {
                summary.union_words(&returns[g as usize].0);
            }
            for g in 0..funcs {
                summary.remove(g);
            }
            summary
        })
        .collect()
}

/// The AST walk behind [`StaticFacts::new`]: it records may-read sets,
/// dependence records and trace sites, and resolves nothing.
struct Walk<'p> {
    program: &'p Program,
    names: Names<'p>,
    /// Per symbol, the first function of that name: the one a call runs.
    first_def: Vec<Option<u32>>,
    /// Per function, what its `return` expressions read (summary ids
    /// included).
    returns: Vec<Bits>,
    events: Vec<Event>,
    sites: Vec<SiteSet>,
    fn_sites: Vec<u32>,
    arena: Vec<u64>,
    /// Argument sets of the calls being walked, innermost last.
    arg_sets: Vec<SetRef>,
    /// Cleared scratch sets, reused so the walk allocates few.
    pool: Vec<Bits>,
    computed_names: bool,
}

impl<'p> Walk<'p> {
    fn take(&mut self) -> Bits {
        self.pool.pop().unwrap_or_default()
    }

    fn give(&mut self, mut set: Bits) {
        set.clear();
        self.pool.push(set);
    }

    fn store(&mut self, set: &Bits) -> SetRef {
        let start = self.arena.len() as u32;
        self.arena.extend_from_slice(&set.0);
        SetRef {
            start,
            len: set.0.len() as u32,
        }
    }

    /// Records a trace site and its dependence record: `dst := f(reads)`
    /// for an assignment, a use of `reads` for a condition (no `dst`).
    fn site(&mut self, dst: Option<u32>, reads: &Bits, func: u32) {
        let reads = self.store(reads);
        self.events.push(match dst {
            Some(dst) => Event::Assign { dst, reads, func },
            None => Event::Use { reads, func },
        });
        self.sites.push(SiteSet { dst, reads });
    }

    fn block(&mut self, stmts: &'p [Stmt], func: u32) {
        for stmt in stmts {
            match &stmt.kind {
                StmtKind::Let { name, init } | StmtKind::Assign { name, value: init } => {
                    let mut reads = self.take();
                    self.expr(init, &mut reads);
                    let dst = self.names.of(*name);
                    self.site(Some(dst), &reads, func);
                    // `x = au_write_back("N")` marks x as a target, same
                    // as the dynamic tracer.
                    if let ExprKind::Call { name, .. } = &init.kind {
                        if matches!(
                            self.program.name(*name),
                            "au_write_back" | "au_write_back_n" | "au_nn_rl"
                        ) {
                            self.events.push(Event::Target(dst));
                        }
                    }
                    self.give(reads);
                }
                StmtKind::AssignIndex { name, index, value } => {
                    // All elements alias statically: the whole array
                    // depends on the index and value plus itself.
                    let mut reads = self.take();
                    self.expr(index, &mut reads);
                    self.expr(value, &mut reads);
                    let dst = self.names.of(*name);
                    reads.insert(dst);
                    self.site(Some(dst), &reads, func);
                    self.give(reads);
                }
                StmtKind::If {
                    cond,
                    then_body,
                    else_body,
                } => {
                    self.condition(cond, func);
                    // Both branches conservatively execute.
                    self.block(then_body, func);
                    self.block(else_body, func);
                }
                StmtKind::While { cond, body } => {
                    self.condition(cond, func);
                    self.block(body, func);
                }
                StmtKind::Return(Some(e)) => {
                    let mut reads = std::mem::take(&mut self.returns[func as usize]);
                    self.expr(e, &mut reads);
                    self.returns[func as usize] = reads;
                }
                StmtKind::Expr(e) => {
                    let mut reads = self.take();
                    self.expr(e, &mut reads);
                    self.give(reads);
                }
                StmtKind::Return(None) | StmtKind::Break | StmtKind::Continue => {}
            }
        }
    }

    fn condition(&mut self, cond: &'p Expr, func: u32) {
        let mut reads = self.take();
        self.expr(cond, &mut reads);
        self.site(None, &reads, func);
        self.give(reads);
    }

    /// Adds to `out` every symbol `expr`'s value may depend on: the
    /// variables it reads, literal `input` keys, every call argument
    /// (conservatively), and a summary id per user function it calls.
    fn expr(&mut self, expr: &'p Expr, out: &mut Bits) {
        match &expr.kind {
            ExprKind::Num(_) | ExprKind::Bool(_) | ExprKind::Str(_) => {}
            ExprKind::Var(name) => out.insert(self.names.of(*name)),
            ExprKind::Array(items) => {
                for item in items {
                    self.expr(item, out);
                }
            }
            ExprKind::Index(target, index) => {
                self.expr(target, out);
                self.expr(index, out);
            }
            ExprKind::Unary { expr, .. } => self.expr(expr, out),
            ExprKind::Binary { lhs, rhs, .. } => {
                self.expr(lhs, out);
                self.expr(rhs, out);
            }
            ExprKind::Call { name, args } => self.call(*name, args, out),
        }
    }

    fn call(&mut self, sym: Sym, args: &'p [Expr], out: &mut Bits) {
        let name = self.program.name(sym);
        let callee = if name.starts_with("au_") {
            None
        } else {
            self.first_def[sym.index()]
        };
        // A user call keeps each argument's set apart until the argument
        // → parameter records below.
        let base = self.arg_sets.len();
        for arg in args {
            if callee.is_some() {
                let mut reads = self.take();
                self.expr(arg, &mut reads);
                out.union_words(&reads.0);
                let set = self.store(&reads);
                self.arg_sets.push(set);
                self.give(reads);
            } else {
                self.expr(arg, out);
            }
        }
        let literal = match args.first().map(|a| &a.kind) {
            Some(ExprKind::Str(s)) => Some(s.as_str()),
            _ => None,
        };
        // The dynamic tracer marks these at runtime; literal names are
        // mirrored so the static input and target sets contain theirs.
        match (name, literal) {
            ("input", Some(key)) => {
                let s = self.names.literal(key);
                self.events.push(Event::Input(s));
                out.insert(s);
            }
            ("mark_input", Some(var)) => {
                let s = self.names.literal(var);
                self.events.push(Event::Input(s));
            }
            ("mark_target", Some(var)) => {
                let s = self.names.literal(var);
                self.events.push(Event::Target(s));
            }
            ("input" | "mark_input" | "mark_target", None) => self.computed_names = true,
            _ => {}
        }
        if let Some(f) = callee {
            let program = self.program;
            for (i, &param) in program.functions[f as usize].params.iter().enumerate() {
                let Some(&reads) = self.arg_sets.get(base + i) else {
                    break;
                };
                self.events.push(Event::Assign {
                    dst: self.names.of(param),
                    reads,
                    func: f,
                });
            }
            self.arg_sets.truncate(base);
            // The result may depend on anything the callee's executed
            // return expression depends on.
            out.insert(f);
        }
    }
}

/// A growable set of symbol ids, one bit each.
#[derive(Debug, Clone, Default)]
struct Bits(Vec<u64>);

impl Bits {
    fn insert(&mut self, i: u32) {
        let w = (i / 64) as usize;
        if w >= self.0.len() {
            self.0.resize(w + 1, 0);
        }
        self.0[w] |= 1 << (i % 64);
    }

    fn remove(&mut self, i: u32) {
        if let Some(word) = self.0.get_mut((i / 64) as usize) {
            *word &= !(1 << (i % 64));
        }
    }

    fn contains(&self, i: u32) -> bool {
        self.0
            .get((i / 64) as usize)
            .is_some_and(|w| w >> (i % 64) & 1 == 1)
    }

    fn union_words(&mut self, words: &[u64]) {
        if words.len() > self.0.len() {
            self.0.resize(words.len(), 0);
        }
        for (a, b) in self.0.iter_mut().zip(words) {
            *a |= b;
        }
    }

    /// Empties the set and keeps its buffer.
    fn clear(&mut self) {
        self.0.clear();
    }
}

/// The set bits of `words`, ascending.
fn members(words: &[u64]) -> impl Iterator<Item = u32> + '_ {
    words.iter().enumerate().flat_map(|(i, &w)| {
        let mut w = w;
        std::iter::from_fn(move || {
            (w != 0).then(|| {
                let bit = w.trailing_zeros();
                w &= w - 1;
                i as u32 * 64 + bit
            })
        })
    })
}

fn intersects(a: &[u64], b: &[u64]) -> bool {
    a.iter().zip(b).any(|(x, y)| x & y != 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::Interpreter;
    use crate::parser::parse;
    use au_trace::extract_sl;

    const BRANCHY: &str = r#"
        fn main() {
            let x = input("x", 1);
            let a = 0;
            let b = 0;
            if (x > 0) {
                a = x * 2;
            } else {
                b = x * 3;
            }
            au_extract("A", a);
            let t = 0;
            t = au_write_back("A");
            let result = a + b + t;
            return result;
        }
    "#;

    #[test]
    fn static_covers_both_branches() {
        let program = parse(BRANCHY).unwrap();
        let db = analyze(&program);
        let x = db.id("x").unwrap();
        let a = db.id("a").unwrap();
        let b = db.id("b").unwrap();
        let deps = db.dependents(x);
        assert!(deps.contains(&a), "then-branch edge");
        assert!(deps.contains(&b), "else-branch edge (static only)");
    }

    #[test]
    fn dynamic_sees_one_branch_static_sees_both() {
        // The false-positive gap the paper talks about: for x > 0 the
        // dynamic trace never records the x -> b edge.
        let program = parse(BRANCHY).unwrap();
        let static_db = analyze(&program);

        let mut interp = Interpreter::compile(BRANCHY).unwrap();
        interp.set_input("x", crate::Value::Num(5.0));
        interp.run().unwrap();
        let dynamic_db = interp.analysis();

        let sx = static_db.id("x").unwrap();
        let dx = dynamic_db.id("x").unwrap();
        let static_deps = static_db.dependents(sx).len();
        let dynamic_deps = dynamic_db.dependents(dx).len();
        assert!(
            static_deps > dynamic_deps,
            "static ({static_deps}) must over-approximate dynamic ({dynamic_deps})"
        );
    }

    #[test]
    fn static_targets_and_inputs_are_marked() {
        let program = parse(BRANCHY).unwrap();
        let db = analyze(&program);
        assert!(db.inputs().contains(&db.id("x").unwrap()));
        assert!(db.targets().contains(&db.id("t").unwrap()));
    }

    #[test]
    fn static_feature_extraction_yields_superset_candidates() {
        let program = parse(BRANCHY).unwrap();
        let static_db = analyze(&program);
        let features = extract_sl(&static_db);
        let t = static_db.id("t").unwrap();
        assert!(!features[&t].is_empty());
    }

    #[test]
    fn call_dataflow_flows_through_functions() {
        let src = r#"
            fn double(v) { return v * 2; }
            fn main() {
                let x = input("x", 1);
                let y = double(x);
                return y;
            }
        "#;
        let program = parse(src).unwrap();
        let db = analyze(&program);
        let x = db.id("x").unwrap();
        let y = db.id("y").unwrap();
        assert!(
            db.dependents(x).contains(&y),
            "x flows through double into y"
        );
    }

    /// The names in the return summary of function `name`.
    fn summary<'p>(facts: &StaticFacts<'p>, name: &str) -> Vec<&'p str> {
        let program = facts.names.program;
        let f = program
            .functions
            .iter()
            .position(|f| program.name(f.name) == name)
            .unwrap();
        members(&facts.summaries[f].0)
            .map(|s| facts.names.name(s))
            .collect()
    }

    #[test]
    fn nested_return_calls_flow_to_call_result() {
        // `f` returns `g(x)`; dynamically, the deps of `y = f(...)` are the
        // deps of g's executed return expression (`q`, in g's scope). The
        // static graph must contain that edge or dyn ⊄ static.
        let src = r#"
            fn g(p) { let q = p * 2; return q; }
            fn f(x) { return g(x); }
            fn main() {
                let y = f(input("i", 1));
                return y;
            }
        "#;
        let program = parse(src).unwrap();
        let db = analyze(&program);
        let q = db.id("q").unwrap();
        let y = db.id("y").unwrap();
        assert!(
            db.dependents(q).contains(&y),
            "q flows through f's return-of-g into y"
        );

        let facts = StaticFacts::new(&program);
        assert_eq!(summary(&facts, "g"), ["q"]);
        assert!(
            summary(&facts, "f").contains(&"q"),
            "f inherits g's summary"
        );
        assert!(
            summary(&facts, "f").contains(&"x"),
            "args stay conservative"
        );
    }

    #[test]
    fn literal_marks_are_registered_statically() {
        let src = r#"
            fn main() {
                let sensor = input("sensor", 0);
                mark_input("sensor");
                let decision = sensor * 2;
                mark_target("decision");
                return decision;
            }
        "#;
        let program = parse(src).unwrap();
        let db = analyze(&program);
        assert!(db.inputs().contains(&db.id("sensor").unwrap()));
        assert!(db.targets().contains(&db.id("decision").unwrap()));
    }

    #[test]
    fn fixpoint_handles_recursion() {
        let src = r#"
            fn f(n) {
                if (n < 1) { return n; }
                return f(n - 1);
            }
            fn main() { let r = f(3); return r; }
        "#;
        let program = parse(src).unwrap();
        let db = analyze(&program); // must terminate
        assert!(db.id("n").is_some());
        assert!(db.id("r").is_some());
    }

    #[test]
    fn recursive_summaries_close_over_the_call_cycle() {
        let src = r#"
            fn even(n) { if (n < 1) { return n; } let m = n - 1; return odd(m); }
            fn odd(k) { if (k < 1) { return 0; } let j = k - 1; return even(j); }
            fn main() { let r = even(3); return r; }
        "#;
        let program = parse(src).unwrap();
        let facts = StaticFacts::new(&program);
        assert_eq!(summary(&facts, "even"), summary(&facts, "odd"));
        // `k` reaches the result only through `j`: it is never returned.
        assert_eq!(summary(&facts, "even"), ["n", "m", "j"]);
        let db = analyze(&program);
        let r = db.id("r").unwrap();
        assert!(db.dependents(db.id("k").unwrap()).contains(&r));
    }

    #[test]
    fn au_named_functions_are_builtins_to_the_graph() {
        // The interpreter and the VM dispatch every `au_*` call to the
        // builtin, so a user function of such a name never runs: no
        // argument → parameter edge and no return summary.
        let src = r#"
            fn au_helper(v) { let w = v * 2; return w; }
            fn main() {
                let x = input("x", 1);
                let y = au_helper(x);
                return y;
            }
        "#;
        let program = parse(src).unwrap();
        let db = analyze(&program);
        let x = db.id("x").unwrap();
        let w = db.id("w").unwrap();
        let y = db.id("y").unwrap();
        assert!(db.dependents(x).contains(&y), "arguments stay conservative");
        assert!(!db.dependents(x).contains(&db.id("v").unwrap()));
        assert!(!db.dependents(w).contains(&y));
    }

    #[test]
    fn interning_follows_records_not_reads() {
        // `let y = x + 1;` interns y before x: a record names its
        // destination first, then its sources in name order.
        let src = r#"
            fn main() {
                let x = input("x", 1);
                let y = x + zeta + alpha;
                return y;
            }
        "#;
        let db = analyze(&parse(src).unwrap());
        let order: Vec<&str> = db.all_vars().map(|v| db.name(v)).collect();
        assert_eq!(order, ["x", "y", "alpha", "zeta"]);
    }

    #[test]
    fn trace_plan_answers_like_the_static_filter() {
        let program = parse(BRANCHY).unwrap();
        let db = analyze(&program);
        let filter = au_trace::StaticFilter::new(&db);
        let targets: Vec<&str> = db.targets().iter().map(|&t| db.name(t)).collect();
        let plan = StaticFacts::new(&program).trace_plan();
        for name in db.all_vars().map(|v| db.name(v)).chain(["main", "ghost"]) {
            let expected = targets.iter().any(|t| !filter.proves_unrelated(name, t));
            assert_eq!(plan.is_relevant(name), expected, "{name}");
        }
    }
}
