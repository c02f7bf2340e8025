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
//! program that keeps every may-read set as a bitset of symbol ids. A
//! program builds it once, on first use: Selective compiles read it
//! directly, and [`analyze`] copies its edge and use rows into the
//! `AnalysisDb` that `au_trace::StaticFilter` is built from.

use crate::ast::{ExprId, ExprKind, Program, Stmt, StmtKind, Sym};
use au_trace::{intersects, members, AnalysisDb, BitMatrix, Symbols};
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
    program.facts().to_db(program)
}

/// Marks a symbol id that the static graph never interned.
const NONE: u32 = u32::MAX;

/// The symbol ids of one walk, read through the parser's symbols.
///
/// Ids below `fns.len()` are reserved, one per function name in order of
/// its first definition (the one a call runs): id `f` stands for "what
/// that function's return value may depend on" (its return summary), so a
/// call adds one bit to a may-read set and the summary is resolved once,
/// after the walk. Id `fns.len() + s` is the program's symbol `s`, and
/// the ids after those are the literal `input`, `mark_input` and
/// `mark_target` names that no identifier of the program spells.
#[derive(Debug, Clone)]
struct Names {
    /// Per reserved id, the function's name.
    fns: Vec<Sym>,
    /// The number of the program's symbols.
    syms: u32,
    /// The literal names past the program's symbols, in walk order.
    literals: Symbols,
}

impl Names {
    /// The number of reserved summary ids.
    fn funcs(&self) -> u32 {
        self.fns.len() as u32
    }

    fn of(&self, sym: Sym) -> u32 {
        self.funcs() + sym.index() as u32
    }

    /// One past the largest id.
    fn count(&self) -> usize {
        self.fns.len() + self.syms as usize + self.literals.len()
    }

    /// The name of id `id`: a function's for a summary id.
    fn name<'a>(&'a self, program: &'a Program, id: u32) -> &'a str {
        match id.checked_sub(self.funcs()) {
            None => program.name(self.fns[id as usize]),
            Some(s) => match s.checked_sub(self.syms) {
                None => program.name(Sym::from_index(s as usize)),
                Some(l) => self.literals.name(Sym::from_index(l as usize)),
            },
        }
    }

    /// The id of a literal name, added if no identifier spells it.
    fn literal(&mut self, program: &Program, name: &str) -> u32 {
        match program.sym(name) {
            Some(sym) => self.of(sym),
            None => self.funcs() + self.syms + self.literals.intern(name).index() as u32,
        }
    }

    /// The id of a name the walk may have met, if it has one.
    fn find(&self, program: &Program, name: &str) -> Option<u32> {
        match program.sym(name) {
            Some(sym) => Some(self.of(sym)),
            None => self
                .literals
                .get(name)
                .map(|l| self.funcs() + self.syms + l.index() as u32),
        }
    }
}

/// Everything one walk over a program proves statically. A [`Program`]
/// builds its facts once, on first use, and both a Selective compile and
/// [`analyze`] read them.
///
/// Every may-read set is a bitset of [`Names`] ids. The graph's variables
/// are the ids the dependence records name, in the order [`analyze`]
/// interns them: these are its `VarId`s, and the rows of `dep` and `uses`
/// are the database's rows.
#[derive(Debug, Clone)]
pub(crate) struct StaticFacts {
    names: Names,
    /// Per function name, the variables its returned value may depend
    /// on, through nested calls.
    summaries: Vec<Bits>,
    /// `VarId` → symbol.
    vars: Vec<u32>,
    /// Symbol → `VarId`, or [`NONE`].
    var_of: Vec<u32>,
    /// Direct dependence edges between `VarId`s: row `src` holds `dst`.
    dep: BitMatrix,
    /// Per `VarId`, the functions it is used in, by reserved id.
    uses: BitMatrix,
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
#[derive(Debug, Clone, Copy)]
struct SetRef {
    start: u32,
    len: u32,
}

/// A trace site: an assignment (with its destination) or a condition.
#[derive(Debug, Clone, Copy)]
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
    program: &'p Program,
    facts: &'p StaticFacts,
    relevant: Bits,
    /// The answer for a name the static graph never interned.
    unknown_relevant: bool,
}

impl TracePlan<'_> {
    /// A name is relevant unless the static graph proves it unrelated to
    /// *every* prediction target; a name the graph does not know is
    /// relevant whenever there is a target.
    pub(crate) fn is_relevant(&self, name: &str) -> bool {
        match self.facts.names.find(self.program, name) {
            Some(s) => self.relevant.contains(s),
            None => self.unknown_relevant,
        }
    }

    /// The indices of `program.functions()[func]`'s trace sites: its
    /// assignments and conditions in source order, which is the order the
    /// compiler meets them.
    pub(crate) fn function_sites(&self, func: usize) -> Range<usize> {
        let fn_sites = &self.facts.fn_sites;
        let start = fn_sites[func] as usize;
        let end = fn_sites
            .get(func + 1)
            .map_or(self.facts.sites.len(), |&e| e as usize);
        start..end
    }

    pub(crate) fn site(&self, i: usize) -> Site {
        let site = self.facts.sites[i];
        Site {
            writes_relevant: site.dst.is_some_and(|d| self.relevant.contains(d)),
            reads_relevant: intersects(self.facts.set(site.reads), &self.relevant.0),
        }
    }
}

impl StaticFacts {
    /// Walks `program` once and resolves what the walk recorded.
    pub(crate) fn new(program: &Program) -> Self {
        let syms = program.symbols().len();
        // Per symbol, the reserved id of the first function of that name.
        let mut first_def = vec![None; syms];
        let n = program.functions().len();
        let (mut fns, mut defs) = (Vec::with_capacity(n), Vec::with_capacity(n));
        for (i, f) in program.functions().iter().enumerate() {
            if first_def[f.name.index()].is_none() {
                first_def[f.name.index()] = Some(fns.len() as u32);
                fns.push(f.name);
                defs.push(i as u32);
            }
        }
        let funcs = fns.len();
        // About one site per statement, sized from the source text.
        let sites = program.source_len() / 16;
        let mut w = Walk {
            program,
            names: Names {
                fns,
                syms: syms as u32,
                literals: Symbols::default(),
            },
            first_def,
            defs,
            returns: vec![Bits::default(); funcs],
            events: Vec::with_capacity(sites),
            sites: Vec::with_capacity(sites),
            fn_sites: Vec::with_capacity(program.functions().len()),
            arena: Vec::with_capacity(sites),
            arg_sets: Vec::with_capacity(8),
            pool: Vec::with_capacity(8),
            computed_names: false,
        };
        for func in program.functions() {
            w.fn_sites.push(w.sites.len() as u32);
            let f = w.first_def[func.name.index()].expect("defined");
            w.block(&func.body, f);
        }
        let mut facts = StaticFacts {
            summaries: summaries(&w.returns, funcs as u32),
            names: w.names,
            vars: Vec::new(),
            var_of: Vec::new(),
            dep: BitMatrix::new(0),
            uses: BitMatrix::new(0),
            inputs: Vec::new(),
            targets: Vec::new(),
            sites: w.sites,
            fn_sites: w.fn_sites,
            arena: w.arena,
            computed_names: w.computed_names,
        };
        facts.record(program, &w.events);
        facts
    }

    /// True when Selective tracing must fall back to Full: a computed name
    /// in `input`, `mark_input` or `mark_target` can make the static input
    /// and target sets miss dynamic ones.
    pub(crate) fn defeats_selective(&self) -> bool {
        self.computed_names
    }

    /// The static dependence database: the variables and functions named
    /// in walk order, and the edge and use rows copied as they are.
    pub(crate) fn to_db(&self, program: &Program) -> AnalysisDb {
        let bytes = |ids: &mut dyn Iterator<Item = u32>| {
            ids.map(|id| self.names.name(program, id).len()).sum()
        };
        let mut vars =
            Symbols::with_capacity(self.vars.len(), bytes(&mut self.vars.iter().copied()));
        for &v in &self.vars {
            vars.intern(self.names.name(program, v));
        }
        let funcs = self.names.funcs();
        let mut fns = Symbols::with_capacity(funcs as usize, bytes(&mut (0..funcs)));
        for f in 0..funcs {
            fns.intern(self.names.name(program, f));
        }
        AnalysisDb::from_rows(
            vars,
            fns,
            self.dep.clone(),
            self.uses.clone(),
            self.inputs.iter().map(|&v| v as usize),
            self.targets.iter().map(|&v| v as usize),
        )
    }

    fn set(&self, r: SetRef) -> &[u64] {
        &self.arena[r.start as usize..(r.start + r.len) as usize]
    }

    /// `reads` with every summary id replaced by that function's summary.
    fn expand(&self, reads: SetRef, out: &mut Bits) {
        out.clear();
        let words = self.set(reads);
        out.union_words(words);
        for f in members(words).take_while(|&s| s < self.names.fns.len()) {
            out.remove(f as u32);
            out.union_words(&self.summaries[f].0);
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
    fn record(&mut self, program: &Program, events: &[Event]) {
        self.var_of = vec![NONE; self.names.count()];
        self.vars.reserve(self.names.count() - self.names.fns.len());
        let words = self.names.count().div_ceil(64);
        let (mut reads, mut order) = (Bits(Vec::with_capacity(words)), Vec::with_capacity(64));
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
                    self.sources(program, r, &mut reads, &mut order);
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
                    self.sources(program, r, &mut reads, &mut order);
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
        self.uses = BitMatrix::with_size(self.vars.len(), self.names.fns.len());
        for (v, f) in uses {
            self.uses.insert(v as usize, f as usize);
        }
    }

    /// The expanded members of `r`, in an order that interns them as a
    /// name-sorted list would: by name when two or more are not `VarId`s
    /// yet (the order of the others decides nothing).
    fn sources(&self, program: &Program, r: SetRef, scratch: &mut Bits, order: &mut Vec<u32>) {
        self.expand(r, scratch);
        order.clear();
        order.extend(members(&scratch.0).map(|s| s as u32));
        let new = order
            .iter()
            .filter(|&&s| self.var_of[s as usize] == NONE)
            .count();
        if new > 1 {
            order.sort_unstable_by_key(|&s| self.names.name(program, s));
        }
    }

    /// The relevance of every symbol, for a Selective compile, which
    /// reads each site's instrumentation from it.
    ///
    /// `w` is relevant when some target `t` is related to it: `w == t`,
    /// one reaches the other, or they share a dependent. With `R` the
    /// targets plus everything they reach, that is `({w} ∪ dep(w)) ∩ R ≠
    /// ∅`, one row test per variable.
    pub(crate) fn trace_plan<'p>(&'p self, program: &'p Program) -> TracePlan<'p> {
        let mut dep = self.dep.clone();
        dep.close();
        let words = self.names.count().div_ceil(64);
        let mut reach = Bits(vec![0; words]);
        for &t in &self.targets {
            reach.insert(t);
            reach.union_words(dep.row(t as usize));
        }
        let unknown_relevant = !self.targets.is_empty();
        let funcs = self.names.funcs();
        let mut relevant = Bits(vec![0; words]);
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
        TracePlan {
            program,
            facts: self,
            relevant,
            unknown_relevant,
        }
    }
}

/// Resolves return summaries: function `f`'s summary is the variables its
/// own `return` expressions read plus those of every function they call,
/// transitively — a closure over the call bits in `returns`.
fn summaries(returns: &[Bits], funcs: u32) -> Vec<Bits> {
    let mut calls = BitMatrix::new(funcs as usize);
    for (f, ret) in returns.iter().enumerate() {
        for g in members(&ret.0).take_while(|&g| g < funcs as usize) {
            calls.insert(f, g);
        }
    }
    calls.close();
    (0..funcs as usize)
        .map(|f| {
            let mut summary = returns[f].clone();
            for g in members(calls.row(f)) {
                summary.union_words(&returns[g].0);
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
    names: Names,
    /// Per symbol, the reserved id of the first function of that name:
    /// the one a call runs.
    first_def: Vec<Option<u32>>,
    /// Per reserved id, the index of that function in the program.
    defs: Vec<u32>,
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
                    self.expr(*init, &mut reads);
                    let dst = self.names.of(*name);
                    self.site(Some(dst), &reads, func);
                    // `x = au_write_back("N")` marks x as a target, same
                    // as the dynamic tracer.
                    if let ExprKind::Call { name, .. } = self.program.expr(*init).kind {
                        if matches!(
                            self.program.name(name),
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
                    self.expr(*index, &mut reads);
                    self.expr(*value, &mut reads);
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
                    self.condition(*cond, func);
                    // Both branches conservatively execute.
                    self.block(then_body, func);
                    self.block(else_body, func);
                }
                StmtKind::While { cond, body } => {
                    self.condition(*cond, func);
                    self.block(body, func);
                }
                StmtKind::Return(Some(e)) => {
                    let mut reads = std::mem::take(&mut self.returns[func as usize]);
                    self.expr(*e, &mut reads);
                    self.returns[func as usize] = reads;
                }
                StmtKind::Expr(e) => {
                    let mut reads = self.take();
                    self.expr(*e, &mut reads);
                    self.give(reads);
                }
                StmtKind::Return(None) | StmtKind::Break | StmtKind::Continue => {}
            }
        }
    }

    fn condition(&mut self, cond: ExprId, func: u32) {
        let mut reads = self.take();
        self.expr(cond, &mut reads);
        self.site(None, &reads, func);
        self.give(reads);
    }

    /// Adds to `out` every symbol `expr`'s value may depend on: the
    /// variables it reads, literal `input` keys, every call argument
    /// (conservatively), and a summary id per user function it calls.
    fn expr(&mut self, expr: ExprId, out: &mut Bits) {
        let program = self.program;
        match program.expr(expr).kind {
            ExprKind::Num(_) | ExprKind::Bool(_) | ExprKind::Str(_) => {}
            ExprKind::Var(name) => out.insert(self.names.of(name)),
            ExprKind::Call { name, args } => self.call(name, program.list(args), out),
            kind => kind.for_each_operand(program, |e| self.expr(e, out)),
        }
    }

    fn call(&mut self, sym: Sym, args: &'p [ExprId], out: &mut Bits) {
        let program = self.program;
        let name = program.name(sym);
        let callee = if name.starts_with("au_") {
            None
        } else {
            self.first_def[sym.index()]
        };
        // A user call keeps each argument's set apart until the argument
        // → parameter records below.
        let base = self.arg_sets.len();
        for &arg in args {
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
        let literal = match args.first().map(|&a| program.expr(a).kind) {
            Some(ExprKind::Str(s)) => Some(program.str(s)),
            _ => None,
        };
        // The dynamic tracer marks these at runtime; literal names are
        // mirrored so the static input and target sets contain theirs.
        match (name, literal) {
            ("input", Some(key)) => {
                let s = self.names.literal(self.program, key);
                self.events.push(Event::Input(s));
                out.insert(s);
            }
            ("mark_input", Some(var)) => {
                let s = self.names.literal(self.program, var);
                self.events.push(Event::Input(s));
            }
            ("mark_target", Some(var)) => {
                let s = self.names.literal(self.program, var);
                self.events.push(Event::Target(s));
            }
            ("input" | "mark_input" | "mark_target", None) => self.computed_names = true,
            _ => {}
        }
        if let Some(f) = callee {
            let def = self.defs[f as usize] as usize;
            for (i, &param) in program.functions()[def].params.iter().enumerate() {
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
    fn summary<'p>(program: &'p Program, name: &str) -> Vec<&'p str> {
        let facts = program.facts();
        let f = facts
            .names
            .fns
            .iter()
            .position(|&f| program.name(f) == name)
            .unwrap();
        members(&facts.summaries[f].0)
            .map(|s| facts.names.name(program, s as u32))
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

        assert_eq!(summary(&program, "g"), ["q"]);
        assert!(
            summary(&program, "f").contains(&"q"),
            "f inherits g's summary"
        );
        assert!(
            summary(&program, "f").contains(&"x"),
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
        assert_eq!(summary(&program, "even"), summary(&program, "odd"));
        // `k` reaches the result only through `j`: it is never returned.
        assert_eq!(summary(&program, "even"), ["n", "m", "j"]);
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
        let plan = program.facts().trace_plan(&program);
        for name in db.all_vars().map(|v| db.name(v)).chain(["main", "ghost"]) {
            let expected = targets.iter().any(|t| !filter.proves_unrelated(name, t));
            assert_eq!(plan.is_relevant(name), expected, "{name}");
        }
    }
}
