//! The AuLang AST → bytecode compiler.
//!
//! Lowers a parsed [`Program`] into a [`CompiledProgram`] for the VM in
//! `vm.rs`. The compiler resolves every variable reference to a
//! frame-relative slot at compile time (lexical scoping matches the
//! interpreter's innermost-first `HashMap` chain exactly, because block
//! control flow is strictly sequential), pre-formats every statically
//! determined error message, and — in traced modes — decides *per site*
//! whether to emit trace opcodes.
//!
//! In [`TraceMode::Selective`] the decision reads the program's static
//! facts ([`StaticFacts`], one walk over the program): a site is
//! instrumented only if the assigned variable (or, for condition/use
//! sites, some variable the site may read) cannot be proven unrelated to
//! every prediction target. The facts precompute that answer per variable
//! and per site, from a bitset closure of the static dependence graph, so
//! the compiler looks nothing up at a site. Programs that defeat the
//! static analysis (computed `input` / `mark_input` / `mark_target` names)
//! fall back to [`TraceMode::Full`] so dynamic extraction never silently
//! loses facts.
//!
//! Every compile, in every trace mode, ends with a peephole pass that
//! fuses `Load`/`Const`/`Bin` windows into superinstructions. A fused op
//! behaves exactly like the sequence it replaces, trace deps included.

use crate::ast::{BinOp, Expr, ExprKind, Function, Program, Stmt, StmtKind, Sym};
use crate::bytecode::{CompiledProgram, FuncInfo, MathFn, Op, TraceKind, TraceMode};
use crate::static_analysis::{Site, StaticFacts, TracePlan};
use crate::value::Value;

/// Compiles `program` under the requested trace mode.
///
/// Compilation is infallible: statically detectable runtime errors
/// (undefined variables, unknown functions, arity mismatches) compile to
/// `Fail` opcodes that reproduce the interpreter's error message at the
/// same execution point, preserving lazy error semantics. In every trace
/// mode the result has its `Load`/`Const`/`Bin` windows fused into
/// superinstructions.
pub fn compile_program(program: &Program, requested: TraceMode) -> CompiledProgram {
    let _t = au_telemetry::time!("au_lang.vm.compile");
    let mut compiled = compile_impl(program, requested);
    fuse_superinstructions(&mut compiled);
    compiled
}

/// The same as [`compile_program`]. Kept only because the `bench-e2e`
/// benchmark binary calls it; delete it with the next change to that
/// benchmark.
pub fn compile_program_opt(program: &Program, requested: TraceMode) -> CompiledProgram {
    compile_program(program, requested)
}

fn compile_impl(program: &Program, requested: TraceMode) -> CompiledProgram {
    let (effective, selective) = match requested {
        TraceMode::Selective => {
            let facts = StaticFacts::new(program);
            if facts.defeats_selective() {
                (TraceMode::Full, None)
            } else {
                let plan = facts.trace_plan();
                (TraceMode::Selective, Some(SelectiveCtx { plan, next: 0 }))
            }
        }
        mode => (mode, None),
    };
    // Sized from the source text, so the pools rarely grow.
    let src_len = program.source_len();
    let mut c = Compiler {
        program,
        mode: effective,
        selective,
        ops: Vec::with_capacity(src_len / 4),
        consts: Vec::with_capacity(src_len / 16),
        names: Vec::with_capacity(program.symbols().len()),
        msgs: Vec::new(),
        live_sets: Vec::with_capacity(src_len / 64 + 1),
        funcs: Vec::with_capacity(program.functions.len()),
        syms: vec![SymInfo::default(); program.symbols().len()],
        compiling_name: 0,
    };
    // Live set 0 is the empty one.
    c.live_sets.push(Vec::new());
    // Pass 1: register every function (first definition wins, matching
    // `Program::function`) so calls can resolve forward references.
    for f in &program.functions {
        let info = &mut c.syms[f.name.index()];
        if info.func.is_none() {
            info.func = Some(c.funcs.len() as u16);
            info.arity = f.params.len();
            let name = c.name_id(f.name);
            c.funcs.push(FuncInfo {
                name,
                params: Vec::new(),
                entry: 0,
                nlocals: 0,
                slot_names: Vec::new(),
            });
        }
    }
    // Pass 2: compile each registered body. First definitions come in
    // registration order; a later one of the same name is unreachable.
    let mut ctx = FnCtx::default();
    let mut next = 0;
    for (at, f) in program.functions.iter().enumerate() {
        if c.syms[f.name.index()].func == Some(next) {
            c.compile_function(f, next, at, &mut ctx);
            next += 1;
        }
    }
    let main_func = program
        .sym("main")
        .and_then(|main| c.syms[main.index()].func)
        .expect("the parser guarantees `main`");
    let relevant = match &c.selective {
        Some(sel) => c.names.iter().map(|n| sel.plan.is_relevant(n)).collect(),
        None => vec![true; c.names.len()],
    };
    CompiledProgram {
        ops: c.ops,
        consts: c.consts,
        names: c.names,
        msgs: c.msgs,
        funcs: c.funcs,
        live_sets: c.live_sets,
        main_func,
        requested,
        effective,
        relevant,
    }
}

/// The peephole pass: fuses `Load a; Load b; Bin`, `Load; Const; Bin`,
/// and `Const; Bin` sequences into single superinstructions.
///
/// A window is fused only when no interior instruction is a jump target
/// (static targets: `Jump` / `BranchFalse` / `ShortCircuit` destinations
/// and function entries — `Call` return addresses are computed at
/// runtime in the rewritten index space, so they need no barrier). All
/// jump fields and function entries are remapped afterwards.
fn fuse_superinstructions(prog: &mut CompiledProgram) {
    let n = prog.ops.len();
    let mut is_target = vec![false; n + 1];
    for op in &prog.ops {
        match *op {
            Op::Jump(t) => is_target[t as usize] = true,
            Op::BranchFalse { target, .. } => is_target[target as usize] = true,
            Op::ShortCircuit { skip, .. } => is_target[skip as usize] = true,
            _ => {}
        }
    }
    for f in &prog.funcs {
        is_target[f.entry as usize] = true;
    }
    // Fused ops are written back into `ops`, never ahead of the op being
    // read.
    let ops = &mut prog.ops;
    let mut map = vec![0u32; n + 1];
    let (mut i, mut at) = (0usize, 0usize);
    while i < n {
        map[i] = at as u32;
        let (fused, width) = match (ops[i], ops.get(i + 1), ops.get(i + 2)) {
            (Op::Load(a), Some(&Op::Load(b)), Some(&Op::Bin(op)))
                if !is_target[i + 1] && !is_target[i + 2] =>
            {
                (Op::LoadLoadBin { a, b, op }, 3)
            }
            (Op::Load(slot), Some(&Op::Const(cidx)), Some(&Op::Bin(op)))
                if !is_target[i + 1] && !is_target[i + 2] =>
            {
                (Op::LoadConstBin { slot, cidx, op }, 3)
            }
            (Op::Const(cidx), Some(&Op::Bin(op)), _) if !is_target[i + 1] => {
                (Op::ConstBin { cidx, op }, 2)
            }
            (op, _, _) => (op, 1),
        };
        for m in &mut map[i + 1..i + width] {
            *m = at as u32;
        }
        ops[at] = fused;
        at += 1;
        i += width;
    }
    map[n] = at as u32;
    ops.truncate(at);
    for op in ops.iter_mut() {
        match op {
            Op::Jump(t) => *t = map[*t as usize],
            Op::BranchFalse { target, .. } => *target = map[*target as usize],
            Op::ShortCircuit { skip, .. } => *skip = map[*skip as usize],
            _ => {}
        }
    }
    for f in &mut prog.funcs {
        f.entry = map[f.entry as usize];
    }
}

/// The static facts a Selective compile reads.
struct SelectiveCtx<'p> {
    plan: TracePlan<'p>,
    /// Index of the next trace site of the function being compiled.
    next: usize,
}

/// Per-function compile state: the lexical scope stack and loop labels.
/// One value serves every function of a compile, so its buffers are
/// allocated once.
#[derive(Default)]
struct FnCtx {
    /// Scope stack; each scope is `(name, slot)` in declaration order with
    /// same-name redeclaration replacing the earlier entry.
    scopes: Vec<Vec<(Sym, u16)>>,
    /// Emptied scopes, reused by the next blocks.
    spare: Vec<Vec<(Sym, u16)>>,
    slot_names: Vec<Sym>,
    loops: Vec<LoopCtx>,
}

struct LoopCtx {
    start: u32,
    breaks: Vec<usize>,
}

impl FnCtx {
    /// Readies the context for a function: one open scope, no slots.
    fn reset(&mut self) {
        while self.scopes.len() > 1 {
            self.close_scope();
        }
        match self.scopes.first_mut() {
            Some(scope) => scope.clear(),
            None => self.open_scope(),
        }
        self.slot_names.clear();
        self.loops.clear();
    }

    fn open_scope(&mut self) {
        let scope = self.spare.pop().unwrap_or_default();
        self.scopes.push(scope);
    }

    fn close_scope(&mut self) {
        let mut scope = self.scopes.pop().expect("scope");
        scope.clear();
        self.spare.push(scope);
    }

    /// Allocates a fresh slot for `name` in the innermost scope.
    fn declare(&mut self, name: Sym) -> u16 {
        let slot = self.slot_names.len() as u16;
        self.slot_names.push(name);
        let scope = self.scopes.last_mut().expect("scope");
        match scope.iter_mut().find(|(n, _)| *n == name) {
            Some(entry) => entry.1 = slot,
            None => scope.push((name, slot)),
        }
        slot
    }

    /// Innermost-first lookup, mirroring the interpreter's scope chain.
    fn resolve(&self, name: Sym) -> Option<u16> {
        self.scopes
            .iter()
            .rev()
            .find_map(|s| s.iter().find(|(n, _)| *n == name).map(|&(_, slot)| slot))
    }
}

/// What a compile knows about one symbol.
#[derive(Clone, Copy, Default)]
struct SymInfo {
    /// Its id in the names pool, once it has one.
    name: Option<u32>,
    /// As a builtin's name, the id of its "expects a string literal"
    /// message, once it has one.
    ensure_msg: Option<u32>,
    /// The index in `funcs` of the first function of this name.
    func: Option<u16>,
    /// That function's parameter count.
    arity: usize,
}

struct Compiler<'p> {
    program: &'p Program,
    mode: TraceMode,
    selective: Option<SelectiveCtx<'p>>,
    ops: Vec<Op>,
    consts: Vec<Value>,
    /// The names pool, in order of first use.
    names: Vec<String>,
    msgs: Vec<String>,
    live_sets: Vec<Vec<(u16, u32)>>,
    funcs: Vec<FuncInfo>,
    /// Indexed by symbol.
    syms: Vec<SymInfo>,
    /// Name id of the function currently being compiled (for `break` /
    /// `continue` error messages).
    compiling_name: u32,
}

impl<'p> Compiler<'p> {
    // -- pools ----------------------------------------------------------

    fn name(&self, sym: Sym) -> &'p str {
        self.program.name(sym)
    }

    fn name_id(&mut self, sym: Sym) -> u32 {
        if let Some(id) = self.syms[sym.index()].name {
            return id;
        }
        let id = self.names.len() as u32;
        self.names.push(self.name(sym).to_owned());
        self.syms[sym.index()].name = Some(id);
        id
    }

    /// The pool id of a literal `input` key: its symbol's when an
    /// identifier spells it too.
    fn key_id(&mut self, key: &str) -> u32 {
        if let Some(sym) = self.program.sym(key) {
            return self.name_id(sym);
        }
        match self.names.iter().position(|n| n == key) {
            Some(id) => id as u32,
            None => {
                self.names.push(key.to_owned());
                (self.names.len() - 1) as u32
            }
        }
    }

    /// A program has a handful of distinct messages, so a scan finds one.
    fn msg_id(&mut self, msg: &str) -> u32 {
        if let Some(id) = self.msgs.iter().position(|m| m == msg) {
            return id as u32;
        }
        self.msgs.push(msg.to_owned());
        (self.msgs.len() - 1) as u32
    }

    fn const_id(&mut self, v: Value) -> u32 {
        self.consts.push(v);
        (self.consts.len() - 1) as u32
    }

    /// Captures the variables currently in scope as a live set (for
    /// checkpoint snapshots at this site). Outer-to-inner order, so
    /// name-based flattening picks the innermost binding.
    fn live_id(&mut self, ctx: &FnCtx) -> u32 {
        let count = ctx.scopes.iter().map(Vec::len).sum();
        if count == 0 {
            return 0;
        }
        let mut entries: Vec<(u16, u32)> = Vec::with_capacity(count);
        for &(name, slot) in ctx.scopes.iter().flatten() {
            let id = self.name_id(name);
            entries.push((slot, id));
        }
        self.live_sets.push(entries);
        (self.live_sets.len() - 1) as u32
    }

    // -- emission helpers ----------------------------------------------

    fn emit(&mut self, op: Op) -> usize {
        self.ops.push(op);
        self.ops.len() - 1
    }

    fn here(&self) -> u32 {
        self.ops.len() as u32
    }

    fn patch(&mut self, at: usize) {
        let target = self.here();
        match &mut self.ops[at] {
            Op::Jump(t) => *t = target,
            Op::BranchFalse { target: t, .. } => *t = target,
            Op::ShortCircuit { skip, .. } => *skip = target,
            other => unreachable!("patching non-jump {other:?}"),
        }
    }

    fn fail(&mut self, msg: &str) {
        let m = self.msg_id(msg);
        self.emit(Op::Fail(m));
    }

    fn ensure_str(&mut self, builtin: Sym) {
        let m = match self.syms[builtin.index()].ensure_msg {
            Some(m) => m,
            None => {
                let name = self.name(builtin);
                let m = self.msg_id(&format!("`{name}` expects a string literal argument"));
                self.syms[builtin.index()].ensure_msg = Some(m);
                m
            }
        };
        self.emit(Op::EnsureStr(m));
    }

    // -- trace-site decisions ------------------------------------------

    /// How to instrument the next trace site of a Selective compile.
    fn next_site(&mut self) -> Site {
        let sel = self.selective.as_mut().expect("selective mode");
        let site = sel.plan.site(sel.next);
        sel.next += 1;
        site
    }

    /// How to instrument an assignment site.
    fn assign_trace_kind(&mut self) -> TraceKind {
        match self.mode {
            TraceMode::Off => TraceKind::None,
            TraceMode::Full => TraceKind::Assign,
            TraceMode::Selective => {
                let site = self.next_site();
                if site.writes_relevant {
                    TraceKind::Assign
                } else if site.reads_relevant {
                    TraceKind::Uses
                } else {
                    TraceKind::None
                }
            }
        }
    }

    /// Emits the trace prologue for a `let`/`assign` site (after the RHS
    /// value is on the stack, before the store — the interpreter's order).
    fn emit_assign_trace(&mut self, dst: Sym, rhs: &Expr) {
        match self.assign_trace_kind() {
            TraceKind::None => {}
            TraceKind::Assign => {
                if is_write_back_call(self.program, rhs) {
                    let id = self.name_id(dst);
                    self.emit(Op::MarkTargetName(id));
                }
                let id = self.name_id(dst);
                self.emit(Op::TraceAssign { name: id });
            }
            TraceKind::Uses => {
                self.emit(Op::NoteUses);
            }
        }
    }

    /// Emits a use-note for a condition expression when the mode calls for
    /// it (the dep set is on top of the dep stack).
    fn emit_cond_note(&mut self) {
        let note = match self.mode {
            TraceMode::Off => false,
            TraceMode::Full => true,
            TraceMode::Selective => self.next_site().reads_relevant,
        };
        if note {
            self.emit(Op::NoteUses);
        }
    }

    // -- functions ------------------------------------------------------

    /// Compiles `f`, which is `program.functions[at]`, into slot `idx`.
    fn compile_function(&mut self, f: &Function, idx: u16, at: usize, ctx: &mut FnCtx) {
        self.compiling_name = self.funcs[idx as usize].name;
        let sites_end = self.selective.as_mut().map(|sel| {
            let sites = sel.plan.function_sites(at);
            sel.next = sites.start;
            sites.end
        });
        let entry = self.here();
        ctx.reset();
        let mut params = Vec::with_capacity(f.params.len());
        for &p in &f.params {
            ctx.declare(p);
            params.push(self.name_id(p));
        }
        self.compile_block(&f.body, ctx);
        self.emit(Op::RetUnit);
        if let Some(sel) = &self.selective {
            let name = self.name(f.name);
            debug_assert_eq!(Some(sel.next), sites_end, "`{name}` left trace sites");
        }
        let slot_names = ctx
            .slot_names
            .iter()
            .map(|&n| self.name_id(n))
            .collect::<Vec<_>>();
        let fi = &mut self.funcs[idx as usize];
        fi.params = params;
        fi.entry = entry;
        fi.nlocals = ctx.slot_names.len() as u16;
        fi.slot_names = slot_names;
    }

    fn compile_block(&mut self, stmts: &[Stmt], ctx: &mut FnCtx) {
        ctx.open_scope();
        for stmt in stmts {
            self.compile_stmt(stmt, ctx);
        }
        ctx.close_scope();
    }

    fn compile_stmt(&mut self, stmt: &Stmt, ctx: &mut FnCtx) {
        self.emit(Op::Step);
        match &stmt.kind {
            StmtKind::Let { name, init } => {
                self.compile_expr(init, ctx);
                self.emit_assign_trace(*name, init);
                let slot = ctx.declare(*name);
                self.emit(Op::Store(slot));
            }
            StmtKind::Assign { name, value } => {
                self.compile_expr(value, ctx);
                self.emit_assign_trace(*name, value);
                match ctx.resolve(*name) {
                    Some(slot) => {
                        self.emit(Op::Store(slot));
                    }
                    None => {
                        let name = self.name(*name);
                        self.fail(&format!("assignment to undefined variable `{name}`"))
                    }
                }
            }
            StmtKind::AssignIndex { name, index, value } => {
                self.compile_expr(index, ctx);
                self.compile_expr(value, ctx);
                let trace = self.assign_trace_kind();
                let nid = self.name_id(*name);
                match ctx.resolve(*name) {
                    Some(slot) => self.emit(Op::StoreIndex {
                        slot,
                        name: nid,
                        trace,
                    }),
                    None => self.emit(Op::StoreIndexUndef { name: nid, trace }),
                };
            }
            StmtKind::If {
                cond,
                then_body,
                else_body,
            } => {
                self.compile_expr(cond, ctx);
                self.emit_cond_note();
                let msg = self.msg_id("if condition must be boolean");
                let bf = self.emit(Op::BranchFalse { target: 0, msg });
                self.compile_block(then_body, ctx);
                let j = self.emit(Op::Jump(0));
                self.patch(bf);
                self.compile_block(else_body, ctx);
                self.patch(j);
            }
            StmtKind::While { cond, body } => {
                let start = self.here();
                self.compile_expr(cond, ctx);
                self.emit_cond_note();
                let msg = self.msg_id("while condition must be boolean");
                let bf = self.emit(Op::BranchFalse { target: 0, msg });
                ctx.loops.push(LoopCtx {
                    start,
                    breaks: Vec::new(),
                });
                self.compile_block(body, ctx);
                self.emit(Op::Jump(start));
                let done = ctx.loops.pop().expect("loop ctx");
                self.patch(bf);
                for b in done.breaks {
                    self.patch(b);
                }
            }
            StmtKind::Return(Some(e)) => {
                self.compile_expr(e, ctx);
                self.emit(Op::Ret);
            }
            StmtKind::Return(None) => {
                self.emit(Op::RetUnit);
            }
            StmtKind::Break => {
                if ctx.loops.is_empty() {
                    let fname = self.current_fn_name(ctx);
                    self.fail(&format!(
                        "`break`/`continue` outside a loop in function `{fname}`"
                    ));
                } else {
                    let j = self.emit(Op::Jump(0));
                    ctx.loops.last_mut().expect("loop").breaks.push(j);
                }
            }
            StmtKind::Continue => {
                if ctx.loops.is_empty() {
                    let fname = self.current_fn_name(ctx);
                    self.fail(&format!(
                        "`break`/`continue` outside a loop in function `{fname}`"
                    ));
                } else {
                    let start = ctx.loops.last().expect("loop").start;
                    self.emit(Op::Jump(start));
                }
            }
            StmtKind::Expr(e) => {
                self.compile_expr(e, ctx);
                self.emit(Op::Pop);
            }
        }
    }

    /// Name of the function currently being compiled (for error messages).
    fn current_fn_name(&self, _ctx: &FnCtx) -> String {
        self.names[self.compiling_name as usize].clone()
    }

    // -- expressions ----------------------------------------------------

    fn compile_expr(&mut self, expr: &Expr, ctx: &mut FnCtx) {
        match &expr.kind {
            ExprKind::Num(n) => {
                let c = self.const_id(Value::Num(*n));
                self.emit(Op::Const(c));
            }
            ExprKind::Bool(b) => {
                let c = self.const_id(Value::Bool(*b));
                self.emit(Op::Const(c));
            }
            ExprKind::Str(s) => {
                let c = self.const_id(Value::Str(s.clone()));
                self.emit(Op::Const(c));
            }
            ExprKind::Var(name) => match ctx.resolve(*name) {
                Some(slot) => {
                    self.emit(Op::Load(slot));
                }
                None => {
                    let name = self.name(*name);
                    self.fail(&format!("undefined variable `{name}`"))
                }
            },
            ExprKind::Array(items) => {
                for item in items {
                    self.compile_expr(item, ctx);
                }
                self.emit(Op::MakeArray(items.len() as u16));
            }
            ExprKind::Index(target, index) => {
                self.compile_expr(target, ctx);
                self.compile_expr(index, ctx);
                self.emit(Op::IndexGet);
            }
            ExprKind::Unary { op, expr } => {
                self.compile_expr(expr, ctx);
                self.emit(match op {
                    crate::ast::UnOp::Neg => Op::Neg,
                    crate::ast::UnOp::Not => Op::Not,
                });
            }
            ExprKind::Binary { op, lhs, rhs } => match op {
                BinOp::And | BinOp::Or => {
                    self.compile_expr(lhs, ctx);
                    let probe = self.emit(Op::ShortCircuit {
                        is_and: *op == BinOp::And,
                        skip: 0,
                    });
                    self.compile_expr(rhs, ctx);
                    self.emit(Op::LogicalRhs);
                    self.patch(probe);
                }
                _ => {
                    self.compile_expr(lhs, ctx);
                    self.compile_expr(rhs, ctx);
                    self.emit(Op::Bin(*op));
                }
            },
            ExprKind::Call { name, args } => self.compile_call(*name, args, ctx),
        }
    }

    fn compile_call(&mut self, sym: Sym, args: &[Expr], ctx: &mut FnCtx) {
        let name = self.name(sym);
        let info = self.syms[sym.index()];
        if !name.starts_with("au_") {
            if let Some(fidx) = info.func {
                for arg in args {
                    self.compile_expr(arg, ctx);
                }
                let arity = info.arity;
                if args.len() != arity {
                    self.fail(&format!(
                        "function `{name}` expects {arity} arguments, got {}",
                        args.len()
                    ));
                } else {
                    let live = self.live_id(ctx);
                    self.emit(Op::Call { func: fidx, live });
                }
                return;
            }
        }
        self.compile_builtin(sym, args, ctx);
    }

    /// Emits the interpreter's fixed-arity check: the error fires *before*
    /// any argument is evaluated, so it compiles to a bare `Fail`.
    fn check_arity(&mut self, name: &str, args: &[Expr], n: usize) -> bool {
        if args.len() == n {
            true
        } else {
            self.fail(&format!(
                "`{name}` expects {n} arguments, got {}",
                args.len()
            ));
            false
        }
    }

    fn compile_builtin(&mut self, sym: Sym, args: &[Expr], ctx: &mut FnCtx) {
        let name = self.name(sym);
        match name {
            "au_config" => {
                if args.len() < 4 {
                    self.fail("`au_config` needs model, type, algorithm, layer count");
                    return;
                }
                for arg in &args[..3] {
                    self.compile_expr(arg, ctx);
                    self.ensure_str(sym);
                }
                self.compile_expr(&args[3], ctx);
                self.emit(Op::AuConfigCheck {
                    argc: args.len() as u16,
                });
                let layer_msg = self.msg_id("layer size must be a number");
                for arg in &args[4..] {
                    self.compile_expr(arg, ctx);
                    self.emit(Op::EnsureNum(layer_msg));
                }
                self.emit(Op::AuConfig {
                    layers: (args.len() - 4) as u16,
                });
            }
            "au_extract" => {
                if !self.check_arity(name, args, 2) {
                    return;
                }
                self.compile_expr(&args[0], ctx);
                self.ensure_str(sym);
                self.compile_expr(&args[1], ctx);
                self.emit(Op::AuExtract);
            }
            "au_serialize" => {
                for arg in args {
                    self.compile_expr(arg, ctx);
                    self.ensure_str(sym);
                }
                self.emit(Op::AuSerialize {
                    argc: args.len() as u16,
                });
            }
            "au_nn" => {
                if args.len() < 3 {
                    self.fail("`au_nn` needs model, ext, and at least one wb name");
                    return;
                }
                for arg in args {
                    self.compile_expr(arg, ctx);
                    self.ensure_str(sym);
                }
                self.emit(Op::AuNn {
                    argc: args.len() as u16,
                });
            }
            "au_nn_rl" => {
                if !self.check_arity(name, args, 6) {
                    return;
                }
                self.compile_expr(&args[0], ctx);
                self.ensure_str(sym);
                self.compile_expr(&args[1], ctx);
                self.ensure_str(sym);
                self.compile_expr(&args[2], ctx);
                self.compile_expr(&args[3], ctx);
                self.compile_expr(&args[4], ctx);
                self.ensure_str(sym);
                self.compile_expr(&args[5], ctx);
                self.emit(Op::AuNnRl);
            }
            "au_write_back" => {
                if !self.check_arity(name, args, 1) {
                    return;
                }
                self.compile_expr(&args[0], ctx);
                self.ensure_str(sym);
                self.emit(Op::AuWriteBack);
            }
            "au_write_back_n" => {
                if !self.check_arity(name, args, 2) {
                    return;
                }
                self.compile_expr(&args[0], ctx);
                self.ensure_str(sym);
                self.compile_expr(&args[1], ctx);
                self.emit(Op::AuWriteBackN);
            }
            "au_checkpoint" => {
                if !self.check_arity(name, args, 0) {
                    return;
                }
                let live = self.live_id(ctx);
                self.emit(Op::AuCheckpoint { live });
            }
            "au_restore" => {
                if !self.check_arity(name, args, 0) {
                    return;
                }
                let live = self.live_id(ctx);
                self.emit(Op::AuRestore { live });
            }
            "mark_input" => {
                if !self.check_arity(name, args, 1) {
                    return;
                }
                self.compile_expr(&args[0], ctx);
                self.ensure_str(sym);
                self.emit(Op::MarkInput);
            }
            "mark_target" => {
                if !self.check_arity(name, args, 1) {
                    return;
                }
                self.compile_expr(&args[0], ctx);
                self.ensure_str(sym);
                self.emit(Op::MarkTarget);
            }
            "input" => {
                if !self.check_arity(name, args, 2) {
                    return;
                }
                self.compile_expr(&args[0], ctx);
                self.ensure_str(sym);
                self.compile_expr(&args[1], ctx);
                // Pre-intern literal keys so traced runs use a pooled id
                // with a precomputed relevance bit.
                if let ExprKind::Str(key) = &args[0].kind {
                    self.key_id(key);
                }
                self.emit(Op::Input);
            }
            "print" => {
                for arg in args {
                    self.compile_expr(arg, ctx);
                }
                self.emit(Op::Print(args.len() as u16));
            }
            "len" => {
                if !self.check_arity(name, args, 1) {
                    return;
                }
                self.compile_expr(&args[0], ctx);
                self.emit(Op::Len);
            }
            "append" => {
                if !self.check_arity(name, args, 2) {
                    return;
                }
                self.compile_expr(&args[0], ctx);
                self.compile_expr(&args[1], ctx);
                self.emit(Op::Append);
            }
            "floor" | "abs" | "sqrt" | "sin" | "cos" | "exp" => {
                if !self.check_arity(name, args, 1) {
                    return;
                }
                self.compile_expr(&args[0], ctx);
                let f = match name {
                    "floor" => MathFn::Floor,
                    "abs" => MathFn::Abs,
                    "sqrt" => MathFn::Sqrt,
                    "sin" => MathFn::Sin,
                    "cos" => MathFn::Cos,
                    _ => MathFn::Exp,
                };
                self.emit(Op::Math1(f));
            }
            "min" | "max" => {
                if !self.check_arity(name, args, 2) {
                    return;
                }
                self.compile_expr(&args[0], ctx);
                self.compile_expr(&args[1], ctx);
                self.emit(Op::Math2 {
                    is_min: name == "min",
                });
            }
            "rand" => {
                if !self.check_arity(name, args, 0) {
                    return;
                }
                self.emit(Op::Rand);
            }
            other => self.fail(&format!("unknown function `{other}`")),
        }
    }
}

/// True for RHS calls that designate their destination as a target.
fn is_write_back_call(program: &Program, rhs: &Expr) -> bool {
    matches!(
        &rhs.kind,
        ExprKind::Call { name, .. }
            if matches!(program.name(*name), "au_write_back" | "au_write_back_n" | "au_nn_rl")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{corpus, parse};

    #[test]
    fn fusion_fires_on_every_corpus_program_in_every_mode() {
        for p in corpus::all() {
            let program = parse(p.src).expect("corpus parses");
            for mode in [TraceMode::Off, TraceMode::Full, TraceMode::Selective] {
                let fused = compile_program(&program, mode)
                    .ops
                    .iter()
                    .filter(|op| {
                        matches!(
                            op,
                            Op::LoadLoadBin { .. } | Op::LoadConstBin { .. } | Op::ConstBin { .. }
                        )
                    })
                    .count();
                assert!(fused > 0, "[{} {mode:?}] nothing fused", p.name);
            }
        }
    }
}
