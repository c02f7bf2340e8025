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
//! Every compile, in every trace mode, fuses `Load`/`Const`/`Bin` windows
//! into superinstructions as it emits each `Bin`. A fused op behaves
//! exactly like the sequence it replaces, trace deps included.

use crate::ast::{BinOp, ExprId, ExprKind, Function, Program, Stmt, StmtKind, Sym, Symbols};
use crate::bytecode::{CompiledProgram, FuncInfo, MathFn, Op, TraceKind, TraceMode};
use crate::static_analysis::{Site, TracePlan};
use crate::value::Value;
use std::fmt::{self, Write as _};

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
    compile_impl(program, requested)
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
            let facts = program.facts();
            if facts.defeats_selective() {
                (TraceMode::Full, None)
            } else {
                let plan = facts.trace_plan(program);
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
        names: Symbols::with_capacity(program.symbols().len(), src_len / 8),
        msgs: Symbols::with_capacity(8, 256),
        text: String::new(),
        fixed: [None; 3],
        live: Vec::with_capacity(src_len / 32),
        live_ends: Vec::with_capacity(src_len / 64 + 1),
        funcs: Vec::with_capacity(program.functions().len()),
        slot_names: Vec::with_capacity(src_len / 32),
        syms: vec![SymInfo::default(); program.symbols().len()],
        compiling: Sym::from_index(0),
        last_target: None,
    };
    // Live set 0 is the empty one.
    c.live_ends.push(0);
    // Pass 1: register every function (first definition wins, matching
    // `Program::function`) so calls can resolve forward references.
    for f in program.functions() {
        let info = &mut c.syms[f.name.index()];
        if info.func.is_none() {
            info.func = Some(c.funcs.len() as u16);
            info.arity = f.params.len();
            let name = c.name_id(f.name);
            c.funcs.push(FuncInfo {
                name,
                nparams: 0,
                entry: 0,
                nlocals: 0,
                slots: 0,
            });
        }
    }
    // Pass 2: compile each registered body. First definitions come in
    // registration order; a later one of the same name is unreachable.
    let mut ctx = FnCtx::default();
    let mut next = 0;
    for (at, f) in program.functions().iter().enumerate() {
        if c.syms[f.name.index()].func == Some(next) {
            c.compile_function(f, next, at, &mut ctx);
            next += 1;
        }
    }
    let main_func = program
        .sym("main")
        .and_then(|main| c.syms[main.index()].func)
        .expect("a built program has one `main`");
    let relevant = match &c.selective {
        Some(sel) => c
            .names
            .iter()
            .map(|(_, n)| sel.plan.is_relevant(n))
            .collect(),
        None => vec![true; c.names.len()],
    };
    CompiledProgram {
        ops: c.ops,
        consts: c.consts,
        names: c.names,
        msgs: c.msgs,
        funcs: c.funcs,
        slot_names: c.slot_names,
        live: c.live,
        live_ends: c.live_ends,
        main_func,
        requested,
        effective,
        relevant,
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
    /// The scope stack, flat: each scope is `(name, slot)` in declaration
    /// order with same-name redeclaration replacing the earlier entry,
    /// and the scopes follow each other outer to inner.
    scopes: Vec<(Sym, u16)>,
    /// Where each open scope starts in `scopes`.
    scope_starts: Vec<usize>,
    slot_names: Vec<Sym>,
    loops: Vec<LoopCtx>,
    /// The `break` jumps of the open loops, to patch at each loop's end.
    breaks: Vec<usize>,
}

struct LoopCtx {
    start: u32,
    /// Where this loop's `break` jumps start in [`FnCtx::breaks`].
    breaks: usize,
}

impl FnCtx {
    /// Readies the context for a function: one open scope, no slots.
    fn reset(&mut self) {
        self.scopes.clear();
        self.scope_starts.clear();
        self.scope_starts.push(0);
        self.slot_names.clear();
        self.loops.clear();
        self.breaks.clear();
    }

    fn open_scope(&mut self) {
        self.scope_starts.push(self.scopes.len());
    }

    fn close_scope(&mut self) {
        let start = self.scope_starts.pop().expect("scope");
        self.scopes.truncate(start);
    }

    /// Allocates a fresh slot for `name` in the innermost scope.
    fn declare(&mut self, name: Sym) -> u16 {
        let slot = self.slot_names.len() as u16;
        self.slot_names.push(name);
        let start = *self.scope_starts.last().expect("scope");
        match self.scopes[start..].iter_mut().find(|(n, _)| *n == name) {
            Some(entry) => entry.1 = slot,
            None => self.scopes.push((name, slot)),
        }
        slot
    }

    /// Innermost-first lookup, mirroring the interpreter's scope chain: a
    /// name appears once per scope, and inner scopes come later.
    fn resolve(&self, name: Sym) -> Option<u16> {
        self.scopes
            .iter()
            .rev()
            .find(|(n, _)| *n == name)
            .map(|&(_, slot)| slot)
    }
}

/// The messages of every `if`, every `while` and every `au_config` layer
/// size.
#[derive(Clone, Copy)]
enum Fixed {
    If,
    While,
    Layer,
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
    names: Symbols,
    msgs: Symbols,
    /// Where messages are formatted before they are pooled.
    text: String,
    /// The pool ids of the [`Fixed`] messages met so far.
    fixed: [Option<u32>; 3],
    live: Vec<(u16, u32)>,
    live_ends: Vec<u32>,
    funcs: Vec<FuncInfo>,
    slot_names: Vec<u32>,
    /// Indexed by symbol.
    syms: Vec<SymInfo>,
    /// The name of the function being compiled (for `break` / `continue`
    /// error messages).
    compiling: Sym,
    /// The last jump target marked. Targets are marked at the end of the
    /// code so far, so it is also the largest.
    last_target: Option<u32>,
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
        let id = self.names.intern(self.program.name(sym)).index() as u32;
        self.syms[sym.index()].name = Some(id);
        id
    }

    /// The pool id of a literal `input` key: its symbol's when an
    /// identifier spells it too.
    fn key_id(&mut self, key: &str) -> u32 {
        self.names.intern(key).index() as u32
    }

    fn msg_id(&mut self, msg: &str) -> u32 {
        self.msgs.intern(msg).index() as u32
    }

    /// The id of a message many sites share, pooled on first use.
    fn fixed_msg(&mut self, which: Fixed) -> u32 {
        if let Some(id) = self.fixed[which as usize] {
            return id;
        }
        let id = self.msg_id(match which {
            Fixed::If => "if condition must be boolean",
            Fixed::While => "while condition must be boolean",
            Fixed::Layer => "layer size must be a number",
        });
        self.fixed[which as usize] = Some(id);
        id
    }

    /// The id of the message `args` formats.
    fn msg_fmt(&mut self, args: fmt::Arguments<'_>) -> u32 {
        let mut text = std::mem::take(&mut self.text);
        text.clear();
        text.write_fmt(args).expect("formatting into a string");
        let id = self.msg_id(&text);
        self.text = text;
        id
    }

    fn const_id(&mut self, v: Value) -> u32 {
        self.consts.push(v);
        (self.consts.len() - 1) as u32
    }

    /// Captures the variables currently in scope as a live set (for
    /// checkpoint snapshots at this site). Outer-to-inner order, so
    /// name-based flattening picks the innermost binding.
    fn live_id(&mut self, ctx: &FnCtx) -> u32 {
        if ctx.scopes.is_empty() {
            return 0;
        }
        for &(name, slot) in &ctx.scopes {
            let id = self.name_id(name);
            self.live.push((slot, id));
        }
        self.live_ends.push(self.live.len() as u32);
        (self.live_ends.len() - 1) as u32
    }

    // -- emission helpers ----------------------------------------------

    /// Appends `op`, fusing a `Bin` with the `Load`/`Const` ops just
    /// before it into a superinstruction: a trailing `Load; Load` becomes
    /// `LoadLoadBin`, a trailing `Load; Const` becomes `LoadConstBin`, and
    /// otherwise a trailing `Const` becomes `ConstBin`. A window is fused
    /// only when no jump lands inside it, which [`Compiler::target`] knows
    /// because every jump target is marked when it is set.
    fn emit(&mut self, op: Op) -> usize {
        let n = self.ops.len();
        if let Op::Bin(op) = op {
            // A target at `n` lands on the `Bin`; one at `n - 1` on the
            // op before it.
            let free = |back: usize| self.last_target.is_none_or(|t| (t as usize) + back < n);
            let fused = match self.ops[n.saturating_sub(2)..] {
                [Op::Load(a), Op::Load(b)] if free(1) => Some((Op::LoadLoadBin { a, b, op }, 2)),
                [Op::Load(slot), Op::Const(cidx)] if free(1) => {
                    Some((Op::LoadConstBin { slot, cidx, op }, 2))
                }
                [.., Op::Const(cidx)] if free(0) => Some((Op::ConstBin { cidx, op }, 1)),
                _ => None,
            };
            if let Some((fused, width)) = fused {
                self.ops.truncate(n - width);
                self.ops.push(fused);
                return self.ops.len() - 1;
            }
        }
        self.ops.push(op);
        n
    }

    fn here(&self) -> u32 {
        self.ops.len() as u32
    }

    /// Marks the next op's position as a jump target and returns it.
    fn target(&mut self) -> u32 {
        let at = self.here();
        self.last_target = Some(at);
        at
    }

    fn patch(&mut self, at: usize) {
        let target = self.target();
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

    fn fail_fmt(&mut self, args: fmt::Arguments<'_>) {
        let m = self.msg_fmt(args);
        self.emit(Op::Fail(m));
    }

    fn ensure_str(&mut self, builtin: Sym) {
        let m = match self.syms[builtin.index()].ensure_msg {
            Some(m) => m,
            None => {
                let name = self.name(builtin);
                let m = self.msg_fmt(format_args!("`{name}` expects a string literal argument"));
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
    fn emit_assign_trace(&mut self, dst: Sym, rhs: ExprId) {
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

    /// Compiles `f`, which is `program.functions()[at]`, into slot `idx`.
    fn compile_function(&mut self, f: &Function, idx: u16, at: usize, ctx: &mut FnCtx) {
        self.compiling = f.name;
        let sites_end = self.selective.as_mut().map(|sel| {
            let sites = sel.plan.function_sites(at);
            sel.next = sites.start;
            sites.end
        });
        let entry = self.target();
        ctx.reset();
        for &p in &f.params {
            ctx.declare(p);
            self.name_id(p);
        }
        self.compile_block(&f.body, ctx);
        self.emit(Op::RetUnit);
        if let Some(sel) = &self.selective {
            let name = self.name(f.name);
            debug_assert_eq!(Some(sel.next), sites_end, "`{name}` left trace sites");
        }
        let slots = self.slot_names.len() as u32;
        for &n in &ctx.slot_names {
            let id = self.name_id(n);
            self.slot_names.push(id);
        }
        let fi = &mut self.funcs[idx as usize];
        fi.nparams = f.params.len() as u16;
        fi.entry = entry;
        fi.nlocals = ctx.slot_names.len() as u16;
        fi.slots = slots;
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
                self.compile_expr(*init, ctx);
                self.emit_assign_trace(*name, *init);
                let slot = ctx.declare(*name);
                self.emit(Op::Store(slot));
            }
            StmtKind::Assign { name, value } => {
                self.compile_expr(*value, ctx);
                self.emit_assign_trace(*name, *value);
                match ctx.resolve(*name) {
                    Some(slot) => {
                        self.emit(Op::Store(slot));
                    }
                    None => {
                        let name = self.name(*name);
                        self.fail_fmt(format_args!("assignment to undefined variable `{name}`"))
                    }
                }
            }
            StmtKind::AssignIndex { name, index, value } => {
                self.compile_expr(*index, ctx);
                self.compile_expr(*value, ctx);
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
                self.compile_expr(*cond, ctx);
                self.emit_cond_note();
                let msg = self.fixed_msg(Fixed::If);
                let bf = self.emit(Op::BranchFalse { target: 0, msg });
                self.compile_block(then_body, ctx);
                let j = self.emit(Op::Jump(0));
                self.patch(bf);
                self.compile_block(else_body, ctx);
                self.patch(j);
            }
            StmtKind::While { cond, body } => {
                let start = self.target();
                self.compile_expr(*cond, ctx);
                self.emit_cond_note();
                let msg = self.fixed_msg(Fixed::While);
                let bf = self.emit(Op::BranchFalse { target: 0, msg });
                ctx.loops.push(LoopCtx {
                    start,
                    breaks: ctx.breaks.len(),
                });
                self.compile_block(body, ctx);
                self.emit(Op::Jump(start));
                let done = ctx.loops.pop().expect("loop ctx");
                self.patch(bf);
                for i in done.breaks..ctx.breaks.len() {
                    self.patch(ctx.breaks[i]);
                }
                ctx.breaks.truncate(done.breaks);
            }
            StmtKind::Return(Some(e)) => {
                self.compile_expr(*e, ctx);
                self.emit(Op::Ret);
            }
            StmtKind::Return(None) => {
                self.emit(Op::RetUnit);
            }
            StmtKind::Break => {
                if ctx.loops.is_empty() {
                    let fname = self.name(self.compiling);
                    self.fail_fmt(format_args!(
                        "`break`/`continue` outside a loop in function `{fname}`"
                    ));
                } else {
                    let j = self.emit(Op::Jump(0));
                    ctx.breaks.push(j);
                }
            }
            StmtKind::Continue => {
                if ctx.loops.is_empty() {
                    let fname = self.name(self.compiling);
                    self.fail_fmt(format_args!(
                        "`break`/`continue` outside a loop in function `{fname}`"
                    ));
                } else {
                    let start = ctx.loops.last().expect("loop").start;
                    self.emit(Op::Jump(start));
                }
            }
            StmtKind::Expr(e) => {
                self.compile_expr(*e, ctx);
                self.emit(Op::Pop);
            }
        }
    }

    // -- expressions ----------------------------------------------------

    fn compile_expr(&mut self, expr: ExprId, ctx: &mut FnCtx) {
        match self.program.expr(expr).kind {
            ExprKind::Num(n) => {
                let c = self.const_id(Value::Num(n));
                self.emit(Op::Const(c));
            }
            ExprKind::Bool(b) => {
                let c = self.const_id(Value::Bool(b));
                self.emit(Op::Const(c));
            }
            ExprKind::Str(s) => {
                let c = self.const_id(Value::Str(self.program.str(s).to_owned()));
                self.emit(Op::Const(c));
            }
            ExprKind::Var(name) => match ctx.resolve(name) {
                Some(slot) => {
                    self.emit(Op::Load(slot));
                }
                None => {
                    let name = self.name(name);
                    self.fail_fmt(format_args!("undefined variable `{name}`"))
                }
            },
            ExprKind::Array(items) => {
                for &item in self.program.list(items) {
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
                        is_and: op == BinOp::And,
                        skip: 0,
                    });
                    self.compile_expr(rhs, ctx);
                    self.emit(Op::LogicalRhs);
                    self.patch(probe);
                }
                _ => {
                    self.compile_expr(lhs, ctx);
                    self.compile_expr(rhs, ctx);
                    self.emit(Op::Bin(op));
                }
            },
            ExprKind::Call { name, args } => self.compile_call(name, self.program.list(args), ctx),
        }
    }

    fn compile_call(&mut self, sym: Sym, args: &'p [ExprId], ctx: &mut FnCtx) {
        let name = self.name(sym);
        let info = self.syms[sym.index()];
        if !name.starts_with("au_") {
            if let Some(fidx) = info.func {
                for &arg in args {
                    self.compile_expr(arg, ctx);
                }
                let arity = info.arity;
                if args.len() != arity {
                    self.fail_fmt(format_args!(
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
    fn check_arity(&mut self, name: &str, args: &[ExprId], n: usize) -> bool {
        if args.len() == n {
            true
        } else {
            self.fail_fmt(format_args!(
                "`{name}` expects {n} arguments, got {}",
                args.len()
            ));
            false
        }
    }

    fn compile_builtin(&mut self, sym: Sym, args: &'p [ExprId], ctx: &mut FnCtx) {
        let name = self.name(sym);
        match name {
            "au_config" => {
                if args.len() < 4 {
                    self.fail("`au_config` needs model, type, algorithm, layer count");
                    return;
                }
                for &arg in &args[..3] {
                    self.compile_expr(arg, ctx);
                    self.ensure_str(sym);
                }
                self.compile_expr(args[3], ctx);
                self.emit(Op::AuConfigCheck {
                    argc: args.len() as u16,
                });
                let layer_msg = self.fixed_msg(Fixed::Layer);
                for &arg in &args[4..] {
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
                self.compile_expr(args[0], ctx);
                self.ensure_str(sym);
                self.compile_expr(args[1], ctx);
                self.emit(Op::AuExtract);
            }
            "au_serialize" => {
                for &arg in args {
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
                for &arg in args {
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
                self.compile_expr(args[0], ctx);
                self.ensure_str(sym);
                self.compile_expr(args[1], ctx);
                self.ensure_str(sym);
                self.compile_expr(args[2], ctx);
                self.compile_expr(args[3], ctx);
                self.compile_expr(args[4], ctx);
                self.ensure_str(sym);
                self.compile_expr(args[5], ctx);
                self.emit(Op::AuNnRl);
            }
            "au_write_back" => {
                if !self.check_arity(name, args, 1) {
                    return;
                }
                self.compile_expr(args[0], ctx);
                self.ensure_str(sym);
                self.emit(Op::AuWriteBack);
            }
            "au_write_back_n" => {
                if !self.check_arity(name, args, 2) {
                    return;
                }
                self.compile_expr(args[0], ctx);
                self.ensure_str(sym);
                self.compile_expr(args[1], ctx);
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
                self.compile_expr(args[0], ctx);
                self.ensure_str(sym);
                self.emit(Op::MarkInput);
            }
            "mark_target" => {
                if !self.check_arity(name, args, 1) {
                    return;
                }
                self.compile_expr(args[0], ctx);
                self.ensure_str(sym);
                self.emit(Op::MarkTarget);
            }
            "input" => {
                if !self.check_arity(name, args, 2) {
                    return;
                }
                self.compile_expr(args[0], ctx);
                self.ensure_str(sym);
                self.compile_expr(args[1], ctx);
                // Pre-intern literal keys so traced runs use a pooled id
                // with a precomputed relevance bit.
                if let ExprKind::Str(key) = self.program.expr(args[0]).kind {
                    self.key_id(self.program.str(key));
                }
                self.emit(Op::Input);
            }
            "print" => {
                for &arg in args {
                    self.compile_expr(arg, ctx);
                }
                self.emit(Op::Print(args.len() as u16));
            }
            "len" => {
                if !self.check_arity(name, args, 1) {
                    return;
                }
                self.compile_expr(args[0], ctx);
                self.emit(Op::Len);
            }
            "append" => {
                if !self.check_arity(name, args, 2) {
                    return;
                }
                self.compile_expr(args[0], ctx);
                self.compile_expr(args[1], ctx);
                self.emit(Op::Append);
            }
            "floor" | "abs" | "sqrt" | "sin" | "cos" | "exp" => {
                if !self.check_arity(name, args, 1) {
                    return;
                }
                self.compile_expr(args[0], ctx);
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
                self.compile_expr(args[0], ctx);
                self.compile_expr(args[1], ctx);
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
            other => self.fail_fmt(format_args!("unknown function `{other}`")),
        }
    }
}

/// True for RHS calls that designate their destination as a target.
fn is_write_back_call(program: &Program, rhs: ExprId) -> bool {
    matches!(
        program.expr(rhs).kind,
        ExprKind::Call { name, .. }
            if matches!(program.name(name), "au_write_back" | "au_write_back_n" | "au_nn_rl")
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
