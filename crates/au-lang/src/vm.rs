//! The AuLang bytecode VM.
//!
//! Executes a [`CompiledProgram`] with a value stack and a contiguous
//! locals array, semantically bit-identical to the tree-walking
//! [`Interpreter`](crate::Interpreter): same [`Value`] semantics, same
//! `au_*` protocol effects against the embedded [`Engine`], same error
//! messages at the same execution points, same deterministic `rand()`.
//!
//! Tracing is compiled in, not interpreted: the dispatch loop is
//! monomorphized over a `TRACED` flag, and untraced programs contain no
//! trace opcodes at all, so the untraced hot path never maintains the
//! dependence stack. In traced runs a shadow stack of dependence sets
//! (interned name ids) rides alongside the value stack; `TraceAssign` /
//! `NoteUses` opcodes flush it into the [`AnalysisDb`] exactly as the
//! interpreter's `trace_assign` / `note_uses` would.

use crate::ast::BinOp;
use crate::bytecode::{CompiledProgram, Op, TraceKind, TraceMode};
use crate::compile::compile_program;
use crate::parser::parse;
use crate::value::{count_arg, Value};
use crate::{LangError, Program, RunStats};
use au_core::{Checkpoint, Engine, Mode, ModelConfig};
use au_trace::{AnalysisDb, Sym, Symbols};
use std::collections::{BTreeMap, HashMap};

/// Checkpointed program state: per frame, the live `(name id, value)`
/// pairs in outer-to-inner declaration order (innermost last, so
/// name-flattening on restore picks the innermost binding — the
/// interpreter's rule).
type VmSnapshot = Vec<Vec<(u32, Value)>>;

/// A suspended activation record.
#[derive(Debug, Clone, Copy)]
struct FrameRt {
    /// Index into `CompiledProgram::funcs` of the function executing in
    /// this frame.
    func: u16,
    /// Where to resume in the caller.
    ret_ip: usize,
    /// First slot of this frame in the locals array.
    base: usize,
    /// Live set of the *caller* at the call site that created this frame
    /// (used to snapshot the caller's variables from deeper frames).
    caller_live: u32,
}

fn rt(msg: impl Into<String>) -> LangError {
    LangError::Runtime(msg.into())
}

fn vpop(stack: &mut Vec<Value>) -> Value {
    stack.pop().expect("compiler guarantees stack balance")
}

fn dpop(deps: &mut Vec<Vec<u32>>) -> Vec<u32> {
    deps.pop().expect("compiler guarantees dep-stack balance")
}

fn take_str(v: Value) -> String {
    match v {
        Value::Str(s) => s,
        other => unreachable!("EnsureStr guarantees a string, got {}", other.type_name()),
    }
}

/// The non-short-circuit binary operation, shared between `Op::Bin` and
/// the fused superinstructions — one implementation so a fused op and the
/// sequence it replaces agree bit-for-bit (including error messages and
/// the left-before-right type-check order).
fn bin_value(bin: BinOp, l: Value, r: Value) -> Result<Value, LangError> {
    Ok(match bin {
        BinOp::Eq => Value::Bool(l == r),
        BinOp::Ne => Value::Bool(l != r),
        _ => {
            let a = l
                .as_num()
                .ok_or_else(|| rt(format!("arithmetic on {}", l.type_name())))?;
            let b = r
                .as_num()
                .ok_or_else(|| rt(format!("arithmetic on {}", r.type_name())))?;
            match bin {
                BinOp::Add => Value::Num(a + b),
                BinOp::Sub => Value::Num(a - b),
                BinOp::Mul => Value::Num(a * b),
                BinOp::Div => Value::Num(a / b),
                BinOp::Rem => Value::Num(a % b),
                BinOp::Lt => Value::Bool(a < b),
                BinOp::Le => Value::Bool(a <= b),
                BinOp::Gt => Value::Bool(a > b),
                BinOp::Ge => Value::Bool(a >= b),
                BinOp::Eq | BinOp::Ne | BinOp::And | BinOp::Or => unreachable!(),
            }
        }
    })
}

/// Records one traced assignment, exactly like the interpreter's
/// `trace_assign`: sources name-sorted and deduplicated, destination
/// interned first (via `record_assign`), numeric value captured.
fn assign_event(
    analysis: &mut AnalysisDb,
    names: &Symbols,
    stats: &mut RunStats,
    dst: u32,
    deps: &[u32],
    value: &Value,
    func: u32,
) {
    stats.assignments += 1;
    let mut dep_names: Vec<&str> = deps.iter().map(|&id| pooled(names, id)).collect();
    dep_names.sort_unstable();
    dep_names.dedup();
    analysis.record_assign(
        pooled(names, dst),
        &dep_names,
        value.as_num(),
        pooled(names, func),
    );
}

/// Records traced uses, like the interpreter's `note_uses` (name-sorted,
/// deduplicated). Under Selective tracing, provably irrelevant names are
/// skipped — pruned extraction never consults them.
fn uses_event(
    analysis: &mut AnalysisDb,
    names: &Symbols,
    relevant: &[bool],
    selective: bool,
    deps: &[u32],
    func: u32,
) {
    let mut dep_names: Vec<&str> = deps
        .iter()
        .filter(|&&id| !selective || relevant[id as usize])
        .map(|&id| pooled(names, id))
        .collect();
    dep_names.sort_unstable();
    dep_names.dedup();
    let func = pooled(names, func);
    for var in dep_names {
        analysis.record_use(var, func);
    }
}

/// The name of pool id `id`.
fn pooled(names: &Symbols, id: u32) -> &str {
    names.name(Sym::from_index(id as usize))
}

/// Snapshots the live variables of every frame for `au_checkpoint`.
fn build_snapshot(
    prog: &CompiledProgram,
    frames: &[FrameRt],
    locals: &[Value],
    top_live: u32,
) -> VmSnapshot {
    let mut snap = Vec::with_capacity(frames.len());
    for (j, fr) in frames.iter().enumerate() {
        let live = if j + 1 < frames.len() {
            frames[j + 1].caller_live
        } else {
            top_live
        };
        let entries: Vec<(u32, Value)> = prog
            .live_set(live)
            .iter()
            .map(|&(slot, name)| (name, locals[fr.base + slot as usize].clone()))
            .collect();
        snap.push(entries);
    }
    snap
}

/// The AuLang bytecode virtual machine.
///
/// Mirrors the [`Interpreter`](crate::Interpreter)'s public surface
/// (inputs, seed, step limit, output, stats, analysis) so the two engines
/// are drop-in interchangeable; the trace mode is fixed at compile time
/// by [`compile_program`].
#[derive(Debug)]
pub struct Vm {
    prog: CompiledProgram,
    engine: Engine,
    analysis: AnalysisDb,
    inputs: BTreeMap<String, Value>,
    output: Vec<String>,
    stats: RunStats,
    checkpoint: Option<Checkpoint<VmSnapshot>>,
    step_limit: u64,
    rng_state: u64,
    /// Runtime name pool: the compiled pool plus names interned during
    /// execution (computed `input` keys under Full tracing).
    names: Symbols,
    relevant: Vec<bool>,
}

impl Vm {
    /// Parses `src` and compiles it under `mode`.
    ///
    /// # Errors
    ///
    /// Returns lex/parse errors.
    pub fn compile(src: &str, mode: TraceMode) -> Result<Self, LangError> {
        Ok(Vm::with_program(&parse(src)?, mode))
    }

    /// Compiles an already parsed program under `mode`.
    pub fn with_program(program: &Program, mode: TraceMode) -> Self {
        Vm::from_compiled(compile_program(program, mode))
    }

    /// Wraps an already compiled program.
    pub fn from_compiled(prog: CompiledProgram) -> Self {
        let names = prog.names.clone();
        let relevant = prog.relevant.clone();
        Vm {
            prog,
            engine: Engine::new(Mode::Train),
            analysis: AnalysisDb::new(),
            inputs: BTreeMap::new(),
            output: Vec::new(),
            stats: RunStats::default(),
            checkpoint: None,
            step_limit: 10_000_000,
            rng_state: 0x853c_49e6_748f_ea9b,
            names,
            relevant,
        }
    }

    /// The compiled program backing this VM.
    pub fn compiled(&self) -> &CompiledProgram {
        &self.prog
    }

    /// Replaces the embedded engine (e.g. one in TS mode with a model dir).
    pub fn set_engine(&mut self, engine: Engine) {
        self.engine = engine;
    }

    /// The embedded Autonomizer engine.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Mutable access to the embedded engine.
    pub fn engine_mut(&mut self) -> &mut Engine {
        &mut self.engine
    }

    /// The recorded dynamic-analysis facts.
    pub fn analysis(&self) -> &AnalysisDb {
        &self.analysis
    }

    /// Supplies the value returned by `input(name, default)`.
    pub fn set_input(&mut self, name: &str, value: Value) {
        self.inputs.insert(name.to_owned(), value);
    }

    /// Seeds the deterministic `rand()` builtin.
    pub fn set_seed(&mut self, seed: u64) {
        self.rng_state = seed | 1;
    }

    /// Limits executed statements (default 10 million).
    pub fn set_step_limit(&mut self, limit: u64) {
        self.step_limit = limit;
    }

    /// Lines produced by `print`.
    pub fn output(&self) -> &[String] {
        &self.output
    }

    /// Statistics of the most recent run.
    pub fn stats(&self) -> RunStats {
        self.stats
    }

    /// The trace mode requested at compile time.
    pub fn trace_mode(&self) -> TraceMode {
        self.prog.requested_trace_mode()
    }

    /// The trace mode actually compiled (Selective may fall back to Full).
    pub fn effective_trace_mode(&self) -> TraceMode {
        self.prog.effective_trace_mode()
    }

    /// Runs `main`, returning its value.
    ///
    /// # Errors
    ///
    /// Returns [`LangError::Runtime`] for dynamic errors (undefined
    /// variables, type mismatches, step-limit exhaustion) and
    /// [`LangError::Engine`] for primitive failures.
    pub fn run(&mut self) -> Result<Value, LangError> {
        let _s = au_telemetry::span!("aulang_vm_run");
        let _t = au_telemetry::time!("au_lang.vm.run");
        au_telemetry::count!("au_lang.vm.runs");
        self.stats = RunStats::default();
        self.output.clear();
        self.checkpoint = None;
        let result = match self.prog.effective_trace_mode() {
            TraceMode::Off => self.exec::<false>(),
            TraceMode::Full | TraceMode::Selective => self.exec::<true>(),
        };
        au_telemetry::count!("au_lang.vm.steps", self.stats.steps);
        result
    }

    #[allow(clippy::too_many_lines)]
    fn exec<const TRACED: bool>(&mut self) -> Result<Value, LangError> {
        let selective = self.prog.effective_trace_mode() == TraceMode::Selective;
        let main = self.prog.main_func;
        let mut locals: Vec<Value> =
            vec![Value::Unit; self.prog.funcs[main as usize].nlocals as usize];
        let mut stack: Vec<Value> = Vec::with_capacity(16);
        let mut deps: Vec<Vec<u32>> = Vec::new();
        let mut frames: Vec<FrameRt> = vec![FrameRt {
            func: main,
            ret_ip: usize::MAX,
            base: 0,
            caller_live: 0,
        }];
        self.stats.max_depth = 1;
        let mut ip = self.prog.funcs[main as usize].entry as usize;
        let mut cur = main as usize;
        loop {
            let op = self.prog.ops[ip];
            ip += 1;
            match op {
                Op::Step => {
                    self.stats.steps += 1;
                    if self.stats.steps > self.step_limit {
                        return Err(rt("step limit exceeded"));
                    }
                }
                Op::Const(i) => {
                    stack.push(self.prog.consts[i as usize].clone());
                    if TRACED {
                        deps.push(Vec::new());
                    }
                }
                Op::Load(slot) => {
                    let base = frames.last().expect("frame").base;
                    stack.push(locals[base + slot as usize].clone());
                    if TRACED {
                        deps.push(vec![self.prog.slot_names(cur)[slot as usize]]);
                    }
                }
                Op::Store(slot) => {
                    let v = vpop(&mut stack);
                    if TRACED {
                        dpop(&mut deps);
                    }
                    let base = frames.last().expect("frame").base;
                    locals[base + slot as usize] = v;
                }
                Op::Pop => {
                    vpop(&mut stack);
                    if TRACED {
                        dpop(&mut deps);
                    }
                }
                Op::MakeArray(n) => {
                    let items = stack.split_off(stack.len() - n as usize);
                    stack.push(Value::Array(items));
                    if TRACED {
                        let tail = deps.split_off(deps.len() - n as usize);
                        let mut merged = Vec::new();
                        for d in tail {
                            merged.extend(d);
                        }
                        deps.push(merged);
                    }
                }
                Op::IndexGet => {
                    let idx_v = vpop(&mut stack);
                    let target = vpop(&mut stack);
                    if TRACED {
                        let di = dpop(&mut deps);
                        deps.last_mut().expect("dep").extend(di);
                    }
                    let idx = count_arg(&idx_v, "array index", 0)?;
                    match target {
                        Value::Array(items) => match items.get(idx) {
                            Some(v) => stack.push(v.clone()),
                            None => return Err(rt(format!("index {idx} out of bounds"))),
                        },
                        other => return Err(rt(format!("cannot index a {}", other.type_name()))),
                    }
                }
                Op::StoreIndex { slot, name, trace } => {
                    let value = vpop(&mut stack);
                    let idx_v = vpop(&mut stack);
                    let (dv, di) = if TRACED {
                        (dpop(&mut deps), dpop(&mut deps))
                    } else {
                        (Vec::new(), Vec::new())
                    };
                    let idx = count_arg(&idx_v, "array index", 0)?;
                    if TRACED && trace != TraceKind::None {
                        let mut d = di;
                        d.extend(dv);
                        d.push(name);
                        let fname = self.prog.funcs[cur].name;
                        match trace {
                            TraceKind::Assign => assign_event(
                                &mut self.analysis,
                                &self.names,
                                &mut self.stats,
                                name,
                                &d,
                                &value,
                                fname,
                            ),
                            TraceKind::Uses => uses_event(
                                &mut self.analysis,
                                &self.names,
                                &self.relevant,
                                selective,
                                &d,
                                fname,
                            ),
                            TraceKind::None => unreachable!(),
                        }
                    }
                    let base = frames.last().expect("frame").base;
                    match &mut locals[base + slot as usize] {
                        Value::Array(items) => {
                            if idx >= items.len() {
                                return Err(rt(format!(
                                    "index {idx} out of bounds for `{}` of length {}",
                                    pooled(&self.names, name),
                                    items.len()
                                )));
                            }
                            items[idx] = value;
                        }
                        other => {
                            return Err(rt(format!(
                                "cannot index `{}`: {}",
                                pooled(&self.names, name),
                                other.type_name()
                            )))
                        }
                    }
                }
                Op::StoreIndexUndef { name, trace } => {
                    let value = vpop(&mut stack);
                    let idx_v = vpop(&mut stack);
                    let (dv, di) = if TRACED {
                        (dpop(&mut deps), dpop(&mut deps))
                    } else {
                        (Vec::new(), Vec::new())
                    };
                    count_arg(&idx_v, "array index", 0)?;
                    if TRACED && trace != TraceKind::None {
                        let mut d = di;
                        d.extend(dv);
                        d.push(name);
                        let fname = self.prog.funcs[cur].name;
                        match trace {
                            TraceKind::Assign => assign_event(
                                &mut self.analysis,
                                &self.names,
                                &mut self.stats,
                                name,
                                &d,
                                &value,
                                fname,
                            ),
                            TraceKind::Uses => uses_event(
                                &mut self.analysis,
                                &self.names,
                                &self.relevant,
                                selective,
                                &d,
                                fname,
                            ),
                            TraceKind::None => unreachable!(),
                        }
                    }
                    return Err(rt(format!(
                        "assignment to undefined variable `{}`",
                        pooled(&self.names, name)
                    )));
                }
                Op::Bin(bin) => {
                    let r = vpop(&mut stack);
                    let l = vpop(&mut stack);
                    if TRACED {
                        let dr = dpop(&mut deps);
                        deps.last_mut().expect("dep").extend(dr);
                    }
                    stack.push(bin_value(bin, l, r)?);
                }
                Op::LoadLoadBin { a, b, op } => {
                    let base = frames.last().expect("frame").base;
                    let l = locals[base + a as usize].clone();
                    let r = locals[base + b as usize].clone();
                    if TRACED {
                        let sn = self.prog.slot_names(cur);
                        deps.push(vec![sn[a as usize], sn[b as usize]]);
                    }
                    stack.push(bin_value(op, l, r)?);
                }
                Op::LoadConstBin { slot, cidx, op } => {
                    let base = frames.last().expect("frame").base;
                    let l = locals[base + slot as usize].clone();
                    let r = self.prog.consts[cidx as usize].clone();
                    if TRACED {
                        deps.push(vec![self.prog.slot_names(cur)[slot as usize]]);
                    }
                    stack.push(bin_value(op, l, r)?);
                }
                Op::ConstBin { cidx, op } => {
                    // The constant contributes no deps, so the traced dep
                    // stack is untouched (push-empty + merge is a no-op).
                    let r = self.prog.consts[cidx as usize].clone();
                    let l = vpop(&mut stack);
                    stack.push(bin_value(op, l, r)?);
                }
                Op::Neg => {
                    let v = vpop(&mut stack);
                    let n = v.as_num().ok_or_else(|| rt("unary `-` needs a number"))?;
                    stack.push(Value::Num(-n));
                }
                Op::Not => {
                    let v = vpop(&mut stack);
                    let b = v.as_bool().ok_or_else(|| rt("unary `!` needs a boolean"))?;
                    stack.push(Value::Bool(!b));
                }
                Op::ShortCircuit { is_and, skip } => {
                    let v = vpop(&mut stack);
                    let l = v
                        .as_bool()
                        .ok_or_else(|| rt("logical operand must be boolean"))?;
                    let short = if is_and { !l } else { l };
                    if short {
                        stack.push(Value::Bool(l));
                        ip = skip as usize;
                    }
                    // Not short: fall through to the rhs code; the lhs dep
                    // set stays pending for LogicalRhs.
                }
                Op::LogicalRhs => {
                    let v = vpop(&mut stack);
                    let r = v
                        .as_bool()
                        .ok_or_else(|| rt("logical operand must be boolean"))?;
                    stack.push(Value::Bool(r));
                    if TRACED {
                        let dr = dpop(&mut deps);
                        deps.last_mut().expect("dep").extend(dr);
                    }
                }
                Op::Jump(t) => {
                    ip = t as usize;
                }
                Op::BranchFalse { target, msg } => {
                    let v = vpop(&mut stack);
                    if TRACED {
                        dpop(&mut deps);
                    }
                    let b = v.as_bool().ok_or_else(|| rt(self.prog.msg(msg)))?;
                    if !b {
                        ip = target as usize;
                    }
                }
                Op::Call { func, live } => {
                    let fi = &self.prog.funcs[func as usize];
                    if frames.len() >= 64 {
                        return Err(rt(format!(
                            "call depth limit (64) exceeded in `{}` — runaway recursion?",
                            pooled(&self.names, fi.name)
                        )));
                    }
                    let argc = fi.nparams as usize;
                    let base = locals.len();
                    locals.resize(base + fi.nlocals as usize, Value::Unit);
                    for i in (0..argc).rev() {
                        locals[base + i] = vpop(&mut stack);
                    }
                    frames.push(FrameRt {
                        func,
                        ret_ip: ip,
                        base,
                        caller_live: live,
                    });
                    if frames.len() > self.stats.max_depth {
                        self.stats.max_depth = frames.len();
                    }
                    cur = func as usize;
                    ip = fi.entry as usize;
                    if TRACED {
                        // Parameter binding traces, in parameter order,
                        // attributed to the callee — the interpreter's
                        // exact event sequence.
                        let tail = deps.split_off(deps.len() - argc);
                        let fname = self.prog.funcs[cur].name;
                        for (i, d) in tail.iter().enumerate() {
                            assign_event(
                                &mut self.analysis,
                                &self.names,
                                &mut self.stats,
                                self.prog.params(cur)[i],
                                d,
                                &locals[base + i],
                                fname,
                            );
                        }
                    }
                }
                Op::Ret => {
                    let fr = frames.pop().expect("frame");
                    locals.truncate(fr.base);
                    if frames.is_empty() {
                        return Ok(vpop(&mut stack));
                    }
                    ip = fr.ret_ip;
                    cur = frames.last().expect("frame").func as usize;
                }
                Op::RetUnit => {
                    stack.push(Value::Unit);
                    if TRACED {
                        deps.push(Vec::new());
                    }
                    let fr = frames.pop().expect("frame");
                    locals.truncate(fr.base);
                    if frames.is_empty() {
                        return Ok(vpop(&mut stack));
                    }
                    ip = fr.ret_ip;
                    cur = frames.last().expect("frame").func as usize;
                }
                Op::Fail(m) => {
                    return Err(rt(self.prog.msg(m)));
                }
                Op::EnsureStr(m) => {
                    if !matches!(stack.last(), Some(Value::Str(_))) {
                        return Err(rt(self.prog.msg(m)));
                    }
                }
                Op::EnsureNum(m) => {
                    if stack.last().and_then(Value::as_num).is_none() {
                        return Err(rt(self.prog.msg(m)));
                    }
                }
                Op::NoteUses => {
                    if TRACED {
                        let d = deps.last().expect("dep");
                        uses_event(
                            &mut self.analysis,
                            &self.names,
                            &self.relevant,
                            selective,
                            d,
                            self.prog.funcs[cur].name,
                        );
                    }
                }
                Op::TraceAssign { name } => {
                    if TRACED {
                        let d = deps.last().expect("dep");
                        let v = stack.last().expect("value");
                        assign_event(
                            &mut self.analysis,
                            &self.names,
                            &mut self.stats,
                            name,
                            d,
                            v,
                            self.prog.funcs[cur].name,
                        );
                    }
                }
                Op::MarkTargetName(name) => {
                    self.analysis.mark_target(pooled(&self.names, name));
                }
                Op::MarkInput => {
                    let v = vpop(&mut stack);
                    if TRACED {
                        dpop(&mut deps);
                    }
                    self.analysis.mark_input(&take_str(v));
                    stack.push(Value::Unit);
                    if TRACED {
                        deps.push(Vec::new());
                    }
                }
                Op::MarkTarget => {
                    let v = vpop(&mut stack);
                    if TRACED {
                        dpop(&mut deps);
                    }
                    self.analysis.mark_target(&take_str(v));
                    stack.push(Value::Unit);
                    if TRACED {
                        deps.push(Vec::new());
                    }
                }
                Op::Input => {
                    let default = vpop(&mut stack);
                    let key = take_str(vpop(&mut stack));
                    if TRACED {
                        // Both the key's and the default's deps are
                        // discarded — the result depends on the input
                        // name alone (the interpreter's rule).
                        dpop(&mut deps);
                        dpop(&mut deps);
                    }
                    let value = self.inputs.get(&key).cloned().unwrap_or(default);
                    // Input marking and value recording are unconditional,
                    // exactly like the interpreter (they fire with tracing
                    // off too).
                    self.analysis.mark_input(&key);
                    if let Some(n) = value.as_num() {
                        self.analysis.record_value(&key, n);
                    }
                    stack.push(value);
                    if TRACED {
                        let id = self.names.intern(&key).index();
                        if id == self.relevant.len() {
                            // Runtime names only appear under Full
                            // tracing, where everything is relevant.
                            self.relevant.push(true);
                        }
                        deps.push(vec![id as u32]);
                    }
                }
                Op::Print(n) => {
                    let parts: Vec<String> = stack
                        .split_off(stack.len() - n as usize)
                        .iter()
                        .map(Value::to_string)
                        .collect();
                    if TRACED {
                        deps.truncate(deps.len() - n as usize);
                    }
                    self.output.push(parts.join(" "));
                    stack.push(Value::Unit);
                    if TRACED {
                        deps.push(Vec::new());
                    }
                }
                Op::Len => {
                    let v = vpop(&mut stack);
                    let out = match v {
                        Value::Array(items) => Value::Num(items.len() as f64),
                        Value::Str(s) => Value::Num(s.len() as f64),
                        other => return Err(rt(format!("`len` of {}", other.type_name()))),
                    };
                    stack.push(out);
                    // The argument's dep set carries through to the result.
                }
                Op::Append => {
                    let item = vpop(&mut stack);
                    let arr = vpop(&mut stack);
                    if TRACED {
                        let di = dpop(&mut deps);
                        deps.last_mut().expect("dep").extend(di);
                    }
                    match arr {
                        Value::Array(mut items) => {
                            items.push(item);
                            stack.push(Value::Array(items));
                        }
                        other => return Err(rt(format!("`append` to {}", other.type_name()))),
                    }
                }
                Op::Math1(f) => {
                    let v = vpop(&mut stack);
                    let x = v
                        .as_num()
                        .ok_or_else(|| rt(format!("`{}` needs a number", f.name())))?;
                    stack.push(Value::Num(f.apply(x)));
                }
                Op::Math2 { is_min } => {
                    let b_v = vpop(&mut stack);
                    let a_v = vpop(&mut stack);
                    if TRACED {
                        let db = dpop(&mut deps);
                        deps.last_mut().expect("dep").extend(db);
                    }
                    let name = if is_min { "min" } else { "max" };
                    let a = a_v
                        .as_num()
                        .ok_or_else(|| rt(format!("`{name}` needs numbers")))?;
                    let b = b_v
                        .as_num()
                        .ok_or_else(|| rt(format!("`{name}` needs numbers")))?;
                    stack.push(Value::Num(if is_min { a.min(b) } else { a.max(b) }));
                }
                Op::Rand => {
                    // xorshift64* — deterministic under set_seed, identical
                    // to the interpreter's stream.
                    let mut x = self.rng_state;
                    x ^= x >> 12;
                    x ^= x << 25;
                    x ^= x >> 27;
                    self.rng_state = x;
                    let r =
                        (x.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 11) as f64 / (1u64 << 53) as f64;
                    stack.push(Value::Num(r));
                    if TRACED {
                        deps.push(Vec::new());
                    }
                }
                Op::AuConfigCheck { argc } => {
                    let layer_count = count_arg(stack.last().expect("value"), "layer count", 0)?;
                    if argc as usize != 4 + layer_count {
                        return Err(rt(format!(
                            "`au_config` declared {layer_count} layers but listed {}",
                            argc as usize - 4
                        )));
                    }
                }
                Op::AuConfig { layers } => {
                    let mut widths = Vec::with_capacity(layers as usize);
                    for _ in 0..layers {
                        widths.push(vpop(&mut stack));
                        if TRACED {
                            dpop(&mut deps);
                        }
                    }
                    widths.reverse();
                    let hidden = widths
                        .iter()
                        .map(|v| count_arg(v, "layer size", 1))
                        .collect::<Result<Vec<_>, _>>()?;
                    vpop(&mut stack); // layer count, validated by AuConfigCheck
                    let algo = take_str(vpop(&mut stack));
                    let kind = take_str(vpop(&mut stack));
                    let model = take_str(vpop(&mut stack));
                    if TRACED {
                        for _ in 0..4 {
                            dpop(&mut deps);
                        }
                    }
                    let config = match (kind.as_str(), algo.as_str()) {
                        ("DNN", "AdamOpt") => ModelConfig::dnn(&hidden),
                        ("DNN", "QLearn") => ModelConfig::q_dnn(&hidden),
                        other => {
                            return Err(rt(format!(
                                "unsupported model configuration {other:?} (AuLang supports DNN with AdamOpt or QLearn)"
                            )))
                        }
                    };
                    self.engine.au_config(&model, config)?;
                    stack.push(Value::Unit);
                    if TRACED {
                        deps.push(Vec::new());
                    }
                }
                Op::AuExtract => {
                    let v = vpop(&mut stack);
                    let dv = if TRACED { dpop(&mut deps) } else { Vec::new() };
                    let ext = take_str(vpop(&mut stack));
                    if TRACED {
                        dpop(&mut deps);
                    }
                    let mut nums = Vec::new();
                    v.flatten_nums(&mut nums);
                    self.engine.au_extract(&ext, &nums);
                    if TRACED {
                        uses_event(
                            &mut self.analysis,
                            &self.names,
                            &self.relevant,
                            selective,
                            &dv,
                            self.prog.funcs[cur].name,
                        );
                    }
                    stack.push(Value::Unit);
                    if TRACED {
                        deps.push(Vec::new());
                    }
                }
                Op::AuSerialize { argc } => {
                    let mut strs = Vec::with_capacity(argc as usize);
                    for _ in 0..argc {
                        strs.push(take_str(vpop(&mut stack)));
                        if TRACED {
                            dpop(&mut deps);
                        }
                    }
                    strs.reverse();
                    let refs: Vec<&str> = strs.iter().map(String::as_str).collect();
                    let combined = self.engine.au_serialize(&refs);
                    stack.push(Value::Str(combined));
                    if TRACED {
                        deps.push(Vec::new());
                    }
                }
                Op::AuNn { argc } => {
                    let mut strs = Vec::with_capacity(argc as usize);
                    for _ in 0..argc {
                        strs.push(take_str(vpop(&mut stack)));
                        if TRACED {
                            dpop(&mut deps);
                        }
                    }
                    strs.reverse();
                    let wb_refs: Vec<&str> = strs[2..].iter().map(String::as_str).collect();
                    let out = self.engine.au_nn(&strs[0], &strs[1], &wb_refs)?;
                    stack.push(Value::Array(out.into_iter().map(Value::Num).collect()));
                    if TRACED {
                        deps.push(Vec::new());
                    }
                }
                Op::AuNnRl => {
                    let n_v = vpop(&mut stack);
                    let wb = take_str(vpop(&mut stack));
                    let term_v = vpop(&mut stack);
                    let reward_v = vpop(&mut stack);
                    let ext = take_str(vpop(&mut stack));
                    let model = take_str(vpop(&mut stack));
                    if TRACED {
                        dpop(&mut deps); // n_actions
                        dpop(&mut deps); // wb
                        let dterm = dpop(&mut deps);
                        let dreward = dpop(&mut deps);
                        dpop(&mut deps); // ext
                        dpop(&mut deps); // model
                        let fname = self.prog.funcs[cur].name;
                        uses_event(
                            &mut self.analysis,
                            &self.names,
                            &self.relevant,
                            selective,
                            &dreward,
                            fname,
                        );
                        uses_event(
                            &mut self.analysis,
                            &self.names,
                            &self.relevant,
                            selective,
                            &dterm,
                            fname,
                        );
                    }
                    let reward = reward_v
                        .as_num()
                        .ok_or_else(|| rt("reward must be a number"))?;
                    let terminal = match term_v {
                        Value::Bool(b) => b,
                        Value::Num(n) => n != 0.0,
                        other => {
                            return Err(rt(format!(
                                "terminal flag must be boolean or number, got {}",
                                other.type_name()
                            )))
                        }
                    };
                    let n_actions = count_arg(&n_v, "action count", 1)?;
                    let action = self
                        .engine
                        .au_nn_rl(&model, &ext, reward, terminal, &wb, n_actions)?;
                    stack.push(Value::Num(action as f64));
                    if TRACED {
                        deps.push(Vec::new());
                    }
                }
                Op::AuWriteBack => {
                    let key = take_str(vpop(&mut stack));
                    if TRACED {
                        dpop(&mut deps);
                    }
                    let v = self.engine.au_write_back_scalar(&key)?;
                    stack.push(Value::Num(v));
                    if TRACED {
                        deps.push(Vec::new());
                    }
                }
                Op::AuWriteBackN => {
                    let n_v = vpop(&mut stack);
                    let key = take_str(vpop(&mut stack));
                    if TRACED {
                        dpop(&mut deps);
                        dpop(&mut deps);
                    }
                    let n = count_arg(&n_v, "size", 0)?;
                    let buf = self.engine.au_write_back_n(&key, n)?;
                    stack.push(Value::Array(buf.into_iter().map(Value::Num).collect()));
                    if TRACED {
                        deps.push(Vec::new());
                    }
                }
                Op::AuCheckpoint { live } => {
                    let snap = build_snapshot(&self.prog, &frames, &locals, live);
                    self.checkpoint = Some(self.engine.checkpoint_with(&snap));
                    stack.push(Value::Unit);
                    if TRACED {
                        deps.push(Vec::new());
                    }
                }
                Op::AuRestore { live } => {
                    let ckpt = self
                        .checkpoint
                        .clone()
                        .ok_or_else(|| rt("au_restore without au_checkpoint"))?;
                    // Restore π, then overwrite the values of every live
                    // variable that existed at checkpoint time, keeping the
                    // current frame structure intact. The snapshot is
                    // flattened by name (innermost binding wins), matching
                    // the interpreter.
                    let snap = self.engine.restore_with(&ckpt);
                    let mut by_name: HashMap<u32, Value> = HashMap::new();
                    for frame_entries in &snap {
                        for (name, value) in frame_entries {
                            by_name.insert(*name, value.clone());
                        }
                    }
                    for (j, fr) in frames.iter().enumerate() {
                        let lv = if j + 1 < frames.len() {
                            frames[j + 1].caller_live
                        } else {
                            live
                        };
                        for &(slot, name) in self.prog.live_set(lv) {
                            if let Some(saved) = by_name.get(&name) {
                                locals[fr.base + slot as usize] = saved.clone();
                            }
                        }
                    }
                    stack.push(Value::Unit);
                    if TRACED {
                        deps.push(Vec::new());
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Interpreter;

    /// A program without exactly one `main` cannot be built, so neither
    /// engine can be handed one; what the builder accepts, both run.
    #[test]
    fn only_programs_with_one_main_reach_the_engines() {
        use crate::{ExprKind, Function, ProgramBuilder, Span, StmtKind};
        assert!(matches!(
            ProgramBuilder::new().build(),
            Err(LangError::Parse { line: 0, .. })
        ));
        let mut b = ProgramBuilder::new();
        let main = b.intern("main");
        let seven = b.expr(ExprKind::Num(7.0), Span::DUMMY);
        let program = b
            .function(Function {
                name: main,
                params: Vec::new(),
                body: vec![StmtKind::Return(Some(seven)).into()],
                span: Span::DUMMY,
            })
            .build()
            .expect("one main");
        for mode in [TraceMode::Off, TraceMode::Full, TraceMode::Selective] {
            let mut vm = Vm::from_compiled(compile_program(&program, mode));
            assert_eq!(vm.run().unwrap(), Value::Num(7.0), "{mode:?}");
        }
        let mut interp = Interpreter::with_program(program);
        assert_eq!(interp.run().unwrap(), Value::Num(7.0));
    }

    /// Runs `src` through the interpreter and the VM (in `mode`) and
    /// asserts identical results, output, and step/depth stats.
    fn differential(src: &str, mode: TraceMode) -> (Interpreter, Vm) {
        let mut interp = Interpreter::compile(src).unwrap();
        interp.set_tracing(mode != TraceMode::Off);
        let mut vm = Vm::compile(src, mode).unwrap();
        let i = interp.run();
        let v = vm.run();
        match (&i, &v) {
            (Ok(a), Ok(b)) => assert_eq!(a, b, "result mismatch"),
            (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string(), "error mismatch"),
            other => panic!("engines disagree: {other:?}"),
        }
        assert_eq!(interp.output(), vm.output(), "output mismatch");
        assert_eq!(interp.stats().steps, vm.stats().steps, "step mismatch");
        assert_eq!(
            interp.stats().max_depth,
            vm.stats().max_depth,
            "depth mismatch"
        );
        if mode == TraceMode::Full {
            assert_eq!(
                interp.stats().assignments,
                vm.stats().assignments,
                "assignment-count mismatch"
            );
            assert_eq!(
                interp.analysis().to_dot(),
                vm.analysis().to_dot(),
                "analysis db mismatch"
            );
        }
        (interp, vm)
    }

    fn check(src: &str) {
        differential(src, TraceMode::Off);
        differential(src, TraceMode::Full);
        differential(src, TraceMode::Selective);
    }

    #[test]
    fn arithmetic_and_loops_match() {
        check(
            "fn main() { let s = 0; let i = 0; while (i < 5) { i = i + 1; s = s + i; } return s; }",
        );
    }

    #[test]
    fn for_sugar_and_shadowing_match() {
        check(
            "fn main() { let s = 0; for (let i = 0; i < 5; i = i + 1) { let s2 = i * 2; s = s + s2; } return s; }",
        );
    }

    #[test]
    fn functions_recursion_and_depth_match() {
        check("fn fib(n) { if (n < 2) { return n; } return fib(n - 1) + fib(n - 2); } fn main() { return fib(10); }");
        check("fn f(n) { return f(n + 1); } fn main() { return f(0); }");
    }

    #[test]
    fn arrays_and_index_assignment_match() {
        check("fn main() { let a = [1, 2, 3]; a[1] = 10; return a[0] + a[1] + a[2]; }");
        check("fn main() { let a = [1]; a[5] = 2; return 0; }");
        check("fn main() { let a = 3; a[0] = 1; return 0; }");
        check("fn main() { b[0] = 1; return 0; }");
    }

    #[test]
    fn error_paths_match() {
        check("fn main() { return nope; }");
        check("fn main() { nope = 1; return 0; }");
        check("fn main() { return 1 + true; }");
        check("fn main() { return unknown_fn(1); }");
        check("fn main() { if (3) { return 1; } return 0; }");
        check("fn main() { while (3) { } return 0; }");
        check("fn main() { return -true; }");
        check("fn main() { return !3; }");
        check("fn main() { return true && 3; }");
        check("fn main() { return [1][2]; }");
        check("fn main() { return [1][true]; }");
        check("fn main() { return 3[0]; }");
        check("fn main() { break; }");
        check("fn f() { continue; return 0; } fn main() { return f(); }");
        check("fn f(a, b) { return a; } fn main() { return f(1); }");
        check("fn main() { return len(3); }");
        check("fn main() { return append(3, 1); }");
        check("fn main() { return floor(true); }");
        check("fn main() { return min(1, true); }");
        check("fn main() { return au_restore(); }");
        check("fn main() { au_config(\"M\", \"DNN\", \"AdamOpt\", 2, 4); return 0; }");
        check("fn main() { au_config(\"M\", \"CNN\", \"AdamOpt\", 1, 4); return 0; }");
        check("fn main() { au_config(\"M\", \"DNN\", \"AdamOpt\", true, 4); return 0; }");
        check("fn main() { au_config(\"M\"); return 0; }");
        check("fn main() { au_extract(3, 1); return 0; }");
        check("fn main() { return rand(1); }");
        check("fn main() { return input(\"k\"); }");
    }

    #[test]
    fn short_circuit_semantics_match() {
        check("fn main() { let x = 0; if (false && nope_is_not_evaluated_lazily()) { x = 1; } return x; }");
        check("fn main() { if (true || 3) { return 1; } return 0; }");
        check(
            "fn main() { let a = 1; let b = 2; if (a < b && b < 3) { return a + b; } return 0; }",
        );
    }

    #[test]
    fn builtins_and_rand_stream_match() {
        check("fn main() { return [len([1, 2]), len(\"abc\"), floor(2.7), abs(0 - 3), min(4, 2), max(4, 2)]; }");
        let src = "fn main() { let s = 0; let i = 0; while (i < 10) { s = s + rand(); i = i + 1; } return s; }";
        let mut interp = Interpreter::compile(src).unwrap();
        interp.set_seed(42);
        let mut vm = Vm::compile(src, TraceMode::Off).unwrap();
        vm.set_seed(42);
        assert_eq!(interp.run().unwrap(), vm.run().unwrap());
    }

    #[test]
    fn step_limit_matches() {
        let src = "fn main() { let i = 0; while (true) { i = i + 1; } return i; }";
        let mut interp = Interpreter::compile(src).unwrap();
        interp.set_step_limit(1000);
        let mut vm = Vm::compile(src, TraceMode::Off).unwrap();
        vm.set_step_limit(1000);
        let a = interp.run().unwrap_err();
        let b = vm.run().unwrap_err();
        assert_eq!(a.to_string(), b.to_string());
        assert_eq!(interp.stats().steps, vm.stats().steps);
    }

    #[test]
    fn inputs_flow_and_analysis_matches() {
        let src = r#"
            fn main() {
                let raw = input("raw", 10);
                let scaled = raw / 10.0;
                let derived = scaled * scaled;
                au_extract("D", derived);
                let out = 0;
                out = au_write_back("D");
                return out;
            }
        "#;
        let mut interp = Interpreter::compile(src).unwrap();
        interp.set_input("raw", Value::Num(5.0));
        let mut vm = Vm::compile(src, TraceMode::Full).unwrap();
        vm.set_input("raw", Value::Num(5.0));
        assert_eq!(interp.run().unwrap(), vm.run().unwrap());
        assert_eq!(interp.analysis().to_dot(), vm.analysis().to_dot());
    }

    #[test]
    fn checkpoint_restore_matches() {
        let src = r#"
            fn main() {
                let x = 1;
                let log = [];
                au_checkpoint();
                x = x + 1;
                log = append(log, x);
                if (x < 3) { au_restore(); }
                return [x, len(log)];
            }
        "#;
        // The restore loop: x rolls back to 1, log rolls back too, so the
        // program loops until the step budget — bound it identically.
        let mut interp = Interpreter::compile(src).unwrap();
        interp.set_step_limit(500);
        let mut vm = Vm::compile(src, TraceMode::Full).unwrap();
        vm.set_step_limit(500);
        let a = interp.run();
        let b = vm.run();
        match (&a, &b) {
            (Ok(x), Ok(y)) => assert_eq!(x, y),
            (Err(x), Err(y)) => assert_eq!(x.to_string(), y.to_string()),
            other => panic!("engines disagree: {other:?}"),
        }
        assert_eq!(interp.stats().steps, vm.stats().steps);
    }

    #[test]
    fn untraced_program_has_zero_trace_ops() {
        let prog = compile_program(&parse(crate::corpus::CANNY).unwrap(), TraceMode::Off);
        assert_eq!(prog.trace_op_count(), 0);
        let full = compile_program(&parse(crate::corpus::CANNY).unwrap(), TraceMode::Full);
        let selective =
            compile_program(&parse(crate::corpus::CANNY).unwrap(), TraceMode::Selective);
        assert!(full.trace_op_count() > 0);
        assert!(
            selective.trace_op_count() < full.trace_op_count(),
            "selective ({}) should emit fewer trace ops than full ({})",
            selective.trace_op_count(),
            full.trace_op_count()
        );
        assert_eq!(selective.effective_trace_mode(), TraceMode::Selective);
    }

    #[test]
    fn selective_falls_back_to_full_on_computed_names() {
        let src = r#"
            fn main() {
                let k = "dyn";
                let v = input(k, 1);
                return v;
            }
        "#;
        let prog = compile_program(&parse(src).unwrap(), TraceMode::Selective);
        assert_eq!(prog.requested_trace_mode(), TraceMode::Selective);
        assert_eq!(prog.effective_trace_mode(), TraceMode::Full);
    }
}
