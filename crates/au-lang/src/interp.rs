//! The AuLang tracing interpreter.
//!
//! Executes a [`Program`] while (a) servicing the `au_*` primitives through
//! an embedded [`au_core::Engine`] and (b) recording every executed
//! assignment into an [`au_trace::AnalysisDb`] — def/use dependence edges,
//! runtime values, and enclosing function names. The recorded facts are
//! exactly what Algorithms 1–2 consume, so feature extraction works on any
//! AuLang program with no further annotation.

use crate::ast::{BinOp, ExprId, ExprKind, Function, Program, Stmt, StmtKind, Sym, UnOp};
use crate::parser::parse;
use crate::value::{count_arg, Value};
use crate::LangError;
use au_core::{Checkpoint, Engine, Mode, ModelConfig};
use au_trace::AnalysisDb;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

/// Variables read while evaluating an expression (for dependence edges).
type Deps = BTreeSet<String>;

/// Execution statistics for a finished run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Statements executed.
    pub steps: u64,
    /// Assignments recorded into the analysis database.
    pub assignments: u64,
    /// Deepest call-stack depth reached.
    pub max_depth: usize,
}

#[derive(Debug, Clone)]
struct Frame {
    func: Sym,
    scopes: Vec<HashMap<String, Value>>,
}

impl Frame {
    fn lookup(&self, name: &str) -> Option<&Value> {
        self.scopes.iter().rev().find_map(|s| s.get(name))
    }

    fn lookup_mut(&mut self, name: &str) -> Option<&mut Value> {
        self.scopes.iter_mut().rev().find_map(|s| s.get_mut(name))
    }
}

enum Flow {
    Normal,
    Break,
    Continue,
    Return(Value, Deps),
}

/// The AuLang interpreter with Autonomizer runtime and dynamic tracing.
#[derive(Debug)]
pub struct Interpreter {
    /// Shared with each run, which reads names and bodies through it
    /// while it mutates the interpreter.
    program: Arc<Program>,
    engine: Engine,
    analysis: AnalysisDb,
    inputs: BTreeMap<String, Value>,
    frames: Vec<Frame>,
    output: Vec<String>,
    stats: RunStats,
    checkpoint: Option<Checkpoint<Vec<Frame>>>,
    step_limit: u64,
    rng_state: u64,
    /// When false, tracing is skipped (useful for long training loops after
    /// the dependence graph has been collected).
    tracing: bool,
}

impl Interpreter {
    /// Parses `src` and prepares an interpreter in training mode.
    ///
    /// # Errors
    ///
    /// Returns lex/parse errors.
    pub fn compile(src: &str) -> Result<Self, LangError> {
        Ok(Interpreter::with_program(parse(src)?))
    }

    /// Wraps an already parsed program.
    pub fn with_program(program: Program) -> Self {
        Interpreter {
            program: Arc::new(program),
            engine: Engine::new(Mode::Train),
            analysis: AnalysisDb::new(),
            inputs: BTreeMap::new(),
            frames: Vec::new(),
            output: Vec::new(),
            stats: RunStats::default(),
            checkpoint: None,
            step_limit: 10_000_000,
            rng_state: 0x853c_49e6_748f_ea9b,
            tracing: true,
        }
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

    /// Enables or disables dependence tracing.
    pub fn set_tracing(&mut self, on: bool) {
        self.tracing = on;
    }

    /// Lines produced by `print`.
    pub fn output(&self) -> &[String] {
        &self.output
    }

    /// Statistics of the most recent run.
    pub fn stats(&self) -> RunStats {
        self.stats
    }

    /// Runs `main`, returning its value.
    ///
    /// # Errors
    ///
    /// Returns [`LangError::Runtime`] for dynamic errors (undefined
    /// variables, type mismatches, step-limit exhaustion) and
    /// [`LangError::Engine`] for primitive failures.
    pub fn run(&mut self) -> Result<Value, LangError> {
        let _s = au_telemetry::span!("aulang_run");
        let _t = au_telemetry::time!("au_lang.run");
        au_telemetry::count!("au_lang.runs");
        self.stats = RunStats::default();
        self.output.clear();
        self.frames.clear();
        self.checkpoint = None;
        let program = Arc::clone(&self.program);
        let p = &*program;
        let main = p.function("main").expect("a built program has one `main`");
        let (value, _) = self.call_function(p, main, Vec::new())?;
        au_telemetry::count!("au_lang.steps", self.stats.steps);
        Ok(value)
    }

    fn err(&self, message: impl Into<String>) -> LangError {
        LangError::Runtime(message.into())
    }

    /// The name of the function executing now.
    fn current_func<'p>(&self, p: &'p Program) -> &'p str {
        self.frames.last().map_or("main", |f| p.name(f.func))
    }

    fn trace_assign(&mut self, p: &Program, dst: &str, deps: &Deps, value: &Value) {
        if !self.tracing {
            return;
        }
        self.stats.assignments += 1;
        let func = self.current_func(p);
        let dep_refs: Vec<&str> = deps.iter().map(String::as_str).collect();
        self.analysis
            .record_assign(dst, &dep_refs, value.as_num(), func);
    }

    fn call_function(
        &mut self,
        p: &Program,
        func: &Function,
        args: Vec<(Value, Deps)>,
    ) -> Result<(Value, Deps), LangError> {
        let name = p.name(func.name);
        if args.len() != func.params.len() {
            return Err(self.err(format!(
                "function `{name}` expects {} arguments, got {}",
                func.params.len(),
                args.len()
            )));
        }
        if self.frames.len() >= 64 {
            return Err(self.err(format!(
                "call depth limit (64) exceeded in `{name}` — runaway recursion?"
            )));
        }
        let mut scope = HashMap::new();
        self.frames.push(Frame {
            func: func.name,
            scopes: vec![HashMap::new()],
        });
        self.stats.max_depth = self.stats.max_depth.max(self.frames.len());
        for (&param, (value, deps)) in func.params.iter().zip(args) {
            let param = p.name(param);
            self.trace_assign(p, param, &deps, &value);
            scope.insert(param.to_owned(), value);
        }
        self.frames.last_mut().expect("just pushed").scopes[0] = scope;
        let flow = self.exec_block(p, &func.body)?;
        self.frames.pop();
        match flow {
            Flow::Return(value, deps) => Ok((value, deps)),
            Flow::Break | Flow::Continue => Err(self.err(format!(
                "`break`/`continue` outside a loop in function `{name}`"
            ))),
            Flow::Normal => Ok((Value::Unit, Deps::new())),
        }
    }

    fn exec_block(&mut self, p: &Program, stmts: &[Stmt]) -> Result<Flow, LangError> {
        self.frames
            .last_mut()
            .expect("block inside a frame")
            .scopes
            .push(HashMap::new());
        let mut flow = Flow::Normal;
        for stmt in stmts {
            flow = self.exec_stmt(p, stmt)?;
            if !matches!(flow, Flow::Normal) {
                break;
            }
        }
        self.frames
            .last_mut()
            .expect("block inside a frame")
            .scopes
            .pop();
        Ok(flow)
    }

    fn exec_stmt(&mut self, p: &Program, stmt: &Stmt) -> Result<Flow, LangError> {
        self.stats.steps += 1;
        if self.stats.steps > self.step_limit {
            return Err(self.err("step limit exceeded"));
        }
        match &stmt.kind {
            StmtKind::Let { name, init } => {
                let name = p.name(*name);
                let (value, deps) = self.eval(p, *init)?;
                self.mark_target_if_write_back(p, name, *init);
                self.trace_assign(p, name, &deps, &value);
                self.frames
                    .last_mut()
                    .expect("frame")
                    .scopes
                    .last_mut()
                    .expect("scope")
                    .insert(name.to_owned(), value);
                Ok(Flow::Normal)
            }
            StmtKind::Assign { name, value } => {
                let name = p.name(*name);
                let (value_v, deps) = self.eval(p, *value)?;
                self.mark_target_if_write_back(p, name, *value);
                self.trace_assign(p, name, &deps, &value_v);
                let frame = self.frames.last_mut().expect("frame");
                match frame.lookup_mut(name) {
                    Some(slot) => {
                        *slot = value_v;
                        Ok(Flow::Normal)
                    }
                    None => Err(self.err(format!("assignment to undefined variable `{name}`"))),
                }
            }
            StmtKind::AssignIndex { name, index, value } => {
                let name = p.name(*name);
                let (index_v, mut deps) = self.eval(p, *index)?;
                let (value_v, value_deps) = self.eval(p, *value)?;
                deps.extend(value_deps);
                deps.insert(name.to_owned());
                let idx = count_arg(&index_v, "array index", 0)?;
                self.trace_assign(p, name, &deps, &value_v);
                let frame = self.frames.last_mut().expect("frame");
                let problem = match frame.lookup_mut(name) {
                    Some(Value::Array(items)) => {
                        if idx >= items.len() {
                            format!(
                                "index {idx} out of bounds for `{name}` of length {}",
                                items.len()
                            )
                        } else {
                            items[idx] = value_v;
                            return Ok(Flow::Normal);
                        }
                    }
                    Some(other) => format!("cannot index `{name}`: {}", other.type_name()),
                    None => format!("assignment to undefined variable `{name}`"),
                };
                Err(self.err(problem))
            }
            StmtKind::If {
                cond,
                then_body,
                else_body,
            } => {
                let (cond_v, cond_deps) = self.eval(p, *cond)?;
                self.note_uses(p, &cond_deps);
                let truthy = cond_v
                    .as_bool()
                    .ok_or_else(|| self.err("if condition must be boolean"))?;
                if truthy {
                    self.exec_block(p, then_body)
                } else {
                    self.exec_block(p, else_body)
                }
            }
            StmtKind::While { cond, body } => loop {
                let (cond_v, cond_deps) = self.eval(p, *cond)?;
                self.note_uses(p, &cond_deps);
                let truthy = cond_v
                    .as_bool()
                    .ok_or_else(|| self.err("while condition must be boolean"))?;
                if !truthy {
                    return Ok(Flow::Normal);
                }
                match self.exec_block(p, body)? {
                    Flow::Normal | Flow::Continue => continue,
                    Flow::Break => return Ok(Flow::Normal),
                    ret @ Flow::Return(..) => return Ok(ret),
                }
            },
            StmtKind::Return(expr) => match expr {
                Some(e) => {
                    let (value, deps) = self.eval(p, *e)?;
                    Ok(Flow::Return(value, deps))
                }
                None => Ok(Flow::Return(Value::Unit, Deps::new())),
            },
            StmtKind::Break => Ok(Flow::Break),
            StmtKind::Continue => Ok(Flow::Continue),
            StmtKind::Expr(e) => {
                let _ = self.eval(p, *e)?;
                Ok(Flow::Normal)
            }
        }
    }

    /// `x = au_write_back("NAME")` annotates `x` as a prediction target —
    /// this is how the paper's users designate target variables.
    fn mark_target_if_write_back(&mut self, p: &Program, dst: &str, value: ExprId) {
        if !self.tracing {
            return;
        }
        if let ExprKind::Call { name, .. } = p.expr(value).kind {
            if matches!(
                p.name(name),
                "au_write_back" | "au_write_back_n" | "au_nn_rl"
            ) {
                self.analysis.mark_target(dst);
            }
        }
    }

    fn note_uses(&mut self, p: &Program, deps: &Deps) {
        if !self.tracing {
            return;
        }
        let func = self.current_func(p);
        for var in deps {
            self.analysis.record_use(var, func);
        }
    }

    fn eval(&mut self, p: &Program, expr: ExprId) -> Result<(Value, Deps), LangError> {
        match p.expr(expr).kind {
            ExprKind::Num(n) => Ok((Value::Num(n), Deps::new())),
            ExprKind::Bool(b) => Ok((Value::Bool(b), Deps::new())),
            ExprKind::Str(s) => Ok((Value::Str(p.str(s).to_owned()), Deps::new())),
            ExprKind::Var(name) => {
                let name = p.name(name);
                let frame = self.frames.last().expect("frame");
                let value = frame
                    .lookup(name)
                    .cloned()
                    .ok_or_else(|| self.err(format!("undefined variable `{name}`")))?;
                let mut deps = Deps::new();
                deps.insert(name.to_owned());
                Ok((value, deps))
            }
            ExprKind::Array(items) => {
                let mut values = Vec::with_capacity(items.len());
                let mut deps = Deps::new();
                for &item in p.list(items) {
                    let (v, d) = self.eval(p, item)?;
                    values.push(v);
                    deps.extend(d);
                }
                Ok((Value::Array(values), deps))
            }
            ExprKind::Index(target, index) => {
                let (target_v, mut deps) = self.eval(p, target)?;
                let (index_v, index_deps) = self.eval(p, index)?;
                deps.extend(index_deps);
                let idx = count_arg(&index_v, "array index", 0)?;
                match target_v {
                    Value::Array(items) => items
                        .get(idx)
                        .cloned()
                        .map(|v| (v, deps))
                        .ok_or_else(|| self.err(format!("index {idx} out of bounds"))),
                    other => Err(self.err(format!("cannot index a {}", other.type_name()))),
                }
            }
            ExprKind::Unary { op, expr } => {
                let (v, deps) = self.eval(p, expr)?;
                let out = match op {
                    UnOp::Neg => Value::Num(
                        -v.as_num()
                            .ok_or_else(|| self.err("unary `-` needs a number"))?,
                    ),
                    UnOp::Not => Value::Bool(
                        !v.as_bool()
                            .ok_or_else(|| self.err("unary `!` needs a boolean"))?,
                    ),
                };
                Ok((out, deps))
            }
            ExprKind::Binary { op, lhs, rhs } => self.eval_binary(p, op, lhs, rhs),
            ExprKind::Call { name, args } => self.eval_call(p, name, p.list(args)),
        }
    }

    fn eval_binary(
        &mut self,
        p: &Program,
        op: BinOp,
        lhs: ExprId,
        rhs: ExprId,
    ) -> Result<(Value, Deps), LangError> {
        // Short-circuit forms first.
        if matches!(op, BinOp::And | BinOp::Or) {
            let (l, mut deps) = self.eval(p, lhs)?;
            let l = l
                .as_bool()
                .ok_or_else(|| self.err("logical operand must be boolean"))?;
            let short = match op {
                BinOp::And => !l,
                BinOp::Or => l,
                _ => unreachable!(),
            };
            if short {
                return Ok((Value::Bool(l), deps));
            }
            let (r, rdeps) = self.eval(p, rhs)?;
            deps.extend(rdeps);
            let r = r
                .as_bool()
                .ok_or_else(|| self.err("logical operand must be boolean"))?;
            return Ok((Value::Bool(r), deps));
        }
        let (l, mut deps) = self.eval(p, lhs)?;
        let (r, rdeps) = self.eval(p, rhs)?;
        deps.extend(rdeps);
        // Equality works on any same-typed values; ordering and arithmetic
        // need numbers.
        let out = match op {
            BinOp::Eq => Value::Bool(l == r),
            BinOp::Ne => Value::Bool(l != r),
            _ => {
                let a = l
                    .as_num()
                    .ok_or_else(|| self.err(format!("arithmetic on {}", l.type_name())))?;
                let b = r
                    .as_num()
                    .ok_or_else(|| self.err(format!("arithmetic on {}", r.type_name())))?;
                match op {
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
        };
        Ok((out, deps))
    }

    fn eval_call(
        &mut self,
        p: &Program,
        sym: Sym,
        args: &[ExprId],
    ) -> Result<(Value, Deps), LangError> {
        // User-defined functions shadow nothing: builtins win on collision
        // is avoided by checking user functions first only for non-au names.
        let name = p.name(sym);
        if !name.starts_with("au_") {
            if let Some(func) = p.functions().iter().find(|f| f.name == sym) {
                let mut evaluated = Vec::with_capacity(args.len());
                for &arg in args {
                    evaluated.push(self.eval(p, arg)?);
                }
                return self.call_function(p, func, evaluated);
            }
        }
        self.eval_builtin(p, name, args)
    }

    fn arity(&self, name: &str, args: &[ExprId], n: usize) -> Result<(), LangError> {
        if args.len() == n {
            Ok(())
        } else {
            Err(self.err(format!(
                "`{name}` expects {n} arguments, got {}",
                args.len()
            )))
        }
    }

    fn eval_str_arg(&mut self, p: &Program, name: &str, arg: ExprId) -> Result<String, LangError> {
        let (v, _) = self.eval(p, arg)?;
        v.as_str()
            .map(str::to_owned)
            .ok_or_else(|| self.err(format!("`{name}` expects a string literal argument")))
    }

    fn eval_builtin(
        &mut self,
        p: &Program,
        name: &str,
        args: &[ExprId],
    ) -> Result<(Value, Deps), LangError> {
        match name {
            // ---------------------------------------------------------
            // Autonomizer primitives
            // ---------------------------------------------------------
            "au_config" => {
                // au_config("M", "DNN", "AdamOpt"|"QLearn", layers, n1, …)
                if args.len() < 4 {
                    return Err(self.err("`au_config` needs model, type, algorithm, layer count"));
                }
                let model = self.eval_str_arg(p, name, args[0])?;
                let kind = self.eval_str_arg(p, name, args[1])?;
                let algo = self.eval_str_arg(p, name, args[2])?;
                let (layer_count_v, _) = self.eval(p, args[3])?;
                let layer_count = count_arg(&layer_count_v, "layer count", 0)?;
                if args.len() != 4 + layer_count {
                    return Err(self.err(format!(
                        "`au_config` declared {layer_count} layers but listed {}",
                        args.len() - 4
                    )));
                }
                let mut widths = Vec::with_capacity(layer_count);
                for &arg in &args[4..] {
                    let (v, _) = self.eval(p, arg)?;
                    if v.as_num().is_none() {
                        return Err(self.err("layer size must be a number"));
                    }
                    widths.push(v);
                }
                let hidden = widths
                    .iter()
                    .map(|v| count_arg(v, "layer size", 1))
                    .collect::<Result<Vec<_>, _>>()?;
                let config = match (kind.as_str(), algo.as_str()) {
                    ("DNN", "AdamOpt") => ModelConfig::dnn(&hidden),
                    ("DNN", "QLearn") => ModelConfig::q_dnn(&hidden),
                    other => {
                        return Err(self.err(format!(
                            "unsupported model configuration {other:?} (AuLang supports DNN with AdamOpt or QLearn)"
                        )))
                    }
                };
                self.engine.au_config(&model, config)?;
                Ok((Value::Unit, Deps::new()))
            }
            "au_extract" => {
                self.arity(name, args, 2)?;
                let ext = self.eval_str_arg(p, name, args[0])?;
                let (v, deps) = self.eval(p, args[1])?;
                let mut nums = Vec::new();
                v.flatten_nums(&mut nums);
                self.engine.au_extract(&ext, &nums);
                self.note_uses(p, &deps);
                Ok((Value::Unit, Deps::new()))
            }
            "au_serialize" => {
                let mut names = Vec::with_capacity(args.len());
                for &arg in args {
                    names.push(self.eval_str_arg(p, name, arg)?);
                }
                let refs: Vec<&str> = names.iter().map(String::as_str).collect();
                let combined = self.engine.au_serialize(&refs);
                Ok((Value::Str(combined), Deps::new()))
            }
            "au_nn" => {
                if args.len() < 3 {
                    return Err(self.err("`au_nn` needs model, ext, and at least one wb name"));
                }
                let model = self.eval_str_arg(p, name, args[0])?;
                let ext = self.eval_str_arg(p, name, args[1])?;
                let mut wbs = Vec::new();
                for &arg in &args[2..] {
                    wbs.push(self.eval_str_arg(p, name, arg)?);
                }
                let wb_refs: Vec<&str> = wbs.iter().map(String::as_str).collect();
                let out = self.engine.au_nn(&model, &ext, &wb_refs)?;
                Ok((
                    Value::Array(out.into_iter().map(Value::Num).collect()),
                    Deps::new(),
                ))
            }
            "au_nn_rl" => {
                // au_nn_rl("M", ext, reward, terminal, "wb", n_actions)
                self.arity(name, args, 6)?;
                let model = self.eval_str_arg(p, name, args[0])?;
                let ext = self.eval_str_arg(p, name, args[1])?;
                let (reward_v, reward_deps) = self.eval(p, args[2])?;
                let (term_v, term_deps) = self.eval(p, args[3])?;
                let wb = self.eval_str_arg(p, name, args[4])?;
                let (n_v, _) = self.eval(p, args[5])?;
                self.note_uses(p, &reward_deps);
                self.note_uses(p, &term_deps);
                let reward = reward_v
                    .as_num()
                    .ok_or_else(|| self.err("reward must be a number"))?;
                let terminal = match term_v {
                    Value::Bool(b) => b,
                    Value::Num(n) => n != 0.0,
                    other => {
                        return Err(self.err(format!(
                            "terminal flag must be boolean or number, got {}",
                            other.type_name()
                        )))
                    }
                };
                let n_actions = count_arg(&n_v, "action count", 1)?;
                let action = self
                    .engine
                    .au_nn_rl(&model, &ext, reward, terminal, &wb, n_actions)?;
                Ok((Value::Num(action as f64), Deps::new()))
            }
            "au_write_back" => {
                self.arity(name, args, 1)?;
                let key = self.eval_str_arg(p, name, args[0])?;
                let v = self.engine.au_write_back_scalar(&key)?;
                Ok((Value::Num(v), Deps::new()))
            }
            "au_write_back_n" => {
                self.arity(name, args, 2)?;
                let key = self.eval_str_arg(p, name, args[0])?;
                let (n_v, _) = self.eval(p, args[1])?;
                let n = count_arg(&n_v, "size", 0)?;
                let buf = self.engine.au_write_back_n(&key, n)?;
                Ok((
                    Value::Array(buf.into_iter().map(Value::Num).collect()),
                    Deps::new(),
                ))
            }
            "au_checkpoint" => {
                self.arity(name, args, 0)?;
                self.checkpoint = Some(self.engine.checkpoint_with(&self.frames));
                Ok((Value::Unit, Deps::new()))
            }
            "au_restore" => {
                self.arity(name, args, 0)?;
                let ckpt = self
                    .checkpoint
                    .clone()
                    .ok_or_else(|| self.err("au_restore without au_checkpoint"))?;
                // Restore π, then overwrite the *values* of every program
                // variable that existed at checkpoint time, keeping the
                // current scope structure intact (execution continues after
                // this statement, possibly deeper in the block structure
                // than where the checkpoint was taken). Variables created
                // since the checkpoint keep their current values — they
                // did not exist in the snapshot's memory.
                //
                // The snapshot is flattened by name (innermost binding
                // wins), so same-named variables in different frames share
                // one restored value — AuLang programs should use distinct
                // names for state they checkpoint, as the examples do.
                let snapshot_frames = self.engine.restore_with(&ckpt);
                let mut snapshot_values: HashMap<String, Value> = HashMap::new();
                for frame in &snapshot_frames {
                    for scope in &frame.scopes {
                        for (var, value) in scope {
                            snapshot_values.insert(var.clone(), value.clone());
                        }
                    }
                }
                for frame in &mut self.frames {
                    for scope in &mut frame.scopes {
                        for (var, value) in scope.iter_mut() {
                            if let Some(saved) = snapshot_values.get(var) {
                                *value = saved.clone();
                            }
                        }
                    }
                }
                Ok((Value::Unit, Deps::new()))
            }
            // ---------------------------------------------------------
            // Analysis annotations
            // ---------------------------------------------------------
            "mark_input" => {
                self.arity(name, args, 1)?;
                let var = self.eval_str_arg(p, name, args[0])?;
                self.analysis.mark_input(&var);
                Ok((Value::Unit, Deps::new()))
            }
            "mark_target" => {
                self.arity(name, args, 1)?;
                let var = self.eval_str_arg(p, name, args[0])?;
                self.analysis.mark_target(&var);
                Ok((Value::Unit, Deps::new()))
            }
            // ---------------------------------------------------------
            // General builtins
            // ---------------------------------------------------------
            "input" => {
                self.arity(name, args, 2)?;
                let key = self.eval_str_arg(p, name, args[0])?;
                let (default, _) = self.eval(p, args[1])?;
                let value = self.inputs.get(&key).cloned().unwrap_or(default);
                self.analysis.mark_input(&key);
                if let Some(n) = value.as_num() {
                    self.analysis.record_value(&key, n);
                }
                let mut deps = Deps::new();
                deps.insert(key);
                Ok((value, deps))
            }
            "print" => {
                let mut parts = Vec::with_capacity(args.len());
                for &arg in args {
                    let (v, _) = self.eval(p, arg)?;
                    parts.push(v.to_string());
                }
                self.output.push(parts.join(" "));
                Ok((Value::Unit, Deps::new()))
            }
            "len" => {
                self.arity(name, args, 1)?;
                let (v, deps) = self.eval(p, args[0])?;
                match v {
                    Value::Array(items) => Ok((Value::Num(items.len() as f64), deps)),
                    Value::Str(s) => Ok((Value::Num(s.len() as f64), deps)),
                    other => Err(self.err(format!("`len` of {}", other.type_name()))),
                }
            }
            "append" => {
                self.arity(name, args, 2)?;
                let (arr, mut deps) = self.eval(p, args[0])?;
                let (item, item_deps) = self.eval(p, args[1])?;
                deps.extend(item_deps);
                match arr {
                    Value::Array(mut items) => {
                        items.push(item);
                        Ok((Value::Array(items), deps))
                    }
                    other => Err(self.err(format!("`append` to {}", other.type_name()))),
                }
            }
            "floor" | "abs" | "sqrt" | "sin" | "cos" | "exp" => {
                self.arity(name, args, 1)?;
                let (v, deps) = self.eval(p, args[0])?;
                let x = v
                    .as_num()
                    .ok_or_else(|| self.err(format!("`{name}` needs a number")))?;
                let out = match name {
                    "floor" => x.floor(),
                    "abs" => x.abs(),
                    "sqrt" => x.sqrt(),
                    "sin" => x.sin(),
                    "cos" => x.cos(),
                    "exp" => x.exp(),
                    _ => unreachable!(),
                };
                Ok((Value::Num(out), deps))
            }
            "min" | "max" => {
                self.arity(name, args, 2)?;
                let (a, mut deps) = self.eval(p, args[0])?;
                let (b, bdeps) = self.eval(p, args[1])?;
                deps.extend(bdeps);
                let (a, b) = (
                    a.as_num()
                        .ok_or_else(|| self.err(format!("`{name}` needs numbers")))?,
                    b.as_num()
                        .ok_or_else(|| self.err(format!("`{name}` needs numbers")))?,
                );
                let out = if name == "min" { a.min(b) } else { a.max(b) };
                Ok((Value::Num(out), deps))
            }
            "rand" => {
                // xorshift64* — deterministic under set_seed.
                self.arity(name, args, 0)?;
                let mut x = self.rng_state;
                x ^= x >> 12;
                x ^= x << 25;
                x ^= x >> 27;
                self.rng_state = x;
                let r = (x.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 11) as f64 / (1u64 << 53) as f64;
                Ok((Value::Num(r), Deps::new()))
            }
            other => Err(self.err(format!("unknown function `{other}`"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str) -> Value {
        Interpreter::compile(src).unwrap().run().unwrap()
    }

    #[test]
    fn arithmetic_and_control_flow() {
        let v = run(
            "fn main() { let s = 0; let i = 0; while (i < 5) { i = i + 1; s = s + i; } return s; }",
        );
        assert_eq!(v.as_num(), Some(15.0));
    }

    #[test]
    fn for_loop_sugar_executes() {
        let v = run(
            "fn main() { let s = 0; for (let i = 0; i < 5; i = i + 1) { s = s + i; } return s; }",
        );
        assert_eq!(v.as_num(), Some(10.0));
    }

    #[test]
    fn for_loop_initializer_is_scoped() {
        // `i` from the for initializer must not leak into the outer scope.
        let err =
            Interpreter::compile("fn main() { for (let i = 0; i < 2; i = i + 1) { } return i; }")
                .unwrap()
                .run()
                .unwrap_err();
        assert!(matches!(err, LangError::Runtime(_)));
    }

    #[test]
    fn if_else_branches() {
        let v = run("fn main() { let x = 3; if (x > 2) { return 1; } else { return 0; } }");
        assert_eq!(v.as_num(), Some(1.0));
    }

    #[test]
    fn function_calls_and_returns() {
        let v = run("fn double(x) { return x * 2; } fn main() { return double(21); }");
        assert_eq!(v.as_num(), Some(42.0));
    }

    #[test]
    fn arrays_index_and_mutation() {
        let v = run("fn main() { let a = [1, 2, 3]; a[1] = 10; return a[0] + a[1] + a[2]; }");
        assert_eq!(v.as_num(), Some(14.0));
    }

    #[test]
    fn break_and_continue() {
        let v = run(
            "fn main() { let s = 0; let i = 0; while (true) { i = i + 1; if (i > 10) { break; } if (i % 2 == 0) { continue; } s = s + i; } return s; }",
        );
        assert_eq!(v.as_num(), Some(25.0)); // 1+3+5+7+9
    }

    #[test]
    fn short_circuit_does_not_evaluate_rhs() {
        // Indexing out of bounds on the rhs would error if evaluated.
        let v = run("fn main() { let a = [1]; if (false && a[9] == 1) { return 1; } return 0; }");
        assert_eq!(v.as_num(), Some(0.0));
    }

    #[test]
    fn undefined_variable_is_runtime_error() {
        let err = Interpreter::compile("fn main() { return ghost; }")
            .unwrap()
            .run()
            .unwrap_err();
        assert!(matches!(err, LangError::Runtime(_)));
    }

    #[test]
    fn step_limit_stops_infinite_loops() {
        let mut interp = Interpreter::compile("fn main() { while (true) { let x = 1; } }").unwrap();
        interp.set_step_limit(1000);
        assert!(matches!(interp.run(), Err(LangError::Runtime(_))));
    }

    #[test]
    fn inputs_reach_the_program_and_are_marked() {
        let mut interp =
            Interpreter::compile("fn main() { let x = input(\"img\", 0); return x + 1; }").unwrap();
        interp.set_input("img", Value::Num(9.0));
        assert_eq!(interp.run().unwrap().as_num(), Some(10.0));
        let db = interp.analysis();
        let img = db.id("img").unwrap();
        assert!(db.inputs().contains(&img));
    }

    #[test]
    fn tracing_records_dependence_edges() {
        let mut interp = Interpreter::compile(
            "fn main() { let a = input(\"a\", 1); let b = a * 2; let c = b + a; return c; }",
        )
        .unwrap();
        interp.run().unwrap();
        let db = interp.analysis();
        let a = db.id("a").unwrap();
        let c = db.id("c").unwrap();
        assert!(db.dependents(a).contains(&c));
        assert!(db.bfs_distance(a, c).unwrap() <= 2);
    }

    #[test]
    fn write_back_marks_targets() {
        let src = r#"
            fn main() {
                au_extract("P", 7);
                let t = 0;
                t = au_write_back("P");
                return t;
            }
        "#;
        let mut interp = Interpreter::compile(src).unwrap();
        assert_eq!(interp.run().unwrap().as_num(), Some(7.0));
        let db = interp.analysis();
        let t = db.id("t").unwrap();
        assert!(db.targets().contains(&t));
    }

    #[test]
    fn checkpoint_restore_rolls_back_variables() {
        let src = r#"
            fn main() {
                let lives = 3;
                au_checkpoint();
                lives = 0;
                au_restore();
                return lives;
            }
        "#;
        assert_eq!(run(src).as_num(), Some(3.0));
    }

    #[test]
    fn restore_without_checkpoint_errors() {
        let err = Interpreter::compile("fn main() { au_restore(); }")
            .unwrap()
            .run()
            .unwrap_err();
        assert!(matches!(err, LangError::Runtime(_)));
    }

    #[test]
    fn full_sl_primitive_cycle() {
        au_nn::set_init_seed(31);
        // Train y = 3x through the primitives alone.
        let src = r#"
            fn main() {
                au_config("M", "DNN", "AdamOpt", 1, 16);
                let i = 0;
                while (i < 1500) {
                    let x = (i % 10) / 10.0;
                    au_extract("F", x);
                    au_extract("Y", x * 3);
                    au_nn("M", "F", "Y");
                    i = i + 1;
                }
                au_extract("F", 0.5);
                au_nn("M", "F", "Y");
                let y = 0;
                y = au_write_back("Y");
                return y;
            }
        "#;
        let mut interp = Interpreter::compile(src).unwrap();
        interp.set_tracing(false);
        let v = interp.run().unwrap();
        let y = v.as_num().unwrap();
        assert!((y - 1.5).abs() < 0.5, "predicted {y}, want ≈1.5");
    }

    #[test]
    fn full_rl_primitive_cycle() {
        au_nn::set_init_seed(32);
        // One-state bandit: action 1 rewards +1, action 0 rewards -1.
        let src = r#"
            fn main() {
                au_config("Q", "DNN", "QLearn", 1, 8);
                let i = 0;
                let reward = 0;
                while (i < 300) {
                    au_extract("S", 1);
                    let a = au_nn_rl("Q", "S", reward, false, "out", 2);
                    if (a == 1) { reward = 1; } else { reward = 0 - 1; }
                    i = i + 1;
                }
                au_extract("S", 1);
                let final_a = au_nn_rl("Q", "S", reward, true, "out", 2);
                return final_a;
            }
        "#;
        let mut interp = Interpreter::compile(src).unwrap();
        interp.set_tracing(false);
        let v = interp.run().unwrap();
        // After 300 bandit pulls the greedy-ish policy should favor 1 (ε has
        // decayed close to its floor).
        assert_eq!(v.as_num(), Some(1.0));
    }

    #[test]
    fn print_collects_output() {
        let src = r#"fn main() { print("hello", 1 + 1); return 0; }"#;
        let mut interp = Interpreter::compile(src).unwrap();
        interp.run().unwrap();
        assert_eq!(interp.output(), ["hello 2"]);
    }

    #[test]
    fn rand_is_deterministic_under_seed() {
        let src = "fn main() { return rand(); }";
        let mut a = Interpreter::compile(src).unwrap();
        a.set_seed(7);
        let mut b = Interpreter::compile(src).unwrap();
        b.set_seed(7);
        assert_eq!(a.run().unwrap(), b.run().unwrap());
    }

    #[test]
    fn stats_count_steps_and_assignments() {
        let mut interp =
            Interpreter::compile("fn main() { let a = 1; let b = a + 1; return b; }").unwrap();
        interp.run().unwrap();
        let stats = interp.stats();
        assert!(stats.steps >= 3);
        assert_eq!(stats.assignments, 2);
    }

    #[test]
    fn builtin_math_functions() {
        assert_eq!(run("fn main() { return abs(0 - 5); }").as_num(), Some(5.0));
        assert_eq!(
            run("fn main() { return max(2, 3) + min(2, 3); }").as_num(),
            Some(5.0)
        );
        assert_eq!(run("fn main() { return floor(2.9); }").as_num(), Some(2.0));
        assert_eq!(
            run("fn main() { let a = append([1], 2); return len(a); }").as_num(),
            Some(2.0)
        );
    }
}
