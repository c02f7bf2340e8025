//! Static dependence analysis over AuLang ASTs.
//!
//! Section 4 of the paper justifies its design choice: "We adopt dynamic
//! dependency analysis instead of static analysis which incurs too many
//! false positives." This module implements the static alternative so the
//! claim can be measured: it conservatively over-approximates dataflow
//! (all array elements alias; both branches of every `if` execute; loops
//! reach a def-use fixpoint; calls connect arguments to parameters and the
//! callee's returns to the call result). The `static_vs_dynamic` ablation
//! bench counts the resulting extra candidate edges against the
//! interpreter's observed dynamic graph.

use crate::ast::{Expr, ExprKind, Program, Stmt, StmtKind};
use au_trace::AnalysisDb;
use std::collections::{BTreeMap, BTreeSet};

/// Builds a static over-approximated dependence graph for `program`.
///
/// Edges use the same variable-name space as the dynamic tracer, so the
/// result can be fed to the same extraction algorithms. Function-call
/// dataflow is resolved by connecting argument variables to parameter
/// names and the callee's return-dependence summary (see
/// [`return_summaries`]) to the call result.
pub fn analyze(program: &Program) -> AnalysisDb {
    let mut db = AnalysisDb::new();
    let summaries = return_summaries(program);
    // Iterate to a fixpoint: call-return summaries can feed one another
    // (recursion, out-of-order definitions). The edge set is monotone and
    // bounded by |vars|², so this terminates.
    let mut last_edge_count = u64::MAX;
    let mut analyzer = StaticAnalyzer {
        db: &mut db,
        program,
        summaries: &summaries,
    };
    for _ in 0..program.functions.len() + 2 {
        for func in &program.functions {
            analyzer.block(&func.body, &func.name);
        }
        let count = analyzer.edge_count();
        if count == last_edge_count {
            break;
        }
        last_edge_count = count;
    }
    db
}

/// Per-function *return-dependence summaries*: for every function, the set
/// of variable names the dynamic tracer could report as the dependences of
/// a call's result. The summary must cover nested calls — `fn f(p) {
/// return g(p); }` dynamically yields the deps of `g`'s executed return
/// expression (variables in *`g`'s* scope), so `summary(f) ⊇ summary(g)`.
/// A syntactic `return_vars` walk misses exactly that case, which would
/// break the dyn ⊆ static containment the pre-pruning filter and the VM's
/// selective tracing rely on. Computed as a monotone fixpoint, so
/// recursion and out-of-order definitions converge.
pub fn return_summaries(program: &Program) -> BTreeMap<String, BTreeSet<String>> {
    let mut summaries: BTreeMap<String, BTreeSet<String>> = program
        .functions
        .iter()
        .map(|f| (f.name.clone(), BTreeSet::new()))
        .collect();
    for _ in 0..program.functions.len() + 2 {
        let mut changed = false;
        for func in &program.functions {
            let mut acc = BTreeSet::new();
            summary_of_block(&func.body, program, &summaries, &mut acc);
            let entry = summaries.get_mut(&func.name).expect("seeded above");
            let before = entry.len();
            entry.extend(acc);
            changed |= entry.len() != before;
        }
        if !changed {
            break;
        }
    }
    summaries
}

fn summary_of_block(
    stmts: &[Stmt],
    program: &Program,
    summaries: &BTreeMap<String, BTreeSet<String>>,
    out: &mut BTreeSet<String>,
) {
    for stmt in stmts {
        match &stmt.kind {
            StmtKind::Return(Some(e)) => summary_expr_deps(e, program, summaries, out),
            StmtKind::If {
                then_body,
                else_body,
                ..
            } => {
                summary_of_block(then_body, program, summaries, out);
                summary_of_block(else_body, program, summaries, out);
            }
            StmtKind::While { body, .. } => summary_of_block(body, program, summaries, out),
            _ => {}
        }
    }
}

/// The names an expression's *value* may dynamically depend on, given the
/// current summaries. Call arguments are included conservatively (the
/// dynamic tracer separately flows them into parameters).
fn summary_expr_deps(
    expr: &Expr,
    program: &Program,
    summaries: &BTreeMap<String, BTreeSet<String>>,
    out: &mut BTreeSet<String>,
) {
    match &expr.kind {
        ExprKind::Num(_) | ExprKind::Bool(_) | ExprKind::Str(_) => {}
        ExprKind::Var(name) => {
            out.insert(name.clone());
        }
        ExprKind::Array(items) => {
            for item in items {
                summary_expr_deps(item, program, summaries, out);
            }
        }
        ExprKind::Index(target, index) => {
            summary_expr_deps(target, program, summaries, out);
            summary_expr_deps(index, program, summaries, out);
        }
        ExprKind::Unary { expr, .. } => summary_expr_deps(expr, program, summaries, out),
        ExprKind::Binary { lhs, rhs, .. } => {
            summary_expr_deps(lhs, program, summaries, out);
            summary_expr_deps(rhs, program, summaries, out);
        }
        ExprKind::Call { name, args } => {
            for arg in args {
                summary_expr_deps(arg, program, summaries, out);
            }
            if name == "input" {
                if let Some(ExprKind::Str(input_name)) = args.first().map(|a| &a.kind) {
                    out.insert(input_name.clone());
                }
            }
            if !name.starts_with("au_") && program.function(name).is_some() {
                if let Some(callee_summary) = summaries.get(name) {
                    out.extend(callee_summary.iter().cloned());
                }
            }
        }
    }
}

/// Conservative over-approximation of the variable names `expr`'s value
/// may dynamically depend on, given per-function [`return_summaries`].
/// Every name the tracing interpreter could report as a dependence of this
/// expression is included (arguments of calls are included conservatively,
/// literal `input` keys count as names). The bytecode compiler uses this
/// to decide which sites can be left untraced in selective mode.
pub fn expr_may_deps(
    expr: &Expr,
    program: &Program,
    summaries: &BTreeMap<String, BTreeSet<String>>,
) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    summary_expr_deps(expr, program, summaries, &mut out);
    out
}

struct StaticAnalyzer<'a> {
    db: &'a mut AnalysisDb,
    program: &'a Program,
    summaries: &'a BTreeMap<String, BTreeSet<String>>,
}

impl<'a> StaticAnalyzer<'a> {
    fn edge_count(&self) -> u64 {
        let mut count = 0u64;
        for v in self.db.all_vars() {
            count += self.db.direct_dependents(v).len() as u64;
        }
        count
    }

    fn block(&mut self, stmts: &[Stmt], func: &str) {
        for stmt in stmts {
            self.stmt(stmt, func);
        }
    }

    fn stmt(&mut self, stmt: &Stmt, func: &str) {
        match &stmt.kind {
            StmtKind::Let { name, init } | StmtKind::Assign { name, value: init } => {
                let deps = self.expr_deps(init, func, Some(name));
                let dep_refs: Vec<&str> = deps.iter().map(String::as_str).collect();
                self.db.record_assign(name, &dep_refs, None, func);
                self.mark_write_back_target(name, init);
            }
            StmtKind::AssignIndex { name, index, value } => {
                // All elements alias statically: the whole array depends on
                // the index and value expressions plus itself.
                let mut deps = self.expr_deps(index, func, None);
                deps.extend(self.expr_deps(value, func, None));
                deps.insert(name.clone());
                let dep_refs: Vec<&str> = deps.iter().map(String::as_str).collect();
                self.db.record_assign(name, &dep_refs, None, func);
            }
            StmtKind::If {
                cond,
                then_body,
                else_body,
            } => {
                for var in self.expr_deps(cond, func, None) {
                    self.db.record_use(&var, func);
                }
                // Both branches conservatively execute.
                self.block(then_body, func);
                self.block(else_body, func);
            }
            StmtKind::While { cond, body } => {
                for var in self.expr_deps(cond, func, None) {
                    self.db.record_use(&var, func);
                }
                self.block(body, func);
            }
            StmtKind::Return(Some(e)) | StmtKind::Expr(e) => {
                let _ = self.expr_deps(e, func, None);
            }
            StmtKind::Return(None) | StmtKind::Break | StmtKind::Continue => {}
        }
    }

    /// `x = au_write_back("N")` marks x as a target, same as the dynamic
    /// tracer.
    fn mark_write_back_target(&mut self, dst: &str, value: &Expr) {
        if let ExprKind::Call { name, .. } = &value.kind {
            if name == "au_write_back" || name == "au_write_back_n" || name == "au_nn_rl" {
                self.db.mark_target(dst);
            }
        }
    }

    /// Variables an expression may read. For user-function calls, connects
    /// arguments → parameters and returns the callee's return-variable set
    /// (plus the arguments, conservatively). `input("name", d)` marks the
    /// name as a program input.
    #[allow(clippy::only_used_in_recursion)]
    fn expr_deps(&mut self, expr: &Expr, func: &str, _target: Option<&str>) -> BTreeSet<String> {
        let mut deps = BTreeSet::new();
        match &expr.kind {
            ExprKind::Num(_) | ExprKind::Bool(_) | ExprKind::Str(_) => {}
            ExprKind::Var(name) => {
                deps.insert(name.clone());
            }
            ExprKind::Array(items) => {
                for item in items {
                    deps.extend(self.expr_deps(item, func, None));
                }
            }
            ExprKind::Index(target, index) => {
                deps.extend(self.expr_deps(target, func, None));
                deps.extend(self.expr_deps(index, func, None));
            }
            ExprKind::Unary { expr, .. } => {
                deps.extend(self.expr_deps(expr, func, None));
            }
            ExprKind::Binary { lhs, rhs, .. } => {
                deps.extend(self.expr_deps(lhs, func, None));
                deps.extend(self.expr_deps(rhs, func, None));
            }
            ExprKind::Call { name, args } => {
                let mut arg_deps: Vec<BTreeSet<String>> = Vec::with_capacity(args.len());
                for arg in args {
                    arg_deps.push(self.expr_deps(arg, func, None));
                }
                if name == "input" {
                    if let Some(ExprKind::Str(input_name)) = args.first().map(|a| &a.kind) {
                        self.db.mark_input(input_name);
                        deps.insert(input_name.clone());
                    }
                }
                // The dynamic tracer marks these unconditionally at runtime;
                // mirror literal uses so static target/input sets contain
                // their dynamic counterparts.
                if name == "mark_input" {
                    if let Some(ExprKind::Str(var)) = args.first().map(|a| &a.kind) {
                        self.db.mark_input(var);
                    }
                }
                if name == "mark_target" {
                    if let Some(ExprKind::Str(var)) = args.first().map(|a| &a.kind) {
                        self.db.mark_target(var);
                    }
                }
                if let Some(callee) = self.program.function(name).cloned() {
                    // Argument → parameter edges (in the callee's scope).
                    for (param, adeps) in callee.params.iter().zip(&arg_deps) {
                        let refs: Vec<&str> = adeps.iter().map(String::as_str).collect();
                        self.db.record_assign(param, &refs, None, &callee.name);
                    }
                    // The call result may depend on anything the callee's
                    // executed return expression depends on, transitively
                    // through nested calls.
                    if let Some(summary) = self.summaries.get(&callee.name) {
                        deps.extend(summary.iter().cloned());
                    }
                }
                // Conservatively, the result also depends on all arguments.
                for adeps in arg_deps {
                    deps.extend(adeps);
                }
            }
        }
        deps
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

        let summaries = return_summaries(&program);
        assert!(summaries["g"].contains("q"));
        assert!(summaries["f"].contains("q"), "f inherits g's summary");
        assert!(summaries["f"].contains("x"), "args stay conservative");
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
}
