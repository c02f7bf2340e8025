//! Protocol lints: the Fig. 8 primitive contract.
//!
//! Flow-sensitive facts (AU001, AU002, AU004, AU005, AU010) are tracked
//! along an interprocedural walk starting at `main`: *may*-configured
//! models and *may*-extracted lists merge by union at branch joins (a
//! primitive reachable on some path counts as done — erring toward no
//! false positives), while the *must*-checkpoint fact merges by
//! intersection (a restore is only safe if every path checkpointed).
//!
//! The walk is linear in the program's nesting and call depth:
//!
//! - A loop body is walked twice when the walk reports: a silent pre-pass
//!   lets facts established late in the body license uses early in the
//!   body on iterations ≥ 2, then the reporting pass. A silent walk needs
//!   one pass, because the may-facts a body adds do not depend on the
//!   state it starts from, and the must-fact after a loop is its entry
//!   value either way.
//! - A user-function call descends into the callee with the caller's
//!   state (a visited stack cuts recursion), once per call stack, entry
//!   state, reachability and reporting mode; a call that repeats all four
//!   reuses the exit state, since walking again could only repeat
//!   reports already made.
//!
//! Whole-program facts (AU003, AU006, AU009) come from the site table:
//! write-back keys must be produced *somewhere*, extracted lists consumed
//! *somewhere*, configured models used *somewhere* — including in dead
//! code, since reachability does not change what names exist.

use crate::sites::{str_arg, Sites};
use crate::{RawDiag, Severity};
use au_lang::{ExprId, ExprKind, Program, Span, Stmt, StmtKind};
use std::collections::{BTreeMap, BTreeSet};

/// Runs the flow-sensitive protocol lints from `main`.
pub(crate) fn protocol_lints(program: &Program) -> Vec<RawDiag> {
    let mut walker = Walker {
        program,
        diags: Vec::new(),
        reported: BTreeSet::new(),
        reporting: true,
        stack: Vec::new(),
        exits: BTreeMap::new(),
    };
    if let Some(main) = program.function("main") {
        let mut state = State::default();
        walker.walk_block(&main.body, &mut state, true);
    }
    walker.diags
}

// ---------------------------------------------------------------------
// Whole-program lints: AU003, AU006, AU009
// ---------------------------------------------------------------------

/// Runs the whole-program protocol lints over the site table.
pub(crate) fn site_lints(sites: &Sites) -> Vec<RawDiag> {
    // Extracted list name → first extraction site.
    let mut extracts: BTreeMap<&str, Span> = BTreeMap::new();
    // List names consumed anywhere: prediction features, training labels
    // (write-back names), serialize arguments, write-back keys.
    let mut consumed: BTreeSet<&str> = BTreeSet::new();
    // Write-back names produced by predictions.
    let mut wb_names: BTreeSet<&str> = BTreeSet::new();
    let mut models_used: BTreeSet<&str> = BTreeSet::new();
    for c in &sites.calls {
        match c.name {
            "au_extract" => {
                if let Some(list) = c.str_arg(0) {
                    extracts.entry(list).or_insert(c.span);
                }
            }
            "au_nn" | "au_nn_rl" => {
                models_used.extend(c.str_arg(0));
                consumed.extend(c.str_arg(1));
                let wbs: Vec<&str> = if c.name == "au_nn" {
                    c.str_args_from(2).collect()
                } else {
                    c.str_arg(4).into_iter().collect()
                };
                // Training reads the wb list as labels, so naming a list
                // as wb also consumes an extraction of it.
                wb_names.extend(&wbs);
                consumed.extend(&wbs);
            }
            "au_serialize" => consumed.extend(c.str_args_from(0)),
            "au_write_back" | "au_write_back_n" => consumed.extend(c.str_arg(0)),
            _ => {}
        }
    }
    let mut diags = Vec::new();
    let write_backs = sites
        .calls
        .iter()
        .filter(|c| matches!(c.name, "au_write_back" | "au_write_back_n"));
    for wb in write_backs {
        let Some(key) = wb.str_arg(0) else {
            continue;
        };
        if !wb_names.contains(key) && !extracts.contains_key(key) {
            diags.push(RawDiag {
                code: "AU003",
                severity: Severity::Error,
                span: wb.span,
                message: format!(
                    "write-back of `{key}`, but no prediction or extraction ever \
                     produces a list named `{key}` — this fails at runtime"
                ),
            });
        }
    }
    for (name, span) in &extracts {
        if !consumed.contains(name) {
            diags.push(RawDiag {
                code: "AU006",
                severity: Severity::Warning,
                span: *span,
                message: format!(
                    "extracted list `{name}` is never consumed by a prediction, \
                     serialization, or write-back — dead extraction"
                ),
            });
        }
    }
    for config in sites.calls_to("au_config") {
        let Some(model) = config.str_arg(0) else {
            continue;
        };
        if !models_used.contains(model) {
            diags.push(RawDiag {
                code: "AU009",
                severity: Severity::Warning,
                span: config.span,
                message: format!(
                    "model `{model}` is configured but never used in any \
                     `au_nn`/`au_nn_rl` prediction"
                ),
            });
        }
    }
    diags
}

// ---------------------------------------------------------------------
// Flow-sensitive walk: AU001, AU002, AU004, AU005, AU010
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Default, PartialEq, Eq, PartialOrd, Ord)]
struct State {
    /// Models that *may* be configured at this point.
    configured: BTreeSet<String>,
    /// Lists that *may* be in the Engine store π at this point (extracted
    /// or produced by a prior prediction).
    extracted: BTreeSet<String>,
    /// Whether a checkpoint is guaranteed on *every* path to this point.
    checkpointed: bool,
}

struct Walker<'a> {
    program: &'a Program,
    diags: Vec<RawDiag>,
    /// Dedup key set: (code, span) — a callee reached from two call sites
    /// reports each violation once.
    reported: BTreeSet<(&'static str, usize, usize)>,
    /// When false (loop pre-pass), findings are suppressed but state still
    /// accumulates.
    reporting: bool,
    /// Call stack of user-function names, to cut recursion.
    stack: Vec<String>,
    /// Exit state of every callee walk, keyed by the call stack (callee
    /// included), entry state, reachability and reporting mode.
    exits: BTreeMap<(Vec<String>, State, bool, bool), State>,
}

impl<'a> Walker<'a> {
    fn report(&mut self, code: &'static str, severity: Severity, span: Span, message: String) {
        if !self.reporting {
            return;
        }
        if self.reported.insert((code, span.start, span.end)) {
            self.diags.push(RawDiag {
                code,
                severity,
                span,
                message,
            });
        }
    }

    /// Walks a block; returns true if the block definitely diverges
    /// (reaches a `return`/`break`/`continue` while live).
    fn walk_block(&mut self, stmts: &[Stmt], st: &mut State, reachable: bool) -> bool {
        let mut live = reachable;
        let mut diverged = false;
        for stmt in stmts {
            if self.walk_stmt(stmt, st, live) && live {
                live = false;
                diverged = true;
            }
        }
        diverged
    }

    /// Walks one statement; returns true if it diverges (`return`,
    /// `break`, `continue`).
    fn walk_stmt(&mut self, stmt: &Stmt, st: &mut State, reachable: bool) -> bool {
        match &stmt.kind {
            StmtKind::Let { init: e, .. }
            | StmtKind::Assign { value: e, .. }
            | StmtKind::Expr(e) => {
                self.walk_expr(*e, st, reachable);
                false
            }
            StmtKind::AssignIndex { index, value, .. } => {
                self.walk_expr(*index, st, reachable);
                self.walk_expr(*value, st, reachable);
                false
            }
            StmtKind::Return(e) => {
                if let Some(e) = e {
                    self.walk_expr(*e, st, reachable);
                }
                true
            }
            StmtKind::Break | StmtKind::Continue => true,
            StmtKind::If {
                cond,
                then_body,
                else_body,
            } => {
                self.walk_expr(*cond, st, reachable);
                match self.program.expr(*cond).kind {
                    // Literal conditions decide reachability exactly — the
                    // desugared `for` wrapper (`if (true)`) falls out here
                    // with no loss of precision.
                    ExprKind::Bool(true) => {
                        let diverges = self.walk_block(then_body, st, reachable);
                        let mut dead = st.clone();
                        self.walk_block(else_body, &mut dead, false);
                        diverges
                    }
                    ExprKind::Bool(false) => {
                        let mut dead = st.clone();
                        self.walk_block(then_body, &mut dead, false);
                        self.walk_block(else_body, st, reachable)
                    }
                    _ => {
                        let mut then_st = st.clone();
                        let mut else_st = st.clone();
                        let then_div = self.walk_block(then_body, &mut then_st, reachable);
                        let else_div = self.walk_block(else_body, &mut else_st, reachable);
                        // Join: may-facts union, must-fact intersection. A
                        // diverging branch imposes nothing on the join.
                        st.configured.extend(then_st.configured.iter().cloned());
                        st.configured.extend(else_st.configured.iter().cloned());
                        st.extracted.extend(then_st.extracted.iter().cloned());
                        st.extracted.extend(else_st.extracted.iter().cloned());
                        st.checkpointed = match (then_div, else_div) {
                            (false, false) => then_st.checkpointed && else_st.checkpointed,
                            (false, true) => then_st.checkpointed,
                            (true, false) => else_st.checkpointed,
                            (true, true) => st.checkpointed,
                        };
                        then_div && else_div
                    }
                }
            }
            StmtKind::While { cond, body } => {
                self.walk_expr(*cond, st, reachable);
                if matches!(self.program.expr(*cond).kind, ExprKind::Bool(false)) {
                    let mut dead = st.clone();
                    self.walk_block(body, &mut dead, false);
                    return false;
                }
                let entry_checkpointed = st.checkpointed;
                if self.reporting {
                    // Silent pre-pass: facts established anywhere in the
                    // body hold at the body's head from iteration 2 on. A
                    // silent walk skips it: the pass below adds the same
                    // may-facts whatever it starts from.
                    self.reporting = false;
                    let mut pre = st.clone();
                    self.walk_block(body, &mut pre, reachable);
                    self.reporting = true;
                    st.configured.extend(pre.configured);
                    st.extracted.extend(pre.extracted);
                }
                let mut body_st = st.clone();
                self.walk_block(body, &mut body_st, reachable);
                st.configured = body_st.configured;
                st.extracted = body_st.extracted;
                // The body may run zero times: only entry facts are
                // guaranteed after the loop.
                st.checkpointed = entry_checkpointed;
                false
            }
        }
    }

    fn walk_expr(&mut self, expr: ExprId, st: &mut State, reachable: bool) {
        let program = self.program;
        let e = program.expr(expr);
        // Operands first (nested calls take effect before the outer call,
        // matching evaluation order).
        e.kind
            .for_each_operand(program, |o| self.walk_expr(o, st, reachable));
        if let ExprKind::Call { name, args } = e.kind {
            self.handle_call(
                program.name(name),
                program.list(args),
                e.span,
                st,
                reachable,
            );
        }
    }

    fn handle_call(
        &mut self,
        name: &str,
        args: &[ExprId],
        span: Span,
        st: &mut State,
        reachable: bool,
    ) {
        match name {
            "au_config" => {
                if let Some(model) = str_arg(self.program, args, 0) {
                    if reachable && st.configured.contains(model) {
                        self.report(
                            "AU010",
                            Severity::Warning,
                            span,
                            format!(
                                "`au_config` on model `{model}` that may already be \
                                 configured — reconfiguring resets its trained state"
                            ),
                        );
                    }
                    st.configured.insert(model.to_owned());
                }
            }
            "au_extract" => {
                if let Some(list) = str_arg(self.program, args, 0) {
                    st.extracted.insert(list.to_owned());
                }
            }
            "au_nn" | "au_nn_rl" => {
                if reachable {
                    if let Some(model) = str_arg(self.program, args, 0) {
                        if !st.configured.contains(model) {
                            self.report(
                                "AU001",
                                Severity::Error,
                                span,
                                format!(
                                    "`{name}` on model `{model}`, but no `au_config` \
                                     for `{model}` can execute before this point"
                                ),
                            );
                        }
                    }
                    if let Some(ext) = str_arg(self.program, args, 1) {
                        if !st.extracted.contains(ext) {
                            self.report(
                                "AU002",
                                Severity::Error,
                                span,
                                format!(
                                    "`{name}` consumes feature list `{ext}`, but no \
                                     `au_extract(\"{ext}\", …)` can execute before \
                                     this point"
                                ),
                            );
                        }
                    }
                }
                // Predictions put their write-back lists into π.
                if name == "au_nn" {
                    for i in 2..args.len() {
                        if let Some(wb) = str_arg(self.program, args, i) {
                            st.extracted.insert(wb.to_owned());
                        }
                    }
                } else if let Some(wb) = str_arg(self.program, args, 4) {
                    st.extracted.insert(wb.to_owned());
                }
            }
            "au_serialize" => {
                if !reachable {
                    self.report(
                        "AU005",
                        Severity::Warning,
                        span,
                        "`au_serialize` in unreachable code — the serialized \
                         features can never be produced at runtime"
                            .to_owned(),
                    );
                }
            }
            "au_checkpoint" => {
                st.checkpointed = true;
            }
            "au_restore" => {
                if reachable && !st.checkpointed {
                    self.report(
                        "AU004",
                        Severity::Error,
                        span,
                        "`au_restore` is not preceded by `au_checkpoint` on every \
                         path to this point"
                            .to_owned(),
                    );
                }
            }
            _ => {
                // User-defined function: descend with the caller's state,
                // or reuse the exit of an identical earlier descent.
                if !name.starts_with("au_") {
                    if let Some(callee) = self.program.function(name) {
                        if !self.stack.iter().any(|f| f == name) {
                            self.stack.push(name.to_owned());
                            let key = (self.stack.clone(), st.clone(), reachable, self.reporting);
                            match self.exits.get(&key) {
                                Some(exit) => *st = exit.clone(),
                                None => {
                                    self.walk_block(&callee.body, st, reachable);
                                    self.exits.insert(key, st.clone());
                                }
                            }
                            self.stack.pop();
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use au_lang::parse;

    fn codes(src: &str) -> Vec<String> {
        let program = parse(src).unwrap();
        let mut diags = protocol_lints(&program);
        diags.sort_by_key(|d| (d.span.start, d.code));
        diags.into_iter().map(|d| d.code.to_owned()).collect()
    }

    #[test]
    fn config_in_branch_counts_as_may_configured() {
        let src = r#"
fn main() {
    let x = 1;
    if (x > 0) { au_config("M", "DNN", "AdamOpt", 1, 8); }
    au_extract("F", x);
    au_extract("Y", x);
    au_nn("M", "F", "Y");
    return 0;
}
"#;
        assert_eq!(codes(src), Vec::<String>::new());
    }

    #[test]
    fn extract_late_in_loop_licenses_early_predict() {
        // Iteration 2 sees the extraction from iteration 1: no AU002.
        let src = r#"
fn main() {
    au_config("M", "DNN", "AdamOpt", 1, 8);
    au_extract("F", 0);
    au_extract("Y", 0);
    let i = 0;
    while (i < 3) {
        au_nn("M", "F", "Y");
        au_extract("F", i);
        au_extract("Y", i);
        i = i + 1;
    }
    return 0;
}
"#;
        assert_eq!(codes(src), Vec::<String>::new());
    }

    #[test]
    fn checkpoint_in_one_branch_is_not_enough() {
        let src = r#"
fn main() {
    let x = 1;
    if (x > 0) { au_checkpoint(); } else { let y = 2; }
    au_restore();
    return 0;
}
"#;
        assert_eq!(codes(src), vec!["AU004"]);
    }

    #[test]
    fn checkpoint_in_both_branches_is_enough() {
        let src = r#"
fn main() {
    let x = 1;
    if (x > 0) { au_checkpoint(); } else { au_checkpoint(); }
    au_restore();
    return 0;
}
"#;
        assert_eq!(codes(src), Vec::<String>::new());
    }

    #[test]
    fn checkpoint_before_loop_covers_restore_inside() {
        let src = r#"
fn main() {
    au_checkpoint();
    let i = 0;
    while (i < 3) {
        au_restore();
        i = i + 1;
    }
    return 0;
}
"#;
        assert_eq!(codes(src), Vec::<String>::new());
    }

    #[test]
    fn checkpoint_only_inside_loop_does_not_cover_restore_after() {
        let src = r#"
fn main() {
    let i = 0;
    while (i < 3) {
        au_checkpoint();
        i = i + 1;
    }
    au_restore();
    return 0;
}
"#;
        assert_eq!(codes(src), vec!["AU004"]);
    }

    #[test]
    fn serialize_after_return_is_unreachable() {
        let src = r#"
fn main() {
    au_extract("A", 1);
    return 0;
    au_serialize("A");
}
"#;
        assert_eq!(codes(src), vec!["AU005"]);
    }

    #[test]
    fn serialize_under_literal_false_is_unreachable() {
        let src = r#"
fn main() {
    au_extract("A", 1);
    if (false) { au_serialize("A"); }
    let s = au_serialize("A");
    return 0;
}
"#;
        assert_eq!(codes(src), vec!["AU005"]);
    }

    #[test]
    fn lints_descend_into_called_functions() {
        let src = r#"
fn helper() {
    au_nn("M", "F", "Y");
    return 0;
}
fn main() {
    let r = helper();
    return r;
}
"#;
        // M never configured, F never extracted — both errors fire inside
        // the callee.
        assert_eq!(codes(src), vec!["AU001", "AU002"]);
    }

    #[test]
    fn uncalled_functions_are_not_flow_checked() {
        let src = r#"
fn dead() {
    au_restore();
    return 0;
}
fn main() {
    return 0;
}
"#;
        assert_eq!(codes(src), Vec::<String>::new());
    }

    #[test]
    fn recursion_terminates() {
        let src = r#"
fn f(n) {
    if (n < 1) { return 0; }
    return f(n - 1);
}
fn main() {
    return f(3);
}
"#;
        assert_eq!(codes(src), Vec::<String>::new());
    }

    #[test]
    fn call_chains_are_walked_once_per_context() {
        // Each of 30 functions calls the next from both arms of an `if`:
        // walking every call site anew would walk the last one 2^30 times.
        let mut src = String::from("fn f30(x) { au_restore(); return x; }\n");
        for k in (0..30).rev() {
            src += &format!(
                "fn f{k}(x) {{ if (x > 0) {{ return f{n}(x - 1); }} \
                 else {{ return f{n}(x + 1); }} }}\n",
                n = k + 1
            );
        }
        src += "fn main() { au_checkpoint(); return f0(1); }\n";
        assert_eq!(codes(&src), Vec::<String>::new());
        let unguarded = src.replace("au_checkpoint();", "");
        assert_eq!(codes(&unguarded), vec!["AU004"]);
    }

    #[test]
    fn dynamic_names_are_skipped() {
        // Model name is not a string literal: no AU001 (cannot resolve).
        let src = r#"
fn main() {
    let m = "M";
    au_extract("F", 1);
    au_extract("Y", 1);
    au_nn(m, "F", "Y");
    return 0;
}
"#;
        assert_eq!(codes(src), Vec::<String>::new());
    }
}
