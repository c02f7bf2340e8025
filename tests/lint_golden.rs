//! Golden diagnostics for au-lint: every finding `lint_program` reports on
//! every AuLang program in the repository, and on statement-deletion
//! mutants of the nine corpus programs, must match
//! `tests/golden/lint_diagnostics.txt` byte for byte.
//!
//! A mutant drops one statement that calls an `au_*` primitive — a
//! missing configuration, extraction, prediction, checkpoint or
//! write-back — and is linted against the original source, so every span
//! still points into text that exists. The lint corpus pins one seeded
//! finding per code; the mutants pin what the protocol walk, the site
//! table and the value lints say about realistic programs with one step
//! missing. A refactor of au-lint must leave this file untouched;
//! regenerate it with
//!
//! ```text
//! AU_BLESS=1 cargo test --test lint_golden
//! ```

mod common;

use autonomizer::lang::{
    corpus, for_each_subexpr, parse, ExprId, ExprKind, Program, Span, Stmt, StmtKind,
};
use autonomizer::lint::{lint_program, Diagnostic};
use std::fmt::Write as _;

const GOLDEN: &str = "tests/golden/lint_diagnostics.txt";

/// Whether `e` or any expression inside it calls an `au_*` primitive;
/// `p` spells the names.
fn calls_primitive(p: &Program, e: ExprId) -> bool {
    let mut calls = false;
    for_each_subexpr(
        p,
        e,
        &mut |e| {
            calls |=
                matches!(e.kind, ExprKind::Call { name, .. } if p.name(name).starts_with("au_"))
        },
    );
    calls
}

/// Whether `stmt` itself (not a nested block) calls an `au_*` primitive.
fn is_primitive_stmt(p: &Program, stmt: &Stmt) -> bool {
    match &stmt.kind {
        StmtKind::Let { init: e, .. }
        | StmtKind::Assign { value: e, .. }
        | StmtKind::Expr(e)
        | StmtKind::Return(Some(e)) => calls_primitive(p, *e),
        StmtKind::AssignIndex { index, value, .. } => {
            calls_primitive(p, *index) || calls_primitive(p, *value)
        }
        _ => false,
    }
}

/// Removes the `k`-th primitive statement of `stmts` (pre-order, counting
/// down `k`) and returns its span, or `None` if there are fewer.
fn remove_nth(p: &Program, stmts: &mut Vec<Stmt>, k: &mut usize) -> Option<Span> {
    for i in 0..stmts.len() {
        if is_primitive_stmt(p, &stmts[i]) {
            if *k == 0 {
                return Some(stmts.remove(i).span);
            }
            *k -= 1;
        }
        let removed = match &mut stmts[i].kind {
            StmtKind::If {
                then_body,
                else_body,
                ..
            } => remove_nth(p, then_body, k).or_else(|| remove_nth(p, else_body, k)),
            StmtKind::While { body, .. } => remove_nth(p, body, k),
            _ => None,
        };
        if removed.is_some() {
            return removed;
        }
    }
    None
}

/// Every one-statement deletion mutant of `program`, with the span of the
/// statement it lacks.
fn mutants(program: &Program) -> Vec<(Span, Program)> {
    let mut out = Vec::new();
    for n in 0.. {
        let mut mutant = program.to_builder();
        let mut k = n;
        let removed = mutant
            .functions_mut()
            .iter_mut()
            .find_map(|f| remove_nth(program, &mut f.body, &mut k));
        match removed {
            Some(span) => out.push((span, mutant.build().expect("a mutant keeps its main"))),
            None => break,
        }
    }
    out
}

fn dump(out: &mut String, label: &str, diags: &[Diagnostic]) {
    writeln!(out, "== {label}").unwrap();
    for d in diags {
        writeln!(
            out,
            "{} {} {}..{} {}:{} {}",
            d.code, d.severity, d.start, d.end, d.line, d.column, d.message
        )
        .unwrap();
    }
}

fn full_dump() -> (String, usize) {
    let mut out = String::new();
    for (label, src) in common::repo_programs() {
        let program = parse(&src).unwrap_or_else(|e| panic!("[{label}] must parse: {e}"));
        dump(&mut out, &label, &lint_program(&program, &src));
    }
    let mut n_mutants = 0;
    for p in corpus::all() {
        let program = parse(p.src).unwrap_or_else(|e| panic!("[{}] must parse: {e}", p.name));
        for (span, mutant) in mutants(&program) {
            let label = format!("corpus/{} without {}..{}", p.name, span.start, span.end);
            dump(&mut out, &label, &lint_program(&mutant, p.src));
            n_mutants += 1;
        }
    }
    (out, n_mutants)
}

#[test]
fn lint_diagnostics_match_golden() {
    let (actual, n_mutants) = full_dump();
    assert_eq!(n_mutants, 51, "primitive-statement deletions of the corpus");
    common::check_golden(GOLDEN, &actual);
}
