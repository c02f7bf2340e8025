//! Golden facts for the static dependence analysis and the bytecode
//! compiler over every AuLang program in the repository (the same 30
//! programs as `tests/absint_facts.rs`).
//!
//! For each program the dump holds:
//!
//! - the static [`AnalysisDb`] from `static_analysis::analyze`: every
//!   variable in interning order with its direct dependents, the
//!   functions it is used in, and the input and target sets;
//! - the [`StaticFilter::proves_unrelated`] matrix over every ordered
//!   pair of those variables;
//! - `compile_program`'s output in the Off, Full and Selective trace
//!   modes: every field of its `Debug` form, with one opcode a line.
//!
//! Selective compiles pick their trace sites from these static facts, so
//! a rewrite of the analysis must leave this file byte-identical. After an
//! intended change in what the analysis proves or what the compiler
//! emits, regenerate it with
//!
//! ```text
//! AU_BLESS=1 cargo test --test static_facts
//! ```

mod common;

use autonomizer::lang::{compile_program, parse, static_analysis, TraceMode};
use autonomizer::trace::{AnalysisDb, StaticFilter, VarId};
use std::fmt::Write as _;

const GOLDEN: &str = "tests/golden/static_facts.txt";

/// `[a, b, c]` from variable ids, by name.
fn name_list(db: &AnalysisDb, vars: impl IntoIterator<Item = VarId>) -> String {
    let names: Vec<&str> = vars.into_iter().map(|v| db.name(v)).collect();
    format!("[{}]", names.join(", "))
}

fn dump_analysis(s: &mut String, db: &AnalysisDb) {
    writeln!(s, "analysis {} vars", db.var_count()).unwrap();
    for v in db.all_vars() {
        let uses = db.use_funcs(v);
        writeln!(
            s,
            "  {} -> {} uses [{}]",
            db.name(v),
            name_list(db, db.direct_dependents(v)),
            uses.join(", ")
        )
        .unwrap();
    }
    writeln!(s, "inputs {}", name_list(db, db.inputs().iter().copied())).unwrap();
    writeln!(s, "targets {}", name_list(db, db.targets().iter().copied())).unwrap();
}

/// One row per variable `w`: column `v` reads `u` when the filter proves
/// `w` and `v` unrelated, `.` otherwise.
fn dump_filter(s: &mut String, db: &AnalysisDb, filter: &StaticFilter) {
    writeln!(s, "unrelated").unwrap();
    for w in db.all_vars() {
        let row: String = db
            .all_vars()
            .map(|v| {
                if filter.proves_unrelated(db.name(w), db.name(v)) {
                    'u'
                } else {
                    '.'
                }
            })
            .collect();
        writeln!(s, "  {row} {}", db.name(w)).unwrap();
    }
}

/// Splits `s` at the `", "` separators that sit outside every bracket
/// and string literal of a `Debug` rendering.
fn split_top(s: &str) -> Vec<&str> {
    let mut parts = Vec::new();
    let (mut depth, mut in_str, mut escaped, mut from) = (0usize, false, false, 0usize);
    let bytes = s.as_bytes();
    for (i, &b) in bytes.iter().enumerate() {
        if in_str {
            match b {
                _ if escaped => escaped = false,
                b'\\' => escaped = true,
                b'"' => in_str = false,
                _ => {}
            }
            continue;
        }
        match b {
            b'"' => in_str = true,
            b'(' | b'[' | b'{' => depth += 1,
            b')' | b']' | b'}' => depth -= 1,
            b',' if depth == 0 && bytes.get(i + 1) == Some(&b' ') => {
                parts.push(&s[from..i]);
                from = i + 2;
            }
            _ => {}
        }
    }
    if from < s.len() {
        parts.push(&s[from..]);
    }
    parts
}

fn dump_compiled(s: &mut String, mode: TraceMode, debug: &str) {
    writeln!(s, "compile {mode:?}").unwrap();
    let body = debug
        .strip_prefix("CompiledProgram { ")
        .and_then(|b| b.strip_suffix(" }"))
        .expect("CompiledProgram debug form");
    for field in split_top(body) {
        let (name, value) = field.split_once(": ").expect("field: value");
        if name == "ops" {
            let list = value
                .strip_prefix('[')
                .and_then(|v| v.strip_suffix(']'))
                .expect("ops list");
            let ops = split_top(list);
            writeln!(s, "  ops {}", ops.len()).unwrap();
            for op in ops {
                writeln!(s, "    {op}").unwrap();
            }
        } else {
            writeln!(s, "  {name}: {value}").unwrap();
        }
    }
}

fn full_dump() -> (String, usize) {
    let progs = common::repo_programs();
    let mut out = String::new();
    for (label, src) in &progs {
        let program = parse(src).unwrap_or_else(|e| panic!("[{label}] must parse: {e}"));
        writeln!(out, "== {label}").unwrap();
        let db = static_analysis::analyze(&program);
        dump_analysis(&mut out, &db);
        dump_filter(&mut out, &db, &StaticFilter::new(&db));
        for mode in [TraceMode::Off, TraceMode::Full, TraceMode::Selective] {
            let debug = format!("{:?}", compile_program(&program, mode));
            dump_compiled(&mut out, mode, &debug);
        }
    }
    (out, progs.len())
}

#[test]
fn static_facts_match_golden() {
    let (actual, n) = full_dump();
    assert_eq!(n, 30, "nine corpus programs + 20 lint fixtures + 1 example");
    common::check_golden(GOLDEN, &actual);
}

/// The dump must be a function of the program alone: hash-map iteration
/// order must not leak into the analysis or the bytecode.
#[test]
fn static_facts_dump_is_deterministic() {
    assert_eq!(full_dump().0, full_dump().0);
}

#[test]
fn debug_splitter_respects_brackets_and_strings() {
    assert_eq!(
        split_top(r#"a: [1, 2], b: Str(", ]\" ["), c: X { d: 3, e: 4 }"#),
        vec![
            r#"a: [1, 2]"#,
            r#"b: Str(", ]\" [")"#,
            "c: X { d: 3, e: 4 }"
        ]
    );
}
