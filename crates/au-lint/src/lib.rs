//! au-lint — a span-aware static verifier for the AuLang autonomization
//! protocol.
//!
//! The paper's operational semantics (Fig. 8) imposes an implicit contract
//! on the seven `au_*` primitives: models must be configured before
//! prediction, feature lists extracted before they are consumed,
//! checkpoint/restore balanced, and write-back keys must name something the
//! Engine will actually have produced. Today a violation only surfaces as a
//! runtime error deep inside the Engine; this crate surfaces it at compile
//! time, with `rustc`-style rendered diagnostics pointing at the offending
//! source span.
//!
//! Three lint families:
//!
//! - **protocol lints** (`AU001`–`AU006`, `AU009`, `AU010`): a
//!   flow-sensitive dataflow walk of the AST tracking may-configured
//!   models, may-extracted feature lists, and must-checkpoint state;
//! - **dependence lints** (`AU007`, `AU008`): reuse the static
//!   program-dependence graph from `au_lang::static_analysis`, augmented
//!   with π-list pseudo-variables that model dataflow *through* the Engine
//!   (extract → predict → write-back), to prove Algorithm 1's feature
//!   criterion `dep(w) ∩ dep(v) ≠ ∅` can never hold for an extracted
//!   feature or that a target is statically unreachable from every input;
//! - **abstract-interpretation lints** (`AU011`–`AU015`): value facts from
//!   `au_lang::absint` (interprocedural constant propagation, intervals,
//!   liveness) matched against instrumentation sites — dead stores to
//!   extracted variables, provably-constant features, unreachable
//!   checkpoint/restore, possible division by zero, and loop-invariant
//!   trace instrumentation.
//!
//! Entry points: [`lint_source`] / [`lint_program`] to collect
//! [`Diagnostic`]s, [`render`] / [`render_all`] for human output,
//! `serde_json` on [`Diagnostic`] for machine output, and [`preflight`] for
//! the interpreter's opt-in pre-run gate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod absint_lints;
mod depgraph;
mod protocol;
mod sites;

use au_lang::{parse, Interpreter, LangError, Program, Span};
use serde::{Deserialize, Serialize};

/// How bad a diagnostic is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Severity {
    /// Suspicious but runnable (dead extraction, unused model, …).
    Warning,
    /// The program will fail or misbehave at runtime.
    Error,
}

impl std::fmt::Display for Severity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// A single lint finding, locatable in the source both by 1-based
/// line/column and by byte offsets.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Diagnostic {
    /// Stable lint code (`AU001`…`AU015`).
    pub code: String,
    /// Severity of the finding.
    pub severity: Severity,
    /// Human-readable description.
    pub message: String,
    /// 1-based source line of the span start.
    pub line: usize,
    /// 1-based column (in bytes) of the span start.
    pub column: usize,
    /// Byte offset of the start of the offending span.
    pub start: usize,
    /// Byte offset one past the end of the offending span.
    pub end: usize,
    /// The full source line containing the span start.
    pub snippet: String,
}

/// The lint registry: code, severity, and one-line description of every
/// lint this crate can emit (see `docs/linting.md`).
pub const LINTS: &[(&str, Severity, &str)] = &[
    (
        "AU001",
        Severity::Error,
        "prediction on a model that is never configured before this point",
    ),
    (
        "AU002",
        Severity::Error,
        "prediction whose feature list is not extracted before this point",
    ),
    (
        "AU003",
        Severity::Error,
        "write-back key that no prediction or extraction ever produces",
    ),
    (
        "AU004",
        Severity::Error,
        "au_restore not preceded by au_checkpoint on every path",
    ),
    (
        "AU005",
        Severity::Warning,
        "au_serialize in unreachable code",
    ),
    (
        "AU006",
        Severity::Warning,
        "extracted feature list that nothing ever consumes",
    ),
    (
        "AU007",
        Severity::Warning,
        "extracted feature variable with no static dependence relation to any target",
    ),
    (
        "AU008",
        Severity::Warning,
        "prediction target statically independent of every program input",
    ),
    (
        "AU009",
        Severity::Warning,
        "model configured but never used in any prediction",
    ),
    (
        "AU010",
        Severity::Warning,
        "au_config on a model that may already be configured",
    ),
    (
        "AU011",
        Severity::Warning,
        "dead store to an extracted variable — the value can never reach au_extract",
    ),
    (
        "AU012",
        Severity::Warning,
        "extracted feature that is provably constant on every execution",
    ),
    (
        "AU013",
        Severity::Warning,
        "au_checkpoint/au_restore in unreachable code",
    ),
    (
        "AU014",
        Severity::Warning,
        "division whose divisor may be zero on some execution",
    ),
    (
        "AU015",
        Severity::Warning,
        "loop-invariant assignment re-traced on every iteration",
    ),
];

/// A not-yet-located finding produced by the lint passes.
#[derive(Debug, Clone)]
pub(crate) struct RawDiag {
    pub code: &'static str,
    pub severity: Severity,
    pub span: Span,
    pub message: String,
}

/// Byte-offset → line/column mapping for one source file.
pub(crate) struct LineIndex {
    /// Byte offset of the start of each line (line 1 starts at `starts[0]`).
    starts: Vec<usize>,
}

impl LineIndex {
    pub(crate) fn new(src: &str) -> Self {
        let mut starts = vec![0];
        for (i, b) in src.bytes().enumerate() {
            if b == b'\n' {
                starts.push(i + 1);
            }
        }
        LineIndex { starts }
    }

    /// 1-based (line, column) of a byte offset.
    pub(crate) fn line_col(&self, offset: usize) -> (usize, usize) {
        let line = self.starts.partition_point(|&s| s <= offset);
        let col = offset - self.starts[line - 1] + 1;
        (line, col)
    }

    /// The text of a 1-based line, without its trailing newline.
    pub(crate) fn line_text<'s>(&self, src: &'s str, line: usize) -> &'s str {
        let start = self.starts[line - 1];
        let end = self
            .starts
            .get(line)
            .map(|&e| e.saturating_sub(1))
            .unwrap_or(src.len());
        &src[start.min(src.len())..end.max(start).min(src.len())]
    }
}

/// Lints a parsed program against its source text.
///
/// The program is walked once for its primitive sites, which every lint
/// family reads; the protocol walk and `absint` then follow control flow.
/// Returns findings sorted by source position then code, deduplicated by
/// (code, span) — a function called from two sites reports each of its
/// violations once.
pub fn lint_program(program: &Program, src: &str) -> Vec<Diagnostic> {
    let sites = sites::Sites::scan(program);
    let mut raw = protocol::site_lints(&sites);
    raw.extend(protocol::protocol_lints(program));
    raw.extend(depgraph::lints(&sites));
    // AU012 yields to AU007 at the same site: "no dependence path to any
    // target" subsumes "constant" for an extracted feature.
    let au007_spans = raw
        .iter()
        .filter(|d| d.code == "AU007")
        .map(|d| (d.span.start, d.span.end))
        .collect();
    raw.extend(absint_lints::lints(&sites, &au007_spans));
    raw.sort_by(|a, b| (a.span.start, a.span.end, a.code).cmp(&(b.span.start, b.span.end, b.code)));
    raw.dedup_by(|a, b| a.code == b.code && a.span == b.span);
    let index = LineIndex::new(src);
    raw.into_iter()
        .map(|d| {
            let (line, column) = index.line_col(d.span.start);
            Diagnostic {
                code: d.code.to_owned(),
                severity: d.severity,
                message: d.message,
                line,
                column,
                start: d.span.start,
                end: d.span.end,
                snippet: index.line_text(src, line).to_owned(),
            }
        })
        .collect()
}

/// Parses and lints AuLang source.
///
/// # Errors
///
/// Returns the parse/lex error if `src` is not a valid program; lint
/// findings are not errors.
pub fn lint_source(src: &str) -> Result<Vec<Diagnostic>, LangError> {
    let program = parse(src)?;
    Ok(lint_program(&program, src))
}

/// Renders one diagnostic in rustc style:
///
/// ```text
/// error[AU001]: `au_nn` on model `M` that is never configured
///   --> game.au:4:5
///    |
///  4 |     au_nn("M", "F", "Y");
///    |     ^^^^^^^^^^^^^^^^^^^^
/// ```
pub fn render(diag: &Diagnostic, filename: &str) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(out, "{}[{}]: {}", diag.severity, diag.code, diag.message);
    let _ = writeln!(out, "  --> {filename}:{}:{}", diag.line, diag.column);
    let gutter = diag.line.to_string().len();
    let _ = writeln!(out, "{:gutter$} |", "");
    let _ = writeln!(out, "{} | {}", diag.line, diag.snippet);
    // Caret-underline the span portion that falls on the snippet line.
    let span_on_line = (diag.end - diag.start)
        .max(1)
        .min(diag.snippet.len().saturating_sub(diag.column - 1).max(1));
    let _ = writeln!(
        out,
        "{:gutter$} | {:pad$}{}",
        "",
        "",
        "^".repeat(span_on_line),
        pad = diag.column - 1
    );
    out
}

/// Renders all diagnostics plus a closing summary line. Returns an empty
/// string when there is nothing to report.
pub fn render_all(diags: &[Diagnostic], filename: &str) -> String {
    if diags.is_empty() {
        return String::new();
    }
    let mut out = String::new();
    for d in diags {
        out.push_str(&render(d, filename));
        out.push('\n');
    }
    let errors = diags
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .count();
    let warnings = diags.len() - errors;
    out.push_str(&format!(
        "{filename}: {errors} error(s), {warnings} warning(s)\n"
    ));
    out
}

/// Serializes diagnostics as a JSON array (machine-readable `--format json`
/// output). The schema is documented in `docs/linting.md` and round-trips
/// through [`diagnostics_from_json`].
pub fn diagnostics_to_json(diags: &[Diagnostic]) -> String {
    serde_json::to_string(&diags.to_vec()).expect("diagnostics serialize infallibly")
}

/// Parses the JSON produced by [`diagnostics_to_json`].
///
/// # Errors
///
/// Returns the underlying deserialization error message.
pub fn diagnostics_from_json(json: &str) -> Result<Vec<Diagnostic>, String> {
    serde_json::from_str(json).map_err(|e| e.to_string())
}

/// Why [`preflight`] refused to hand out an interpreter.
#[derive(Debug)]
pub enum PreflightError {
    /// The source failed to lex/parse.
    Lang(LangError),
    /// Error-severity lints fired; all findings (including warnings) are
    /// included for reporting.
    Lint(Vec<Diagnostic>),
}

impl std::fmt::Display for PreflightError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PreflightError::Lang(e) => write!(f, "{e}"),
            PreflightError::Lint(diags) => {
                let errors = diags
                    .iter()
                    .filter(|d| d.severity == Severity::Error)
                    .count();
                write!(f, "preflight found {errors} protocol error(s)")
            }
        }
    }
}

impl std::error::Error for PreflightError {}

impl From<LangError> for PreflightError {
    fn from(e: LangError) -> Self {
        PreflightError::Lang(e)
    }
}

/// Compiles `src` into an [`Interpreter`] only if it passes the verifier:
/// the opt-in pre-flight gate for the interpreter (`aulang run
/// --preflight`).
///
/// Returns the ready interpreter together with any warning-severity
/// findings (the caller decides whether to surface them).
///
/// # Errors
///
/// [`PreflightError::Lang`] on parse failure; [`PreflightError::Lint`]
/// (carrying every finding) if any error-severity lint fires.
pub fn preflight(src: &str) -> Result<(Interpreter, Vec<Diagnostic>), PreflightError> {
    let program = parse(src)?;
    let diags = lint_program(&program, src);
    if diags.iter().any(|d| d.severity == Severity::Error) {
        return Err(PreflightError::Lint(diags));
    }
    Ok((Interpreter::with_program(program), diags))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_index_maps_offsets() {
        let src = "ab\ncde\nf";
        let idx = LineIndex::new(src);
        assert_eq!(idx.line_col(0), (1, 1));
        assert_eq!(idx.line_col(3), (2, 1));
        assert_eq!(idx.line_col(5), (2, 3));
        assert_eq!(idx.line_col(7), (3, 1));
        assert_eq!(idx.line_text(src, 1), "ab");
        assert_eq!(idx.line_text(src, 2), "cde");
        assert_eq!(idx.line_text(src, 3), "f");
    }

    #[test]
    fn clean_program_yields_no_diagnostics() {
        let src = r#"
fn main() {
    au_config("M", "DNN", "AdamOpt", 1, 8);
    let x = input("x", 1);
    au_extract("F", x);
    au_extract("Y", x * 2);
    au_nn("M", "F", "Y");
    let t = 0;
    t = au_write_back("Y");
    return t;
}
"#;
        let diags = lint_source(src).unwrap();
        assert!(diags.is_empty(), "unexpected diagnostics: {diags:?}");
    }

    #[test]
    fn render_points_at_the_span() {
        let src = "fn main() {\n    au_restore();\n    return 0;\n}\n";
        let diags = lint_source(src).unwrap();
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, "AU004");
        let text = render(&diags[0], "t.au");
        assert!(text.contains("error[AU004]"), "{text}");
        assert!(text.contains("--> t.au:2:5"), "{text}");
        assert!(text.contains("au_restore()"), "{text}");
        assert!(text.contains("^^^^"), "{text}");
    }

    #[test]
    fn json_round_trips() {
        let src = "fn main() {\n    au_restore();\n    return 0;\n}\n";
        let diags = lint_source(src).unwrap();
        let json = diagnostics_to_json(&diags);
        let back = diagnostics_from_json(&json).unwrap();
        assert_eq!(diags, back);
    }

    #[test]
    fn preflight_blocks_errors_and_passes_clean_programs() {
        let bad = "fn main() {\n    au_restore();\n    return 0;\n}\n";
        match preflight(bad) {
            Err(PreflightError::Lint(diags)) => {
                assert!(diags.iter().any(|d| d.code == "AU004"));
            }
            other => panic!("expected lint failure, got {other:?}"),
        }

        let good = "fn main() { let x = 1; return x + 1; }";
        let (mut interp, warnings) = preflight(good).unwrap();
        assert!(warnings.is_empty());
        assert_eq!(interp.run().unwrap().as_num(), Some(2.0));
    }

    #[test]
    fn preflight_allows_warnings_through() {
        // Dead extraction is a warning, not an error: run is permitted.
        let src = "fn main() { au_extract(\"J\", 1); return 0; }";
        let (_, warnings) = preflight(src).unwrap();
        assert_eq!(warnings.len(), 1);
        assert_eq!(warnings[0].code, "AU006");
    }

    #[test]
    fn au012_anchors_at_any_extraction_but_au007_only_at_named_ones() {
        // AU012 takes a feature variable's first span over every
        // `au_extract`; AU007 only over those whose list name is a string
        // literal. Here `k` first appears under a computed name, so the
        // two lints anchor at different spans and AU012 does not yield.
        let src = r#"
fn main() {
    au_config("M", "DNN", "AdamOpt", 1, 8);
    let x = input("x", 1);
    let k = 5;
    let name = "G";
    au_extract(name, k);
    au_extract("F", x);
    au_extract("G", k);
    au_extract("Y", x * 2);
    au_nn("M", "F", "Y");
    let t = 0;
    t = au_write_back("Y");
    return t;
}
"#;
        let first_k = src.find("name, k").unwrap() + 6;
        let named_k = src.find("\"G\", k").unwrap() + 5;
        let named_call = src.find("au_extract(\"G\"").unwrap();
        let found: Vec<(String, usize)> = lint_source(src)
            .unwrap()
            .into_iter()
            .map(|d| (d.code, d.start))
            .collect();
        let want = [
            ("AU012", first_k),
            ("AU006", named_call),
            ("AU007", named_k),
        ];
        assert_eq!(found, want.map(|(c, at)| (c.to_owned(), at)));
    }

    #[test]
    fn lint_registry_is_consistent() {
        assert_eq!(LINTS.len(), 15);
        for (i, (code, _, _)) in LINTS.iter().enumerate() {
            assert_eq!(*code, format!("AU{:03}", i + 1));
        }
    }
}
