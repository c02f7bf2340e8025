//! Abstract-interpretation lints: AU011–AU015 on `au_lang::absint` facts.
//!
//! Where the dependence lints (AU007/AU008) reason about *graph shape*,
//! these lints reason about *values*: [`au_lang::absint::analyze`] runs a
//! flow-sensitive interprocedural abstract interpretation (constant
//! propagation, intervals, liveness) and every fact it exports holds on
//! **every** concrete execution. That soundness direction is what makes
//! these reportable as lints rather than heuristics:
//!
//! - **AU011** — a dead store to a variable that appears in an
//!   `au_extract` feature vector: the stored value is overwritten before
//!   any read, so it can never reach the extraction.
//! - **AU012** — a feature variable that is provably constant: a
//!   zero-variance feature is dead weight in θ (Algorithm 2's ε₂ pass
//!   would discard it dynamically; this catches it statically).
//!   Suppressed where AU007 already fired on the same site — a feature
//!   with no dependence path to any target is the stronger finding.
//! - **AU013** — `au_checkpoint`/`au_restore` in unreachable code: the
//!   paper's Fig. 8 semantics only fire when the call executes.
//! - **AU014** — a division whose divisor interval provably contains
//!   zero (always, or possibly): the quotient poisons every dependent
//!   trace value with `inf`/`NaN`.
//! - **AU015** — a loop-invariant assignment inside a loop: under
//!   tracing, every iteration re-records the identical assignment event,
//!   inflating the dependence database for no information gain.

use crate::sites::Sites;
use crate::{RawDiag, Severity};
use au_lang::absint;
use std::collections::BTreeSet;

/// Runs AU011–AU015 over the program behind `sites`. `au007_spans` holds
/// the (start, end) spans AU007 fired on, so AU012 can yield to the
/// stronger finding.
pub(crate) fn lints(sites: &Sites, au007_spans: &BTreeSet<(usize, usize)>) -> Vec<RawDiag> {
    let analysis = absint::analyze(sites.program);
    // Feature variable → first span inside any `au_extract` argument.
    // AU007 anchors the same way but over named extractions only, so
    // the two spans differ when a computed list name comes first.
    let features = sites.features(false);
    let mut diags = Vec::new();

    // AU011: dead store to an extracted variable. Liveness is syntactic,
    // so this fires even when the value analysis bails out.
    for d in &analysis.dead_stores {
        if features.contains_key(d.name.as_str()) {
            diags.push(RawDiag {
                code: "AU011",
                severity: Severity::Warning,
                span: d.span,
                message: format!(
                    "dead store to extracted variable `{}` — the value is \
                     overwritten before any read, so it can never reach an \
                     `au_extract`",
                    d.name
                ),
            });
        }
    }

    // AU012: statically-constant feature in an extraction vector.
    for (name, span) in &features {
        if au007_spans.contains(&(span.start, span.end)) {
            continue; // AU007 is the stronger finding for this site
        }
        if let Some(v) = analysis.constants.get(*name) {
            diags.push(RawDiag {
                code: "AU012",
                severity: Severity::Warning,
                span: *span,
                message: format!(
                    "feature `{name}` is provably `{v}` on every execution — \
                     a constant feature carries no information for the model"
                ),
            });
        }
    }

    // AU013: checkpoint/restore that can never execute.
    let ckpt_calls = sites
        .calls
        .iter()
        .filter(|c| matches!(c.name, "au_checkpoint" | "au_restore"));
    for call in ckpt_calls {
        let span = call.span;
        if analysis
            .unreachable
            .iter()
            .any(|u| u.start <= span.start && span.end <= u.end)
        {
            diags.push(RawDiag {
                code: "AU013",
                severity: Severity::Warning,
                span,
                message: format!(
                    "`{}` is unreachable — σ/π snapshot semantics only \
                     apply on paths that execute",
                    call.name
                ),
            });
        }
    }

    // AU014: division by a possibly-zero divisor.
    for d in &analysis.div_zero {
        let detail = if d.lo == 0.0 && d.hi == 0.0 {
            "the divisor is provably zero".to_owned()
        } else {
            format!(
                "the divisor's value range [{}, {}] contains zero",
                d.lo, d.hi
            )
        };
        diags.push(RawDiag {
            code: "AU014",
            severity: Severity::Warning,
            span: d.span,
            message: format!(
                "possible division by zero: {detail} — the quotient would \
                 poison dependent trace values with inf/NaN"
            ),
        });
    }

    // AU015: loop-invariant instrumentation.
    for li in &analysis.loop_invariant {
        diags.push(RawDiag {
            code: "AU015",
            severity: Severity::Warning,
            span: li.span,
            message: format!(
                "assignment to `{}` is loop-invariant — every iteration \
                 re-records an identical trace event; hoist it out of the \
                 loop",
                li.name
            ),
        });
    }

    diags
}

/// AU011–AU015 on a program of their own, for the tests below.
#[cfg(test)]
fn absint_lints(
    program: &au_lang::Program,
    au007_spans: &BTreeSet<(usize, usize)>,
) -> Vec<RawDiag> {
    lints(&Sites::scan(program), au007_spans)
}

#[cfg(test)]
mod tests {
    use super::*;
    use au_lang::parse;

    fn codes(src: &str) -> Vec<String> {
        let program = parse(src).unwrap();
        let mut diags = absint_lints(&program, &BTreeSet::new());
        diags.sort_by_key(|d| (d.span.start, d.code));
        diags.into_iter().map(|d| d.code.to_owned()).collect()
    }

    #[test]
    fn dead_store_to_extracted_variable_fires_au011() {
        let src = r#"
fn main() {
    let x = input("x", 1);
    let f = x * 2;
    f = x * 3;
    au_extract("F", f);
    return 0;
}
"#;
        assert_eq!(codes(src), vec!["AU011"]);
    }

    #[test]
    fn dead_store_to_unextracted_variable_is_quiet_here() {
        // A dead store to a non-feature variable is not this family's
        // business (no extraction is affected).
        let src = r#"
fn main() {
    let x = input("x", 1);
    let junk = x * 2;
    junk = x * 3;
    return junk;
}
"#;
        assert_eq!(codes(src), Vec::<String>::new());
    }

    #[test]
    fn constant_feature_fires_au012() {
        let src = r#"
fn main() {
    let x = input("x", 1);
    let k = 5;
    au_extract("F", [x, k]);
    au_extract("Y", x * 2);
    return 0;
}
"#;
        assert_eq!(codes(src), vec!["AU012"]);
    }

    #[test]
    fn au012_yields_to_au007_on_the_same_site() {
        let src = r#"
fn main() {
    let x = input("x", 1);
    let k = 5;
    au_extract("F", [x, k]);
    au_extract("Y", x * 2);
    return 0;
}
"#;
        let program = parse(src).unwrap();
        // Pretend AU007 fired on `k`'s site inside the vector.
        let k_at = src.find("x, k]").unwrap() + 3;
        let mut au007 = BTreeSet::new();
        au007.insert((k_at, k_at + 1));
        let diags = absint_lints(&program, &au007);
        assert!(
            diags.iter().all(|d| d.code != "AU012"),
            "AU012 must yield: {diags:?}"
        );
    }

    #[test]
    fn unreachable_checkpoint_fires_au013() {
        let src = r#"
fn main() {
    let x = input("x", 1);
    if (false) {
        au_checkpoint();
    }
    return x;
}
"#;
        assert_eq!(codes(src), vec!["AU013"]);
    }

    #[test]
    fn possible_division_by_zero_fires_au014() {
        let src = r#"
fn main() {
    let x = input("x", 1);
    let d = 0;
    if (x > 0) {
        d = 1;
    }
    return x / d;
}
"#;
        assert_eq!(codes(src), vec!["AU014"]);
    }

    #[test]
    fn loop_invariant_assignment_fires_au015() {
        let src = r#"
fn main() {
    let x = input("x", 1);
    let i = 0;
    let y = 0;
    while (i < 10) {
        y = x * 2;
        i = i + 1;
    }
    return y;
}
"#;
        assert_eq!(codes(src), vec!["AU015"]);
    }

    #[test]
    fn clean_pipeline_is_quiet() {
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
        assert_eq!(codes(src), Vec::<String>::new());
    }
}
