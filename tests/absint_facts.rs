//! Golden facts for the abstract interpreter: a canonical dump of every
//! [`Analysis`] field over every AuLang program in the repository (the
//! nine corpus programs, the lint corpus including `clean/`, and the
//! bundled examples) must match `tests/golden/absint_facts.txt` byte for
//! byte.
//!
//! The AU011–AU015 lints consume these facts, and the analysis exports no
//! others, so any change to the analysis — including a pure speed-up —
//! has to leave this file untouched. After an intended change in what
//! the analysis proves, regenerate it with
//!
//! ```text
//! AU_BLESS=1 cargo test --test absint_facts
//! ```

mod common;

use autonomizer::lang::absint::{analyze, Analysis};
use autonomizer::lang::parse;
use std::fmt::Write as _;

const GOLDEN: &str = "tests/golden/absint_facts.txt";

/// Renders an `f64` exactly: the shortest round-trip form plus its bits,
/// so `-0.0`/`+0.0` and every NaN payload stay distinguishable.
fn num(x: f64) -> String {
    format!("{x:?}#{:016x}", x.to_bits())
}

/// One canonical, order-independent text form of an [`Analysis`].
fn dump(label: &str, an: &Analysis) -> String {
    let mut s = String::new();
    writeln!(s, "== {label}").unwrap();
    writeln!(s, "complete {}", an.complete).unwrap();
    writeln!(s, "constants {}", an.constants.len()).unwrap();
    for (name, c) in &an.constants {
        writeln!(s, "  {name} = {}", num(*c)).unwrap();
    }
    writeln!(s, "dead_stores {}", an.dead_stores.len()).unwrap();
    for d in &an.dead_stores {
        writeln!(
            s,
            "  {} {}..{} value {}..{}",
            d.name, d.span.start, d.span.end, d.value_span.start, d.value_span.end
        )
        .unwrap();
    }
    writeln!(s, "unreachable {}", an.unreachable.len()).unwrap();
    for sp in &an.unreachable {
        writeln!(s, "  {}..{}", sp.start, sp.end).unwrap();
    }
    writeln!(s, "div_zero {}", an.div_zero.len()).unwrap();
    for d in &an.div_zero {
        writeln!(
            s,
            "  {}..{} [{}, {}]",
            d.span.start,
            d.span.end,
            num(d.lo),
            num(d.hi)
        )
        .unwrap();
    }
    writeln!(s, "loop_invariant {}", an.loop_invariant.len()).unwrap();
    for li in &an.loop_invariant {
        writeln!(s, "  {} {}..{}", li.name, li.span.start, li.span.end).unwrap();
    }
    s
}

fn full_dump() -> (String, usize) {
    let progs = common::repo_programs();
    let mut out = String::new();
    for (label, src) in &progs {
        let program = parse(src).unwrap_or_else(|e| panic!("[{label}] must parse: {e}"));
        out.push_str(&dump(label, &analyze(&program)));
    }
    (out, progs.len())
}

#[test]
fn absint_facts_match_golden() {
    let (actual, n) = full_dump();
    assert_eq!(n, 30, "nine corpus programs + 20 lint fixtures + 1 example");
    common::check_golden(GOLDEN, &actual);
}

/// The dump must be a function of the program alone: two analyses of the
/// same source render identically (hash-map iteration order must not leak).
#[test]
fn absint_dump_is_deterministic() {
    assert_eq!(full_dump().0, full_dump().0);
}
