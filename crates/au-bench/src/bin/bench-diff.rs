//! The perf-regression gate over `BENCH_history.jsonl`.
//!
//! Compares the newest history run (the head) against a baseline — by
//! default the newest earlier run measured on a machine with the head's
//! fingerprint, or the newest run whose commit matches `--baseline` — and
//! exits non-zero when any bench got slower past the threshold. Exit
//! codes: `0` no regression (or no comparable baseline), `1` regression
//! found, `2` usage or I/O error, or a head row measured on a dirty tree.
//!
//! ```text
//! bench-diff [--history BENCH_history.jsonl] [--threshold 1.30] [--baseline <commit>] [--allow-dirty]
//! ```
//!
//! A head row whose commit ends in `-dirty` measured uncommitted code, so
//! its verdict would be pinned on a commit it does not describe; the gate
//! refuses it unless `--allow-dirty` is given.
//!
//! The threshold is a ratio: `1.30` fails a bench that is more than 30%
//! slower than baseline (and more than 200 ns slower in absolute terms —
//! sub-microsecond medians jitter too much to gate on ratio alone). The
//! default never compares across machines: with no earlier run on the
//! head's fingerprint there is no verdict. An explicit `--baseline` from
//! another machine is compared anyway, with a warning that the ratios are
//! advisory.

use au_bench::history::{diff, load, Regression};
use std::path::PathBuf;

fn main() {
    let mut history = PathBuf::from("BENCH_history.jsonl");
    let mut threshold = 1.30f64;
    let mut baseline: Option<String> = None;
    let mut allow_dirty = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--history" => match args.next() {
                Some(path) => history = PathBuf::from(path),
                None => die("--history needs a path"),
            },
            "--threshold" => match args.next().as_deref().map(str::parse) {
                Some(Ok(t)) if t > 1.0 => threshold = t,
                _ => die("--threshold needs a ratio > 1.0 (e.g. 1.30)"),
            },
            "--baseline" => match args.next() {
                Some(commit) => baseline = Some(commit),
                None => die("--baseline needs a commit prefix"),
            },
            "--allow-dirty" => allow_dirty = true,
            "--help" | "-h" => {
                eprintln!(
                    "usage: bench-diff [--history BENCH_history.jsonl] \
                     [--threshold 1.30] [--baseline <commit>] [--allow-dirty]"
                );
                return;
            }
            other => die(&format!("unknown argument {other:?}")),
        }
    }

    let (runs, skipped) = match load(&history) {
        Ok(loaded) => loaded,
        Err(e) => die(&format!("cannot read {}: {e}", history.display())),
    };
    for (line, why) in &skipped {
        eprintln!("warning: {}:{line}: skipped ({why})", history.display());
    }
    let Some(head) = runs.last() else {
        die(&format!("{}: no runs recorded", history.display()));
    };
    if head.commit.ends_with("-dirty") && !allow_dirty {
        die(&format!(
            "head row {} (unix_secs {}) was measured on a tree with uncommitted \
             changes; commit and re-run bench-history, or pass --allow-dirty",
            head.commit, head.unix_secs
        ));
    }
    let mut earlier = runs[..runs.len() - 1].iter().rev();
    let base = match &baseline {
        Some(commit) => earlier
            .find(|r| r.commit.starts_with(commit.as_str()))
            .unwrap_or_else(|| {
                die(&format!("no earlier run with commit prefix {commit:?}"));
            }),
        None => match earlier.find(|r| r.fingerprint == head.fingerprint) {
            Some(run) => run,
            None => {
                let fp = &head.fingerprint;
                eprintln!(
                    "no earlier run on the head's machine ({} cpus, {}); \
                     nothing comparable — no verdict",
                    fp.cpus, fp.cpu_model
                );
                return;
            }
        },
    };

    eprintln!(
        "comparing head {} ({} benches) against base {} ({} benches), threshold {threshold:.2}x",
        head.commit,
        head.benches.len(),
        base.commit,
        base.benches.len()
    );
    let d = diff(base, head, threshold);
    if d.fingerprint_mismatch {
        eprintln!("warning: runs were measured on different machines; treat ratios as advisory");
    }
    print_rows("regressed", &d.regressions);
    print_rows("within threshold", &d.within);
    for name in &d.added {
        eprintln!("  new bench (no baseline): {name}");
    }
    for name in &d.removed {
        eprintln!("  bench dropped from head: {name}");
    }
    if d.regressions.is_empty() {
        eprintln!("ok: no bench regressed past {threshold:.2}x");
    } else {
        eprintln!(
            "FAIL: {} bench(es) regressed past {threshold:.2}x",
            d.regressions.len()
        );
        std::process::exit(1);
    }
}

fn print_rows(label: &str, rows: &[Regression]) {
    for r in rows {
        eprintln!(
            "  {label}: {name:>12}  {base:>12.1} ns -> {head:>12.1} ns  ({ratio:.2}x)",
            name = r.name,
            base = r.base_ns,
            head = r.head_ns,
            ratio = r.ratio
        );
    }
}

/// Prints the error and exits with the usage/I/O status.
fn die(msg: &str) -> ! {
    eprintln!("bench-diff: {msg}");
    std::process::exit(2);
}
