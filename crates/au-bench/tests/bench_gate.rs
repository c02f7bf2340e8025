//! End-to-end checks on the perf-regression gate binaries: `bench-diff`
//! must pass on identical runs, fail (exit 1) on an injected synthetic
//! regression, and `bench-history` must append parseable history lines
//! that feed straight back into the gate.

use au_bench::history::{Fingerprint, HistoryRun, SCHEMA};
use std::path::{Path, PathBuf};
use std::process::Command;

fn temp_history(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "au-bench-gate-{tag}-{}-{}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos()
    ));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join("BENCH_history.jsonl")
}

fn run_with(benches: &[(&str, f64)]) -> HistoryRun {
    HistoryRun {
        schema: SCHEMA,
        unix_secs: 1_754_600_000,
        commit: "abc1234".to_owned(),
        fingerprint: Fingerprint::current(),
        benches: benches.iter().map(|(k, v)| ((*k).to_owned(), *v)).collect(),
    }
}

fn bench_diff(history: &Path, extra: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_bench-diff"))
        .args(["--history", history.to_str().unwrap()])
        .args(extra)
        .output()
        .expect("run bench-diff")
}

#[test]
fn diff_passes_on_identical_runs_and_fails_on_injected_regression() {
    let history = temp_history("diff");
    let mut fast = run_with(&[("gemm_64", 250_000.0), ("predict", 9_000.0)]);
    fast.commit = "aaa1111".to_owned();
    au_bench::history::append(&history, &fast).unwrap();
    au_bench::history::append(&history, &fast).unwrap();

    let ok = bench_diff(&history, &["--threshold", "1.30"]);
    assert!(
        ok.status.success(),
        "identical runs must pass: {}",
        String::from_utf8_lossy(&ok.stderr)
    );

    // Inject a synthetic 2x regression on gemm_64 and the gate must trip.
    let mut slower = fast.clone();
    slower.commit = "bbb2222".to_owned();
    slower.benches.insert("gemm_64".to_owned(), 500_000.0);
    au_bench::history::append(&history, &slower).unwrap();

    let fail = bench_diff(&history, &["--threshold", "1.30"]);
    assert_eq!(
        fail.status.code(),
        Some(1),
        "regression must exit 1: {}",
        String::from_utf8_lossy(&fail.stderr)
    );
    let stderr = String::from_utf8_lossy(&fail.stderr);
    assert!(stderr.contains("gemm_64"), "names the culprit: {stderr}");
    assert!(stderr.contains("2.00x"), "states the ratio: {stderr}");

    // A follow-up run at the regressed speed: the default (previous-run)
    // comparison passes, but pinning the baseline to the fast commit
    // still trips the gate — --baseline selects by commit, not recency.
    let mut settled = slower.clone();
    settled.commit = "ccc3333".to_owned();
    au_bench::history::append(&history, &settled).unwrap();
    let vs_prev = bench_diff(&history, &["--threshold", "1.30"]);
    assert!(
        vs_prev.status.success(),
        "vs previous (equally slow) run: {}",
        String::from_utf8_lossy(&vs_prev.stderr)
    );
    let vs_fast = bench_diff(&history, &["--threshold", "1.30", "--baseline", "aaa"]);
    assert_eq!(
        vs_fast.status.code(),
        Some(1),
        "vs pinned fast baseline: still regressed: {}",
        String::from_utf8_lossy(&vs_fast.stderr)
    );

    std::fs::remove_dir_all(history.parent().unwrap()).ok();
}

/// A run on a synthetic machine with `cpus` cores.
fn run_on(cpus: u64, commit: &str, benches: &[(&str, f64)]) -> HistoryRun {
    let mut run = run_with(benches);
    run.commit = commit.to_owned();
    run.fingerprint = Fingerprint {
        os: "linux".to_owned(),
        arch: "x86_64".to_owned(),
        cpus,
        cpu_model: "Synthetic CPU".to_owned(),
    };
    run
}

#[test]
fn diff_compares_only_runs_from_the_heads_machine() {
    let history = temp_history("fingerprint");
    // A 1-core row, then 2-core rows that are 3x slower on gemm_64 — the
    // machines differ, the code does not.
    au_bench::history::append(&history, &run_on(1, "aaa1111", &[("gemm_64", 100_000.0)])).unwrap();
    au_bench::history::append(&history, &run_on(2, "bbb2222", &[("gemm_64", 300_000.0)])).unwrap();

    // Only a cross-machine row precedes the head: no verdict, exit 0.
    let lone = bench_diff(&history, &["--threshold", "1.30"]);
    let stderr = String::from_utf8_lossy(&lone.stderr);
    assert!(lone.status.success(), "no comparable baseline: {stderr}");
    assert!(stderr.contains("no verdict"), "says why: {stderr}");
    assert!(!stderr.contains("regressed"), "compared nothing: {stderr}");

    // A second 2-core row is compared with the first, not with the
    // 1-core row just before it in recency order.
    au_bench::history::append(&history, &run_on(2, "ccc3333", &[("gemm_64", 310_000.0)])).unwrap();
    let same = bench_diff(&history, &["--threshold", "1.30"]);
    let stderr = String::from_utf8_lossy(&same.stderr);
    assert!(same.status.success(), "like with like passes: {stderr}");
    assert!(stderr.contains("against base bbb2222"), "{stderr}");
    assert!(!stderr.contains("different machines"), "{stderr}");

    // Asking for the 1-core row explicitly still compares, with a warning.
    let cross = bench_diff(&history, &["--threshold", "1.30", "--baseline", "aaa"]);
    let stderr = String::from_utf8_lossy(&cross.stderr);
    assert_eq!(cross.status.code(), Some(1), "explicit baseline: {stderr}");
    assert!(stderr.contains("different machines"), "warns: {stderr}");

    std::fs::remove_dir_all(history.parent().unwrap()).ok();
}

#[test]
fn diff_handles_empty_and_single_run_histories() {
    let history = temp_history("edge");
    // No file at all: usage error, exit 2.
    let missing = bench_diff(&history, &[]);
    assert_eq!(missing.status.code(), Some(2));
    // One run: nothing to compare, advisory pass.
    au_bench::history::append(&history, &run_with(&[("a", 1000.0)])).unwrap();
    let single = bench_diff(&history, &[]);
    assert!(single.status.success());
    std::fs::remove_dir_all(history.parent().unwrap()).ok();
}

#[test]
fn diff_refuses_a_dirty_head_unless_allowed() {
    let history = temp_history("dirty");
    let clean = run_on(2, "aaa1111", &[("gemm_64", 100_000.0)]);
    au_bench::history::append(&history, &clean).unwrap();
    let dirty = run_on(2, "aaa1111-dirty", &[("gemm_64", 300_000.0)]);
    au_bench::history::append(&history, &dirty).unwrap();

    let refused = bench_diff(&history, &["--threshold", "1.30"]);
    let stderr = String::from_utf8_lossy(&refused.stderr);
    assert_eq!(
        refused.status.code(),
        Some(2),
        "dirty head refused: {stderr}"
    );
    assert!(stderr.contains("aaa1111-dirty"), "names the row: {stderr}");
    assert!(
        stderr.contains("--allow-dirty"),
        "says how to proceed: {stderr}"
    );
    assert!(!stderr.contains("regressed"), "compared nothing: {stderr}");

    // Allowed, the dirty row is gated like any other: 3x slower trips it.
    let allowed = bench_diff(&history, &["--threshold", "1.30", "--allow-dirty"]);
    let stderr = String::from_utf8_lossy(&allowed.stderr);
    assert_eq!(
        allowed.status.code(),
        Some(1),
        "gated when allowed: {stderr}"
    );
    assert!(stderr.contains("against base aaa1111 "), "{stderr}");

    // Only the head matters: a dirty row earlier in the history is fine.
    au_bench::history::append(&history, &run_on(2, "bbb2222", &[("gemm_64", 300_000.0)])).unwrap();
    let later = bench_diff(&history, &["--threshold", "1.30"]);
    let stderr = String::from_utf8_lossy(&later.stderr);
    assert!(
        later.status.success(),
        "clean head after a dirty row: {stderr}"
    );

    std::fs::remove_dir_all(history.parent().unwrap()).ok();
}

#[test]
fn bench_history_appends_parseable_runs_that_gate_clean() {
    let history = temp_history("smoke");
    for _ in 0..2 {
        // Pin the stamp: rows measured in a checkout with uncommitted
        // changes read `<hash>-dirty`, which the gate refuses.
        let out = Command::new(env!("CARGO_BIN_EXE_bench-history"))
            .env("GIT_COMMIT", "feed123")
            .args(["--quick", "--out", history.to_str().unwrap()])
            .output()
            .expect("run bench-history");
        assert!(
            out.status.success(),
            "bench-history failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    let (runs, skipped) = au_bench::history::load(&history).unwrap();
    assert_eq!(runs.len(), 2, "two appended runs");
    assert!(skipped.is_empty(), "{skipped:?}");
    for run in &runs {
        for expected in [
            "gemm_64",
            "gemm_128",
            "au_extract",
            "predict",
            "pool_map_1k",
            "pool_region_parked",
            "dqn_observe",
            "frontend_corpus",
        ] {
            let ns = run.benches.get(expected).copied().unwrap_or_default();
            assert!(ns > 0.0, "{expected} missing or non-positive: {ns}");
        }
    }
    // Two back-to-back smoke runs on the same machine should be well
    // within a generous advisory threshold; use a huge one so scheduler
    // noise on loaded CI machines cannot flake this test — the strict
    // threshold behaviour is covered by the synthetic-regression test.
    let gate = bench_diff(&history, &["--threshold", "25.0"]);
    assert!(
        gate.status.success(),
        "back-to-back smoke runs gated: {}",
        String::from_utf8_lossy(&gate.stderr)
    );
    std::fs::remove_dir_all(history.parent().unwrap()).ok();
}
