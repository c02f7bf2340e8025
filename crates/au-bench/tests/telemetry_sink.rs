//! Exporter I/O failure surfacing: `TelemetrySink::finish` must report an
//! unwritable `--telemetry` path as an error (the bench binaries turn that
//! into a non-zero exit via `finish_or_exit`), and must keep succeeding on
//! a writable one.

use au_bench::telemetry::TelemetrySink;
use std::path::PathBuf;

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("au_bench_sink_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

#[test]
fn finish_reports_unwritable_path() {
    let dir = scratch_dir("bad");
    // A plain file where the output's parent directory should go:
    // create_dir_all and File::create below it must both fail.
    let blocker = dir.join("blocker");
    std::fs::write(&blocker, b"not a directory").expect("blocker file");
    let sink = TelemetrySink::to_path(blocker.join("trace.json"));
    let err = sink.finish().expect_err("writing under a file must fail");
    // The exact kind differs by platform (NotADirectory on Unix); what
    // matters is that the failure surfaced instead of being swallowed.
    assert_ne!(err.kind(), std::io::ErrorKind::Other, "opaque error: {err}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn finish_writes_both_exports_on_a_writable_path() {
    let dir = scratch_dir("ok");
    let out = dir.join("nested").join("trace.json");
    let sink = TelemetrySink::to_path(out.clone());
    sink.finish().expect("writable path");
    let trace = std::fs::read_to_string(&out).expect("chrome trace exists");
    assert!(trace.starts_with("{\"traceEvents\":["), "{trace}");
    assert!(
        out.with_extension("jsonl").exists(),
        "jsonl sibling must be written"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
