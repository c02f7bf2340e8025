//! End-to-end pinning of the `aulang` binary's exit-code contract:
//! `0` success, `1` the program was understood but failed (denied lint
//! findings, runtime errors), `2` the invocation or source could not be
//! processed (usage, unreadable file, parse error).

use std::path::PathBuf;
use std::process::{Command, Output};

fn aulang(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_aulang"))
        .args(args)
        .output()
        .expect("aulang binary runs")
}

fn code(out: &Output) -> i32 {
    out.status.code().expect("aulang exited normally")
}

/// Writes `src` to a unique temp file and returns its path.
fn temp_program(tag: &str, src: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("aulang_cli_{}_{tag}.au", std::process::id()));
    std::fs::write(&path, src).expect("temp file writes");
    path
}

fn corpus(file: &str) -> String {
    format!("{}/tests/lint_corpus/{file}", env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn check_exits_zero_on_warnings_unless_denied() {
    // AU006 is warning-severity: plain `check` reports it but succeeds…
    let warn = corpus("au006_dead_extract.au");
    assert_eq!(code(&aulang(&["check", &warn])), 0);
    // …while `--deny warnings` turns findings into exit 1.
    assert_eq!(code(&aulang(&["check", &warn, "--deny", "warnings"])), 1);
}

#[test]
fn check_exits_one_on_protocol_errors() {
    let err = corpus("au004_restore_without_checkpoint.au");
    assert_eq!(code(&aulang(&["check", &err])), 1);
}

#[test]
fn check_exits_two_on_parse_errors() {
    // A parse error is not a lint finding: the source could not be
    // processed at all, which must be distinguishable in CI.
    let bad = temp_program("parse", "fn main( {\n");
    assert_eq!(
        code(&aulang(&["check", bad.to_str().unwrap()])),
        2,
        "parse errors must exit 2, not be conflated with lint findings"
    );
    let _ = std::fs::remove_file(&bad);
}

#[test]
fn unreadable_file_and_unknown_command_exit_two() {
    assert_eq!(code(&aulang(&["check", "/nonexistent/no_such.au"])), 2);
    let example = format!(
        "{}/examples/aulang/threshold.au",
        env!("CARGO_MANIFEST_DIR")
    );
    assert_eq!(code(&aulang(&["frobnicate", &example])), 2);
    assert_eq!(code(&aulang(&["run"])), 2, "missing file is a usage error");
}

#[test]
fn runtime_errors_exit_one() {
    let bad = temp_program(
        "runtime",
        "fn main() {\n    let a = [1, 2];\n    return a + 1;\n}\n",
    );
    assert_eq!(code(&aulang(&["run", bad.to_str().unwrap()])), 1);
    let _ = std::fs::remove_file(&bad);
}
