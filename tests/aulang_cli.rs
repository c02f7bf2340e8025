//! End-to-end pinning of the `aulang` binary's exit-code contract:
//! `0` success, `1` the program was understood but failed (denied lint
//! findings, runtime errors), `2` the invocation or source could not be
//! processed (usage, unreadable file, parse error) — and its stderr: one
//! leveled `[level] aulang: …` line per diagnostic, filtered by `-q`/`-v`.

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

fn example(file: &str) -> String {
    format!("{}/examples/aulang/{file}", env!("CARGO_MANIFEST_DIR"))
}

fn stderr_lines(out: &Output) -> Vec<String> {
    String::from_utf8_lossy(&out.stderr)
        .lines()
        .map(str::to_owned)
        .collect()
}

#[test]
fn default_run_reports_statistics_on_stderr() {
    let out = aulang(&["run", &example("threshold.au")]);
    assert_eq!(code(&out), 0);
    let lines = stderr_lines(&out);
    assert_eq!(lines.len(), 1, "{lines:?}");
    assert!(
        lines[0].starts_with("[info] aulang: ") && lines[0].contains(" statements, "),
        "{lines:?}"
    );
}

#[test]
fn quiet_run_prints_nothing_on_stderr() {
    let out = aulang(&["run", &example("threshold.au"), "-q"]);
    assert_eq!(code(&out), 0);
    assert_eq!(stderr_lines(&out), Vec::<String>::new());
}

#[test]
fn verbose_run_adds_debug_lines() {
    let out = aulang(&["-v", "run", &example("threshold.au")]);
    assert_eq!(code(&out), 0);
    let lines = stderr_lines(&out);
    let debug = lines
        .iter()
        .filter(|l| l.starts_with("[debug] aulang: "))
        .count();
    assert!(debug >= 2, "{lines:?}");
    assert!(
        lines
            .iter()
            .any(|l| l.starts_with("[info] aulang: ") && l.contains(" statements, ")),
        "{lines:?}"
    );
    assert_eq!(debug + 1, lines.len(), "only aulang lines: {lines:?}");
}

#[test]
fn runtime_errors_print_an_error_line_even_when_quiet() {
    let bad = temp_program(
        "quiet_runtime",
        "fn main() {\n    let a = [1, 2];\n    return a + 1;\n}\n",
    );
    for quiet in [false, true] {
        let mut args = vec!["run", bad.to_str().unwrap()];
        if quiet {
            args.push("-q");
        }
        let out = aulang(&args);
        assert_eq!(code(&out), 1);
        assert_eq!(
            stderr_lines(&out),
            vec!["[error] aulang: runtime error: arithmetic on array".to_owned()]
        );
    }
    let _ = std::fs::remove_file(&bad);
}

#[test]
fn check_exits_two_on_source_nested_too_deep() {
    let deep = temp_program(
        "deep",
        &format!(
            "fn main() {{\n    return {}1{};\n}}\n",
            "(".repeat(10_000),
            ")".repeat(10_000)
        ),
    );
    let out = aulang(&["check", deep.to_str().unwrap()]);
    assert_eq!(code(&out), 2, "{:?}", stderr_lines(&out));
    let _ = std::fs::remove_file(&deep);
}

/// Runs `src` under the default VM and under `--engine interp`; both must
/// fail at run time (exit 1) with the same stderr.
fn runtime_error_on_both_engines(tag: &str, src: &str) -> Vec<String> {
    let path = temp_program(tag, src);
    let file = path.to_str().unwrap();
    let vm = aulang(&["run", file, "-q"]);
    let interp = aulang(&["run", file, "-q", "--engine", "interp"]);
    let _ = std::fs::remove_file(&path);
    assert_eq!(
        (code(&vm), code(&interp)),
        (1, 1),
        "{:?}",
        stderr_lines(&vm)
    );
    assert_eq!(stderr_lines(&vm), stderr_lines(&interp));
    stderr_lines(&vm)
}

#[test]
fn oversized_write_back_is_missing_data_on_both_engines() {
    // No π list can hold n⁴ values; the size is refused before anything
    // is allocated instead of overflowing the allocation.
    let lines = runtime_error_on_both_engines(
        "huge_write_back",
        "fn main() {\n    au_extract(\"W\", 1);\n    let n = 1000000000;\n    \
         let xs = au_write_back_n(\"W\", n * n * n * n);\n    return 0;\n}\n",
    );
    assert_eq!(
        lines,
        vec![format!(
            "[error] aulang: engine error: database store entry `W` has 1 values, {} requested",
            usize::MAX
        )]
    );
}

#[test]
fn invalid_sizes_are_runtime_errors_on_both_engines() {
    // Every count is a whole number, and a width or an action count is
    // also positive. A bare `as usize` cast would read a negative or
    // fractional write-back size as `[]` and a 0.5 layer count as 0, and
    // a zero or negative width or action count would panic the backend.
    let cases = [
        (
            "wb_negative",
            "au_extract(\"W\", 1);\n    let xs = au_write_back_n(\"W\", -3);",
            "size must be a non-negative integer, got -3",
        ),
        (
            "wb_fraction",
            "au_extract(\"W\", 1);\n    let xs = au_write_back_n(\"W\", 0.5);",
            "size must be a non-negative integer, got 0.5",
        ),
        (
            "wb_infinite",
            "au_extract(\"W\", 1);\n    let xs = au_write_back_n(\"W\", 1 / 0);",
            "size must be a non-negative integer, got inf",
        ),
        (
            "zero_actions",
            "au_config(\"Q\", \"DNN\", \"QLearn\", 1, 4);\n    au_extract(\"S\", 0.5);\n    \
             let a = au_nn_rl(\"Q\", \"S\", 0, false, \"A\", 0);",
            "action count must be a positive integer, got 0",
        ),
        (
            "negative_actions",
            "au_config(\"Q\", \"DNN\", \"QLearn\", 1, 4);\n    au_extract(\"S\", 0.5);\n    \
             let a = au_nn_rl(\"Q\", \"S\", 0, false, \"A\", -2);",
            "action count must be a positive integer, got -2",
        ),
        (
            "negative_width",
            "au_config(\"M\", \"DNN\", \"AdamOpt\", 1, -4);\n    au_extract(\"F\", 0.5);\n    \
             au_extract(\"P\", 1);\n    let y = au_nn(\"M\", \"F\", \"P\");",
            "layer size must be a positive integer, got -4",
        ),
        (
            "zero_width",
            "au_config(\"M\", \"DNN\", \"AdamOpt\", 1, 0);\n    au_extract(\"F\", 0.5);\n    \
             au_extract(\"P\", 1);\n    let y = au_nn(\"M\", \"F\", \"P\");",
            "layer size must be a positive integer, got 0",
        ),
        (
            "fractional_layer_count",
            "au_config(\"M\", \"DNN\", \"AdamOpt\", 0.5);",
            "layer count must be a non-negative integer, got 0.5",
        ),
    ];
    for (tag, body, message) in cases {
        let lines = runtime_error_on_both_engines(
            tag,
            &format!("fn main() {{\n    {body}\n    return 0;\n}}\n"),
        );
        assert_eq!(
            lines,
            vec![format!("[error] aulang: runtime error: {message}")],
            "{tag}"
        );
    }
}

#[test]
fn restore_without_checkpoint_is_the_same_error_on_both_engines() {
    let lines = runtime_error_on_both_engines(
        "restore_first",
        "fn main() {\n    au_restore();\n    return 0;\n}\n",
    );
    assert_eq!(
        lines,
        vec!["[error] aulang: runtime error: au_restore without au_checkpoint".to_owned()]
    );
}
