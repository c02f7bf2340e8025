//! Pretty-printer round-trip over every AuLang program in the repo: the
//! canonical printed form must re-parse to a span-insensitively equal AST
//! (the `PartialEq` impls on `Expr`/`Stmt`/`Function` ignore spans), and
//! printing must be idempotent. This guards the bytecode compiler against
//! silent AST drift: `pretty.rs`, the parser, and `compile.rs` all walk
//! the same shapes.

use autonomizer::lang::{compile_program, corpus, parse, pretty, TraceMode};
use std::path::PathBuf;

fn assert_round_trips(name: &str, src: &str) {
    let ast = parse(src).unwrap_or_else(|e| panic!("[{name}] source must parse: {e}"));
    let printed = pretty::print_program(&ast);
    let reparsed = parse(&printed)
        .unwrap_or_else(|e| panic!("[{name}] printed source must re-parse: {e}\n{printed}"));
    assert_eq!(
        ast, reparsed,
        "[{name}] round-trip AST mismatch:\n{printed}"
    );
    let reprinted = pretty::print_program(&reparsed);
    assert_eq!(printed, reprinted, "[{name}] printing is not idempotent");
    // The compiler must accept every program the parser accepts.
    for mode in [TraceMode::Off, TraceMode::Selective, TraceMode::Full] {
        compile_program(&ast, mode);
    }
}

/// Every `.au` file in the repository (examples and lint corpus,
/// including the `clean/` counterparts).
#[test]
fn repo_au_files_round_trip() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let mut checked = 0;
    for dir in [
        "examples/aulang",
        "tests/lint_corpus",
        "tests/lint_corpus/clean",
    ] {
        for entry in std::fs::read_dir(root.join(dir)).expect("au dir exists") {
            let path = entry.unwrap().path();
            if path.extension().and_then(|e| e.to_str()) != Some("au") {
                continue;
            }
            let src = std::fs::read_to_string(&path).unwrap();
            assert_round_trips(&path.file_name().unwrap().to_string_lossy(), &src);
            checked += 1;
        }
    }
    assert!(checked >= 21, "expected every repo .au file, saw {checked}");
}

/// The nine paper corpus programs.
#[test]
fn corpus_programs_round_trip() {
    for p in &corpus::all() {
        assert_round_trips(p.name, p.src);
    }
}
