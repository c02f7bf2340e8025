//! Helpers shared by the golden-fact test binaries.

use std::path::{Path, PathBuf};

/// Every AuLang program in the repository, as (label, source), in a
/// stable order: the nine corpus programs, the lint corpus including
/// `clean/`, and the bundled examples.
pub fn repo_programs() -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = autonomizer::lang::corpus::all()
        .iter()
        .map(|p| (format!("corpus/{}", p.name), p.src.to_owned()))
        .collect();
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    for dir in [
        "tests/lint_corpus",
        "tests/lint_corpus/clean",
        "examples/aulang",
    ] {
        let mut files: Vec<PathBuf> = std::fs::read_dir(root.join(dir))
            .expect("au dir exists")
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().and_then(|e| e.to_str()) == Some("au"))
            .collect();
        files.sort();
        for path in files {
            let label = format!("{dir}/{}", path.file_name().unwrap().to_string_lossy());
            out.push((label, std::fs::read_to_string(&path).unwrap()));
        }
    }
    out
}

/// Compares `actual` with the golden file at `rel` (relative to the
/// crate root), or rewrites the file when `AU_BLESS` is set. Panics at
/// the first differing line.
pub fn check_golden(rel: &str, actual: &str) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(rel);
    if std::env::var_os("AU_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{rel} missing ({e}); regenerate with AU_BLESS=1"));
    if actual != expected {
        let first = actual
            .lines()
            .zip(expected.lines())
            .position(|(a, e)| a != e)
            .unwrap_or_else(|| actual.lines().count().min(expected.lines().count()));
        panic!(
            "facts diverge from {rel} at line {}:\n  golden: {:?}\n  actual: {:?}",
            first + 1,
            expected.lines().nth(first),
            actual.lines().nth(first)
        );
    }
}
