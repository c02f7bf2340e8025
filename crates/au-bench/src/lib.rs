//! Experiment harnesses regenerating every table and figure of the paper.
//!
//! Binaries (run with `cargo run --release -p au-bench --bin <name>`):
//!
//! | Binary | Regenerates |
//! |---|---|
//! | `table1` | Table 1 — program-analysis statistics |
//! | `table2` | Table 2 — model statistics + checkpoint/restore times |
//! | `table3` | Table 3 — effectiveness (baseline/Raw/Med/Min, players/Raw/All) |
//! | `fig12` | Fig. 12 — Canny per-dataset scores |
//! | `fig13` | Fig. 13 — Canny score vs training epochs |
//! | `fig14` | Fig. 14 — Canny qualitative edge maps (PGM files) |
//! | `fig15_16` | Figs. 15–16 — TORCS trace pruning (ε₁ duplicates, ε₂ variance) |
//! | `fig17` | Fig. 17 — TORCS driving score vs epochs |
//! | `mario_study` | Section 2 — Mario self-play & self-testing studies |
//! | `drift_demo` | Monitoring walkthrough — clean vs drifted streams, flight dump, fallback |
//!
//! The [`sl`] module trains the paper's `Raw`/`Med`/`Min` supervised
//! variants for the four data-processing programs; [`rl`] trains the
//! `Raw`/`All` reinforcement variants for the five games; [`stats`]
//! computes the Table 1/2 bookkeeping.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod history;
pub mod rl;
pub mod sl;
pub mod stats;
pub mod telemetry;

/// Formats a floating value for table output.
pub fn fmt(v: f64) -> String {
    if v.abs() >= 100.0 {
        format!("{v:.0}")
    } else if v.abs() >= 1.0 {
        format!("{v:.2}")
    } else {
        format!("{v:.4}")
    }
}

/// Prints a Markdown-ish table row.
pub fn row(cells: &[String]) -> String {
    cells.join(" | ")
}

/// Sets the top-level `key` of the JSON object text `doc` to the raw JSON
/// text `value` and returns the new document. An existing entry's value
/// is replaced in place; a missing key is appended before the closing
/// `}`. Every other byte is kept, so benches that share one JSON file
/// (`BENCH_kernels.json`) each rewrite only the keys they own.
///
/// # Panics
///
/// Panics if `doc` is not a JSON object.
pub fn splice_json_key(doc: &str, key: &str, value: &str) -> String {
    if let Some(span) = top_level_value(doc, key) {
        return format!("{}{value}{}", &doc[..span.start], &doc[span.end..]);
    }
    let close = doc.rfind('}').expect("a JSON object");
    let before = doc[..close].trim_end();
    let sep = if before.ends_with('{') { "" } else { "," };
    format!("{before}{sep}\n  \"{key}\": {value}\n{}", &doc[close..])
}

/// Byte range of the value of the top-level `key` in the JSON object
/// `doc`. Keys of nested objects and text inside strings never match.
fn top_level_value(doc: &str, key: &str) -> Option<std::ops::Range<usize>> {
    let b = doc.as_bytes();
    let mut depth = 0usize;
    let mut i = 0;
    while i < b.len() {
        match b[i] {
            b'"' => {
                let end = string_end(b, i);
                let mut j = skip_ws(b, end);
                if depth == 1 && &doc[i + 1..end - 1] == key && b.get(j) == Some(&b':') {
                    j = skip_ws(b, j + 1);
                    return Some(j..value_end(b, j));
                }
                i = end;
                continue;
            }
            b'{' | b'[' => depth += 1,
            b'}' | b']' => depth = depth.saturating_sub(1),
            _ => {}
        }
        i += 1;
    }
    None
}

/// Index just past the string literal opening at `b[start]`.
fn string_end(b: &[u8], start: usize) -> usize {
    let mut i = start + 1;
    while i < b.len() {
        match b[i] {
            b'\\' => i += 2,
            b'"' => return i + 1,
            _ => i += 1,
        }
    }
    b.len()
}

fn skip_ws(b: &[u8], mut i: usize) -> usize {
    while b.get(i).is_some_and(u8::is_ascii_whitespace) {
        i += 1;
    }
    i
}

/// Index just past the JSON value starting at `b[start]`.
fn value_end(b: &[u8], start: usize) -> usize {
    let mut depth = 0usize;
    let mut i = start;
    while i < b.len() {
        match b[i] {
            b'"' => {
                i = string_end(b, i);
                if depth == 0 {
                    return i;
                }
                continue;
            }
            b'{' | b'[' => depth += 1,
            b'}' | b']' if depth <= 1 => return if depth == 1 { i + 1 } else { i },
            b'}' | b']' => depth -= 1,
            b',' if depth == 0 => return i,
            c if depth == 0 && c.is_ascii_whitespace() => return i,
            _ => {}
        }
        i += 1;
    }
    i
}

#[cfg(test)]
mod tests {
    use super::*;

    const DOC: &str = "{\n  \"bench\": \"kernels\",\n  \"matmul\": { \"64\": { \"ns\": 1 }, \"note\": \"a } b\" },\n  \"note\": \"top\",\n  \"aulang_exec\": {\n    \"note\": \"kept\"\n  }\n}\n";

    #[test]
    fn splice_replaces_only_the_top_level_key() {
        let out = splice_json_key(DOC, "note", "\"new\"");
        assert_eq!(out, DOC.replace("\"note\": \"top\"", "\"note\": \"new\""));
        let out = splice_json_key(DOC, "matmul", "{ \"64\": { \"ns\": 2 } }");
        assert_eq!(
            out,
            DOC.replace(
                "{ \"64\": { \"ns\": 1 }, \"note\": \"a } b\" }",
                "{ \"64\": { \"ns\": 2 } }"
            )
        );
        let out = splice_json_key(DOC, "bench", "\"k2\"");
        assert!(out.starts_with("{\n  \"bench\": \"k2\",\n  \"matmul\""));
        assert!(out.contains("\"aulang_exec\": {\n    \"note\": \"kept\"\n  }"));
    }

    #[test]
    fn splice_appends_missing_keys() {
        let out = splice_json_key("{\n}\n", "a", "1");
        assert_eq!(out, "{\n  \"a\": 1\n}\n");
        let out = splice_json_key(&out, "b", "{ \"c\": 2 }");
        assert_eq!(out, "{\n  \"a\": 1,\n  \"b\": { \"c\": 2 }\n}\n");
        assert_eq!(splice_json_key(&out, "a", "3"), out.replace("1", "3"));
    }

    #[test]
    fn fmt_switches_precision_by_magnitude() {
        assert_eq!(fmt(1234.5), "1234");
        assert_eq!(fmt(1235.5), "1236");
        assert_eq!(fmt(12.345), "12.35");
        assert_eq!(fmt(0.12345), "0.1235");
        assert_eq!(fmt(-250.0), "-250");
    }

    #[test]
    fn row_joins_cells() {
        assert_eq!(row(&["a".into(), "b".into()]), "a | b");
        assert_eq!(row(&[]), "");
    }
}
