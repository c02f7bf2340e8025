//! Perf-regression history: structured bench runs appended to
//! `BENCH_history.jsonl`, plus the comparison logic behind `bench-diff`.
//!
//! Each run is one JSON line:
//!
//! ```json
//! {"schema":1,"unix_secs":1754600000,"commit":"093c91d",
//!  "fingerprint":{"os":"linux","arch":"x86_64","cpus":8,"cpu_model":"..."},
//!  "benches":{"gemm_64":1.23e5,"predict":4.56e3}}
//! ```
//!
//! `benches` maps bench name → median wall time in nanoseconds. Medians
//! (not means) so one preempted sample cannot fake a regression. The
//! machine fingerprint travels with every run because history lines from
//! different machines are not comparable; [`diff`] refuses nothing, but
//! `bench-diff` picks its default baseline on the head's fingerprint and
//! flags an explicitly requested cross-machine baseline as advisory.

use serde::Value;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs::OpenOptions;
use std::io::{self, Write as _};
use std::path::Path;

/// Bump when the line format changes incompatibly; [`load`] skips lines
/// with a schema it does not understand rather than failing the gate.
pub const SCHEMA: u64 = 1;

/// The machine a run was measured on. Medians from different
/// fingerprints are apples and oranges; the diff tooling warns when the
/// baseline's fingerprint differs from the head's.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    /// `std::env::consts::OS`.
    pub os: String,
    /// `std::env::consts::ARCH`.
    pub arch: String,
    /// Available parallelism at measurement time.
    pub cpus: u64,
    /// First `model name` line of `/proc/cpuinfo`, or `"unknown"`.
    pub cpu_model: String,
}

impl Fingerprint {
    /// Fingerprints the current machine.
    #[must_use]
    pub fn current() -> Self {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                info.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_owned())
            })
            .unwrap_or_else(|| "unknown".to_owned());
        Fingerprint {
            os: std::env::consts::OS.to_owned(),
            arch: std::env::consts::ARCH.to_owned(),
            cpus: std::thread::available_parallelism().map_or(1, |n| n.get() as u64),
            cpu_model,
        }
    }
}

/// One recorded bench run: where, when, and the per-bench medians.
#[derive(Debug, Clone, PartialEq)]
pub struct HistoryRun {
    /// Line-format version; see [`SCHEMA`].
    pub schema: u64,
    /// Seconds since the Unix epoch at measurement time.
    pub unix_secs: u64,
    /// Short commit hash, or `"unknown"` outside a checkout.
    pub commit: String,
    /// The measuring machine.
    pub fingerprint: Fingerprint,
    /// Bench name → median nanoseconds.
    pub benches: BTreeMap<String, f64>,
}

impl HistoryRun {
    /// A run stamped with the current machine, time, and commit.
    #[must_use]
    pub fn now(benches: BTreeMap<String, f64>) -> Self {
        HistoryRun {
            schema: SCHEMA,
            unix_secs: std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map_or(0, |d| d.as_secs()),
            commit: current_commit(),
            fingerprint: Fingerprint::current(),
            benches,
        }
    }

    /// Renders the run as one JSON line (no trailing newline).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256);
        let _ = write!(
            out,
            "{{\"schema\":{},\"unix_secs\":{},\"commit\":",
            self.schema, self.unix_secs
        );
        push_json_str(&mut out, &self.commit);
        out.push_str(",\"fingerprint\":{\"os\":");
        push_json_str(&mut out, &self.fingerprint.os);
        out.push_str(",\"arch\":");
        push_json_str(&mut out, &self.fingerprint.arch);
        let _ = write!(out, ",\"cpus\":{},\"cpu_model\":", self.fingerprint.cpus);
        push_json_str(&mut out, &self.fingerprint.cpu_model);
        out.push_str("},\"benches\":{");
        for (i, (name, ns)) in self.benches.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_json_str(&mut out, name);
            let _ = write!(out, ":{ns}");
        }
        out.push_str("}}");
        out
    }

    /// Parses one history line.
    ///
    /// # Errors
    ///
    /// A human-readable message when the line is not valid JSON or lacks
    /// a required field.
    pub fn from_json(line: &str) -> Result<Self, String> {
        let v: Value = serde_json::from_str(line).map_err(|e| e.to_string())?;
        let str_of = |v: &Value, name: &str| -> Result<String, String> {
            match v.field(name).map_err(|e| e.to_string())? {
                Value::Str(s) => Ok(s.clone()),
                other => Err(format!("field `{name}`: expected string, got {other:?}")),
            }
        };
        let num_of = |v: &Value, name: &str| -> Result<f64, String> {
            v.field(name)
                .and_then(Value::as_f64)
                .map_err(|e| e.to_string())
        };
        let fp = v.field("fingerprint").map_err(|e| e.to_string())?;
        let Value::Object(bench_fields) = v.field("benches").map_err(|e| e.to_string())? else {
            return Err("field `benches`: expected object".to_owned());
        };
        let mut benches = BTreeMap::new();
        for (name, ns) in bench_fields {
            benches.insert(name.clone(), ns.as_f64().map_err(|e| e.to_string())?);
        }
        Ok(HistoryRun {
            schema: num_of(&v, "schema")? as u64,
            unix_secs: num_of(&v, "unix_secs")? as u64,
            commit: str_of(&v, "commit")?,
            fingerprint: Fingerprint {
                os: str_of(fp, "os")?,
                arch: str_of(fp, "arch")?,
                cpus: num_of(fp, "cpus")? as u64,
                cpu_model: str_of(fp, "cpu_model")?,
            },
            benches,
        })
    }
}

/// The short commit hash: `GITHUB_SHA` / `GIT_COMMIT` when CI exports
/// them, else `git rev-parse --short HEAD` with `-dirty` appended when
/// tracked files have uncommitted changes, else `"unknown"`.
#[must_use]
pub fn current_commit() -> String {
    for var in ["GITHUB_SHA", "GIT_COMMIT"] {
        if let Ok(sha) = std::env::var(var) {
            let sha = sha.trim().to_owned();
            if !sha.is_empty() {
                return sha.chars().take(9).collect();
            }
        }
    }
    let git = |args: &[&str]| {
        std::process::Command::new("git")
            .args(args)
            .output()
            .ok()
            .filter(|out| out.status.success())
            .and_then(|out| String::from_utf8(out.stdout).ok())
    };
    match git(&["rev-parse", "--short", "HEAD"]) {
        Some(hash) if !hash.trim().is_empty() => {
            let status = git(&["status", "--porcelain", "--untracked-files=no"]);
            commit_stamp(&hash, &status.unwrap_or_default())
        }
        _ => "unknown".to_owned(),
    }
}

/// `hash`, marked `-dirty` (as `git describe --dirty` marks it) when
/// `status`, the output of `git status --porcelain --untracked-files=no`,
/// lists any change: the run measured code that is not that commit.
fn commit_stamp(hash: &str, status: &str) -> String {
    let hash = hash.trim();
    if status.trim().is_empty() {
        hash.to_owned()
    } else {
        format!("{hash}-dirty")
    }
}

/// Appends one run to the JSONL history file, creating it if absent.
///
/// # Errors
///
/// Any [`io::Error`] opening or writing the file.
pub fn append(path: &Path, run: &HistoryRun) -> io::Result<()> {
    let mut file = OpenOptions::new().create(true).append(true).open(path)?;
    writeln!(file, "{}", run.to_json())
}

/// Lines [`load`] could not use, as `(1-based line number, why)`.
pub type SkippedLines = Vec<(usize, String)>;

/// Loads every parseable run with a known schema, in file order.
/// Malformed or future-schema lines are skipped (returned in the second
/// slot so callers can warn), never fatal: a corrupt line must not brick
/// the perf gate.
///
/// # Errors
///
/// Any [`io::Error`] reading the file. A missing file is an empty
/// history, not an error.
pub fn load(path: &Path) -> io::Result<(Vec<HistoryRun>, SkippedLines)> {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok((Vec::new(), Vec::new())),
        Err(e) => return Err(e),
    };
    let mut runs = Vec::new();
    let mut skipped = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        match HistoryRun::from_json(line) {
            Ok(run) if run.schema <= SCHEMA => runs.push(run),
            Ok(run) => skipped.push((i + 1, format!("unknown schema {}", run.schema))),
            Err(e) => skipped.push((i + 1, e)),
        }
    }
    Ok((runs, skipped))
}

/// One bench that got slower past the threshold.
#[derive(Debug, Clone, PartialEq)]
pub struct Regression {
    /// Bench name.
    pub name: String,
    /// Baseline median, nanoseconds.
    pub base_ns: f64,
    /// Head median, nanoseconds.
    pub head_ns: f64,
    /// `head_ns / base_ns` (> 1 is slower).
    pub ratio: f64,
}

/// Everything `bench-diff` reports about a baseline/head pair.
#[derive(Debug, Clone, Default)]
pub struct Diff {
    /// Benches past the threshold, worst first.
    pub regressions: Vec<Regression>,
    /// Benches compared and found within the threshold.
    pub within: Vec<Regression>,
    /// Benches only in the head run (new coverage, not a verdict).
    pub added: Vec<String>,
    /// Benches only in the baseline (lost coverage — surfaced, not fatal).
    pub removed: Vec<String>,
    /// The two runs were measured on different machines.
    pub fingerprint_mismatch: bool,
}

/// Compares `head` medians against `base`. A bench regresses when
/// `head/base > threshold` (e.g. `1.30` = 30% slower) *and* the absolute
/// slowdown exceeds `MIN_DELTA_NS` — sub-microsecond benches jitter far
/// more than 30% between runs and must not flap the gate.
#[must_use]
pub fn diff(base: &HistoryRun, head: &HistoryRun, threshold: f64) -> Diff {
    /// Ignore ratio blow-ups when the absolute delta is below this.
    const MIN_DELTA_NS: f64 = 200.0;
    let mut out = Diff {
        fingerprint_mismatch: base.fingerprint != head.fingerprint,
        ..Diff::default()
    };
    for (name, &head_ns) in &head.benches {
        let Some(&base_ns) = base.benches.get(name) else {
            out.added.push(name.clone());
            continue;
        };
        let ratio = if base_ns > 0.0 {
            head_ns / base_ns
        } else {
            f64::INFINITY
        };
        let entry = Regression {
            name: name.clone(),
            base_ns,
            head_ns,
            ratio,
        };
        if ratio > threshold && head_ns - base_ns > MIN_DELTA_NS {
            out.regressions.push(entry);
        } else {
            out.within.push(entry);
        }
    }
    for name in base.benches.keys() {
        if !head.benches.contains_key(name) {
            out.removed.push(name.clone());
        }
    }
    out.regressions
        .sort_by(|a, b| b.ratio.total_cmp(&a.ratio).then(a.name.cmp(&b.name)));
    out
}

fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_with(benches: &[(&str, f64)]) -> HistoryRun {
        HistoryRun {
            schema: SCHEMA,
            unix_secs: 1_754_600_000,
            commit: "abc1234".to_owned(),
            fingerprint: Fingerprint {
                os: "linux".to_owned(),
                arch: "x86_64".to_owned(),
                cpus: 8,
                cpu_model: "Bench CPU \"turbo\"".to_owned(),
            },
            benches: benches.iter().map(|(k, v)| ((*k).to_owned(), *v)).collect(),
        }
    }

    #[test]
    fn uncommitted_changes_mark_the_commit_dirty() {
        assert_eq!(commit_stamp("42ed6b2\n", ""), "42ed6b2");
        assert_eq!(commit_stamp("42ed6b2\n", "\n"), "42ed6b2");
        assert_eq!(
            commit_stamp("42ed6b2\n", " M crates/au-par/src/pool.rs\n"),
            "42ed6b2-dirty"
        );
    }

    #[test]
    fn json_line_round_trips_exactly() {
        let run = run_with(&[("gemm_64", 123_456.0), ("predict", 7_890.5)]);
        let line = run.to_json();
        assert!(!line.contains('\n'), "history lines must be single lines");
        assert_eq!(HistoryRun::from_json(&line).unwrap(), run);
    }

    #[test]
    fn identical_runs_produce_no_regressions() {
        let run = run_with(&[("a", 10_000.0), ("b", 2_000_000.0)]);
        let d = diff(&run, &run.clone(), 1.30);
        assert!(d.regressions.is_empty(), "{:?}", d.regressions);
        assert_eq!(d.within.len(), 2);
        assert!(!d.fingerprint_mismatch);
    }

    #[test]
    fn injected_regression_is_flagged_and_worst_sorted() {
        let base = run_with(&[("fast", 10_000.0), ("slow", 1_000_000.0), ("ok", 5_000.0)]);
        let mut head = base.clone();
        head.benches.insert("fast".to_owned(), 15_000.0); // 1.5x
        head.benches.insert("slow".to_owned(), 2_000_000.0); // 2.0x
        let d = diff(&base, &head, 1.30);
        let names: Vec<&str> = d.regressions.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, ["slow", "fast"], "worst first");
        assert!((d.regressions[0].ratio - 2.0).abs() < 1e-9);
    }

    #[test]
    fn tiny_absolute_deltas_do_not_flap_the_gate() {
        let base = run_with(&[("nano", 50.0)]);
        let mut head = base.clone();
        head.benches.insert("nano".to_owned(), 120.0); // 2.4x but 70 ns
        let d = diff(&base, &head, 1.30);
        assert!(d.regressions.is_empty(), "{:?}", d.regressions);
    }

    #[test]
    fn added_and_removed_benches_are_informational() {
        let base = run_with(&[("old", 10_000.0), ("both", 10_000.0)]);
        let head = run_with(&[("new", 10_000.0), ("both", 10_000.0)]);
        let d = diff(&base, &head, 1.30);
        assert_eq!(d.added, ["new"]);
        assert_eq!(d.removed, ["old"]);
        assert!(d.regressions.is_empty());
    }

    #[test]
    fn fingerprint_mismatch_is_surfaced() {
        let base = run_with(&[("a", 10_000.0)]);
        let mut head = base.clone();
        head.fingerprint.cpus = 16;
        assert!(diff(&base, &head, 1.30).fingerprint_mismatch);
    }

    #[test]
    fn append_and_load_round_trip_through_a_file() {
        let dir = std::env::temp_dir().join(format!(
            "au-bench-history-{}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_history.jsonl");
        let a = run_with(&[("a", 1_000.0)]);
        let b = run_with(&[("a", 1_100.0)]);
        append(&path, &a).unwrap();
        append(&path, &b).unwrap();
        // A corrupt line must be skipped, not fatal.
        {
            use std::io::Write as _;
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            writeln!(f, "{{not json").unwrap();
        }
        let (runs, skipped) = load(&path).unwrap();
        assert_eq!(runs, vec![a, b]);
        assert_eq!(skipped.len(), 1);
        assert_eq!(skipped[0].0, 3, "1-based line number of the bad line");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_history_file_is_empty_not_an_error() {
        let (runs, skipped) =
            load(Path::new("/nonexistent/definitely/BENCH_history.jsonl")).unwrap();
        assert!(runs.is_empty() && skipped.is_empty());
    }
}
