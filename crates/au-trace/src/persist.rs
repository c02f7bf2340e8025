//! Persistence for analysis databases.
//!
//! The paper's workflow separates *profiling* (run the instrumented program
//! once under Valgrind) from *extraction* (run Algorithms 1–2 on the
//! recorded facts). Persisting the [`AnalysisDb`] lets those phases live in
//! different processes, exactly as the original toolchain does.

use crate::db::AnalysisDb;
use serde::{DeError, Deserialize, Serialize, Value};
use std::path::Path;

/// Serializable mirror of [`AnalysisDb`].
#[derive(Debug, Serialize, Deserialize)]
struct DbFile {
    names: Vec<String>,
    /// Edges as (source index, dependent index).
    edges: Vec<(usize, usize)>,
    traces: Vec<Vec<Sample>>,
    use_funcs: Vec<Vec<String>>,
    inputs: Vec<usize>,
    targets: Vec<usize>,
}

/// Errors from persisting analysis databases.
#[derive(Debug)]
pub enum PersistError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Malformed file contents.
    Format(String),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "analysis db i/o failed: {e}"),
            PersistError::Format(msg) => write!(f, "invalid analysis db: {msg}"),
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::Io(e) => Some(e),
            PersistError::Format(_) => None,
        }
    }
}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::Io(e)
    }
}

/// One trace value, kept bit for bit. A finite value is a JSON number,
/// whose shortest round-trip form also keeps `-0.0`. JSON has no NaN or
/// infinity, so those are written as a string of their bits in hex
/// (`"0x7ff8000000000000"`), which keeps a NaN's sign and payload too.
#[derive(Debug)]
struct Sample(f64);

impl Serialize for Sample {
    fn serialize(&self) -> Value {
        if self.0.is_finite() {
            Value::Num(self.0)
        } else {
            Value::Str(format!("{:#018x}", self.0.to_bits()))
        }
    }
}

impl Deserialize for Sample {
    fn deserialize(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Num(n) => Ok(Sample(*n)),
            Value::Str(s) => s
                .strip_prefix("0x")
                .and_then(|hex| u64::from_str_radix(hex, 16).ok())
                .map(|bits| Sample(f64::from_bits(bits)))
                .ok_or_else(|| DeError(format!("invalid trace value {s:?}"))),
            other => Err(DeError::expected("trace value", other)),
        }
    }
}

/// Serializes the database to a JSON string.
pub fn to_json(db: &AnalysisDb) -> String {
    let mut edges = Vec::new();
    for v in db.all_vars() {
        for &d in db.direct_dependents(v) {
            edges.push((v.index(), d.index()));
        }
    }
    let file = DbFile {
        names: db.all_vars().map(|v| db.name(v).to_owned()).collect(),
        edges,
        traces: db
            .all_vars()
            .map(|v| db.trace(v).iter().map(|&x| Sample(x)).collect())
            .collect(),
        use_funcs: db
            .all_vars()
            .map(|v| db.use_funcs(v).iter().cloned().collect())
            .collect(),
        inputs: db.inputs().iter().map(|v| v.index()).collect(),
        targets: db.targets().iter().map(|v| v.index()).collect(),
    };
    serde_json::to_string(&file).expect("analysis db serializes")
}

/// Reconstructs a database from [`to_json`] output.
///
/// # Errors
///
/// Returns [`PersistError::Format`] for malformed JSON, a variable name
/// listed twice, or out-of-range indices.
pub fn from_json(json: &str) -> Result<AnalysisDb, PersistError> {
    let file: DbFile =
        serde_json::from_str(json).map_err(|e| PersistError::Format(e.to_string()))?;
    let n = file.names.len();
    let check = |i: usize| -> Result<(), PersistError> {
        if i < n {
            Ok(())
        } else {
            Err(PersistError::Format(format!(
                "variable index {i} out of range ({n} variables)"
            )))
        }
    };
    let mut db = AnalysisDb::new();
    for (i, name) in file.names.iter().enumerate() {
        if db.var(name).index() != i {
            return Err(PersistError::Format(format!(
                "variable name {name:?} is listed twice"
            )));
        }
    }
    for &(s, d) in &file.edges {
        check(s)?;
        check(d)?;
        db.record_edge(&file.names[s], &file.names[d]);
    }
    for (i, trace) in file.traces.iter().enumerate() {
        check(i)?;
        for &Sample(v) in trace {
            db.record_value(&file.names[i], v);
        }
    }
    for (i, funcs) in file.use_funcs.iter().enumerate() {
        check(i)?;
        for func in funcs {
            db.record_use(&file.names[i], func);
        }
    }
    for &i in &file.inputs {
        check(i)?;
        db.mark_input(&file.names[i]);
    }
    for &i in &file.targets {
        check(i)?;
        db.mark_target(&file.names[i]);
    }
    Ok(db)
}

/// Saves the database to a file.
///
/// # Errors
///
/// Returns [`PersistError::Io`] on filesystem failure.
pub fn save(db: &AnalysisDb, path: impl AsRef<Path>) -> Result<(), PersistError> {
    std::fs::write(path, to_json(db))?;
    Ok(())
}

/// Loads a database saved by [`save`].
///
/// # Errors
///
/// Returns [`PersistError::Io`] or [`PersistError::Format`].
pub fn load(path: impl AsRef<Path>) -> Result<AnalysisDb, PersistError> {
    let json = std::fs::read_to_string(path)?;
    from_json(&json)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{extract_sl, RlParams};

    fn sample_db() -> AnalysisDb {
        let mut db = AnalysisDb::new();
        db.record_assign("sImg", &["image"], None, "canny");
        db.record_assign("hist", &["sImg"], Some(1.0), "canny");
        db.record_assign("result", &["hist", "lo"], None, "hysteresis");
        db.record_value("hist", 2.5);
        db.mark_input("image");
        db.mark_target("lo");
        db
    }

    #[test]
    fn round_trip_preserves_everything() {
        let db = sample_db();
        let restored = from_json(&to_json(&db)).unwrap();
        assert_eq!(restored.var_count(), db.var_count());
        for v in db.all_vars() {
            let rv = restored.id(db.name(v)).expect("variable survives");
            assert_eq!(restored.trace(rv), db.trace(v), "trace of {}", db.name(v));
            assert_eq!(
                restored.use_funcs(rv),
                db.use_funcs(v),
                "use-functions of {} must round-trip exactly",
                db.name(v)
            );
            assert_eq!(
                restored.dependents(rv).len(),
                db.dependents(v).len(),
                "dep({}) size",
                db.name(v)
            );
        }
        assert_eq!(restored.inputs().len(), 1);
        assert_eq!(restored.targets().len(), 1);
    }

    #[test]
    fn extraction_agrees_after_round_trip() {
        let db = sample_db();
        let restored = from_json(&to_json(&db)).unwrap();
        let before = extract_sl(&db);
        let after = extract_sl(&restored);
        let lo_before = db.id("lo").unwrap();
        let lo_after = restored.id("lo").unwrap();
        let names = |db: &AnalysisDb, list: &[crate::RankedFeature]| -> Vec<String> {
            list.iter().map(|f| db.name(f.var).to_owned()).collect()
        };
        assert_eq!(
            names(&db, &before[&lo_before]),
            names(&restored, &after[&lo_after])
        );
        let _ = RlParams::default();
    }

    #[test]
    fn file_round_trip() {
        let path = std::env::temp_dir().join("au_trace_persist_test.json");
        let db = sample_db();
        save(&db, &path).unwrap();
        let restored = load(&path).unwrap();
        assert_eq!(restored.var_count(), db.var_count());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn rejects_garbage() {
        assert!(matches!(from_json("nope"), Err(PersistError::Format(_))));
    }

    #[test]
    fn non_finite_and_signed_zero_trace_values_round_trip_bit_for_bit() {
        let values = [
            f64::NAN,
            -f64::NAN,
            f64::from_bits(0x7ff0_0000_0000_0001), // a NaN with a payload
            f64::INFINITY,
            f64::NEG_INFINITY,
            -0.0,
            0.0,
            f64::MIN_POSITIVE / 4.0,
            0.1,
            f64::MAX,
        ];
        let mut db = AnalysisDb::new();
        for &v in &values {
            db.record_value("x", v);
        }
        let restored = from_json(&to_json(&db)).unwrap();
        let bits = |trace: &[f64]| trace.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let x = restored.id("x").unwrap();
        assert_eq!(bits(restored.trace(x)), bits(&values));
    }

    #[test]
    fn rejects_duplicate_names() {
        let json = r#"{"names":["a","b","a"],"edges":[],"traces":[[1.0],[],[2.0]],"use_funcs":[[],[],[]],"inputs":[],"targets":[]}"#;
        assert!(matches!(from_json(json), Err(PersistError::Format(_))));
    }

    #[test]
    fn rejects_out_of_range_indices() {
        let json = r#"{"names":["a"],"edges":[[0,5]],"traces":[[]],"use_funcs":[[]],"inputs":[],"targets":[]}"#;
        assert!(matches!(from_json(json), Err(PersistError::Format(_))));
    }
}
