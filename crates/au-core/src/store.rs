//! The database store π of the operational semantics.
//!
//! Fig. 8 defines a *program store* σ (`Var → Value`) and a *database store*
//! π (`String → list of Value`). They are isolated: data moves between them
//! only through the primitives. σ is the host program's own variables; the
//! engine owns π.

use std::collections::BTreeMap;

/// One named π list: its values plus the count of values ever appended,
/// which the engine uses to tell a freshly extracted label apart from a
/// stale model prediction.
///
/// Keeping the count next to the values (instead of in a parallel map)
/// means `append` — the hottest π write, fired by every `au_extract` — does
/// a single tree lookup with no key allocation on the hit path.
#[derive(Debug, Clone, Default, PartialEq)]
struct DbList {
    values: Vec<f64>,
    appended: usize,
}

/// The database store π: `String → list of values`.
///
/// `au_extract` appends here; `au_NN` reads model inputs from here and
/// writes model outputs back here; `au_write_back` copies values out to
/// program variables.
///
/// The write path is append-optimized: `append` touches the tree once, and
/// `clear` empties a list in place so the buffer's capacity is reused by the
/// next extract→serve cycle instead of reallocating every iteration.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DbStore {
    lists: BTreeMap<String, DbList>,
}

impl DbStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        DbStore::default()
    }

    /// Rule EXTRACT: appends `values` to the list under `name`.
    pub fn append(&mut self, name: &str, values: &[f64]) {
        let list = match self.lists.get_mut(name) {
            Some(list) => list,
            None => self.lists.entry(name.to_owned()).or_default(),
        };
        list.appended += values.len();
        list.values.extend_from_slice(values);
    }

    /// Rule EXTRACT for `f32` feature vectors: widens each value exactly
    /// (every `f32` is representable as an `f64`) straight into the list,
    /// with no intermediate `f64` buffer.
    pub fn append_f32(&mut self, name: &str, values: &[f32]) {
        let list = match self.lists.get_mut(name) {
            Some(list) => list,
            None => self.lists.entry(name.to_owned()).or_default(),
        };
        list.appended += values.len();
        list.values.extend(values.iter().map(|&v| f64::from(v)));
    }

    /// How many values [`DbStore::append`] has added under `name`.
    /// Survives [`DbStore::clear`] and [`DbStore::put`] — label freshness
    /// tracking depends on it being monotonic for the store's lifetime.
    pub fn appended(&self, name: &str) -> usize {
        self.lists.get(name).map_or(0, |l| l.appended)
    }

    /// Reads the list under `name` (empty slice if absent — the paper's ⊥).
    pub fn get(&self, name: &str) -> &[f64] {
        self.lists
            .get(name)
            .map(|l| l.values.as_slice())
            .unwrap_or(&[])
    }

    /// Replaces the list under `name`.
    pub fn put(&mut self, name: &str, values: Vec<f64>) {
        match self.lists.get_mut(name) {
            Some(list) => list.values = values,
            None => {
                self.lists.entry(name.to_owned()).or_default().values = values;
            }
        }
    }

    /// Rule TRAIN/TEST's `extName ↦ ⊥`: resets a list to empty. The backing
    /// buffer (and the append counter) survive so the next append reuses the
    /// capacity.
    pub fn clear(&mut self, name: &str) {
        if let Some(list) = self.lists.get_mut(name) {
            list.values.clear();
        }
    }

    /// Rule SERIALIZE: concatenates the lists under `names` into one list
    /// stored under the strcat of the names, returning the combined name.
    pub fn serialize(&mut self, names: &[&str]) -> String {
        let combined_name = names.concat();
        let total: usize = names.iter().map(|n| self.get(n).len()).sum();
        let mut combined = Vec::with_capacity(total);
        for name in names {
            combined.extend_from_slice(self.get(name));
        }
        self.put(&combined_name, combined);
        combined_name
    }

    /// Number of non-empty lists.
    pub fn len(&self) -> usize {
        self.iter().count()
    }

    /// Whether every list is ⊥.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterates non-empty lists in name order (cleared lists are ⊥ and
    /// indistinguishable from never-written ones).
    pub fn iter(&self) -> impl Iterator<Item = (&str, &[f64])> {
        self.lists
            .iter()
            .filter(|(_, l)| !l.values.is_empty())
            .map(|(k, l)| (k.as_str(), l.values.as_slice()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn db_append_accumulates_in_order() {
        let mut db = DbStore::new();
        db.append("A", &[1.0]);
        db.append("A", &[2.0, 3.0]);
        assert_eq!(db.get("A"), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn db_get_missing_is_bottom() {
        let db = DbStore::new();
        assert_eq!(db.get("nope"), &[] as &[f64]);
    }

    #[test]
    fn db_clear_resets_to_bottom() {
        let mut db = DbStore::new();
        db.append("A", &[1.0, 2.0]);
        db.clear("A");
        assert_eq!(db.get("A"), &[] as &[f64]);
        // the appended-value count survives, so label freshness stays
        // monotonic
        assert_eq!(db.appended("A"), 2);
        db.put("A", vec![3.0]);
        db.append_f32("A", &[4.0]);
        assert_eq!(db.appended("A"), 3);
    }

    #[test]
    fn serialize_concatenates_values_and_names() {
        let mut db = DbStore::new();
        db.append("PX", &[1.0]);
        db.append("PY", &[2.0]);
        db.append("MnX", &[3.0, 4.0]);
        let name = db.serialize(&["PX", "PY", "MnX"]);
        assert_eq!(name, "PXPYMnX");
        assert_eq!(db.get(&name), &[1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn serialize_with_missing_list_uses_bottom() {
        let mut db = DbStore::new();
        db.append("A", &[1.0]);
        let name = db.serialize(&["A", "B"]);
        assert_eq!(db.get(&name), &[1.0]);
    }
}
