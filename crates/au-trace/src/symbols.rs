//! Interned names: [`Symbols`] stores each distinct name once and numbers
//! it with a [`Sym`].
//!
//! AuLang programs name their identifiers through one, and
//! [`AnalysisDb`](crate::AnalysisDb) its variables and functions, so every
//! later pass compares names as integers and keeps per-name facts in
//! tables indexed by [`Sym::index`].

use std::fmt;

/// A name: an index into the [`Symbols`] table that interned it. It means
/// nothing without that table; [`Symbols::name`] spells it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Sym(u32);

impl Sym {
    /// The symbol's position in its table, for per-name tables.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The symbol at position `index` of its table.
    pub fn from_index(index: usize) -> Sym {
        Sym(index as u32)
    }
}

/// Names, each stored once and numbered in order of first interning.
///
/// The names share one string buffer, and an open-addressing index finds
/// a name's symbol, so interning a name already present allocates
/// nothing, and a new one only grows the buffers. A table owns three
/// buffers at most, so a clone makes three allocations.
#[derive(Clone, Default)]
pub struct Symbols {
    /// Every name, back to back.
    text: String,
    /// `ends[s]` is where symbol `s`'s name ends in `text`.
    ends: Vec<u32>,
    /// Symbol plus one per slot, 0 for an empty slot; the length is a
    /// power of two at least twice the number of symbols.
    slots: Vec<u32>,
}

impl Symbols {
    /// An empty table with room for about `names` names of `bytes` bytes
    /// in all before it grows.
    pub fn with_capacity(names: usize, bytes: usize) -> Self {
        Symbols {
            text: String::with_capacity(bytes),
            ends: Vec::with_capacity(names),
            slots: vec![0; (2 * names).next_power_of_two().max(16)],
        }
    }

    /// The number of symbols.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// True when no name has been interned.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// The name `sym` stands for.
    ///
    /// # Panics
    ///
    /// Panics if `sym` came from another table.
    pub fn name(&self, sym: Sym) -> &str {
        let i = sym.index();
        let start = if i == 0 { 0 } else { self.ends[i - 1] as usize };
        &self.text[start..self.ends[i] as usize]
    }

    /// The symbol of `name`, if it has been interned.
    pub fn get(&self, name: &str) -> Option<Sym> {
        if self.slots.is_empty() {
            return None;
        }
        match self.slots[self.probe(name)] {
            0 => None,
            s => Some(Sym(s - 1)),
        }
    }

    /// The symbol of `name`, interning it first if it is new.
    pub fn intern(&mut self, name: &str) -> Sym {
        if self.slots.len() < 2 * (self.len() + 1) {
            self.grow();
        }
        let slot = self.probe(name);
        if self.slots[slot] == 0 {
            self.text.push_str(name);
            self.ends.push(self.text.len() as u32);
            self.slots[slot] = self.len() as u32;
        }
        Sym(self.slots[slot] - 1)
    }

    /// Every symbol with its name, in symbol order.
    pub fn iter(&self) -> impl Iterator<Item = (Sym, &str)> {
        (0..self.len() as u32).map(|i| (Sym(i), self.name(Sym(i))))
    }

    /// The slot holding `name`, or the empty slot where it would go.
    fn probe(&self, name: &str) -> usize {
        let mask = self.slots.len() - 1;
        let mut i = hash(name) & mask;
        loop {
            match self.slots[i] {
                0 => return i,
                s if self.name(Sym(s - 1)) == name => return i,
                _ => i = (i + 1) & mask,
            }
        }
    }

    fn grow(&mut self) {
        let len = (2 * self.slots.len()).max(16);
        self.slots = vec![0; len];
        for i in 0..self.len() {
            let slot = self.probe(self.name(Sym(i as u32)));
            self.slots[slot] = i as u32 + 1;
        }
    }
}

/// FNV-1a over the name's bytes, folded so the low bits mix in the high.
fn hash(name: &str) -> usize {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in name.as_bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    }
    (h ^ (h >> 32)) as usize
}

impl fmt::Debug for Symbols {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter().map(|(_, n)| n)).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn symbols_intern_each_name_once_in_order() {
        let mut table = Symbols::default();
        assert_eq!(table.get("x"), None, "an empty table finds nothing");
        let names: Vec<String> = (0..100).map(|i| format!("v{i}")).collect();
        let syms: Vec<Sym> = names.iter().map(|n| table.intern(n)).collect();
        assert_eq!(table.len(), 100, "grew past its first slots");
        for (i, (name, &sym)) in names.iter().zip(&syms).enumerate() {
            assert_eq!(sym.index(), i, "ids follow first interning");
            assert_eq!(table.name(sym), name);
            assert_eq!(table.get(name), Some(sym));
            assert_eq!(table.intern(name), sym);
        }
        assert_eq!(table.len(), 100);
        assert_eq!(table.get("v100"), None);
    }
}
