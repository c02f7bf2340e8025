//! Rows of bits: [`BitMatrix`] and the word-level helpers its users share.

/// A matrix of bits with `rows × cols` entries, one row of `u64` words
/// per row index; column `c` is bit `c % 64` of word `c / 64`.
///
/// Dependence graphs are small and dense enough that a row of bits beats
/// a `BTreeSet` per variable: [`AnalysisDb`](crate::AnalysisDb) keeps its
/// edges and per-variable function sets in one,
/// [`StaticFilter`](crate::StaticFilter) its transitive closure, and
/// AuLang's static analysis the facts it builds both from. A matrix grows by whole rows
/// and columns, so a database can add variables as a run meets them.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BitMatrix {
    rows: usize,
    cols: usize,
    /// Words per row: `cols.div_ceil(64)`.
    words: usize,
    bits: Vec<u64>,
}

impl BitMatrix {
    /// An `n × n` matrix with no bit set.
    pub fn new(n: usize) -> Self {
        BitMatrix::with_size(n, n)
    }

    /// A `rows × cols` matrix with no bit set.
    pub fn with_size(rows: usize, cols: usize) -> Self {
        let words = cols.div_ceil(64);
        BitMatrix {
            rows,
            cols,
            words,
            bits: vec![0; rows * words],
        }
    }

    /// The number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// The number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Grows the matrix to at least `rows × cols`, keeping every bit; the
    /// new entries are clear. A matrix never shrinks.
    pub fn grow(&mut self, rows: usize, cols: usize) {
        let cols = cols.max(self.cols);
        let words = cols.div_ceil(64);
        if words > self.words {
            let mut bits = vec![0; self.rows.max(rows) * words];
            for r in 0..self.rows {
                bits[r * words..r * words + self.words].copy_from_slice(self.row(r));
            }
            self.bits = bits;
            self.words = words;
        }
        self.cols = cols;
        if rows > self.rows {
            self.rows = rows;
            self.bits.resize(rows * self.words, 0);
        }
    }

    /// Sets bit `(row, col)`.
    pub fn insert(&mut self, row: usize, col: usize) {
        debug_assert!(
            row < self.rows && col < self.cols,
            "({row}, {col}) out of range"
        );
        self.bits[row * self.words + col / 64] |= 1 << (col % 64);
    }

    /// Whether bit `(row, col)` is set.
    pub fn contains(&self, row: usize, col: usize) -> bool {
        debug_assert!(
            row < self.rows && col < self.cols,
            "({row}, {col}) out of range"
        );
        self.bits[row * self.words + col / 64] >> (col % 64) & 1 == 1
    }

    /// Row `row` as words: column `c` is bit `c % 64` of word `c / 64`.
    pub fn row(&self, row: usize) -> &[u64] {
        &self.bits[row * self.words..(row + 1) * self.words]
    }

    /// Replaces the relation of a square matrix with its transitive
    /// closure (Warshall's algorithm, 64 columns per word operation):
    /// afterwards `(i, j)` is set exactly when a path of one or more steps
    /// leads from `i` to `j`, so `(i, i)` is set only for an `i` on a
    /// cycle. Over dependence edges, row `v` becomes
    /// [`AnalysisDb::dependents`](crate::AnalysisDb::dependents)`(v)`.
    ///
    /// # Panics
    ///
    /// Panics unless the matrix is square.
    pub fn close(&mut self) {
        assert_eq!(self.rows, self.cols, "closing a non-square matrix");
        let w = self.words;
        for k in 0..self.rows {
            for i in 0..self.rows {
                if i != k && self.contains(i, k) {
                    for x in 0..w {
                        self.bits[i * w + x] |= self.bits[k * w + x];
                    }
                }
            }
        }
    }
}

/// The set bits of `words`, ascending.
pub fn members(words: &[u64]) -> impl Iterator<Item = usize> + '_ {
    words.iter().enumerate().flat_map(|(i, &w)| {
        let mut w = w;
        std::iter::from_fn(move || {
            (w != 0).then(|| {
                let bit = w.trailing_zeros() as usize;
                w &= w - 1;
                i * 64 + bit
            })
        })
    })
}

/// Whether `a` and `b` share a set bit (words past the shorter one count
/// as clear).
pub fn intersects(a: &[u64], b: &[u64]) -> bool {
    a.iter().zip(b).any(|(x, y)| x & y != 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn growing_keeps_every_bit_across_a_word_boundary() {
        let mut m = BitMatrix::new(3);
        m.insert(0, 2);
        m.insert(2, 1);
        m.grow(70, 130);
        assert_eq!((m.rows(), m.cols()), (70, 130));
        m.insert(69, 129);
        m.insert(1, 64);
        let set: Vec<(usize, usize)> = (0..70)
            .flat_map(|r| members(m.row(r)).map(move |c| (r, c)))
            .collect();
        assert_eq!(set, [(0, 2), (1, 64), (2, 1), (69, 129)]);
        m.grow(2, 2);
        assert_eq!((m.rows(), m.cols()), (70, 130), "never shrinks");
    }
}
