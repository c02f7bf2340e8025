//! A minimal n-dimensional `f32` tensor.
//!
//! Shapes follow the convention used throughout the crate: the first
//! dimension is the batch dimension. Dense layers operate on `[batch, n]`
//! tensors; convolutional layers on `[batch, channels, height, width]`.

use serde::{Deserialize, Serialize};
use std::fmt;

/// An n-dimensional array of `f32` values in row-major order.
///
/// # Example
///
/// ```
/// use au_nn::Tensor;
/// let t = Tensor::zeros(&[2, 3]);
/// assert_eq!(t.shape(), &[2, 3]);
/// assert_eq!(t.len(), 6);
/// ```
#[derive(Clone, PartialEq, Serialize, Deserialize)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f32>,
}

impl Default for Tensor {
    /// A one-element placeholder, meant to be overwritten via
    /// [`Tensor::resize_zeroed`] / [`Tensor::copy_from`] before use — the seed value for reusable
    /// scratch buffers like [`crate::InferScratch`].
    fn default() -> Self {
        Tensor {
            shape: vec![1],
            data: vec![0.0],
        }
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{:?}", self.shape)?;
        if self.data.len() <= 8 {
            write!(f, " {:?}", self.data)
        } else {
            write!(f, " [{} values]", self.data.len())
        }
    }
}

/// A borrowed `[rows, width]` batch: what [`crate::Layer::infer_into`]
/// reads. `&Tensor` converts into one, and [`Rows::new`] views a caller's
/// flat row-major slice as a batch without copying it.
#[derive(Debug, Clone, Copy)]
pub struct Rows<'a> {
    data: &'a [f32],
    rows: usize,
    width: usize,
}

impl<'a> Rows<'a> {
    /// Views `data` as `rows` rows of `width` values each.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` is not `rows * width`.
    pub fn new(rows: usize, width: usize, data: &'a [f32]) -> Self {
        assert_eq!(
            data.len(),
            rows * width,
            "data length {} does not match [{rows}, {width}]",
            data.len()
        );
        Rows { data, rows, width }
    }

    /// Number of rows (the batch size).
    pub fn batch(&self) -> usize {
        self.rows
    }

    /// Elements per row.
    pub fn row_len(&self) -> usize {
        self.width
    }

    /// The whole batch, row-major.
    pub fn data(&self) -> &'a [f32] {
        self.data
    }

    /// Borrows row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn row_slice(&self, i: usize) -> &'a [f32] {
        &self.data[i * self.width..(i + 1) * self.width]
    }
}

impl<'a> From<&'a Tensor> for Rows<'a> {
    fn from(t: &'a Tensor) -> Self {
        Rows {
            data: &t.data,
            rows: t.batch(),
            width: t.row_len(),
        }
    }
}

impl Tensor {
    /// Creates a tensor of the given shape filled with zeros.
    ///
    /// # Panics
    ///
    /// Panics if `shape` is empty.
    pub fn zeros(shape: &[usize]) -> Self {
        assert!(!shape.is_empty(), "tensor shape must be non-empty");
        let len = shape.iter().product();
        Tensor {
            shape: shape.to_vec(),
            data: vec![0.0; len],
        }
    }

    /// Creates a tensor from a flat vector and a shape.
    ///
    /// # Panics
    ///
    /// Panics if the data length does not match the product of `shape`.
    pub fn from_vec(shape: &[usize], data: Vec<f32>) -> Self {
        let len: usize = shape.iter().product();
        assert_eq!(
            data.len(),
            len,
            "data length {} does not match shape {:?}",
            data.len(),
            shape
        );
        Tensor {
            shape: shape.to_vec(),
            data,
        }
    }

    /// Creates a 2-D `[rows, cols]` tensor from row slices.
    ///
    /// # Panics
    ///
    /// Panics if rows have differing lengths or `rows` is empty.
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        assert!(!rows.is_empty(), "from_rows requires at least one row");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for row in rows {
            assert_eq!(row.len(), cols, "all rows must have the same length");
            data.extend_from_slice(row);
        }
        Tensor::from_vec(&[rows.len(), cols], data)
    }

    /// Creates a `[1, n]` tensor (a single-sample batch) from a slice.
    pub fn row(values: &[f32]) -> Self {
        Tensor::from_vec(&[1, values.len()], values.to_vec())
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor holds no elements (only possible with a
    /// zero-length dimension).
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Borrow the underlying row-major data.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutably borrow the underlying row-major data.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor, returning the flat data.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Reinterprets the tensor with a new shape of equal element count.
    ///
    /// # Panics
    ///
    /// Panics if the element counts differ.
    pub fn reshape(&self, shape: &[usize]) -> Tensor {
        Tensor::from_vec(shape, self.data.clone())
    }

    /// Number of rows when viewed as a batch (the first dimension).
    pub fn batch(&self) -> usize {
        self.shape[0]
    }

    /// Elements per batch row.
    pub fn row_len(&self) -> usize {
        self.data.len().checked_div(self.shape[0]).unwrap_or(0)
    }

    /// Borrows batch row `i` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn row_slice(&self, i: usize) -> &[f32] {
        let n = self.row_len();
        &self.data[i * n..(i + 1) * n]
    }

    /// Matrix multiply: `self [m,k] × other [k,n] → [m,n]`.
    ///
    /// Runs through au-nn's cache-blocked GEMM kernel. Each
    /// output element accumulates its products in ascending inner-index
    /// order, so results are bit-identical to the scalar triple loop.
    ///
    /// # Panics
    ///
    /// Panics if the tensors are not 2-D or the inner dimensions disagree.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.shape.len(), 2, "matmul lhs must be 2-D");
        assert_eq!(other.shape.len(), 2, "matmul rhs must be 2-D");
        let (m, k) = (self.shape[0], self.shape[1]);
        let (k2, n) = (other.shape[0], other.shape[1]);
        assert_eq!(k, k2, "matmul inner dimensions must agree: {k} vs {k2}");
        let mut out = vec![0.0f32; m * n];
        let _t = au_telemetry::time!("au_nn.gemm");
        crate::kernels::gemm_acc(&mut out, &self.data, &other.data, m, k, n);
        Tensor::from_vec(&[m, n], out)
    }

    /// Transpose of a 2-D tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 2-D.
    pub fn transpose(&self) -> Tensor {
        assert_eq!(self.shape.len(), 2, "transpose requires a 2-D tensor");
        let (m, n) = (self.shape[0], self.shape[1]);
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                out[j * m + i] = self.data[i * n + j];
            }
        }
        Tensor::from_vec(&[n, m], out)
    }

    /// Element-wise addition.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn add(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.shape, other.shape, "add requires equal shapes");
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| a + b)
            .collect();
        Tensor::from_vec(&self.shape, data)
    }

    /// Element-wise subtraction.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn sub(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.shape, other.shape, "sub requires equal shapes");
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| a - b)
            .collect();
        Tensor::from_vec(&self.shape, data)
    }

    /// Multiplies every element by `s`.
    pub fn scale(&self, s: f32) -> Tensor {
        let data = self.data.iter().map(|a| a * s).collect();
        Tensor::from_vec(&self.shape, data)
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Reshapes this tensor in place to `shape` with all elements zero,
    /// reusing the existing allocation when capacity allows. The
    /// allocation-free twin of [`Tensor::zeros`] for scratch buffers.
    ///
    /// # Panics
    ///
    /// Panics if `shape` is empty.
    pub fn resize_zeroed(&mut self, shape: &[usize]) {
        assert!(!shape.is_empty(), "tensor shape must be non-empty");
        let len = shape.iter().product();
        self.data.clear();
        self.data.resize(len, 0.0);
        self.shape.clear();
        self.shape.extend_from_slice(shape);
    }

    /// Makes this tensor a `[rows, width]` copy of `src` (a [`Tensor`] or
    /// a [`Rows`] view), reusing the existing allocation when capacity
    /// allows.
    pub fn copy_from<'a>(&mut self, src: impl Into<Rows<'a>>) {
        let src = src.into();
        self.shape.clear();
        self.shape.extend_from_slice(&[src.batch(), src.row_len()]);
        self.data.clear();
        self.data.extend_from_slice(src.data());
    }

    /// Index of the maximum element in batch row `i`.
    ///
    /// Ties resolve to the lowest index. Returns `0` for an empty row.
    pub fn argmax_row(&self, i: usize) -> usize {
        let row = self.row_slice(i);
        let mut best = 0usize;
        for (idx, &v) in row.iter().enumerate().skip(1) {
            if v > row[best] {
                best = idx;
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_has_right_shape_and_len() {
        let t = Tensor::zeros(&[3, 4]);
        assert_eq!(t.shape(), &[3, 4]);
        assert_eq!(t.len(), 12);
        assert!(t.data().iter().all(|&x| x == 0.0));
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn zeros_rejects_empty_shape() {
        let _ = Tensor::zeros(&[]);
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn from_vec_checks_len() {
        let _ = Tensor::from_vec(&[2, 2], vec![1.0]);
    }

    #[test]
    fn matmul_identity() {
        let a = Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let id = Tensor::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]);
        assert_eq!(a.matmul(&id), a);
    }

    #[test]
    fn matmul_known_product() {
        let a = Tensor::from_rows(&[&[1.0, 2.0, 3.0]]);
        let b = Tensor::from_rows(&[&[1.0], &[10.0], &[100.0]]);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), &[1, 1]);
        assert_eq!(c.data()[0], 321.0);
    }

    #[test]
    fn transpose_round_trip() {
        let a = Tensor::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().shape(), &[3, 2]);
    }

    #[test]
    fn add_sub_scale() {
        let a = Tensor::row(&[1.0, 2.0]);
        let b = Tensor::row(&[3.0, 4.0]);
        assert_eq!(a.add(&b).data(), &[4.0, 6.0]);
        assert_eq!(b.sub(&a).data(), &[2.0, 2.0]);
        assert_eq!(a.scale(2.0).data(), &[2.0, 4.0]);
    }

    #[test]
    fn argmax_row_picks_maximum() {
        let t = Tensor::from_rows(&[&[0.1, 0.9, 0.3], &[5.0, 1.0, 2.0]]);
        assert_eq!(t.argmax_row(0), 1);
        assert_eq!(t.argmax_row(1), 0);
    }

    #[test]
    fn row_slice_views_batches() {
        let t = Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(t.row_slice(1), &[3.0, 4.0]);
        assert_eq!(t.batch(), 2);
        assert_eq!(t.row_len(), 2);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec(&[2, 3], (0..6).map(|x| x as f32).collect());
        let r = t.reshape(&[3, 2]);
        assert_eq!(r.shape(), &[3, 2]);
        assert_eq!(r.data(), t.data());
    }

    #[test]
    fn debug_is_never_empty() {
        let s = format!("{:?}", Tensor::zeros(&[1, 1]));
        assert!(s.contains("Tensor"));
    }

    #[test]
    fn resize_zeroed_matches_zeros_and_reuses_capacity() {
        let mut t = Tensor::from_vec(&[2, 3], vec![1.0; 6]);
        let cap_ptr = t.data().as_ptr();
        t.resize_zeroed(&[1, 4]);
        assert_eq!(t, Tensor::zeros(&[1, 4]));
        assert_eq!(t.data().as_ptr(), cap_ptr, "shrinking reuses the buffer");
        t.resize_zeroed(&[3, 3]);
        assert_eq!(t, Tensor::zeros(&[3, 3]));
    }

    #[test]
    fn copy_from_overwrites_in_place() {
        let src = Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let mut dst = Tensor::default();
        dst.copy_from(&src);
        assert_eq!(dst, src);
        dst.copy_from(Rows::new(1, 3, &[9.0, 8.0, 7.0]));
        assert_eq!(dst, Tensor::row(&[9.0, 8.0, 7.0]));
    }

    #[test]
    fn rows_view_a_flat_slice_and_a_tensor_alike() {
        let t = Tensor::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let flat = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        for rows in [Rows::from(&t), Rows::new(2, 3, &flat)] {
            assert_eq!((rows.batch(), rows.row_len()), (2, 3));
            assert_eq!(rows.row_slice(1), &[4.0, 5.0, 6.0]);
            assert_eq!(rows.data(), &flat);
        }
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn rows_checks_len() {
        let _ = Rows::new(2, 2, &[1.0]);
    }
}
