//! Convolution, max-pooling, and flatten layers.
//!
//! These implement the "Raw" baseline of the paper: the DeepMind-style model
//! that consumes raw pixel frames and derives high-level features through
//! convolutional preprocessing layers (Section 2 and Table 2). All layers
//! keep the network-wide `[batch, features]` convention — each batch row is a
//! flattened `[channels, height, width]` volume whose spatial shape is part
//! of the layer configuration.

use crate::init::xavier;
use crate::layer::{Layer, LayerSpec, Param};
use crate::tensor::{Rows, Tensor};

/// A 2-D convolution with square kernels and no padding.
#[derive(Debug)]
pub struct Conv2d {
    in_channels: usize,
    out_channels: usize,
    kernel: usize,
    stride: usize,
    in_h: usize,
    in_w: usize,
    /// `[out_c, in_c * k * k]` — each output channel's flattened kernel.
    weight: Param,
    /// `[1, out_c]`.
    bias: Param,
    /// im2col patch matrices from the last training forward, one
    /// `[fan_in, patches]` block per batch row; the backward pass reuses
    /// them for the weight-gradient GEMM.
    cached_cols: Option<Vec<f32>>,
    cached_batch: usize,
}

impl Conv2d {
    /// Creates a convolution over `[in_channels, in_h, in_w]` inputs.
    ///
    /// # Panics
    ///
    /// Panics if the kernel does not fit the input or any dimension is zero.
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        in_h: usize,
        in_w: usize,
    ) -> Self {
        assert!(
            in_channels > 0 && out_channels > 0,
            "channels must be positive"
        );
        assert!(
            kernel > 0 && stride > 0,
            "kernel and stride must be positive"
        );
        assert!(
            kernel <= in_h && kernel <= in_w,
            "kernel {kernel} exceeds input {in_h}x{in_w}"
        );
        let fan_in = in_channels * kernel * kernel;
        Conv2d {
            in_channels,
            out_channels,
            kernel,
            stride,
            in_h,
            in_w,
            weight: Param::new(xavier(fan_in, out_channels, &[out_channels, fan_in])),
            bias: Param::new(Tensor::zeros(&[1, out_channels])),
            cached_cols: None,
            cached_batch: 0,
        }
    }

    /// Reconstructs a convolution from saved weights.
    #[allow(clippy::too_many_arguments)]
    pub fn from_weights(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        in_h: usize,
        in_w: usize,
        weight: Tensor,
        bias: Tensor,
    ) -> Self {
        // Constructed directly (not via `new`) so loading a saved model
        // does not advance the global initialization stream.
        assert!(
            in_channels > 0 && out_channels > 0,
            "channels must be positive"
        );
        assert!(
            kernel > 0 && stride > 0,
            "kernel and stride must be positive"
        );
        assert!(
            kernel <= in_h && kernel <= in_w,
            "kernel {kernel} exceeds input {in_h}x{in_w}"
        );
        let fan_in = in_channels * kernel * kernel;
        assert_eq!(weight.shape(), &[out_channels, fan_in], "weight shape");
        assert_eq!(bias.shape(), &[1, out_channels], "bias shape");
        Conv2d {
            in_channels,
            out_channels,
            kernel,
            stride,
            in_h,
            in_w,
            weight: Param::new(weight),
            bias: Param::new(bias),
            cached_cols: None,
            cached_batch: 0,
        }
    }

    /// Output height.
    pub fn out_h(&self) -> usize {
        (self.in_h - self.kernel) / self.stride + 1
    }

    /// Output width.
    pub fn out_w(&self) -> usize {
        (self.in_w - self.kernel) / self.stride + 1
    }

    fn in_len(&self) -> usize {
        self.in_channels * self.in_h * self.in_w
    }

    fn out_len(&self) -> usize {
        self.out_channels * self.out_h() * self.out_w()
    }

    #[inline]
    fn input_index(&self, c: usize, y: usize, x: usize) -> usize {
        (c * self.in_h + y) * self.in_w + x
    }

    fn fan_in(&self) -> usize {
        self.in_channels * self.kernel * self.kernel
    }

    /// Lowers one input row into its `[fan_in, patches]` im2col matrix:
    /// `col[f][p]` is the input pixel that kernel element `f = (ic, ky, kx)`
    /// sees at output position `p = (oy, ox)`. Row `f` of `col` is a
    /// contiguous copy sweep per output row (unit-stride when `stride == 1`).
    fn im2col_row(&self, row: &[f32], col: &mut [f32]) {
        let _t = au_telemetry::time!("au_nn.im2col");
        let (oh, ow) = (self.out_h(), self.out_w());
        let patches = oh * ow;
        let k = self.kernel;
        let mut f = 0;
        for ic in 0..self.in_channels {
            for ky in 0..k {
                for kx in 0..k {
                    let dst = &mut col[f * patches..(f + 1) * patches];
                    for oy in 0..oh {
                        let iy = oy * self.stride + ky;
                        let src = self.input_index(ic, iy, kx);
                        let drow = &mut dst[oy * ow..(oy + 1) * ow];
                        if self.stride == 1 {
                            drow.copy_from_slice(&row[src..src + ow]);
                        } else {
                            for (ox, d) in drow.iter_mut().enumerate() {
                                *d = row[src + ox * self.stride];
                            }
                        }
                    }
                    f += 1;
                }
            }
        }
    }

    /// The adjoint of [`Conv2d::im2col_row`]: adds each `dcol[f][p]` back
    /// onto the input pixel that `col[f][p]` was copied from, kernel
    /// elements in ascending-`f` order.
    fn col2im_row(&self, dcol: &[f32], grad_row: &mut [f32]) {
        let (oh, ow) = (self.out_h(), self.out_w());
        let patches = oh * ow;
        let k = self.kernel;
        let mut f = 0;
        for ic in 0..self.in_channels {
            for ky in 0..k {
                for kx in 0..k {
                    let src = &dcol[f * patches..(f + 1) * patches];
                    for oy in 0..oh {
                        let base = self.input_index(ic, oy * self.stride + ky, kx);
                        for ox in 0..ow {
                            grad_row[base + ox * self.stride] += src[oy * ow + ox];
                        }
                    }
                    f += 1;
                }
            }
        }
    }

    /// Length of one batch row's im2col matrix.
    fn col_len(&self) -> usize {
        self.fan_in() * self.out_h() * self.out_w()
    }

    /// The convolution over every batch row of `input`, written into `out`.
    /// Row `b` is lowered into block `b % blocks` of `cols` (blocks of
    /// [`Conv2d::col_len`]): serving passes one block and reuses it for
    /// every row, training passes one block per row and keeps them.
    fn convolve(&self, input: Rows<'_>, out: &mut Tensor, cols: &mut [f32]) {
        assert_eq!(
            input.row_len(),
            self.in_len(),
            "conv2d expected {} features, got {}",
            self.in_len(),
            input.row_len()
        );
        let (col_len, out_len) = (self.col_len(), self.out_len());
        let blocks = cols.len() / col_len;
        out.resize_zeroed(&[input.batch(), out_len]);
        for (b, out_row) in out.data_mut().chunks_exact_mut(out_len).enumerate() {
            let col = &mut cols[(b % blocks) * col_len..][..col_len];
            self.im2col_row(input.row_slice(b), col);
            self.forward_row(col, out_row);
        }
    }

    /// Forward pass for one batch row: pre-fills `out_row` with the
    /// per-channel bias, then accumulates `W [out_c, fan_in] × col
    /// [fan_in, patches]` on top. Per output element that is `bias + Σ_f`
    /// in ascending-`f` order — bit-identical to the scalar loop nest this
    /// replaced.
    fn forward_row(&self, col: &[f32], out_row: &mut [f32]) {
        let _t = au_telemetry::time!("au_nn.gemm");
        let patches = self.out_h() * self.out_w();
        for (oc, chunk) in out_row.chunks_exact_mut(patches).enumerate() {
            chunk.fill(self.bias.value.data()[oc]);
        }
        crate::kernels::gemm_acc(
            out_row,
            self.weight.value.data(),
            col,
            self.out_channels,
            self.fan_in(),
            patches,
        );
    }
}

impl Layer for Conv2d {
    fn forward(&mut self, input: &Tensor) -> Tensor {
        // The backward pass consumes the patch matrices, not the raw
        // input: dW is a GEMM against them. Keep one per batch row.
        let batch = input.batch();
        let mut cols = vec![0.0f32; batch * self.col_len()];
        let mut out = Tensor::default();
        self.convolve(input.into(), &mut out, &mut cols);
        self.cached_cols = Some(cols);
        self.cached_batch = batch;
        out
    }

    fn infer_into(&self, input: Rows<'_>, out: &mut Tensor) {
        // One im2col buffer, reused for every batch row.
        self.convolve(input, out, &mut vec![0.0f32; self.col_len()]);
    }

    fn backward(&mut self, grad_out: &Tensor, grad_in: Option<&mut Tensor>) {
        let patches = self.out_h() * self.out_w();
        let (fan_in, col_len, in_len) = (self.fan_in(), self.col_len(), self.in_len());
        let batch = self.cached_batch;
        let cols = self
            .cached_cols
            .as_ref()
            .expect("backward called before forward");
        // The input gradient's Wᵀ (`[fan_in, out_c]`) and dcol buffer exist
        // only when the caller reads dx.
        let mut dx = grad_in.map(|grad_in| {
            grad_in.resize_zeroed(&[batch, in_len]);
            (
                grad_in,
                self.weight.value.transpose(),
                vec![0.0f32; col_len],
            )
        });
        let mut colt = vec![0.0f32; col_len];
        for b in 0..batch {
            let go_row = grad_out.row_slice(b);
            let col = &cols[b * col_len..(b + 1) * col_len];
            // db[oc] += Σ_patches dy — ascending patch order per channel.
            for (oc, chunk) in go_row.chunks_exact(patches).enumerate() {
                let acc = &mut self.bias.grad.data_mut()[oc];
                for &g in chunk {
                    *acc += g;
                }
            }
            // dW [out_c, fan_in] += dy [out_c, patches] · colᵀ [patches,
            // fan_in]: ascending-patch accumulation, matching the loop nest
            // this replaced.
            for f in 0..fan_in {
                for p in 0..patches {
                    colt[p * fan_in + f] = col[f * patches + p];
                }
            }
            crate::kernels::gemm_acc(
                self.weight.grad.data_mut(),
                go_row,
                &colt,
                self.out_channels,
                patches,
                fan_in,
            );
            // dx via dcol = Wᵀ [fan_in, out_c] · dy [out_c, patches],
            // scattered back through the im2col mapping (col2im). The
            // scatter visits kernel elements in ascending-f order, which
            // regroups the additions relative to the old oc-major nest —
            // equal within f32 rounding, covered by the 1e-6 oracle tests.
            if let Some((grad_in, wt, dcol)) = dx.as_mut() {
                dcol.fill(0.0);
                crate::kernels::gemm_acc(
                    dcol,
                    wt.data(),
                    go_row,
                    fan_in,
                    self.out_channels,
                    patches,
                );
                self.col2im_row(dcol, &mut grad_in.data_mut()[b * in_len..(b + 1) * in_len]);
            }
        }
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.weight, &mut self.bias]
    }

    fn params(&self) -> Vec<&Param> {
        vec![&self.weight, &self.bias]
    }

    fn out_features(&self) -> Option<usize> {
        Some(self.out_len())
    }

    fn spec(&self) -> LayerSpec {
        LayerSpec::Conv2d {
            in_channels: self.in_channels,
            out_channels: self.out_channels,
            kernel: self.kernel,
            stride: self.stride,
            in_h: self.in_h,
            in_w: self.in_w,
            weight: self.weight.value.clone(),
            bias: self.bias.value.clone(),
        }
    }
}

#[cfg(test)]
impl Conv2d {
    /// Reference forward: the 7-deep scalar loop nest the im2col path
    /// replaced. Kept only as a test oracle.
    pub(crate) fn infer_naive(&self, input: &Tensor) -> Tensor {
        let (oh, ow) = (self.out_h(), self.out_w());
        let k = self.kernel;
        let mut out = Tensor::zeros(&[input.batch(), self.out_len()]);
        for b in 0..input.batch() {
            let row = input.row_slice(b);
            for oc in 0..self.out_channels {
                let wrow = &self.weight.value.data()[oc * self.fan_in()..][..self.fan_in()];
                let bias = self.bias.value.data()[oc];
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut acc = bias;
                        let mut widx = 0;
                        for ic in 0..self.in_channels {
                            for ky in 0..k {
                                let iy = oy * self.stride + ky;
                                let base = self.input_index(ic, iy, ox * self.stride);
                                for kx in 0..k {
                                    acc += wrow[widx] * row[base + kx];
                                    widx += 1;
                                }
                            }
                        }
                        let oidx = (oc * oh + oy) * ow + ox;
                        out.data_mut()[b * self.out_len() + oidx] = acc;
                    }
                }
            }
        }
        out
    }

    /// Reference backward: returns `(grad_in, dW, db)` for the given input
    /// and output gradient without touching layer state. Kept only as a
    /// test oracle.
    pub(crate) fn backward_naive(
        &self,
        input: &Tensor,
        grad_out: &Tensor,
    ) -> (Tensor, Tensor, Tensor) {
        let (oh, ow) = (self.out_h(), self.out_w());
        let k = self.kernel;
        let mut grad_in = Tensor::zeros(&[input.batch(), self.in_len()]);
        let mut dw = Tensor::zeros(self.weight.value.shape());
        let mut db = Tensor::zeros(self.bias.value.shape());
        for b in 0..input.batch() {
            let in_row = input.row_slice(b);
            let go_row = grad_out.row_slice(b);
            for oc in 0..self.out_channels {
                let wbase = oc * self.fan_in();
                for oy in 0..oh {
                    for ox in 0..ow {
                        let g = go_row[(oc * oh + oy) * ow + ox];
                        if g == 0.0 {
                            continue;
                        }
                        db.data_mut()[oc] += g;
                        let mut widx = 0;
                        for ic in 0..self.in_channels {
                            for ky in 0..k {
                                let iy = oy * self.stride + ky;
                                let base = self.input_index(ic, iy, ox * self.stride);
                                for kx in 0..k {
                                    dw.data_mut()[wbase + widx] += g * in_row[base + kx];
                                    grad_in.data_mut()[b * self.in_len() + base + kx] +=
                                        g * self.weight.value.data()[wbase + widx];
                                    widx += 1;
                                }
                            }
                        }
                    }
                }
            }
        }
        (grad_in, dw, db)
    }
}

/// Non-overlapping 2-D max pooling (window == stride).
#[derive(Debug)]
pub struct MaxPool2d {
    channels: usize,
    window: usize,
    in_h: usize,
    in_w: usize,
    /// Flat input index of the maximum chosen for each output element.
    cached_argmax: Option<Vec<usize>>,
    cached_batch: usize,
}

impl MaxPool2d {
    /// Creates a pooling layer over `[channels, in_h, in_w]` inputs.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero or exceeds the spatial dimensions.
    pub fn new(channels: usize, window: usize, in_h: usize, in_w: usize) -> Self {
        assert!(window > 0, "window must be positive");
        assert!(
            window <= in_h && window <= in_w,
            "window {window} exceeds input {in_h}x{in_w}"
        );
        MaxPool2d {
            channels,
            window,
            in_h,
            in_w,
            cached_argmax: None,
            cached_batch: 0,
        }
    }

    /// Output height.
    pub fn out_h(&self) -> usize {
        self.in_h / self.window
    }

    /// Output width.
    pub fn out_w(&self) -> usize {
        self.in_w / self.window
    }

    fn in_len(&self) -> usize {
        self.channels * self.in_h * self.in_w
    }

    fn out_len(&self) -> usize {
        self.channels * self.out_h() * self.out_w()
    }

    /// Pools every batch row of `input` into `out`; with `argmax`, also
    /// records the flat input index each output element took its maximum
    /// from (what the backward pass routes gradients through).
    fn pool(&self, input: Rows<'_>, out: &mut Tensor, mut argmax: Option<&mut [usize]>) {
        assert_eq!(
            input.row_len(),
            self.in_len(),
            "maxpool input size mismatch"
        );
        let (oh, ow) = (self.out_h(), self.out_w());
        let w = self.window;
        let out_len = self.out_len();
        out.resize_zeroed(&[input.batch(), out_len]);
        for (b, out_row) in out.data_mut().chunks_exact_mut(out_len).enumerate() {
            let row = input.row_slice(b);
            for c in 0..self.channels {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut best = f32::NEG_INFINITY;
                        let mut best_idx = 0;
                        for ky in 0..w {
                            for kx in 0..w {
                                let iy = oy * w + ky;
                                let ix = ox * w + kx;
                                let idx = (c * self.in_h + iy) * self.in_w + ix;
                                if row[idx] > best {
                                    best = row[idx];
                                    best_idx = idx;
                                }
                            }
                        }
                        let oidx = (c * oh + oy) * ow + ox;
                        out_row[oidx] = best;
                        if let Some(argmax) = argmax.as_deref_mut() {
                            argmax[b * out_len + oidx] = best_idx;
                        }
                    }
                }
            }
        }
    }
}

impl Layer for MaxPool2d {
    fn forward(&mut self, input: &Tensor) -> Tensor {
        let mut argmax = vec![0usize; input.batch() * self.out_len()];
        let mut out = Tensor::default();
        self.pool(input.into(), &mut out, Some(&mut argmax));
        self.cached_argmax = Some(argmax);
        self.cached_batch = input.batch();
        out
    }

    fn infer_into(&self, input: Rows<'_>, out: &mut Tensor) {
        self.pool(input, out, None);
    }

    fn backward(&mut self, grad_out: &Tensor, grad_in: Option<&mut Tensor>) {
        let Some(grad_in) = grad_in else { return };
        let argmax = self
            .cached_argmax
            .as_ref()
            .expect("backward called before forward");
        grad_in.resize_zeroed(&[self.cached_batch, self.in_len()]);
        for b in 0..self.cached_batch {
            let go = grad_out.row_slice(b);
            for (o, &g) in go.iter().enumerate() {
                let idx = argmax[b * self.out_len() + o];
                grad_in.data_mut()[b * self.in_len() + idx] += g;
            }
        }
    }

    fn out_features(&self) -> Option<usize> {
        Some(self.out_len())
    }

    fn spec(&self) -> LayerSpec {
        LayerSpec::MaxPool2d {
            channels: self.channels,
            window: self.window,
            in_h: self.in_h,
            in_w: self.in_w,
        }
    }
}

/// Identity layer marking the transition from spatial to flat features.
///
/// Since the whole network already uses `[batch, features]`, flatten is a
/// no-op at runtime but documents the architecture and fixes the feature
/// count for shape inference.
#[derive(Debug)]
pub struct Flatten {
    features: usize,
}

impl Flatten {
    /// Creates a flatten marker for `features` flat features.
    pub fn new(features: usize) -> Self {
        Flatten { features }
    }
}

impl Layer for Flatten {
    fn forward(&mut self, input: &Tensor) -> Tensor {
        let mut out = Tensor::default();
        self.infer_into(input.into(), &mut out);
        out
    }

    fn infer_into(&self, input: Rows<'_>, out: &mut Tensor) {
        assert_eq!(input.row_len(), self.features, "flatten size mismatch");
        out.copy_from(input);
    }

    fn backward(&mut self, grad_out: &Tensor, grad_in: Option<&mut Tensor>) {
        if let Some(grad_in) = grad_in {
            grad_in.copy_from(grad_out);
        }
    }

    fn out_features(&self) -> Option<usize> {
        Some(self.features)
    }

    fn spec(&self) -> LayerSpec {
        LayerSpec::Flatten {
            features: self.features,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conv_identity_kernel_copies_input() {
        // 1x1 kernel with weight 1 reproduces the input.
        let mut conv = Conv2d::from_weights(
            1,
            1,
            1,
            1,
            2,
            2,
            Tensor::from_vec(&[1, 1], vec![1.0]),
            Tensor::zeros(&[1, 1]),
        );
        let x = Tensor::row(&[1.0, 2.0, 3.0, 4.0]);
        let y = conv.forward(&x);
        assert_eq!(y.data(), x.data());
    }

    #[test]
    fn conv_sums_window() {
        // 2x2 all-ones kernel over a 2x2 input = sum of all pixels.
        let mut conv = Conv2d::from_weights(
            1,
            1,
            2,
            1,
            2,
            2,
            Tensor::from_vec(&[1, 4], vec![1.0; 4]),
            Tensor::zeros(&[1, 1]),
        );
        let y = conv.forward(&Tensor::row(&[1.0, 2.0, 3.0, 4.0]));
        assert_eq!(y.data(), &[10.0]);
    }

    #[test]
    fn conv_output_dims() {
        let conv = Conv2d::new(1, 4, 3, 2, 9, 9);
        assert_eq!(conv.out_h(), 4);
        assert_eq!(conv.out_w(), 4);
        assert_eq!(conv.out_features(), Some(4 * 4 * 4));
    }

    #[test]
    fn conv_backward_distributes_gradient() {
        let mut conv = Conv2d::from_weights(
            1,
            1,
            2,
            1,
            2,
            2,
            Tensor::from_vec(&[1, 4], vec![1.0; 4]),
            Tensor::zeros(&[1, 1]),
        );
        let x = Tensor::row(&[1.0, 2.0, 3.0, 4.0]);
        let _ = conv.forward(&x);
        let mut dx = Tensor::default();
        conv.backward(&Tensor::row(&[1.0]), Some(&mut dx));
        assert_eq!(dx, Tensor::row(&[1.0, 1.0, 1.0, 1.0]));
        let params = conv.params_mut();
        assert_eq!(params[0].grad.data(), x.data());
        assert_eq!(params[1].grad.data(), &[1.0]);
    }

    #[test]
    fn maxpool_selects_maximum() {
        let mut pool = MaxPool2d::new(1, 2, 2, 2);
        let y = pool.forward(&Tensor::row(&[1.0, 5.0, 3.0, 2.0]));
        assert_eq!(y.data(), &[5.0]);
        let mut dx = Tensor::default();
        pool.backward(&Tensor::row(&[1.0]), Some(&mut dx));
        assert_eq!(dx, Tensor::row(&[0.0, 1.0, 0.0, 0.0]));
    }

    #[test]
    fn maxpool_per_channel() {
        let mut pool = MaxPool2d::new(2, 2, 2, 2);
        let x = Tensor::row(&[1.0, 2.0, 3.0, 4.0, 8.0, 7.0, 6.0, 5.0]);
        let y = pool.forward(&x);
        assert_eq!(y.data(), &[4.0, 8.0]);
    }

    #[test]
    fn flatten_is_identity() {
        let mut f = Flatten::new(4);
        let x = Tensor::row(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(f.forward(&x), x);
        let mut dx = Tensor::default();
        f.backward(&x, Some(&mut dx));
        assert_eq!(dx, x);
    }

    #[test]
    #[should_panic(expected = "exceeds input")]
    fn conv_rejects_oversized_kernel() {
        let _ = Conv2d::new(1, 1, 5, 1, 3, 3);
    }

    fn pseudo(len: usize, seed: u64) -> Vec<f32> {
        (0..len)
            .map(|i| {
                let h = (i as u64).wrapping_mul(2654435761).wrapping_add(seed);
                ((h % 200) as f32) / 100.0 - 1.0
            })
            .collect()
    }

    /// im2col forward is bit-identical to the scalar loop nest: same
    /// bias-then-ascending-kernel-element accumulation per output.
    #[test]
    fn im2col_forward_is_bit_identical_to_naive() {
        for (in_c, out_c, k, stride, h, w, batch) in [
            (1, 1, 1, 1, 3, 3, 1),
            (2, 3, 3, 1, 8, 8, 2),
            (3, 4, 4, 2, 9, 11, 1),
            (2, 2, 3, 3, 10, 10, 3),
        ] {
            let conv = Conv2d::from_weights(
                in_c,
                out_c,
                k,
                stride,
                h,
                w,
                Tensor::from_vec(&[out_c, in_c * k * k], pseudo(out_c * in_c * k * k, 11)),
                Tensor::from_vec(&[1, out_c], pseudo(out_c, 13)),
            );
            let x = Tensor::from_vec(&[batch, in_c * h * w], pseudo(batch * in_c * h * w, 17));
            let mut fast = Tensor::default();
            conv.infer_into((&x).into(), &mut fast);
            let naive = conv.infer_naive(&x);
            let fast_bits: Vec<u32> = fast.data().iter().map(|v| v.to_bits()).collect();
            let naive_bits: Vec<u32> = naive.data().iter().map(|v| v.to_bits()).collect();
            assert_eq!(
                fast_bits, naive_bits,
                "shape ({in_c},{out_c},{k},{stride},{h},{w})"
            );
        }
    }

    /// The GEMM-based backward matches the scalar loop nest within 1e-6 on
    /// every gradient (the col2im scatter regroups additions, so exact bit
    /// equality is not promised for grad_in).
    #[test]
    fn im2col_backward_matches_naive_within_tolerance() {
        for (in_c, out_c, k, stride, h, w, batch) in [
            (1, 2, 2, 1, 4, 4, 1),
            (2, 3, 3, 1, 7, 9, 2),
            (3, 2, 3, 2, 9, 9, 1),
        ] {
            let mut conv = Conv2d::from_weights(
                in_c,
                out_c,
                k,
                stride,
                h,
                w,
                Tensor::from_vec(&[out_c, in_c * k * k], pseudo(out_c * in_c * k * k, 23)),
                Tensor::from_vec(&[1, out_c], pseudo(out_c, 29)),
            );
            let x = Tensor::from_vec(&[batch, in_c * h * w], pseudo(batch * in_c * h * w, 31));
            let dy_len = batch * conv.out_len();
            let dy = Tensor::from_vec(&[batch, conv.out_len()], pseudo(dy_len, 37));
            let _ = conv.forward(&x);
            let mut grad_in = Tensor::default();
            conv.backward(&dy, Some(&mut grad_in));
            let (want_gi, want_dw, want_db) = conv.backward_naive(&x, &dy);
            let close = |got: &[f32], want: &[f32], what: &str| {
                for (g, w) in got.iter().zip(want) {
                    assert!(
                        (g - w).abs() < 1e-6 * w.abs().max(1.0),
                        "{what} drifted: {g} vs {w}"
                    );
                }
            };
            close(grad_in.data(), want_gi.data(), "grad_in");
            let params = conv.params_mut();
            close(params[0].grad.data(), want_dw.data(), "dW");
            close(params[1].grad.data(), want_db.data(), "db");
        }
    }

    /// Backward reads the live weights, so a write through `params_mut`
    /// between two steps needs no further call.
    #[test]
    fn backward_reads_weights_written_through_params() {
        let mut conv = Conv2d::from_weights(
            1,
            1,
            2,
            1,
            3,
            3,
            Tensor::from_vec(&[1, 4], vec![1.0; 4]),
            Tensor::zeros(&[1, 1]),
        );
        let x = Tensor::row(&pseudo(9, 41));
        let dy = Tensor::row(&pseudo(4, 43));
        let _ = conv.forward(&x);
        conv.backward(&dy, Some(&mut Tensor::default()));
        for p in conv.params_mut() {
            for v in p.value.data_mut() {
                *v *= 2.0;
            }
            p.zero_grad();
        }
        let _ = conv.forward(&x);
        let mut got = Tensor::default();
        conv.backward(&dy, Some(&mut got));
        let (want, _, _) = conv.backward_naive(&x, &dy);
        for (g, w) in got.data().iter().zip(want.data()) {
            assert!(
                (g - w).abs() < 1e-6,
                "backward used the weights from before the write"
            );
        }
    }
}
