//! Fully connected (dense) layer.

use crate::init::xavier;
use crate::layer::{Layer, LayerSpec, Param};
use crate::tensor::{Rows, Tensor};

/// A fully connected layer computing `y = x·W + b`.
///
/// Input `[batch, in]`, output `[batch, out]`.
#[derive(Debug)]
pub struct Dense {
    in_features: usize,
    out_features: usize,
    weight: Param,
    bias: Param,
    cached_input: Option<Tensor>,
}

impl Dense {
    /// Creates a dense layer with Xavier-initialized weights.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(in_features: usize, out_features: usize) -> Self {
        assert!(in_features > 0, "in_features must be positive");
        assert!(out_features > 0, "out_features must be positive");
        Dense {
            in_features,
            out_features,
            weight: Param::new(xavier(
                in_features,
                out_features,
                &[in_features, out_features],
            )),
            bias: Param::new(Tensor::zeros(&[1, out_features])),
            cached_input: None,
        }
    }

    /// Reconstructs a dense layer from saved weights.
    ///
    /// # Panics
    ///
    /// Panics if the tensor shapes disagree with the feature counts.
    pub fn from_weights(weight: Tensor, bias: Tensor) -> Self {
        assert_eq!(weight.shape().len(), 2, "weight must be 2-D");
        let (in_features, out_features) = (weight.shape()[0], weight.shape()[1]);
        assert_eq!(bias.shape(), &[1, out_features], "bias shape mismatch");
        Dense {
            in_features,
            out_features,
            weight: Param::new(weight),
            bias: Param::new(bias),
            cached_input: None,
        }
    }

    /// Input feature count.
    pub fn in_features(&self) -> usize {
        self.in_features
    }
}

impl Layer for Dense {
    fn forward(&mut self, input: &Tensor) -> Tensor {
        let mut out = Tensor::default();
        self.infer_into(input.into(), &mut out);
        self.cached_input = Some(input.clone());
        out
    }

    fn infer_into(&self, input: Rows<'_>, out: &mut Tensor) {
        assert_eq!(
            input.row_len(),
            self.in_features,
            "dense layer expected {} features, got {}",
            self.in_features,
            input.row_len()
        );
        // Zero-init + GEMM + separate bias row-add: the same operation
        // sequence as `matmul` followed by the bias loop (a fused bias
        // pre-fill would change the per-element accumulation order and the
        // pinned golden bits).
        let batch = input.batch();
        let n = self.out_features;
        out.resize_zeroed(&[batch, n]);
        {
            let _t = au_telemetry::time!("au_nn.gemm");
            crate::kernels::gemm_acc(
                out.data_mut(),
                input.data(),
                self.weight.value.data(),
                batch,
                self.in_features,
                n,
            );
        }
        let bias = self.bias.value.data();
        for i in 0..batch {
            let row = &mut out.data_mut()[i * n..(i + 1) * n];
            for (o, b) in row.iter_mut().zip(bias) {
                *o += b;
            }
        }
    }

    fn backward(&mut self, grad_out: &Tensor, grad_in: Option<&mut Tensor>) {
        let input = self
            .cached_input
            .as_ref()
            .expect("backward called before forward");
        // dW = xᵀ · dy, accumulated straight into the gradient buffer
        // without materializing xᵀ (ascending-sample order, same result as
        // the explicit transpose-then-multiply it replaced).
        let batch = input.batch();
        crate::kernels::gemm_tn_acc(
            self.weight.grad.data_mut(),
            input.data(),
            grad_out.data(),
            batch,
            self.in_features,
            self.out_features,
        );
        // db = Σ_batch dy
        let n = self.out_features;
        for i in 0..grad_out.batch() {
            let row = grad_out.row_slice(i);
            for (g, d) in self.bias.grad.data_mut()[..n].iter_mut().zip(row) {
                *g += d;
            }
        }
        // dx = dy · Wᵀ, only when the caller reads it: zero-init plus one
        // GEMM against the transpose, the per-element order of `matmul`.
        if let Some(grad_in) = grad_in {
            let wt = self.weight.value.transpose();
            grad_in.resize_zeroed(&[batch, self.in_features]);
            let _t = au_telemetry::time!("au_nn.gemm");
            crate::kernels::gemm_acc(
                grad_in.data_mut(),
                grad_out.data(),
                wt.data(),
                batch,
                n,
                self.in_features,
            );
        }
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.weight, &mut self.bias]
    }

    fn params(&self) -> Vec<&Param> {
        vec![&self.weight, &self.bias]
    }

    fn out_features(&self) -> Option<usize> {
        Some(self.out_features)
    }

    fn spec(&self) -> LayerSpec {
        LayerSpec::Dense {
            in_features: self.in_features,
            out_features: self.out_features,
            weight: self.weight.value.clone(),
            bias: self.bias.value.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_applies_weights_and_bias() {
        let w = Tensor::from_rows(&[&[1.0, 0.0], &[0.0, 2.0]]);
        let b = Tensor::row(&[10.0, 20.0]);
        let mut layer = Dense::from_weights(w, b);
        let out = layer.forward(&Tensor::row(&[3.0, 4.0]));
        assert_eq!(out.data(), &[13.0, 28.0]);
    }

    #[test]
    fn backward_produces_input_grad_and_param_grads() {
        let w = Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Tensor::row(&[0.0, 0.0]);
        let mut layer = Dense::from_weights(w, b);
        let x = Tensor::row(&[1.0, 1.0]);
        let _ = layer.forward(&x);
        let mut dx = Tensor::default();
        layer.backward(&Tensor::row(&[1.0, 1.0]), Some(&mut dx));
        // dx = dy · Wᵀ = [1+2, 3+4]
        assert_eq!(dx, Tensor::row(&[3.0, 7.0]));
        let params = layer.params_mut();
        // dW = xᵀ·dy = all ones; db = dy
        assert_eq!(params[0].grad.data(), &[1.0, 1.0, 1.0, 1.0]);
        assert_eq!(params[1].grad.data(), &[1.0, 1.0]);
    }

    #[test]
    fn batched_forward_matches_per_sample() {
        let mut layer = Dense::new(3, 2);
        let a = Tensor::row(&[1.0, 2.0, 3.0]);
        let b = Tensor::row(&[-1.0, 0.5, 2.0]);
        let ya = layer.forward(&a).into_vec();
        let yb = layer.forward(&b).into_vec();
        let batch = Tensor::from_rows(&[&[1.0, 2.0, 3.0], &[-1.0, 0.5, 2.0]]);
        let y = layer.forward(&batch);
        assert_eq!(y.row_slice(0), &ya[..]);
        assert_eq!(y.row_slice(1), &yb[..]);
    }

    #[test]
    #[should_panic(expected = "expected 3 features")]
    fn forward_rejects_wrong_width() {
        let mut layer = Dense::new(3, 2);
        let _ = layer.forward(&Tensor::row(&[1.0, 2.0]));
    }

    #[test]
    fn spec_round_trips_weights() {
        let layer = Dense::new(2, 2);
        match layer.spec() {
            LayerSpec::Dense {
                in_features,
                out_features,
                weight,
                ..
            } => {
                assert_eq!(in_features, 2);
                assert_eq!(out_features, 2);
                assert_eq!(weight, layer.weight.value);
            }
            other => panic!("unexpected spec {other:?}"),
        }
    }
}
