//! The [`Layer`] trait and learnable [`Param`] storage.

use crate::tensor::Tensor;
use serde::{Deserialize, Serialize};

/// A learnable parameter: its value, accumulated gradient, and Adam moments.
///
/// Optimizers read `grad` and update `value`; [`Param::zero_grad`] clears the
/// gradient between batches.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Param {
    /// Current parameter values.
    pub value: Tensor,
    /// Gradient accumulated by the most recent backward pass.
    pub grad: Tensor,
    /// Adam first-moment estimate (zero when SGD is used).
    pub m: Tensor,
    /// Adam second-moment estimate (zero when SGD is used).
    pub v: Tensor,
}

impl Param {
    /// Wraps a value tensor with zeroed gradient and moment buffers.
    pub fn new(value: Tensor) -> Self {
        let shape = value.shape().to_vec();
        Param {
            value,
            grad: Tensor::zeros(&shape),
            m: Tensor::zeros(&shape),
            v: Tensor::zeros(&shape),
        }
    }

    /// Clears the accumulated gradient.
    pub fn zero_grad(&mut self) {
        for g in self.grad.data_mut() {
            *g = 0.0;
        }
    }

    /// Number of scalar parameters.
    pub fn len(&self) -> usize {
        self.value.len()
    }

    /// Whether the parameter is empty.
    pub fn is_empty(&self) -> bool {
        self.value.is_empty()
    }
}

/// A differentiable network layer with two passes: [`Layer::forward`] for
/// training and [`Layer::infer_into`] for serving.
///
/// A network always calls `backward` immediately after the matching
/// `forward` on the same layer, with no interleaving. The `Sync` bound lets
/// a trained network serve concurrent inference through
/// [`Layer::infer_into`], which never touches the training caches.
pub trait Layer: std::fmt::Debug + Send + Sync {
    /// Training pass (the paper's TR mode): computes the layer output for
    /// `input` (first dimension = batch) and caches whatever `backward`
    /// needs. The output is bit-identical to [`Layer::infer_into`]'s.
    fn forward(&mut self, input: &Tensor) -> Tensor;

    /// Serving pass (TS mode) through `&self`, so a shared model can serve
    /// many threads at once: writes the output into a caller-owned tensor
    /// and touches no backward-pass cache.
    ///
    /// `out` is reshaped (any prior shape/contents are discarded; its
    /// allocation is reused), which makes it the building block of the
    /// allocation-free serving path ([`crate::Network::infer_reusing`]).
    fn infer_into(&self, input: &Tensor, out: &mut Tensor);

    /// Propagates `grad_out` (∂loss/∂output) to ∂loss/∂input, accumulating
    /// parameter gradients along the way.
    ///
    /// # Panics
    ///
    /// Implementations may panic if called before `forward`.
    fn backward(&mut self, grad_out: &Tensor) -> Tensor;

    /// The layer's learnable parameters, if any.
    fn params_mut(&mut self) -> Vec<&mut Param> {
        Vec::new()
    }

    /// Read access to [`Layer::params_mut`]'s parameters, in the same order.
    fn params(&self) -> Vec<&Param> {
        Vec::new()
    }

    /// Output feature count given the input feature count, used by
    /// [`crate::NetworkBuilder`] for shape inference. `None` means the layer
    /// preserves the element count (e.g. activations).
    fn out_features(&self) -> Option<usize> {
        None
    }

    /// A serializable description of this layer (architecture + weights).
    fn spec(&self) -> LayerSpec;
}

/// Serializable layer description used for model persistence.
///
/// The paper's `loadModel` (Fig. 8, rule CONFIG-TEST) must reconstruct a
/// trained model in a fresh process; `LayerSpec` is the on-disk form.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum LayerSpec {
    /// Fully connected layer.
    Dense {
        /// Input feature count.
        in_features: usize,
        /// Output feature count.
        out_features: usize,
        /// Weight matrix `[in, out]`.
        weight: Tensor,
        /// Bias vector `[1, out]`.
        bias: Tensor,
    },
    /// Element-wise activation.
    Activation {
        /// Activation kind name (`"relu"`, `"sigmoid"`, `"tanh"`, `"linear"`).
        kind: String,
    },
    /// 2-D convolution.
    Conv2d {
        /// Input channels.
        in_channels: usize,
        /// Output channels.
        out_channels: usize,
        /// Square kernel size.
        kernel: usize,
        /// Stride.
        stride: usize,
        /// Input height.
        in_h: usize,
        /// Input width.
        in_w: usize,
        /// Kernel weights `[out_c, in_c * k * k]`.
        weight: Tensor,
        /// Bias `[1, out_c]`.
        bias: Tensor,
    },
    /// 2-D max pooling.
    MaxPool2d {
        /// Channels.
        channels: usize,
        /// Window size (also the stride).
        window: usize,
        /// Input height.
        in_h: usize,
        /// Input width.
        in_w: usize,
    },
    /// Flatten to `[batch, n]`.
    Flatten {
        /// Flattened feature count.
        features: usize,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn param_new_zeroes_buffers() {
        let p = Param::new(Tensor::row(&[1.0, 2.0]));
        assert_eq!(p.grad.data(), &[0.0, 0.0]);
        assert_eq!(p.m.data(), &[0.0, 0.0]);
        assert_eq!(p.v.data(), &[0.0, 0.0]);
        assert_eq!(p.len(), 2);
        assert!(!p.is_empty());
    }

    #[test]
    fn zero_grad_clears() {
        let mut p = Param::new(Tensor::row(&[1.0]));
        p.grad.data_mut()[0] = 5.0;
        p.zero_grad();
        assert_eq!(p.grad.data(), &[0.0]);
    }
}
