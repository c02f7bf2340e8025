//! Element-wise activation layers.

use crate::layer::{Layer, LayerSpec};
use crate::tensor::{Rows, Tensor};

/// An element-wise activation function usable as a [`Layer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Activation {
    /// Rectified linear unit: `max(0, x)`.
    Relu,
    /// Logistic sigmoid: `1 / (1 + e^{-x})`.
    Sigmoid,
    /// Hyperbolic tangent.
    Tanh,
    /// Identity (useful as an explicit output layer).
    Linear,
}

impl Activation {
    /// Applies the activation to a scalar.
    pub fn apply(self, x: f32) -> f32 {
        match self {
            Activation::Relu => x.max(0.0),
            Activation::Sigmoid => 1.0 / (1.0 + (-x).exp()),
            Activation::Tanh => x.tanh(),
            Activation::Linear => x,
        }
    }

    /// Derivative expressed in terms of the activation *output* `y`.
    pub fn derivative_from_output(self, y: f32) -> f32 {
        match self {
            Activation::Relu => {
                if y > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::Sigmoid => y * (1.0 - y),
            Activation::Tanh => 1.0 - y * y,
            Activation::Linear => 1.0,
        }
    }

    /// Stable name used in serialized models.
    pub fn name(self) -> &'static str {
        match self {
            Activation::Relu => "relu",
            Activation::Sigmoid => "sigmoid",
            Activation::Tanh => "tanh",
            Activation::Linear => "linear",
        }
    }

    /// Parses a serialized activation name.
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "relu" => Some(Activation::Relu),
            "sigmoid" => Some(Activation::Sigmoid),
            "tanh" => Some(Activation::Tanh),
            "linear" => Some(Activation::Linear),
            _ => None,
        }
    }
}

/// Layer wrapper holding the cached output for the backward pass.
#[derive(Debug)]
pub struct ActivationLayer {
    kind: Activation,
    cached_output: Option<Tensor>,
}

impl ActivationLayer {
    /// Wraps an activation function as a layer.
    pub fn new(kind: Activation) -> Self {
        ActivationLayer {
            kind,
            cached_output: None,
        }
    }
}

impl Layer for ActivationLayer {
    fn forward(&mut self, input: &Tensor) -> Tensor {
        let mut out = Tensor::default();
        self.infer_into(input.into(), &mut out);
        self.cached_output = Some(out.clone());
        out
    }

    fn infer_into(&self, input: Rows<'_>, out: &mut Tensor) {
        out.copy_from(input);
        for v in out.data_mut() {
            *v = self.kind.apply(*v);
        }
    }

    fn backward(&mut self, grad_out: &Tensor, grad_in: Option<&mut Tensor>) {
        let Some(grad_in) = grad_in else { return };
        let out = self
            .cached_output
            .as_ref()
            .expect("backward called before forward");
        assert_eq!(out.shape(), grad_out.shape(), "gradient shape mismatch");
        grad_in.copy_from(grad_out);
        for (g, &y) in grad_in.data_mut().iter_mut().zip(out.data()) {
            *g *= self.kind.derivative_from_output(y);
        }
    }

    fn spec(&self) -> LayerSpec {
        LayerSpec::Activation {
            kind: self.kind.name().to_owned(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_clamps_negatives() {
        assert_eq!(Activation::Relu.apply(-1.0), 0.0);
        assert_eq!(Activation::Relu.apply(2.0), 2.0);
    }

    #[test]
    fn sigmoid_midpoint() {
        assert!((Activation::Sigmoid.apply(0.0) - 0.5).abs() < 1e-6);
    }

    #[test]
    fn derivative_from_output_matches_analytic() {
        // sigmoid'(0) = 0.25
        let y = Activation::Sigmoid.apply(0.0);
        assert!((Activation::Sigmoid.derivative_from_output(y) - 0.25).abs() < 1e-6);
        // tanh'(0) = 1
        let y = Activation::Tanh.apply(0.0);
        assert!((Activation::Tanh.derivative_from_output(y) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn name_round_trip() {
        for a in [
            Activation::Relu,
            Activation::Sigmoid,
            Activation::Tanh,
            Activation::Linear,
        ] {
            assert_eq!(Activation::from_name(a.name()), Some(a));
        }
        assert_eq!(Activation::from_name("swish"), None);
    }

    #[test]
    fn layer_backward_scales_gradient() {
        let mut layer = ActivationLayer::new(Activation::Relu);
        let x = Tensor::row(&[-1.0, 2.0]);
        let _ = layer.forward(&x);
        let mut g = Tensor::default();
        layer.backward(&Tensor::row(&[1.0, 1.0]), Some(&mut g));
        assert_eq!(g, Tensor::row(&[0.0, 1.0]));
    }
}
