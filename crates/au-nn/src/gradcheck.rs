//! Numerical gradient checking for network correctness tests.

use crate::layer::Param;
use crate::loss::Loss;
use crate::network::Network;
use crate::tensor::Tensor;

/// Result of a gradient check: the worst relative error observed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GradCheckReport {
    /// Maximum relative error between analytic and numerical gradients.
    pub max_relative_error: f32,
    /// Number of parameters checked.
    pub checked: usize,
}

impl GradCheckReport {
    /// Whether the analytic gradients agree with finite differences to
    /// within `tol`.
    pub fn passes(&self, tol: f32) -> bool {
        self.max_relative_error <= tol
    }
}

/// Compares the network's backpropagated gradients against central finite
/// differences of the loss, parameter by parameter.
///
/// The analytic gradients come from the training body itself (the
/// forward and backward of [`Network::train_step`], without the update;
/// the first layer computes no input gradient there), and each probed
/// loss from [`Network::infer`], which computes the training forward's
/// bits. Only the first `max_params` scalars of each parameter
/// tensor are probed to keep the check fast on large layers.
pub fn check_gradients(
    net: &mut Network,
    input: &Tensor,
    target: &Tensor,
    loss: Loss,
    max_params: usize,
) -> GradCheckReport {
    net.backprop(input, |output| {
        (loss.gradient(output, target), loss.value(output, target))
    });
    let mut max_err = 0.0f32;
    let mut checked = 0usize;
    let eps = 1e-2f32;
    for li in 0..net.depth() {
        for pi in 0..net.layers_mut()[li].params().len() {
            let len = param(net, li, pi).len().min(max_params);
            for i in 0..len {
                let p = param(net, li, pi);
                let (analytic, orig) = (p.grad.data()[i], p.value.data()[i]);
                let mut loss_at = |v: f32| {
                    param(net, li, pi).value.data_mut()[i] = v;
                    loss.value(&net.infer(input), target)
                };
                let numeric = (loss_at(orig + eps) - loss_at(orig - eps)) / (2.0 * eps);
                param(net, li, pi).value.data_mut()[i] = orig;
                let denom = analytic.abs().max(numeric.abs()).max(1e-4);
                max_err = max_err.max((analytic - numeric).abs() / denom);
                checked += 1;
            }
        }
    }
    // Clear gradients so the check leaves the network clean.
    for layer in net.layers_mut() {
        for param in layer.params_mut() {
            param.zero_grad();
        }
    }
    GradCheckReport {
        max_relative_error: max_err,
        checked,
    }
}

/// Parameter `pi` of layer `li`.
fn param(net: &mut Network, li: usize, pi: usize) -> &mut Param {
    net.layers_mut()[li].params_mut().swap_remove(pi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::Activation;

    #[test]
    fn dense_network_gradients_match_finite_differences() {
        crate::init::set_init_seed(9);
        let mut net = Network::builder(3)
            .dense(4)
            .activation(Activation::Tanh)
            .dense(2)
            .build();
        let x = Tensor::from_rows(&[&[0.3, -0.5, 0.7], &[0.1, 0.2, -0.9]]);
        let y = Tensor::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]);
        let report = check_gradients(&mut net, &x, &y, Loss::Mse, 50);
        assert!(report.checked > 0);
        assert!(
            report.passes(0.05),
            "max relative error {}",
            report.max_relative_error
        );
    }

    #[test]
    fn conv_network_gradients_match_finite_differences() {
        crate::init::set_init_seed(10);
        let mut net = Network::builder(16)
            .conv2d(1, 4, 4, 2, 2, 1)
            .activation(Activation::Tanh)
            .flatten()
            .dense(2)
            .build();
        let x = Tensor::from_rows(&[&[
            0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, -0.1, -0.2, -0.3, -0.4, -0.5, -0.6, -0.7, -0.8,
        ]]);
        let y = Tensor::from_rows(&[&[0.5, -0.5]]);
        let report = check_gradients(&mut net, &x, &y, Loss::Mse, 30);
        assert!(
            report.passes(0.05),
            "max relative error {}",
            report.max_relative_error
        );
    }

    #[test]
    fn cross_entropy_gradients_match() {
        crate::init::set_init_seed(12);
        let mut net = Network::builder(2).dense(3).build();
        let x = Tensor::row(&[1.0, -1.0]);
        let y = Tensor::row(&[0.0, 1.0, 0.0]);
        let report = check_gradients(&mut net, &x, &y, Loss::SoftmaxCrossEntropy, 20);
        assert!(
            report.passes(0.05),
            "max relative error {}",
            report.max_relative_error
        );
    }
}
