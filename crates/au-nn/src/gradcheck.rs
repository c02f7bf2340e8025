//! Numerical gradient checking for network correctness tests.

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
/// Only the first `max_params` scalars of each parameter tensor are probed to
/// keep the check fast on large layers.
pub fn check_gradients(
    net: &mut Network,
    input: &Tensor,
    target: &Tensor,
    loss: Loss,
    max_params: usize,
) -> GradCheckReport {
    // Analytic pass: forward + backward without any optimizer update.
    let output = {
        let mut x = input.clone();
        for layer in net.layers_mut().iter_mut() {
            x = layer.forward(&x);
        }
        x
    };
    let mut grad = loss.gradient(&output, target);
    for layer in net.layers_mut().iter_mut().rev() {
        grad = layer.backward(&grad);
    }
    // Collect analytic gradients, then probe numerically.
    let mut max_err = 0.0f32;
    let mut checked = 0usize;
    let eps = 1e-2f32;
    let layer_count = net.layers_mut().len();
    for li in 0..layer_count {
        let param_count = net.layers_mut()[li].params_mut().len();
        for pi in 0..param_count {
            let len = {
                let params = net.layers_mut()[li].params_mut();
                params[pi].len().min(max_params)
            };
            for i in 0..len {
                let analytic = {
                    let params = net.layers_mut()[li].params_mut();
                    params[pi].grad.data()[i]
                };
                let orig = {
                    let params = net.layers_mut()[li].params_mut();
                    params[pi].value.data()[i]
                };
                let eval = |net: &mut Network, v: f32| {
                    {
                        let mut params = net.layers_mut()[li].params_mut();
                        params[pi].value.data_mut()[i] = v;
                    }
                    let mut x = input.clone();
                    for layer in net.layers_mut().iter_mut() {
                        x = layer.forward(&x);
                    }
                    loss.value(&x, target)
                };
                let plus = eval(net, orig + eps);
                let minus = eval(net, orig - eps);
                {
                    let mut params = net.layers_mut()[li].params_mut();
                    params[pi].value.data_mut()[i] = orig;
                }
                let numeric = (plus - minus) / (2.0 * eps);
                let denom = analytic.abs().max(numeric.abs()).max(1e-4);
                let err = (analytic - numeric).abs() / denom;
                if err > max_err {
                    max_err = err;
                }
                checked += 1;
            }
        }
    }
    // Clear gradients so the check leaves the network clean.
    for layer in net.layers_mut().iter_mut() {
        for param in layer.params_mut() {
            param.zero_grad();
        }
    }
    GradCheckReport {
        max_relative_error: max_err,
        checked,
    }
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
