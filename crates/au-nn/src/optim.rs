//! Optimizers: SGD and Adam (the paper's `AdamOpt` algorithm).

use crate::layer::Param;

/// Gradient-based parameter update rule.
///
/// Called once per batch with every learnable parameter of the network.
pub trait Optimizer: std::fmt::Debug + Send {
    /// Applies one update step to `param` using its accumulated gradient.
    fn step(&mut self, param: &mut Param);

    /// Signals the end of a batch (advances time-dependent state such as
    /// Adam's bias-correction counter).
    fn end_batch(&mut self) {}

    /// The current learning rate.
    fn learning_rate(&self) -> f32;
}

/// Plain stochastic gradient descent, optionally with momentum.
#[derive(Debug, Clone)]
pub struct Sgd {
    lr: f32,
    momentum: f32,
}

impl Sgd {
    /// Creates SGD with the given learning rate and no momentum.
    ///
    /// # Panics
    ///
    /// Panics if `lr` is not finite and positive.
    pub fn new(lr: f32) -> Self {
        assert!(lr.is_finite() && lr > 0.0, "learning rate must be positive");
        Sgd { lr, momentum: 0.0 }
    }

    /// Adds classical momentum (stored in the parameter's `m` buffer).
    ///
    /// # Panics
    ///
    /// Panics if `momentum` is not in `[0, 1)`.
    pub fn with_momentum(mut self, momentum: f32) -> Self {
        assert!((0.0..1.0).contains(&momentum), "momentum must be in [0,1)");
        self.momentum = momentum;
        self
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, param: &mut Param) {
        let lr = self.lr;
        let mu = self.momentum;
        let n = param.value.len();
        for i in 0..n {
            let g = param.grad.data()[i];
            if mu > 0.0 {
                let m = mu * param.m.data()[i] + g;
                param.m.data_mut()[i] = m;
                param.value.data_mut()[i] -= lr * m;
            } else {
                param.value.data_mut()[i] -= lr * g;
            }
        }
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }
}

/// Adam optimizer (Kingma & Ba 2014) — the paper's supervised-learning
/// algorithm `AdamOpt` in Fig. 8.
#[derive(Debug, Clone)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    /// Batch counter for bias correction (t in the paper).
    t: u64,
}

impl Adam {
    /// Creates Adam with standard hyperparameters (β₁=0.9, β₂=0.999, ε=1e-8).
    ///
    /// # Panics
    ///
    /// Panics if `lr` is not finite and positive.
    pub fn new(lr: f32) -> Self {
        assert!(lr.is_finite() && lr > 0.0, "learning rate must be positive");
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
        }
    }
}

impl Optimizer for Adam {
    fn step(&mut self, param: &mut Param) {
        let t = (self.t + 1) as f32;
        let bc1 = 1.0 - self.beta1.powf(t);
        let bc2 = 1.0 - self.beta2.powf(t);
        let n = param.value.len();
        for i in 0..n {
            let g = param.grad.data()[i];
            let m = self.beta1 * param.m.data()[i] + (1.0 - self.beta1) * g;
            let v = self.beta2 * param.v.data()[i] + (1.0 - self.beta2) * g * g;
            param.m.data_mut()[i] = m;
            param.v.data_mut()[i] = v;
            let m_hat = m / bc1;
            let v_hat = v / bc2;
            param.value.data_mut()[i] -= self.lr * m_hat / (v_hat.sqrt() + self.eps);
        }
    }

    fn end_batch(&mut self) {
        self.t += 1;
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::Tensor;

    fn param_with_grad(value: f32, grad: f32) -> Param {
        let mut p = Param::new(Tensor::row(&[value]));
        p.grad.data_mut()[0] = grad;
        p
    }

    #[test]
    fn sgd_moves_against_gradient() {
        let mut opt = Sgd::new(0.1);
        let mut p = param_with_grad(1.0, 2.0);
        opt.step(&mut p);
        assert!((p.value.data()[0] - 0.8).abs() < 1e-6);
    }

    #[test]
    fn sgd_momentum_accumulates() {
        let mut opt = Sgd::new(0.1).with_momentum(0.9);
        let mut p = param_with_grad(0.0, 1.0);
        opt.step(&mut p);
        let first = p.value.data()[0];
        p.grad.data_mut()[0] = 1.0;
        opt.step(&mut p);
        let second_delta = p.value.data()[0] - first;
        assert!(second_delta.abs() > first.abs(), "momentum grows the step");
    }

    #[test]
    fn adam_first_step_size_is_lr() {
        // With bias correction, the first Adam step magnitude ≈ lr.
        let mut opt = Adam::new(0.01);
        let mut p = param_with_grad(0.0, 3.0);
        opt.step(&mut p);
        assert!((p.value.data()[0].abs() - 0.01).abs() < 1e-4);
    }

    #[test]
    fn adam_converges_on_quadratic() {
        // minimize (x-5)^2 — gradient 2(x-5)
        let mut opt = Adam::new(0.1);
        let mut p = Param::new(Tensor::row(&[0.0]));
        for _ in 0..500 {
            let x = p.value.data()[0];
            p.grad.data_mut()[0] = 2.0 * (x - 5.0);
            opt.step(&mut p);
            opt.end_batch();
        }
        assert!((p.value.data()[0] - 5.0).abs() < 0.1);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_nonpositive_lr() {
        let _ = Adam::new(0.0);
    }
}
