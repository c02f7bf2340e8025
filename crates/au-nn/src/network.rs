//! Sequential networks: construction, training, and persistence.

use crate::activation::{Activation, ActivationLayer};
use crate::conv::{Conv2d, Flatten, MaxPool2d};
use crate::dense::Dense;
use crate::layer::{Layer, LayerSpec, Param};
use crate::loss::Loss;
use crate::optim::Optimizer;
use crate::tensor::Tensor;
use serde::{Deserialize, Serialize};
use std::error::Error;
use std::fmt;
use std::path::Path;
use std::sync::Arc;

/// Errors from model persistence.
#[derive(Debug)]
pub enum NnError {
    /// I/O failure while reading or writing a model file.
    Io(std::io::Error),
    /// The model file was not valid JSON or described an unknown layer.
    Format(String),
}

impl fmt::Display for NnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NnError::Io(e) => write!(f, "model i/o failed: {e}"),
            NnError::Format(msg) => write!(f, "invalid model format: {msg}"),
        }
    }
}

impl Error for NnError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            NnError::Io(e) => Some(e),
            NnError::Format(_) => None,
        }
    }
}

impl From<std::io::Error> for NnError {
    fn from(e: std::io::Error) -> Self {
        NnError::Io(e)
    }
}

#[derive(Serialize, Deserialize)]
struct ModelFile {
    in_features: usize,
    layers: Vec<LayerSpec>,
}

/// A sequential feed-forward network.
///
/// Built with [`Network::builder`]; trained with [`Network::train_batch`];
/// persisted with [`Network::save`] / [`Network::load`] so the paper's
/// TR→TS (train → deploy) mode split works across processes.
#[derive(Debug)]
pub struct Network {
    in_features: usize,
    layers: Vec<Box<dyn Layer>>,
}

impl Network {
    /// Starts building a network that accepts `in_features` inputs.
    pub fn builder(in_features: usize) -> NetworkBuilder {
        NetworkBuilder {
            in_features,
            current: in_features,
            layers: Vec::new(),
        }
    }

    /// Number of input features.
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Number of output features (the last shaped layer's width).
    pub fn out_features(&self) -> usize {
        self.layers
            .iter()
            .rev()
            .find_map(|l| l.out_features())
            .unwrap_or(self.in_features)
    }

    /// Number of layers.
    pub fn depth(&self) -> usize {
        self.layers.len()
    }

    /// Total scalar parameter count — the paper's "model size" metric
    /// (Table 2) counts these.
    pub fn param_count(&self) -> usize {
        self.layers
            .iter()
            .flat_map(|l| l.params())
            .map(Param::len)
            .sum()
    }

    /// Runs inference (TS mode) on a `[batch, in]` tensor through `&self`,
    /// without touching any backward-pass cache — so one trained network
    /// (behind an `RwLock` read guard or `Arc`) can serve arbitrarily many
    /// threads at once. This is the semantics' `runModel`.
    pub fn infer(&self, input: &Tensor) -> Tensor {
        let _t = au_telemetry::time!("au_nn.forward");
        let mut scratch = InferScratch::default();
        std::mem::take(self.infer_in(input, &mut scratch))
    }

    /// [`Network::infer`] through caller-owned ping-pong buffers: after the
    /// first call on a given [`InferScratch`], repeated inference on
    /// same-shaped inputs performs **zero heap allocations** — the core of
    /// the f32 serving fast path.
    ///
    /// Bit-identical to [`Network::infer`], which runs the same
    /// [`Layer::infer_into`] loop on buffers of its own. Returns a borrow
    /// of the scratch buffer holding the output (copy it out if it must
    /// outlive the next call).
    pub fn infer_reusing<'s>(&self, input: &Tensor, scratch: &'s mut InferScratch) -> &'s Tensor {
        let _t = au_telemetry::time!("au_nn.forward");
        self.infer_in(input, scratch)
    }

    /// The serving loop shared by [`Network::infer`] and
    /// [`Network::infer_reusing`]: the first layer reads `input`, and each
    /// later layer's [`Layer::infer_into`] reads one scratch buffer and
    /// writes the other.
    fn infer_in<'s>(&self, input: &Tensor, scratch: &'s mut InferScratch) -> &'s mut Tensor {
        let InferScratch { ping, pong } = scratch;
        let Some((first, rest)) = self.layers.split_first() else {
            ping.copy_from(input);
            return ping;
        };
        first.infer_into(input, ping);
        let mut src: &mut Tensor = ping;
        let mut dst: &mut Tensor = pong;
        for layer in rest {
            layer.infer_into(src, dst);
            std::mem::swap(&mut src, &mut dst);
        }
        src
    }

    /// Runs one training step on a batch, returning the loss before the
    /// update. This is the semantics' `gradient(Parm, v)` statement.
    pub fn train_batch(
        &mut self,
        input: &Tensor,
        target: &Tensor,
        loss: Loss,
        opt: &mut dyn Optimizer,
    ) -> f32 {
        let loss_value = self.train_step(input, opt, |output| {
            (loss.gradient(output, target), loss.value(output, target))
        });
        au_telemetry::gauge_set!("au_nn.last_batch_loss", f64::from(loss_value));
        loss_value
    }

    /// One training step with a caller-computed output gradient — the
    /// body [`Network::train_batch`] and the DQN step share. Runs the
    /// training forward once, hands its output to `output_grad`, which
    /// returns ∂loss/∂output and the loss, then backpropagates, applies
    /// `opt` to every parameter and returns the loss.
    pub fn train_step(
        &mut self,
        input: &Tensor,
        opt: &mut dyn Optimizer,
        output_grad: impl FnOnce(&Tensor) -> (Tensor, f32),
    ) -> f32 {
        let _t = au_telemetry::time!("au_nn.train_batch");
        let mut x = input.clone();
        for layer in &mut self.layers {
            x = layer.forward(&x);
        }
        let (mut grad, loss) = output_grad(&x);
        for layer in self.layers.iter_mut().rev() {
            grad = layer.backward(&grad);
        }
        for layer in &mut self.layers {
            for param in layer.params_mut() {
                opt.step(param);
                param.zero_grad();
            }
        }
        opt.end_batch();
        au_telemetry::count!("au_nn.batches_trained");
        loss
    }

    /// Clones the architecture and current weights into an independent
    /// network (training caches start empty).
    ///
    /// Used by [`net_mut`]'s copy-on-write rebuild (training while an
    /// `Arc`'d network is still serving) and for DQN target networks.
    pub fn deep_clone(&self) -> Network {
        Network {
            in_features: self.in_features,
            layers: self
                .layers
                .iter()
                .map(|l| build_layer(l.spec()).expect("replica of a live layer"))
                .collect(),
        }
    }

    /// Serializes the model (architecture + weights) to a JSON string.
    pub fn to_json(&self) -> String {
        let file = ModelFile {
            in_features: self.in_features,
            layers: self.layers.iter().map(|l| l.spec()).collect(),
        };
        serde_json::to_string(&file).expect("model serialization cannot fail")
    }

    /// Reconstructs a model from [`Network::to_json`] output.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Format`] if the JSON is malformed or names an
    /// unknown activation.
    pub fn from_json(json: &str) -> Result<Self, NnError> {
        let file: ModelFile =
            serde_json::from_str(json).map_err(|e| NnError::Format(e.to_string()))?;
        let mut layers: Vec<Box<dyn Layer>> = Vec::with_capacity(file.layers.len());
        for spec in file.layers {
            layers.push(build_layer(spec)?);
        }
        Ok(Network {
            in_features: file.in_features,
            layers,
        })
    }

    /// Saves the model to a file — Fig. 8's persistent model state for
    /// `loadModel`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Io`] on filesystem failure.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), NnError> {
        std::fs::write(path, self.to_json())?;
        Ok(())
    }

    /// Loads a model saved by [`Network::save`].
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Io`] on filesystem failure and [`NnError::Format`]
    /// for malformed content.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, NnError> {
        let json = std::fs::read_to_string(path)?;
        Network::from_json(&json)
    }

    /// Copies all weights from `other` into `self`.
    ///
    /// Used for DQN target-network synchronization.
    ///
    /// # Panics
    ///
    /// Panics if the architectures differ.
    pub fn copy_weights_from(&mut self, other: &Network) {
        assert_eq!(self.depth(), other.depth(), "architecture mismatch");
        for (a, b) in self.layers.iter_mut().zip(&other.layers) {
            for (pa, pb) in a.params_mut().into_iter().zip(b.params()) {
                assert_eq!(
                    pa.value.shape(),
                    pb.value.shape(),
                    "parameter shape mismatch"
                );
                pa.value = pb.value.clone();
            }
        }
    }

    /// Direct access to layers for gradient checking.
    pub(crate) fn layers_mut(&mut self) -> &mut [Box<dyn Layer>] {
        &mut self.layers
    }
}

/// Unique access to a shared network, copy-on-write.
///
/// Serving paths hold the network as an `Arc` so they can clone it out of
/// a lock in O(1). Training mutates it in place when no such snapshot
/// holds a second `Arc`; if serving overlaps training, the network is
/// rebuilt once (via [`Network::deep_clone`]) and the snapshot keeps the
/// old weights — the same isolation the paper gets from its separate
/// TR/TS processes.
pub fn net_mut(net: &mut Arc<Network>) -> &mut Network {
    if Arc::get_mut(net).is_none() {
        *net = Arc::new(net.deep_clone());
    }
    Arc::get_mut(net).expect("unique after copy-on-write rebuild")
}

/// Reusable ping-pong buffers for [`Network::infer_reusing`]: one
/// `InferScratch` per serving thread turns repeated same-shape inference
/// into a zero-allocation loop.
#[derive(Debug, Default)]
pub struct InferScratch {
    ping: Tensor,
    pong: Tensor,
}

fn build_layer(spec: LayerSpec) -> Result<Box<dyn Layer>, NnError> {
    Ok(match spec {
        LayerSpec::Dense { weight, bias, .. } => Box::new(Dense::from_weights(weight, bias)),
        LayerSpec::Activation { kind } => {
            let act = Activation::from_name(&kind)
                .ok_or_else(|| NnError::Format(format!("unknown activation `{kind}`")))?;
            Box::new(ActivationLayer::new(act))
        }
        LayerSpec::Conv2d {
            in_channels,
            out_channels,
            kernel,
            stride,
            in_h,
            in_w,
            weight,
            bias,
        } => Box::new(Conv2d::from_weights(
            in_channels,
            out_channels,
            kernel,
            stride,
            in_h,
            in_w,
            weight,
            bias,
        )),
        LayerSpec::MaxPool2d {
            channels,
            window,
            in_h,
            in_w,
        } => Box::new(MaxPool2d::new(channels, window, in_h, in_w)),
        LayerSpec::Flatten { features } => Box::new(Flatten::new(features)),
    })
}

/// Incremental [`Network`] constructor with shape inference.
///
/// Each method appends a layer; widths are threaded automatically so callers
/// only give output sizes (matching the paper's `au_config` where input and
/// output layer sizes are "automatically computed").
#[derive(Debug)]
pub struct NetworkBuilder {
    in_features: usize,
    current: usize,
    layers: Vec<Box<dyn Layer>>,
}

impl NetworkBuilder {
    /// Appends a dense layer with `out` outputs.
    pub fn dense(mut self, out: usize) -> Self {
        self.layers.push(Box::new(Dense::new(self.current, out)));
        self.current = out;
        self
    }

    /// Appends an activation.
    pub fn activation(mut self, act: Activation) -> Self {
        self.layers.push(Box::new(ActivationLayer::new(act)));
        self
    }

    /// Appends a convolution over the current features viewed as
    /// `[channels, h, w]`.
    ///
    /// # Panics
    ///
    /// Panics if `channels * h * w` does not equal the current feature count.
    pub fn conv2d(
        mut self,
        channels: usize,
        h: usize,
        w: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
    ) -> Self {
        assert_eq!(
            channels * h * w,
            self.current,
            "conv2d input volume {}x{}x{} does not match current features {}",
            channels,
            h,
            w,
            self.current
        );
        let conv = Conv2d::new(channels, out_channels, kernel, stride, h, w);
        self.current = conv.out_features().expect("conv has a size");
        self.layers.push(Box::new(conv));
        self
    }

    /// Appends non-overlapping max pooling over `[channels, h, w]`.
    ///
    /// # Panics
    ///
    /// Panics if the volume does not match the current feature count.
    pub fn max_pool2d(mut self, channels: usize, h: usize, w: usize, window: usize) -> Self {
        assert_eq!(channels * h * w, self.current, "pool input volume mismatch");
        let pool = MaxPool2d::new(channels, window, h, w);
        self.current = pool.out_features().expect("pool has a size");
        self.layers.push(Box::new(pool));
        self
    }

    /// Appends an explicit flatten marker.
    pub fn flatten(mut self) -> Self {
        self.layers.push(Box::new(Flatten::new(self.current)));
        self
    }

    /// Finalizes the network.
    pub fn build(self) -> Network {
        Network {
            in_features: self.in_features,
            layers: self.layers,
        }
    }
}

/// Builds the paper's default SL architecture: a fully connected network with
/// the given hidden layer sizes and ReLU activations (`au_config(…, DNN,
/// AdamOpt, layers, n1, …)`).
pub(crate) fn dnn(in_features: usize, hidden: &[usize], out_features: usize) -> Network {
    let mut b = Network::builder(in_features);
    for &h in hidden {
        b = b.dense(h).activation(Activation::Relu);
    }
    b.dense(out_features).build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optim::{Adam, Sgd};

    #[test]
    fn builder_threads_shapes() {
        let net = Network::builder(4)
            .dense(8)
            .activation(Activation::Relu)
            .dense(2)
            .build();
        assert_eq!(net.in_features(), 4);
        assert_eq!(net.out_features(), 2);
        assert_eq!(net.depth(), 3);
        assert_eq!(net.param_count(), 4 * 8 + 8 + 8 * 2 + 2);
    }

    #[test]
    fn trains_xor() {
        crate::init::set_init_seed(3);
        let mut net = Network::builder(2)
            .dense(8)
            .activation(Activation::Tanh)
            .dense(1)
            .build();
        let xs = Tensor::from_rows(&[&[0.0, 0.0], &[0.0, 1.0], &[1.0, 0.0], &[1.0, 1.0]]);
        let ys = Tensor::from_rows(&[&[0.0], &[1.0], &[1.0], &[0.0]]);
        let mut opt = Adam::new(0.05);
        let mut last = f32::MAX;
        for _ in 0..800 {
            last = net.train_batch(&xs, &ys, Loss::Mse, &mut opt);
        }
        assert!(last < 0.05, "xor loss should fall below 0.05, got {last}");
    }

    fn bits(t: &Tensor) -> (Vec<usize>, Vec<u32>) {
        (
            t.shape().to_vec(),
            t.data().iter().map(|v| v.to_bits()).collect(),
        )
    }

    /// The training forward, `infer` and `infer_reusing` compute the same
    /// bits through every layer kind, at batch 1 and at batch 3, with one
    /// scratch reused across both shapes and then across another network.
    #[test]
    fn training_forward_matches_both_serving_paths() {
        crate::init::set_init_seed(41);
        let mut net = Network::builder(8 * 8)
            .conv2d(1, 8, 8, 2, 3, 1)
            .activation(Activation::Relu)
            .max_pool2d(2, 6, 6, 2)
            .flatten()
            .dense(8)
            .activation(Activation::Tanh)
            .dense(3)
            .build();
        let mut scratch = InferScratch::default();
        let pixel = |i: usize| (i % 13) as f32 / 13.0 - 0.4;
        for batch in [1, 3] {
            let x = Tensor::from_vec(&[batch, 64], (0..batch * 64).map(pixel).collect());
            let served = bits(&net.infer(&x));
            assert_eq!(
                bits(net.infer_reusing(&x, &mut scratch)),
                served,
                "batch {batch}"
            );
            // A zero output gradient leaves the weights as they were.
            let mut trained = None;
            net.train_step(&x, &mut Sgd::new(0.1), |out| {
                trained = Some(bits(out));
                (Tensor::zeros(out.shape()), 0.0)
            });
            assert_eq!(trained.as_ref(), Some(&served), "batch {batch}");
            assert_eq!(bits(&net.infer(&x)), served, "batch {batch}");
        }
        crate::init::set_init_seed(42);
        let other = dnn(5, &[16], 2);
        let x = Tensor::from_rows(&[&[0.1, -0.2, 0.3, -0.4, 0.5]]);
        let reused = bits(other.infer_reusing(&x, &mut scratch));
        assert_eq!(reused, bits(&other.infer(&x)));
    }

    /// A network with no layers degenerates to the identity on both paths.
    #[test]
    fn infer_reusing_identity_on_empty_network() {
        let net = Network::builder(3).build();
        let mut scratch = InferScratch::default();
        let x = Tensor::row(&[1.0, 2.0, 3.0]);
        assert_eq!(net.infer_reusing(&x, &mut scratch), &net.infer(&x));
    }

    #[test]
    fn networks_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Network>();
    }

    #[test]
    fn json_round_trip_preserves_predictions() {
        let net = Network::builder(3)
            .dense(5)
            .activation(Activation::Sigmoid)
            .dense(2)
            .build();
        let x = Tensor::row(&[0.1, -0.2, 0.3]);
        let before = net.infer(&x);
        let restored = Network::from_json(&net.to_json()).unwrap();
        let after = restored.infer(&x);
        assert_eq!(before, after);
    }

    #[test]
    fn from_json_rejects_garbage() {
        assert!(matches!(
            Network::from_json("not json"),
            Err(NnError::Format(_))
        ));
    }

    #[test]
    fn save_load_file_round_trip() {
        let dir = std::env::temp_dir().join("au_nn_test_model.json");
        let net = Network::builder(2).dense(2).build();
        net.save(&dir).unwrap();
        let loaded = Network::load(&dir).unwrap();
        let x = Tensor::row(&[1.0, -1.0]);
        assert_eq!(net.infer(&x), loaded.infer(&x));
        let _ = std::fs::remove_file(&dir);
    }

    #[test]
    fn copy_weights_synchronizes() {
        let mut a = Network::builder(2).dense(3).dense(1).build();
        let b = Network::builder(2).dense(3).dense(1).build();
        let x = Tensor::row(&[0.5, 0.5]);
        assert_ne!(a.infer(&x), b.infer(&x));
        a.copy_weights_from(&b);
        assert_eq!(a.infer(&x), b.infer(&x));
    }

    #[test]
    fn conv_network_builds_and_runs() {
        // A miniature DeepMind-style pixel network: conv → pool → dense.
        let net = Network::builder(8 * 8)
            .conv2d(1, 8, 8, 2, 3, 1)
            .activation(Activation::Relu)
            .max_pool2d(2, 6, 6, 2)
            .flatten()
            .dense(4)
            .build();
        let x = Tensor::zeros(&[2, 64]);
        let y = net.infer(&x);
        assert_eq!(y.shape(), &[2, 4]);
    }

    #[test]
    fn sgd_reduces_loss_too() {
        crate::init::set_init_seed(11);
        let mut net = Network::builder(1)
            .dense(4)
            .activation(Activation::Tanh)
            .dense(1)
            .build();
        let xs = Tensor::from_rows(&[&[0.0], &[1.0]]);
        let ys = Tensor::from_rows(&[&[1.0], &[-1.0]]);
        let mut opt = Sgd::new(0.1);
        let first = net.train_batch(&xs, &ys, Loss::Mse, &mut opt);
        let mut last = first;
        for _ in 0..200 {
            last = net.train_batch(&xs, &ys, Loss::Mse, &mut opt);
        }
        assert!(last < first, "loss should decrease: {first} -> {last}");
    }

    #[test]
    fn dnn_helper_shapes() {
        let net = dnn(10, &[256, 64], 5);
        assert_eq!(net.in_features(), 10);
        assert_eq!(net.out_features(), 5);
        // dense+relu per hidden, final dense
        assert_eq!(net.depth(), 5);
    }
}
