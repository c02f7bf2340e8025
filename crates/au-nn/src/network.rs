//! Sequential networks: construction, training, and persistence.

use crate::activation::{Activation, ActivationLayer};
use crate::conv::{Conv2d, Flatten, MaxPool2d};
use crate::dense::Dense;
use crate::dropout::Dropout;
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

    /// Runs inference (TS mode) on a `[batch, in]` tensor.
    pub fn forward(&mut self, input: &Tensor) -> Tensor {
        let _t = t_time!("au_nn.forward");
        self.forward_mode(input, false)
    }

    /// Runs inference through `&self`: identical math to
    /// [`Network::forward`], but without touching any backward-pass cache —
    /// so one trained network (behind an `RwLock` read guard or `Arc`) can
    /// serve arbitrarily many threads at once.
    pub fn infer(&self, input: &Tensor) -> Tensor {
        let _t = t_time!("au_nn.forward");
        let mut x = input.clone();
        for layer in &self.layers {
            x = layer.infer(&x);
        }
        x
    }

    /// [`Network::infer`] through caller-owned ping-pong buffers: after the
    /// first call on a given [`InferScratch`], repeated inference on
    /// same-shaped inputs performs **zero heap allocations** — the core of
    /// the f32 serving fast path.
    ///
    /// Bit-identical to [`Network::infer`]: every layer's
    /// [`Layer::infer_into`] runs the same operations in the same order,
    /// only the destination buffers are reused. Returns a borrow of the
    /// scratch buffer holding the output (copy it out if it must outlive
    /// the next call).
    pub fn infer_reusing<'s>(&self, input: &Tensor, scratch: &'s mut InferScratch) -> &'s Tensor {
        let _t = t_time!("au_nn.forward");
        let InferScratch { ping, pong } = scratch;
        ping.copy_from(input);
        let mut src: &mut Tensor = ping;
        let mut dst: &mut Tensor = pong;
        for layer in &self.layers {
            layer.infer_into(src, dst);
            std::mem::swap(&mut src, &mut dst);
        }
        src
    }

    fn forward_mode(&mut self, input: &Tensor, train: bool) -> Tensor {
        let mut x = input.clone();
        for layer in &mut self.layers {
            x = layer.forward(&x, train);
        }
        x
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
        let _t = t_time!("au_nn.train_batch");
        let output = self.forward_mode(input, true);
        let loss_value = loss.value(&output, target);
        let mut grad = loss.gradient(&output, target);
        for layer in self.layers.iter_mut().rev() {
            grad = layer.backward(&grad);
        }
        for layer in &mut self.layers {
            for param in layer.params_mut() {
                opt.step(param);
                param.zero_grad();
            }
            layer.invalidate_cached_weights();
        }
        opt.end_batch();
        t_count!("au_nn.batches_trained");
        t_gauge!("au_nn.last_batch_loss", f64::from(loss_value));
        loss_value
    }

    /// [`Network::train_batch`] with the minibatch fanned out across au-par
    /// workers: the batch rows are split into contiguous chunks, each chunk
    /// runs forward/backward on a weight-sharing replica, and the chunk
    /// gradients are summed in chunk order before a single optimizer step.
    ///
    /// With one worker (e.g. `AU_PAR_THREADS=1`, a single-core host, or a
    /// batch smaller than two chunks) this *is* [`Network::train_batch`] —
    /// same code path, bit-identical results. With N workers the merged
    /// gradient is mathematically equal but floating-point addition is
    /// regrouped at chunk boundaries, so weights may differ from the serial
    /// run by normal `f32` rounding (documented tolerance: ~1e-6 relative
    /// per step). Dropout replicas draw independent masks; networks with
    /// dropout train correctly but make no cross-thread determinism claim.
    pub fn train_minibatch(
        &mut self,
        input: &Tensor,
        target: &Tensor,
        loss: Loss,
        opt: &mut dyn Optimizer,
    ) -> f32 {
        /// Below this many rows per chunk, replica setup costs more than
        /// the parallel backward saves.
        const MIN_ROWS: usize = 8;
        let batch = input.batch();
        let ranges = au_par::split_ranges(batch, MIN_ROWS);
        if ranges.len() <= 1 {
            return self.train_batch(input, target, loss, opt);
        }
        let _t = t_time!("au_nn.train_batch");
        let scale = |r: &std::ops::Range<usize>| (r.end - r.start) as f32 / batch as f32;
        let row_len = input.row_len();
        let target_len = target.row_len();
        let chunk_of = |t: &Tensor, len: usize, r: &std::ops::Range<usize>| {
            Tensor::from_vec(
                &[r.end - r.start, len],
                t.data()[r.start * len..r.end * len].to_vec(),
            )
        };
        // Chunks 1.. go to the persistent pool, each owning a weight-sharing
        // replica and its chunk tensors; chunk 0 runs on the calling thread
        // through `self`. The kernels under every chunk are serial, so
        // nothing fans out again beneath this region.
        let mut fork: au_par::Fork<(Network, f32)> = au_par::Fork::new();
        for r in &ranges[1..] {
            let mut replica = self.deep_clone();
            let x = chunk_of(input, row_len, r);
            let y = chunk_of(target, target_len, r);
            let s = scale(r);
            fork.submit(move || {
                let value = run_minibatch_chunk(&mut replica, &x, &y, loss, s);
                (replica, value)
            });
        }
        let mut chunk_losses = vec![0.0f32; ranges.len()];
        {
            let x = chunk_of(input, row_len, &ranges[0]);
            let y = chunk_of(target, target_len, &ranges[0]);
            chunk_losses[0] = run_minibatch_chunk(self, &x, &y, loss, scale(&ranges[0]));
        }
        let mut replicas: Vec<Network> = Vec::with_capacity(ranges.len() - 1);
        for (slot, (replica, value)) in chunk_losses[1..].iter_mut().zip(fork.join()) {
            *slot = value;
            replicas.push(replica);
        }
        // Merge replica gradients into the main network in chunk order,
        // then take one optimizer step — identical step sequence to
        // `train_batch`.
        for (li, layer) in self.layers.iter_mut().enumerate() {
            let mut replica_params: Vec<Vec<&mut Param>> = replicas
                .iter_mut()
                .map(|r| r.layers[li].params_mut())
                .collect();
            for (pi, param) in layer.params_mut().into_iter().enumerate() {
                for rep in replica_params.iter_mut() {
                    for (g, d) in param.grad.data_mut().iter_mut().zip(rep[pi].grad.data()) {
                        *g += d;
                    }
                }
                opt.step(param);
                param.zero_grad();
            }
            layer.invalidate_cached_weights();
        }
        opt.end_batch();
        t_count!("au_nn.batches_trained");
        let loss_value: f32 = chunk_losses
            .iter()
            .zip(&ranges)
            .map(|(v, r)| v * scale(r))
            .sum();
        t_gauge!("au_nn.last_batch_loss", f64::from(loss_value));
        loss_value
    }

    /// Clones the architecture and current weights into an independent
    /// network (training caches start empty; dropout replicas reseed).
    ///
    /// Used for minibatch worker replicas and by [`net_mut`]'s
    /// copy-on-write rebuild (training while an `Arc`'d network is still
    /// serving).
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

    /// Like [`Network::train_batch`] but with a caller-supplied output
    /// gradient instead of a loss — needed by Q-learning, which only
    /// penalizes the taken action's output.
    pub fn train_with_output_grad(
        &mut self,
        input: &Tensor,
        grad_out: &Tensor,
        opt: &mut dyn Optimizer,
    ) {
        let _t = t_time!("au_nn.train_batch");
        t_count!("au_nn.batches_trained");
        let _ = self.forward_mode(input, true);
        let mut grad = grad_out.clone();
        for layer in self.layers.iter_mut().rev() {
            grad = layer.backward(&grad);
        }
        for layer in &mut self.layers {
            for param in layer.params_mut() {
                opt.step(param);
                param.zero_grad();
            }
            layer.invalidate_cached_weights();
        }
        opt.end_batch();
    }

    /// Drops every layer's derived weight views (cached transposes).
    ///
    /// Training steps and [`Network::copy_weights_from`] do this
    /// automatically; callers that mutate parameter values directly —
    /// checkpoint restores, custom weight surgery through layer params —
    /// must call it afterwards or stale views will poison later backward
    /// passes.
    pub fn invalidate_cached_weights(&mut self) {
        for layer in &mut self.layers {
            layer.invalidate_cached_weights();
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
            a.invalidate_cached_weights();
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

/// Forward/backward over one minibatch chunk, leaving gradients accumulated
/// in `net`; returns the chunk loss (before rescaling). The loss gradient
/// is rescaled by `scale` (`chunk_rows / batch_rows`) so the merged
/// chunk-gradient sum equals the full-batch gradient.
fn run_minibatch_chunk(net: &mut Network, x: &Tensor, y: &Tensor, loss: Loss, scale: f32) -> f32 {
    let output = net.forward_mode(x, true);
    let value = loss.value(&output, y);
    let mut grad = loss.gradient(&output, y).scale(scale);
    for layer in net.layers.iter_mut().rev() {
        grad = layer.backward(&grad);
    }
    value
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
        LayerSpec::Dropout { p } => Box::new(Dropout::new(p)),
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

    /// Appends inverted dropout with drop probability `p` (active only in
    /// training mode).
    pub fn dropout(mut self, p: f32) -> Self {
        self.layers.push(Box::new(Dropout::new(p)));
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

    #[test]
    fn infer_matches_forward_everywhere() {
        // Every layer kind: conv → pool → flatten → dense → act → dropout.
        crate::init::set_init_seed(41);
        let mut net = Network::builder(8 * 8)
            .conv2d(1, 8, 8, 2, 3, 1)
            .activation(Activation::Relu)
            .max_pool2d(2, 6, 6, 2)
            .flatten()
            .dense(8)
            .activation(Activation::Tanh)
            .dropout(0.2)
            .dense(3)
            .build();
        let x = Tensor::from_rows(&[&[0.3; 64], &[0.7; 64]]);
        let by_ref = net.infer(&x);
        let by_mut = net.forward(&x);
        assert_eq!(by_ref, by_mut, "infer must be bit-identical to forward");
    }

    /// The allocation-free serving path must be bit-identical to `infer`
    /// across every layer kind, and stay correct when the scratch is
    /// reused across different networks and input shapes.
    #[test]
    fn infer_reusing_is_bit_identical_to_infer() {
        crate::init::set_init_seed(41);
        let net = Network::builder(8 * 8)
            .conv2d(1, 8, 8, 2, 3, 1)
            .activation(Activation::Relu)
            .max_pool2d(2, 6, 6, 2)
            .flatten()
            .dense(8)
            .activation(Activation::Tanh)
            .dropout(0.2)
            .dense(3)
            .build();
        let mut scratch = InferScratch::default();
        let x = Tensor::from_rows(&[&[0.3; 64], &[0.7; 64]]);
        for _ in 0..3 {
            let fresh = net.infer(&x);
            let reused = net.infer_reusing(&x, &mut scratch);
            assert_eq!(&fresh, reused, "scratch path must match infer exactly");
        }
        // Same scratch, different network and shape: buffers re-adapt.
        crate::init::set_init_seed(42);
        let other = dnn(5, &[16], 2);
        let x2 = Tensor::from_rows(&[&[0.1, -0.2, 0.3, -0.4, 0.5]]);
        let fresh = other.infer(&x2);
        let reused = other.infer_reusing(&x2, &mut scratch);
        assert_eq!(&fresh, reused);
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
        let mut net = Network::builder(3)
            .dense(5)
            .activation(Activation::Sigmoid)
            .dense(2)
            .build();
        let x = Tensor::row(&[0.1, -0.2, 0.3]);
        let before = net.forward(&x);
        let mut restored = Network::from_json(&net.to_json()).unwrap();
        let after = restored.forward(&x);
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
        let mut net = Network::builder(2).dense(2).build();
        net.save(&dir).unwrap();
        let mut loaded = Network::load(&dir).unwrap();
        let x = Tensor::row(&[1.0, -1.0]);
        assert_eq!(net.forward(&x), loaded.forward(&x));
        let _ = std::fs::remove_file(&dir);
    }

    #[test]
    fn copy_weights_synchronizes() {
        let mut a = Network::builder(2).dense(3).dense(1).build();
        let mut b = Network::builder(2).dense(3).dense(1).build();
        let x = Tensor::row(&[0.5, 0.5]);
        assert_ne!(a.forward(&x), b.forward(&x));
        a.copy_weights_from(&b);
        assert_eq!(a.forward(&x), b.forward(&x));
    }

    #[test]
    fn conv_network_builds_and_runs() {
        // A miniature DeepMind-style pixel network: conv → pool → dense.
        let mut net = Network::builder(8 * 8)
            .conv2d(1, 8, 8, 2, 3, 1)
            .activation(Activation::Relu)
            .max_pool2d(2, 6, 6, 2)
            .flatten()
            .dense(4)
            .build();
        let x = Tensor::zeros(&[2, 64]);
        let y = net.forward(&x);
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
    fn dropout_network_json_round_trip() {
        crate::init::set_init_seed(13);
        let mut net = Network::builder(4)
            .dense(8)
            .dropout(0.3)
            .activation(Activation::Relu)
            .dense(2)
            .build();
        let x = Tensor::row(&[0.1, 0.2, 0.3, 0.4]);
        // Inference is deterministic (dropout inactive in TS mode).
        let before = net.forward(&x);
        let mut restored = Network::from_json(&net.to_json()).unwrap();
        assert_eq!(restored.forward(&x), before);
        assert_eq!(restored.depth(), 4);
    }

    #[test]
    fn dropout_training_still_converges() {
        crate::init::set_init_seed(14);
        let mut net = Network::builder(1)
            .dense(16)
            .activation(Activation::Tanh)
            .dropout(0.1)
            .dense(1)
            .build();
        let xs = Tensor::from_rows(&[&[0.0], &[0.5], &[1.0]]);
        let ys = Tensor::from_rows(&[&[0.0], &[1.0], &[2.0]]);
        let mut opt = Adam::new(0.02);
        for _ in 0..400 {
            net.train_batch(&xs, &ys, Loss::Mse, &mut opt);
        }
        let out = net.forward(&Tensor::row(&[0.5]));
        assert!((out.data()[0] - 1.0).abs() < 0.3, "got {}", out.data()[0]);
    }

    #[test]
    fn dnn_helper_shapes() {
        let net = dnn(10, &[256, 64], 5);
        assert_eq!(net.in_features(), 10);
        assert_eq!(net.out_features(), 5);
        // dense+relu per hidden, final dense
        assert_eq!(net.depth(), 5);
    }

    fn training_fixture() -> (Network, Network, Tensor, Tensor) {
        crate::init::set_init_seed(77);
        let a = dnn(3, &[16], 2);
        crate::init::set_init_seed(77);
        let b = dnn(3, &[16], 2);
        let n = 32;
        let xs: Vec<f32> = (0..n * 3)
            .map(|i| ((i * 13 % 29) as f32) / 29.0 - 0.5)
            .collect();
        let ys: Vec<f32> = (0..n * 2).map(|i| ((i * 7 % 11) as f32) / 11.0).collect();
        (
            a,
            b,
            Tensor::from_vec(&[n, 3], xs),
            Tensor::from_vec(&[n, 2], ys),
        )
    }

    /// With one worker, `train_minibatch` *is* `train_batch`: identical
    /// weights bit-for-bit after many steps.
    #[test]
    fn minibatch_single_worker_is_bit_identical_to_train_batch() {
        let _g = crate::test_support::par_lock();
        au_par::set_thread_override(Some(1));
        let (mut a, mut b, xs, ys) = training_fixture();
        let mut oa = Adam::new(0.01);
        let mut ob = Adam::new(0.01);
        for _ in 0..20 {
            let la = a.train_batch(&xs, &ys, Loss::Mse, &mut oa);
            let lb = b.train_minibatch(&xs, &ys, Loss::Mse, &mut ob);
            assert_eq!(la.to_bits(), lb.to_bits(), "loss diverged");
        }
        let probe = Tensor::from_rows(&[&[0.2, -0.3, 0.4]]);
        assert_eq!(a.forward(&probe), b.forward(&probe));
        au_par::set_thread_override(None);
    }

    /// With N workers the merged gradient regroups f32 additions at chunk
    /// boundaries; weights must stay within a small relative tolerance of
    /// the serial run.
    #[test]
    fn minibatch_multi_worker_matches_serial_within_tolerance() {
        let _g = crate::test_support::par_lock();
        au_par::set_thread_override(Some(4));
        let (mut a, mut b, xs, ys) = training_fixture();
        let mut oa = Adam::new(0.01);
        let mut ob = Adam::new(0.01);
        for _ in 0..20 {
            let la = a.train_batch(&xs, &ys, Loss::Mse, &mut oa);
            let lb = b.train_minibatch(&xs, &ys, Loss::Mse, &mut ob);
            assert!((la - lb).abs() < 1e-4, "loss diverged: {la} vs {lb}");
        }
        let probe = Tensor::from_rows(&[&[0.2, -0.3, 0.4]]);
        let pa = a.forward(&probe);
        let pb = b.forward(&probe);
        for (x, y) in pa.data().iter().zip(pb.data()) {
            assert!((x - y).abs() < 1e-3, "prediction drifted: {x} vs {y}");
        }
        au_par::set_thread_override(None);
    }
}
