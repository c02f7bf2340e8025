//! From-scratch neural-network backend for the Autonomizer reproduction.
//!
//! The PLDI 2019 paper delegates model construction, training, and inference
//! to TensorFlow through a generated Python template. This crate provides the
//! same four capabilities the paper's semantics (Fig. 8) require —
//! `buildModel`, `loadModel`, `runModel`, and `gradient` — as a small,
//! dependency-light Rust library:
//!
//! - [`Tensor`]: an n-dimensional `f32` array with shape bookkeeping, and
//!   [`Rows`], a borrowed `[rows, width]` batch that serving reads.
//! - [`Layer`] implementations: [`Dense`], [`Conv2d`], [`MaxPool2d`],
//!   [`Flatten`], and activations ([`Activation`]).
//! - [`Network`]: a sequential model with forward/backward passes, losses,
//!   and JSON (de)serialization so trained models survive the paper's
//!   TR (train) → TS (deploy) mode split.
//! - Optimizers: [`Sgd`] and [`Adam`] (the paper's `AdamOpt`).
//! - [`rl`]: a deep-Q-learning agent (`Q` in the paper) with a replay buffer,
//!   an ε-greedy policy, and a target network.
//!
//! # Example
//!
//! ```
//! use au_nn::{Network, Dense, Activation, Adam, Tensor, Loss};
//!
//! // A tiny regression net: 2 -> 8 -> 1.
//! let mut net = Network::builder(2)
//!     .dense(8)
//!     .activation(Activation::Relu)
//!     .dense(1)
//!     .build();
//! let mut opt = Adam::new(1e-2);
//! let xs = Tensor::from_rows(&[&[0.0, 0.0], &[1.0, 1.0]]);
//! let ys = Tensor::from_rows(&[&[0.0], &[2.0]]);
//! for _ in 0..200 {
//!     net.train_batch(&xs, &ys, Loss::Mse, &mut opt);
//! }
//! let out = net.infer(&Tensor::from_rows(&[&[1.0, 1.0]]));
//! assert!((out.data()[0] - 2.0).abs() < 0.2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod activation;
mod conv;
mod dense;
mod gradcheck;
mod init;
mod kernels;
mod layer;
mod loss;
mod network;
mod optim;
pub mod rl;
mod tensor;

pub use activation::Activation;
pub use conv::{Conv2d, Flatten, MaxPool2d};
pub use dense::Dense;
pub use gradcheck::{check_gradients, GradCheckReport};
pub use init::set_init_seed;
pub use layer::{Layer, LayerSpec, Param};
pub use loss::Loss;
pub use network::{InferScratch, Network, NetworkBuilder, NnError};
pub use optim::{Adam, Optimizer, Sgd};
pub use tensor::{Rows, Tensor};
