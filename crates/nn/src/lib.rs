//! Feed-forward DNN substrate for the PRDNN reproduction.
//!
//! This crate plays the role PyTorch plays in the paper's artifact: it
//! defines networks (Definition 2.1), evaluates them (Definition 2.2),
//! exposes their activation patterns (Definition 2.5), computes exact
//! vector–Jacobian products against layer parameters (used by Algorithm 1),
//! and trains them with SGD (used only to produce the "buggy" evaluation
//! networks and the fine-tuning baselines).
//!
//! The supported layer types mirror the networks in the paper's evaluation:
//! fully-connected layers (MNIST MLP, ACAS Xu), convolutional layers and
//! max/average pooling (SqueezeNet-style image classifier), with ReLU,
//! LeakyReLU, HardTanh, Tanh, Sigmoid and Identity activations.
//!
//! # Example
//!
//! ```
//! use prdnn_nn::{Activation, Layer, Network};
//! use prdnn_linalg::Matrix;
//!
//! let net = Network::new(vec![
//!     Layer::dense(Matrix::from_rows(&[vec![1.0], vec![-1.0]]), vec![0.0, 0.0], Activation::Relu),
//!     Layer::dense(Matrix::from_rows(&[vec![1.0, 1.0]]), vec![0.0], Activation::Identity),
//! ]);
//! assert_eq!(net.forward(&[2.0]), vec![2.0]);   // |x|
//! assert_eq!(net.forward(&[-3.0]), vec![3.0]);
//! ```

mod activation;
mod batch;
pub mod io;
mod layer;
mod network;
pub mod train;

pub use activation::Activation;
pub use batch::FlatBatch;
pub use io::{network_content_hash, network_from_json, network_to_json};
pub use layer::{ActivationKernel, Conv2dLayer, DenseLayer, Layer, Pool2dLayer, PoolWindows};
pub use network::{ActivationPattern, ForwardTrace, Network, CLASSIFY_CHUNK};
pub use train::{backprop, cross_entropy, sgd_train, softmax, Dataset, Loss, TrainConfig};
