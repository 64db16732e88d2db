//! Gradient-based training: backpropagation, losses, and SGD.
//!
//! The repair algorithms themselves never use gradient descent; this module
//! exists for two reasons that mirror the paper's evaluation:
//!
//! 1. training the "buggy" networks that the experiments then repair
//!    (the paper uses pre-trained SqueezeNet/MNIST/ACAS networks), and
//! 2. the fine-tuning (FT) and modified fine-tuning (MFT) baselines of §7.

use crate::batch::FlatBatch;
use crate::layer::{ActivationKernel, Layer};
use crate::network::Network;
use prdnn_linalg::Matrix;
use rand::seq::SliceRandom;
use rand::Rng;

/// Loss functions supported by the trainer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Loss {
    /// Softmax followed by cross-entropy against an integer class label.
    SoftmaxCrossEntropy,
    /// Mean squared error against a target vector encoded one-hot.
    MeanSquaredError,
}

/// Numerically-stable softmax.
pub fn softmax(logits: &[f64]) -> Vec<f64> {
    let max = logits.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let exps: Vec<f64> = logits.iter().map(|&x| (x - max).exp()).collect();
    let sum: f64 = exps.iter().sum();
    exps.iter().map(|e| e / sum).collect()
}

/// Cross-entropy of a softmax distribution against the true `label`.
pub fn cross_entropy(logits: &[f64], label: usize) -> f64 {
    let probs = softmax(logits);
    -(probs[label].max(1e-12)).ln()
}

/// Gradient of the loss with respect to the network output logits.
fn loss_gradient(loss: Loss, logits: &[f64], label: usize) -> (f64, Vec<f64>) {
    match loss {
        Loss::SoftmaxCrossEntropy => {
            let probs = softmax(logits);
            let value = -(probs[label].max(1e-12)).ln();
            let mut grad = probs;
            grad[label] -= 1.0;
            (value, grad)
        }
        Loss::MeanSquaredError => {
            let n = logits.len() as f64;
            let mut grad = Vec::with_capacity(logits.len());
            let mut value = 0.0;
            for (i, &o) in logits.iter().enumerate() {
                let target = if i == label { 1.0 } else { 0.0 };
                value += (o - target) * (o - target) / n;
                grad.push(2.0 * (o - target) / n);
            }
            (value, grad)
        }
    }
}

/// Per-layer parameter gradients for one example.
///
/// Pooling layers contribute empty gradient vectors.  This is the
/// per-example reference of [`sgd_train`]'s batch-major pass: summing
/// these gradients over a minibatch in example order gives the trainer's
/// gradient bit for bit (for finite data).
pub fn backprop(net: &Network, input: &[f64], label: usize, loss: Loss) -> (f64, Vec<Vec<f64>>) {
    let trace = net.forward_trace(input);
    let (loss_value, out_grad) = loss_gradient(loss, trace.output(), label);

    let mut grads: Vec<Vec<f64>> = vec![Vec::new(); net.num_layers()];
    // Upstream gradient with respect to the current layer's *output*.
    let mut upstream = out_grad;
    for i in (0..net.num_layers()).rev() {
        let layer = net.layer(i);
        let layer_input = if i == 0 {
            trace.input.as_slice()
        } else {
            trace.outputs[i - 1].as_slice()
        };
        let z = &trace.preactivations[i];
        // dL/dz = upstream · D where D is the activation Jacobian at z.
        let upstream_row = Matrix::from_flat(1, upstream.len(), std::mem::take(&mut upstream));
        let dz = layer.activation_kernel().vjp(z, &upstream_row);
        // Parameter gradient: dL/dθ = dz · ∂z/∂θ.
        grads[i] = layer.preact_param_vjp(&dz, layer_input).into_flat();
        // Input gradient for the next (earlier) layer: dL/dx = dz · ∂z/∂x.
        // The first layer's would be the gradient w.r.t. the input itself,
        // which training never reads.
        if i > 0 {
            upstream = layer.preact_input_vjp(&dz).into_flat();
        }
    }
    (loss_value, grads)
}

/// One minibatch pushed batch-major through the network: the examples'
/// losses in batch order and, per layer, the sum of the examples'
/// parameter gradients in batch order (empty for a layer without
/// parameters or one that `only_layer` leaves out).
///
/// The forward pass keeps every layer's input and pre-activation for the
/// whole batch (a pooling layer's pre-activation is its input).  The
/// backward pass runs from the top down to the lowest trained layer: each
/// layer's backward step over the batch, then its parameter gradient if
/// it is trained and its input gradient if a trained layer lies below.
/// Every step has the bits of [`backprop`]'s per-example step.
fn batch_gradients(
    net: &Network,
    kernels: &[ActivationKernel],
    inputs: &[Vec<f64>],
    labels: &[usize],
    batch: &[usize],
    config: &TrainConfig,
) -> (Vec<f64>, Vec<Vec<f64>>) {
    let mut x = FlatBatch::with_capacity(net.input_dim(), batch.len());
    for &idx in batch {
        x.push_row(&inputs[idx]);
    }
    let mut layer_inputs = vec![x];
    let mut preacts = Vec::with_capacity(net.num_layers());
    for (layer, kernel) in net.layers().iter().zip(kernels) {
        let x = layer_inputs.last().expect("the batch's input is first");
        let z = (!layer.preactivation_is_identity()).then(|| layer.preactivation_batch_flat(x));
        let out = kernel.apply_batch(z.as_ref().unwrap_or(x));
        preacts.push(z);
        layer_inputs.push(out);
    }

    let output = layer_inputs.pop().expect("the network's output is last");
    let mut out_grads = Vec::with_capacity(output.as_slice().len());
    let losses = output
        .rows()
        .zip(batch)
        .map(|(logits, &idx)| {
            let (loss, grad) = loss_gradient(config.loss, logits, labels[idx]);
            out_grads.extend(grad);
            loss
        })
        .collect();

    // One row per example: the gradient with respect to the current
    // layer's output, then (`dz`) its pre-activation.
    let mut upstream = Matrix::from_flat(batch.len(), output.dim(), out_grads);
    let lowest = config.only_layer.unwrap_or(0);
    let mut grads = vec![Vec::new(); net.num_layers()];
    for i in (lowest..net.num_layers()).rev() {
        let (layer, x) = (net.layer(i), &layer_inputs[i]);
        let dz = kernels[i].vjp_batch(preacts[i].as_ref().unwrap_or(x), upstream);
        if config.only_layer.is_none_or(|only| only == i) {
            grads[i] = layer.batch_param_gradient(&dz, x);
        }
        if i == lowest {
            break;
        }
        upstream = if layer.preactivation_is_identity() {
            dz
        } else {
            layer.preact_input_vjp(&dz)
        };
    }
    (losses, grads)
}

/// Configuration for [`sgd_train`].
#[derive(Debug, Clone, PartialEq)]
pub struct TrainConfig {
    /// Learning rate.
    pub learning_rate: f64,
    /// Momentum coefficient (0 disables momentum).
    pub momentum: f64,
    /// Number of passes over the training set.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Loss function.
    pub loss: Loss,
    /// If set, only this layer's parameters are updated (used by MFT).
    pub only_layer: Option<usize>,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            learning_rate: 0.01,
            momentum: 0.9,
            epochs: 10,
            batch_size: 16,
            loss: Loss::SoftmaxCrossEntropy,
            only_layer: None,
        }
    }
}

/// Trains `net` in place with mini-batch SGD on a labelled dataset.
///
/// Each epoch shuffles the examples and cuts them into minibatches.  A
/// minibatch goes through the network batch-major, one pass per layer
/// each way (the layers' activation kernels are built once per call), and
/// its summed gradient updates each trained layer with momentum.  The
/// result is bit-identical to summing [`backprop`]'s per-example
/// gradients in example order (for finite data).  With
/// `config.only_layer` set, the backward pass stops at that layer.
///
/// Returns the average loss of the final epoch.
///
/// # Panics
///
/// Panics if `inputs` and `labels` have different lengths or the dataset is
/// empty.
pub fn sgd_train(
    net: &mut Network,
    inputs: &[Vec<f64>],
    labels: &[usize],
    config: &TrainConfig,
    rng: &mut impl Rng,
) -> f64 {
    assert_eq!(
        inputs.len(),
        labels.len(),
        "sgd_train: inputs/labels mismatch"
    );
    assert!(!inputs.is_empty(), "sgd_train: empty dataset");
    let kernels: Vec<ActivationKernel> =
        net.layers().iter().map(Layer::activation_kernel).collect();
    let mut velocity: Vec<Vec<f64>> = (0..net.num_layers())
        .map(|i| vec![0.0; net.layer(i).num_params()])
        .collect();
    let mut order: Vec<usize> = (0..inputs.len()).collect();
    let mut last_epoch_loss = 0.0;

    for _ in 0..config.epochs {
        order.shuffle(rng);
        let mut epoch_loss = 0.0;
        for batch in order.chunks(config.batch_size.max(1)) {
            let (losses, batch_grads) =
                batch_gradients(net, &kernels, inputs, labels, batch, config);
            for loss in losses {
                epoch_loss += loss;
            }
            let scale = 1.0 / batch.len() as f64;
            for (layer_idx, grad) in batch_grads.iter().enumerate() {
                if grad.is_empty() {
                    continue;
                }
                let update: Vec<f64> = grad
                    .iter()
                    .zip(velocity[layer_idx].iter_mut())
                    .map(|(g, vel)| {
                        *vel = config.momentum * *vel - config.learning_rate * g * scale;
                        *vel
                    })
                    .collect();
                net.layer_mut(layer_idx).add_to_params(&update);
            }
        }
        last_epoch_loss = epoch_loss / inputs.len() as f64;
    }
    last_epoch_loss
}

/// A labelled classification dataset (inputs plus integer labels).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Dataset {
    /// Input vectors.
    pub inputs: Vec<Vec<f64>>,
    /// Class label per input.
    pub labels: Vec<usize>,
}

impl Dataset {
    /// Creates a dataset from parallel input/label vectors.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn new(inputs: Vec<Vec<f64>>, labels: Vec<usize>) -> Self {
        assert_eq!(
            inputs.len(),
            labels.len(),
            "dataset: inputs/labels mismatch"
        );
        Dataset { inputs, labels }
    }

    /// Number of examples.
    pub fn len(&self) -> usize {
        self.inputs.len()
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.inputs.is_empty()
    }

    /// Accuracy of `net` on this dataset.
    pub fn accuracy(&self, net: &Network) -> f64 {
        net.accuracy(&self.inputs, &self.labels)
    }

    /// Returns the subset of examples misclassified by `net`.
    pub fn misclassified(&self, net: &Network) -> Dataset {
        let mut inputs = Vec::new();
        let mut labels = Vec::new();
        let classes = net.classify_all(&self.inputs);
        for ((x, &y), &class) in self.inputs.iter().zip(&self.labels).zip(&classes) {
            if class != y {
                inputs.push(x.clone());
                labels.push(y);
            }
        }
        Dataset { inputs, labels }
    }

    /// Takes the first `n` examples (or all of them if fewer exist).
    pub fn take(&self, n: usize) -> Dataset {
        let n = n.min(self.len());
        Dataset {
            inputs: self.inputs[..n].to_vec(),
            labels: self.labels[..n].to_vec(),
        }
    }

    /// Splits the dataset into two at index `n`.
    pub fn split_at(&self, n: usize) -> (Dataset, Dataset) {
        let n = n.min(self.len());
        (
            Dataset {
                inputs: self.inputs[..n].to_vec(),
                labels: self.labels[..n].to_vec(),
            },
            Dataset {
                inputs: self.inputs[n..].to_vec(),
                labels: self.labels[n..].to_vec(),
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::Activation;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn softmax_sums_to_one() {
        let p = softmax(&[1.0, 2.0, 3.0]);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(p[2] > p[1] && p[1] > p[0]);
    }

    #[test]
    fn backprop_matches_finite_differences() {
        let mut rng = StdRng::seed_from_u64(7);
        let net = Network::mlp(&[3, 5, 4, 2], Activation::Tanh, &mut rng);
        let input = vec![0.3, -0.8, 0.5];
        let label = 1;
        let (_, grads) = backprop(&net, &input, label, Loss::SoftmaxCrossEntropy);
        let h = 1e-6;
        for (layer_idx, layer_grads) in grads.iter().enumerate() {
            let n = net.layer(layer_idx).num_params();
            // Spot-check a few parameters per layer to keep the test fast.
            for p in (0..n).step_by(n.max(1) / 5 + 1) {
                let mut bumped = net.clone();
                let mut delta = vec![0.0; n];
                delta[p] = h;
                bumped.layer_mut(layer_idx).add_to_params(&delta);
                let plus = cross_entropy(&bumped.forward(&input), label);
                let mut bumped2 = net.clone();
                delta[p] = -h;
                bumped2.layer_mut(layer_idx).add_to_params(&delta);
                let minus = cross_entropy(&bumped2.forward(&input), label);
                let fd = (plus - minus) / (2.0 * h);
                assert!(
                    (fd - layer_grads[p]).abs() < 1e-4,
                    "layer {layer_idx} param {p}: fd {fd} vs {}",
                    layer_grads[p]
                );
            }
        }
    }

    #[test]
    fn sgd_learns_a_separable_problem() {
        let mut rng = StdRng::seed_from_u64(3);
        // Two well-separated Gaussian-ish blobs in 2-D.
        let mut inputs = Vec::new();
        let mut labels = Vec::new();
        for i in 0..120 {
            let label = i % 2;
            let centre = if label == 0 { [-1.5, -1.5] } else { [1.5, 1.5] };
            inputs.push(vec![
                centre[0] + rng.gen_range(-0.5..0.5),
                centre[1] + rng.gen_range(-0.5..0.5),
            ]);
            labels.push(label);
        }
        let mut net = Network::mlp(&[2, 8, 2], Activation::Relu, &mut rng);
        let config = TrainConfig {
            epochs: 40,
            learning_rate: 0.05,
            ..TrainConfig::default()
        };
        sgd_train(&mut net, &inputs, &labels, &config, &mut rng);
        assert!(net.accuracy(&inputs, &labels) > 0.95);
    }

    #[test]
    fn only_layer_restricts_updates() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut net = Network::mlp(&[2, 4, 2], Activation::Relu, &mut rng);
        let before_l0 = net.layer(0).params();
        let before_l1 = net.layer(1).params();
        let inputs = vec![vec![1.0, 0.0], vec![0.0, 1.0]];
        let labels = vec![0, 1];
        let config = TrainConfig {
            epochs: 3,
            only_layer: Some(1),
            ..TrainConfig::default()
        };
        sgd_train(&mut net, &inputs, &labels, &config, &mut rng);
        assert_eq!(net.layer(0).params(), before_l0, "layer 0 must be frozen");
        assert_ne!(net.layer(1).params(), before_l1, "layer 1 must move");
    }

    #[test]
    fn dataset_utilities() {
        let data = Dataset::new(vec![vec![0.0], vec![1.0], vec![2.0]], vec![0, 1, 0]);
        assert_eq!(data.len(), 3);
        assert!(!data.is_empty());
        let (a, b) = data.split_at(2);
        assert_eq!(a.len(), 2);
        assert_eq!(b.len(), 1);
        assert_eq!(data.take(10).len(), 3);
    }

    #[test]
    fn mse_loss_gradient_matches_fd() {
        let logits = vec![0.2, -0.4, 0.9];
        let (value, grad) = loss_gradient(Loss::MeanSquaredError, &logits, 2);
        let h = 1e-6;
        for i in 0..3 {
            let mut bumped = logits.clone();
            bumped[i] += h;
            let (v2, _) = loss_gradient(Loss::MeanSquaredError, &bumped, 2);
            let fd = (v2 - value) / h;
            assert!((fd - grad[i]).abs() < 1e-5);
        }
    }
}
