//! Decoupled Deep Neural Networks (DDNNs), the paper's §4.
//!
//! A DDNN carries two copies of the network's weights: the *activation
//! channel* decides which linear piece of each activation function is used
//! (it controls the positions of the linear regions), while the *value
//! channel* decides the affine map inside each piece.  Repairing only the
//! value channel therefore changes the network's outputs *linearly*
//! (Theorem 4.5) without moving its linear regions (Theorem 4.6) — the two
//! facts the repair algorithms rely on.

use prdnn_linalg::{vector, Matrix};
use prdnn_nn::{FlatBatch, Layer, Network};
use serde::{Deserialize, Serialize};

/// Splits `(act, val)` input pairs into the two channel batches, stored
/// flat so every dense layer below is one GEMM call per channel.
fn channel_batches(in_dim: usize, pairs: &[(&[f64], &[f64])]) -> (FlatBatch, FlatBatch) {
    let mut v_act = FlatBatch::with_capacity(in_dim, pairs.len());
    let mut v_val = FlatBatch::with_capacity(in_dim, pairs.len());
    for (a, v) in pairs {
        v_act.push_row(a);
        v_val.push_row(v);
    }
    (v_act, v_val)
}

/// Applies per-point linearisations to a flat batch of value-channel
/// pre-activations (the `v_val = lin(z_val)` step of Definition 4.3).
fn apply_lins_flat(
    lins: &[prdnn_nn::ActivationLinearization],
    z_val: &FlatBatch,
    out_dim: usize,
) -> FlatBatch {
    let mut out = FlatBatch::with_capacity(out_dim, z_val.count());
    for (lin, z) in lins.iter().zip(z_val.rows()) {
        out.push_row(&lin.apply(z));
    }
    out
}

/// A Decoupled DNN (Definition 4.1): an activation-channel network and a
/// value-channel network with identical architectures.
///
/// # Example
///
/// Every DNN converts to an equivalent DDNN (Theorem 4.4):
///
/// ```
/// use prdnn_core::DecoupledNetwork;
/// use prdnn_linalg::Matrix;
/// use prdnn_nn::{Activation, Layer, Network};
///
/// let net = Network::new(vec![
///     Layer::dense(Matrix::from_rows(&[vec![1.0], vec![-1.0]]), vec![0.0, 0.0], Activation::Relu),
///     Layer::dense(Matrix::from_rows(&[vec![1.0, 1.0]]), vec![0.0], Activation::Identity),
/// ]);
/// let ddnn = DecoupledNetwork::from_network(&net);
/// assert_eq!(ddnn.forward(&[0.7]), net.forward(&[0.7]));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DecoupledNetwork {
    activation: Network,
    value: Network,
}

impl DecoupledNetwork {
    /// Builds the DDNN `(N, N)` equivalent to the DNN `N` (Theorem 4.4).
    pub fn from_network(net: &Network) -> Self {
        DecoupledNetwork {
            activation: net.clone(),
            value: net.clone(),
        }
    }

    /// Builds a DDNN from separate activation- and value-channel networks.
    ///
    /// # Panics
    ///
    /// Panics if the two networks do not have the same architecture (same
    /// number of layers with matching input/output dimensions and parameter
    /// counts).
    pub fn new(activation: Network, value: Network) -> Self {
        assert_eq!(
            activation.num_layers(),
            value.num_layers(),
            "DDNN channels must have the same number of layers"
        );
        for i in 0..activation.num_layers() {
            let (a, v) = (activation.layer(i), value.layer(i));
            assert_eq!(a.input_dim(), v.input_dim(), "layer {i}: input dims differ");
            assert_eq!(
                a.output_dim(),
                v.output_dim(),
                "layer {i}: output dims differ"
            );
            assert_eq!(
                a.num_params(),
                v.num_params(),
                "layer {i}: parameter counts differ"
            );
        }
        DecoupledNetwork { activation, value }
    }

    /// The activation-channel network.
    pub fn activation_network(&self) -> &Network {
        &self.activation
    }

    /// The value-channel network.
    pub fn value_network(&self) -> &Network {
        &self.value
    }

    /// Number of layers.
    pub fn num_layers(&self) -> usize {
        self.activation.num_layers()
    }

    /// Input dimension.
    pub fn input_dim(&self) -> usize {
        self.activation.input_dim()
    }

    /// Output dimension.
    pub fn output_dim(&self) -> usize {
        self.activation.output_dim()
    }

    /// Indices of layers with parameters (candidates for repair).
    pub fn repairable_layers(&self) -> Vec<usize> {
        self.value.repairable_layers()
    }

    /// Adds `delta` to the parameters of value-channel layer `layer`
    /// (Algorithm 1, line 9).  The activation channel is left untouched.
    ///
    /// # Panics
    ///
    /// Panics if `layer` is out of bounds or `delta` has the wrong length.
    pub fn apply_value_delta(&mut self, layer: usize, delta: &[f64]) {
        self.value.layer_mut(layer).add_to_params(delta);
    }

    /// Evaluates the DDNN on `input` (Definition 4.3), feeding the same
    /// vector to both channels.
    pub fn forward(&self, input: &[f64]) -> Vec<f64> {
        self.forward_decoupled(input, input)
    }

    /// Evaluates the DDNN feeding `act_input` to the activation channel and
    /// `val_input` to the value channel.
    ///
    /// The standard semantics of Definition 4.3 use `act_input == val_input`;
    /// the split form exists for the polytope-repair key points, which are
    /// evaluated with the activation pattern of their region's *interior*
    /// (Appendix B).
    ///
    /// # Panics
    ///
    /// Panics if the inputs do not match the network's input dimension.
    pub fn forward_decoupled(&self, act_input: &[f64], val_input: &[f64]) -> Vec<f64> {
        let mut v_act = act_input.to_vec();
        let mut v_val = val_input.to_vec();
        for i in 0..self.num_layers() {
            let layer_a = self.activation.layer(i);
            let layer_v = self.value.layer(i);
            let z_act = layer_a.preactivation(&v_act);
            let z_val = layer_v.preactivation(&v_val);
            // The value channel applies the linearisation of σ around the
            // activation channel's pre-activation (Definition 4.3).
            let lin = layer_a.linearize_activation(&z_act);
            v_val = lin.apply(&z_val);
            v_act = layer_a.activate(&z_act);
        }
        v_val
    }

    /// The batch form of [`Self::forward_decoupled`]: evaluates the DDNN on
    /// every `(act_input, val_input)` pair in `pairs`.
    ///
    /// The whole batch is pushed through one layer at a time — mirroring
    /// [`prdnn_nn::Network::forward_batch`] — so per-layer setup (pooling
    /// window enumeration in the batched linearisation) is paid once per
    /// layer instead of once per point.  Per-point results are identical to
    /// [`Self::forward_decoupled`].
    ///
    /// # Panics
    ///
    /// Panics if any input has the wrong dimension.
    pub fn forward_decoupled_batch(&self, pairs: &[(&[f64], &[f64])]) -> Vec<Vec<f64>> {
        let (mut v_act, mut v_val) = channel_batches(self.input_dim(), pairs);
        for i in 0..self.num_layers() {
            let layer_a = self.activation.layer(i);
            let layer_v = self.value.layer(i);
            let z_act = layer_a.preactivation_batch_flat(&v_act);
            let z_val = layer_v.preactivation_batch_flat(&v_val);
            let lins = layer_a.linearize_activation_batch_flat(&z_act);
            v_val = apply_lins_flat(&lins, &z_val, layer_a.output_dim());
            v_act = layer_a.activate_batch_flat(&z_act);
        }
        v_val.to_rows()
    }

    /// [`Self::forward_decoupled_batch`] fanned across a thread pool.
    ///
    /// The pairs are cut into contiguous chunks, each evaluated with the
    /// serial batch entry point on a pool worker and spliced back in input
    /// order, so the output is bit-identical for every thread count.
    pub fn forward_decoupled_batch_in(
        &self,
        pool: &prdnn_par::ThreadPool,
        pairs: &[(&[f64], &[f64])],
    ) -> Vec<Vec<f64>> {
        let chunk_size = pool.even_chunk_size(pairs.len());
        pool.par_chunks(pairs, chunk_size, |chunk| {
            self.forward_decoupled_batch(chunk)
        })
        .into_iter()
        .flatten()
        .collect()
    }

    /// Predicted class label of the DDNN output (argmax).
    pub fn classify(&self, input: &[f64]) -> usize {
        vector::argmax(&self.forward(input))
    }

    /// Classification accuracy of the DDNN on a labelled dataset.
    ///
    /// Returns 1.0 on an empty dataset.
    pub fn accuracy(&self, inputs: &[Vec<f64>], labels: &[usize]) -> f64 {
        if inputs.is_empty() {
            return 1.0;
        }
        let correct = inputs
            .iter()
            .zip(labels)
            .filter(|(x, &y)| self.classify(x) == y)
            .count();
        correct as f64 / inputs.len() as f64
    }

    /// The Jacobian of the DDNN output with respect to the parameters of
    /// value-channel layer `layer` (the `J_x` of Algorithm 1, line 5),
    /// evaluated at activation input `act_input` and value input `val_input`.
    ///
    /// By Theorem 4.5 the DDNN output is *exactly*
    /// `forward_decoupled(act, val) + J · Δ` after adding `Δ` to that layer's
    /// value parameters, so this Jacobian is not an approximation.
    ///
    /// # Panics
    ///
    /// Panics if `layer` is out of bounds or the inputs have wrong dimension.
    pub fn value_param_jacobian(
        &self,
        layer: usize,
        act_input: &[f64],
        val_input: &[f64],
    ) -> Matrix {
        assert!(
            layer < self.num_layers(),
            "layer index {layer} out of bounds"
        );
        // Forward both channels, remembering the activation pre-activations
        // (they fix every linearisation) and the value-channel layer inputs.
        let mut v_act = act_input.to_vec();
        let mut v_val = val_input.to_vec();
        let mut act_preacts: Vec<Vec<f64>> = Vec::with_capacity(self.num_layers());
        let mut val_inputs: Vec<Vec<f64>> = Vec::with_capacity(self.num_layers());
        for i in 0..self.num_layers() {
            let layer_a = self.activation.layer(i);
            let layer_v = self.value.layer(i);
            val_inputs.push(v_val.clone());
            let z_act = layer_a.preactivation(&v_act);
            let z_val = layer_v.preactivation(&v_val);
            let lin = layer_a.linearize_activation(&z_act);
            v_val = lin.apply(&z_val);
            v_act = layer_a.activate(&z_act);
            act_preacts.push(z_act);
        }

        // Backward accumulation of M = ∂ output / ∂ v_val^(j), starting from
        // the output (identity) down to the repaired layer's output.
        let out_dim = self.output_dim();
        let mut m = Matrix::identity(out_dim);
        for j in (layer + 1..self.num_layers()).rev() {
            let layer_a = self.activation.layer(j);
            let layer_v = self.value.layer(j);
            let lin = layer_a.linearize_activation(&act_preacts[j]);
            // v^(j) = lin(z^(j)), z^(j) = W_v^(j) v^(j-1) + b.
            let dz = lin.vjp(&m);
            m = layer_v.preact_input_vjp(&dz);
        }
        // Through the repaired layer itself: output depends on its
        // pre-activation via the linearisation, and the pre-activation
        // depends linearly on the parameters.
        let layer_a = self.activation.layer(layer);
        let layer_v = self.value.layer(layer);
        let lin = layer_a.linearize_activation(&act_preacts[layer]);
        let dz = lin.vjp(&m);
        layer_v.preact_param_vjp(&dz, &val_inputs[layer])
    }

    /// The batch form of [`Self::value_param_jacobian`]: one Jacobian per
    /// `(act_input, val_input)` pair, all for the same repaired `layer`.
    ///
    /// The forward phase runs batched (per-layer setup shared across the
    /// whole batch, like [`Self::forward_decoupled_batch`]); the backward
    /// accumulation is inherently per point and reuses the linearisations
    /// recorded on the way forward.  Per-point results are identical to
    /// [`Self::value_param_jacobian`].
    ///
    /// # Panics
    ///
    /// Panics if `layer` is out of bounds or any input has the wrong
    /// dimension.
    pub fn value_param_jacobian_batch(
        &self,
        layer: usize,
        pairs: &[(&[f64], &[f64])],
    ) -> Vec<Matrix> {
        self.jacobian_batch(layer, pairs, false).0
    }

    /// [`Self::value_param_jacobian_batch`] fanned across a thread pool,
    /// chunk results spliced back in input order (bit-identical for every
    /// thread count).
    pub fn value_param_jacobian_batch_in(
        &self,
        pool: &prdnn_par::ThreadPool,
        layer: usize,
        pairs: &[(&[f64], &[f64])],
    ) -> Vec<Matrix> {
        let chunk_size = pool.even_chunk_size(pairs.len());
        pool.par_chunks(pairs, chunk_size, |chunk| {
            self.value_param_jacobian_batch(layer, chunk)
        })
        .into_iter()
        .flatten()
        .collect()
    }

    /// One pass for the repair loop: the Jacobians of
    /// [`Self::value_param_jacobian_batch_in`] together with the outputs of
    /// [`Self::forward_decoupled_batch_in`], bit-identical to both, from a
    /// single forward pass that carries the value channel through to the
    /// output.  Algorithm 1 needs both per key point, and the key points
    /// are independent, so the chunks fan across the pool.
    pub(crate) fn jacobians_and_outputs_batch_in(
        &self,
        pool: &prdnn_par::ThreadPool,
        layer: usize,
        pairs: &[(&[f64], &[f64])],
    ) -> (Vec<Matrix>, Vec<Vec<f64>>) {
        let chunk_size = pool.even_chunk_size(pairs.len());
        let chunks = pool.par_chunks(pairs, chunk_size, |chunk| {
            self.jacobian_batch(layer, chunk, true)
        });
        let mut jacobians = Vec::with_capacity(pairs.len());
        let mut outputs = Vec::with_capacity(pairs.len());
        for (chunk_jacobians, chunk_outputs) in chunks {
            jacobians.extend(chunk_jacobians);
            outputs.extend(chunk_outputs.to_rows());
        }
        (jacobians, outputs)
    }

    /// The shared batched Jacobian pass.  A batched forward pass records
    /// every layer's activation-channel linearisations (they fix the
    /// backward pass) and the value-channel inputs of the repaired layer;
    /// the backward accumulation then runs per point.  The value channel is
    /// propagated up to the repaired layer — beyond it the Jacobian depends
    /// on the activation channel alone — or, with `with_outputs`, through
    /// to the output, which is returned as the second element (empty
    /// otherwise).
    fn jacobian_batch(
        &self,
        layer: usize,
        pairs: &[(&[f64], &[f64])],
        with_outputs: bool,
    ) -> (Vec<Matrix>, FlatBatch) {
        assert!(
            layer < self.num_layers(),
            "layer index {layer} out of bounds"
        );
        let (mut v_act, mut v_val) = channel_batches(self.input_dim(), pairs);
        let mut lins_per_layer: Vec<Vec<prdnn_nn::ActivationLinearization>> =
            Vec::with_capacity(self.num_layers());
        let mut repaired_layer_inputs = FlatBatch::default();
        for i in 0..self.num_layers() {
            let layer_a = self.activation.layer(i);
            let z_act = layer_a.preactivation_batch_flat(&v_act);
            let lins = layer_a.linearize_activation_batch_flat(&z_act);
            if i == layer {
                repaired_layer_inputs = if with_outputs {
                    v_val.clone()
                } else {
                    std::mem::take(&mut v_val)
                };
            }
            if i < layer || with_outputs {
                let layer_v = self.value.layer(i);
                let z_val = layer_v.preactivation_batch_flat(&v_val);
                v_val = apply_lins_flat(&lins, &z_val, layer_a.output_dim());
            }
            v_act = layer_a.activate_batch_flat(&z_act);
            lins_per_layer.push(lins);
        }

        // Backward accumulation per point (see `value_param_jacobian`).
        let out_dim = self.output_dim();
        let jacobians = (0..pairs.len())
            .map(|p| {
                let mut m = Matrix::identity(out_dim);
                for j in (layer + 1..self.num_layers()).rev() {
                    let dz = lins_per_layer[j][p].vjp(&m);
                    m = self.value.layer(j).preact_input_vjp(&dz);
                }
                let dz = lins_per_layer[layer][p].vjp(&m);
                self.value
                    .layer(layer)
                    .preact_param_vjp(&dz, repaired_layer_inputs.row(p))
            })
            .collect();
        let outputs = if with_outputs {
            v_val
        } else {
            FlatBatch::default()
        };
        (jacobians, outputs)
    }

    /// Converts the DDNN back to a plain [`Network`] **when the two channels
    /// are identical** (e.g. before any repair), which is the inverse of
    /// [`Self::from_network`].
    ///
    /// Returns `None` when the channels differ (a repaired DDNN is generally
    /// not representable as a standard DNN with the same architecture).
    pub fn into_network(self) -> Option<Network> {
        if self.activation == self.value {
            Some(self.activation)
        } else {
            None
        }
    }

    /// Access to a value-channel layer (e.g. to inspect a repair).
    ///
    /// # Panics
    ///
    /// Panics if `layer` is out of bounds.
    pub fn value_layer(&self, layer: usize) -> &Layer {
        self.value.layer(layer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prdnn_linalg::approx_eq_slice;
    use prdnn_nn::Activation;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_points(rng: &mut StdRng, dim: usize, count: usize) -> Vec<Vec<f64>> {
        (0..count)
            .map(|_| (0..dim).map(|_| rng.gen_range(-2.0..2.0)).collect())
            .collect()
    }

    #[test]
    fn theorem_4_4_ddnn_equals_dnn() {
        let mut rng = StdRng::seed_from_u64(17);
        for activation in [Activation::Relu, Activation::Tanh, Activation::Sigmoid] {
            let net = Network::mlp(&[3, 7, 6, 2], activation, &mut rng);
            let ddnn = DecoupledNetwork::from_network(&net);
            for p in random_points(&mut rng, 3, 25) {
                assert!(
                    approx_eq_slice(&ddnn.forward(&p), &net.forward(&p), 1e-9),
                    "DDNN must equal the DNN it was built from ({activation})"
                );
            }
        }
    }

    #[test]
    fn theorem_4_5_output_is_linear_in_value_layer_params() {
        let mut rng = StdRng::seed_from_u64(23);
        for activation in [Activation::Relu, Activation::Tanh] {
            let net = Network::mlp(&[3, 6, 5, 2], activation, &mut rng);
            let ddnn = DecoupledNetwork::from_network(&net);
            for layer in 0..ddnn.num_layers() {
                let x: Vec<f64> = (0..3).map(|_| rng.gen_range(-1.5..1.5)).collect();
                let jac = ddnn.value_param_jacobian(layer, &x, &x);
                let base = ddnn.forward(&x);
                // Apply a *large* random delta: linearity must hold exactly,
                // not just to first order.
                let delta: Vec<f64> = (0..ddnn.value_network().layer(layer).num_params())
                    .map(|_| rng.gen_range(-0.8..0.8))
                    .collect();
                let mut repaired = ddnn.clone();
                repaired.apply_value_delta(layer, &delta);
                let actual = repaired.forward(&x);
                let predicted: Vec<f64> = (0..base.len())
                    .map(|o| {
                        base[o]
                            + (0..delta.len())
                                .map(|p| jac[(o, p)] * delta[p])
                                .sum::<f64>()
                    })
                    .collect();
                assert!(
                    approx_eq_slice(&actual, &predicted, 1e-7),
                    "layer {layer} ({activation}): exact linearity violated"
                );
            }
        }
    }

    #[test]
    fn theorem_4_6_value_edits_do_not_move_linear_regions() {
        // Mirrors §3 Figure 4: changing a value-channel weight changes the
        // affine map inside regions but not the regions themselves, i.e. the
        // activation channel's pattern at any point is unchanged.
        let mut rng = StdRng::seed_from_u64(31);
        let net = Network::mlp(&[2, 8, 6, 2], Activation::Relu, &mut rng);
        let mut ddnn = DecoupledNetwork::from_network(&net);
        let layer = 1;
        let delta: Vec<f64> = (0..ddnn.value_network().layer(layer).num_params())
            .map(|_| rng.gen_range(-1.0..1.0))
            .collect();
        ddnn.apply_value_delta(layer, &delta);
        for p in random_points(&mut rng, 2, 40) {
            assert_eq!(
                ddnn.activation_network().activation_pattern(&p),
                net.activation_pattern(&p),
                "activation patterns must be preserved"
            );
        }
    }

    #[test]
    fn decoupled_inputs_use_the_activation_channel_pattern() {
        // With a ReLU that is *inactive* for the activation input but would
        // be active for the value input, the value must be masked to zero.
        let net = Network::new(vec![
            Layer::dense(Matrix::from_rows(&[vec![1.0]]), vec![0.0], Activation::Relu),
            Layer::dense(
                Matrix::from_rows(&[vec![1.0]]),
                vec![0.0],
                Activation::Identity,
            ),
        ]);
        let ddnn = DecoupledNetwork::from_network(&net);
        // Activation input -1 => ReLU inactive => output 0 regardless of the
        // value input.
        assert_eq!(ddnn.forward_decoupled(&[-1.0], &[5.0]), vec![0.0]);
        // Activation input +1 => ReLU active (identity) => value passes through.
        assert_eq!(ddnn.forward_decoupled(&[1.0], &[5.0]), vec![5.0]);
    }

    #[test]
    fn into_network_roundtrip() {
        let mut rng = StdRng::seed_from_u64(5);
        let net = Network::mlp(&[2, 4, 2], Activation::Relu, &mut rng);
        let ddnn = DecoupledNetwork::from_network(&net);
        assert_eq!(ddnn.clone().into_network(), Some(net));
        let mut edited = ddnn;
        let n = edited.value_network().layer(0).num_params();
        edited.apply_value_delta(0, &vec![0.5; n]);
        assert_eq!(edited.into_network(), None);
    }

    #[test]
    fn batched_channels_match_per_point_calls_for_every_thread_count() {
        // The batch entry points must be bit-identical to the per-point
        // channels — serially and on a real pool (the repair loop relies on
        // this to keep the LP, and so the repair, deterministic).
        let mut rng = StdRng::seed_from_u64(41);
        let net = Network::mlp(&[3, 8, 6, 2], Activation::Relu, &mut rng);
        let ddnn = DecoupledNetwork::from_network(&net);
        let acts = random_points(&mut rng, 3, 13);
        let vals = random_points(&mut rng, 3, 13);
        let pairs: Vec<(&[f64], &[f64])> = acts
            .iter()
            .zip(&vals)
            .map(|(a, v)| (a.as_slice(), v.as_slice()))
            .collect();

        let expected_fwd: Vec<Vec<f64>> = pairs
            .iter()
            .map(|(a, v)| ddnn.forward_decoupled(a, v))
            .collect();
        assert_eq!(ddnn.forward_decoupled_batch(&pairs), expected_fwd);

        for layer in 0..ddnn.num_layers() {
            let expected_jac: Vec<Matrix> = pairs
                .iter()
                .map(|(a, v)| ddnn.value_param_jacobian(layer, a, v))
                .collect();
            assert_eq!(ddnn.value_param_jacobian_batch(layer, &pairs), expected_jac);
            for threads in [1, 2, 4] {
                let pool = prdnn_par::ThreadPool::new(threads);
                assert_eq!(
                    ddnn.forward_decoupled_batch_in(&pool, &pairs),
                    expected_fwd,
                    "forward, threads = {threads}"
                );
                assert_eq!(
                    ddnn.value_param_jacobian_batch_in(&pool, layer, &pairs),
                    expected_jac,
                    "jacobian, layer {layer}, threads = {threads}"
                );
                // The repair loop's fused pass: both channels from one pass.
                let (jacobians, outputs) =
                    ddnn.jacobians_and_outputs_batch_in(&pool, layer, &pairs);
                assert_eq!(
                    jacobians, expected_jac,
                    "fused jacobian, layer {layer}, threads = {threads}"
                );
                assert_eq!(
                    outputs, expected_fwd,
                    "fused output, layer {layer}, threads = {threads}"
                );
            }
        }
    }

    #[test]
    fn batched_channels_work_with_pooling_layers() {
        // Max pooling exercises the shared-window batched linearisation.
        let net = Network::new(vec![
            Layer::MaxPool2d(prdnn_nn::Pool2dLayer {
                channels: 1,
                in_height: 2,
                in_width: 4,
                pool_h: 2,
                pool_w: 2,
                stride: 2,
            }),
            Layer::dense(
                Matrix::from_rows(&[vec![1.0, -1.0], vec![0.5, 2.0]]),
                vec![0.1, -0.2],
                Activation::Relu,
            ),
        ]);
        let ddnn = DecoupledNetwork::from_network(&net);
        let mut rng = StdRng::seed_from_u64(7);
        let acts = random_points(&mut rng, 8, 9);
        let vals = random_points(&mut rng, 8, 9);
        let pairs: Vec<(&[f64], &[f64])> = acts
            .iter()
            .zip(&vals)
            .map(|(a, v)| (a.as_slice(), v.as_slice()))
            .collect();
        let expected: Vec<Vec<f64>> = pairs
            .iter()
            .map(|(a, v)| ddnn.forward_decoupled(a, v))
            .collect();
        assert_eq!(ddnn.forward_decoupled_batch(&pairs), expected);
        let expected_jac: Vec<Matrix> = pairs
            .iter()
            .map(|(a, v)| ddnn.value_param_jacobian(1, a, v))
            .collect();
        assert_eq!(ddnn.value_param_jacobian_batch(1, &pairs), expected_jac);
        for threads in [1, 2, 4] {
            let pool = prdnn_par::ThreadPool::new(threads);
            let (jacobians, outputs) = ddnn.jacobians_and_outputs_batch_in(&pool, 1, &pairs);
            assert_eq!(jacobians, expected_jac, "threads = {threads}");
            assert_eq!(outputs, expected, "threads = {threads}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The fused pass on random networks: for every layer and thread
        /// count, its Jacobians and outputs are bit-identical to the two
        /// separate batched entry points it replaces in the repair loop.
        #[test]
        fn fused_pass_is_bit_identical_to_the_separate_channels(
            seed in 0u64..10_000,
            depth in 1usize..4,
            width in 4usize..12,
            batch in 1usize..14,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut sizes = vec![3];
            sizes.extend(std::iter::repeat_n(width, depth));
            sizes.push(3);
            let ddnn = DecoupledNetwork::from_network(&Network::mlp(&sizes, Activation::Relu, &mut rng));
            let acts = random_points(&mut rng, 3, batch);
            let vals = random_points(&mut rng, 3, batch);
            let pairs: Vec<(&[f64], &[f64])> = acts
                .iter()
                .zip(&vals)
                .map(|(a, v)| (a.as_slice(), v.as_slice()))
                .collect();
            for threads in [1, 2, 4] {
                let pool = prdnn_par::ThreadPool::new(threads);
                let expected_outputs = ddnn.forward_decoupled_batch_in(&pool, &pairs);
                for layer in 0..ddnn.num_layers() {
                    let (jacobians, outputs) = ddnn.jacobians_and_outputs_batch_in(&pool, layer, &pairs);
                    prop_assert_eq!(&jacobians, &ddnn.value_param_jacobian_batch_in(&pool, layer, &pairs));
                    prop_assert_eq!(&outputs, &expected_outputs);
                }
            }
        }
    }

    #[test]
    fn jacobian_shape() {
        let mut rng = StdRng::seed_from_u64(19);
        let net = Network::mlp(&[4, 6, 3], Activation::Relu, &mut rng);
        let ddnn = DecoupledNetwork::from_network(&net);
        let x = vec![0.1, -0.2, 0.3, 0.4];
        let j0 = ddnn.value_param_jacobian(0, &x, &x);
        assert_eq!(j0.rows(), 3);
        assert_eq!(j0.cols(), 4 * 6 + 6);
        let j1 = ddnn.value_param_jacobian(1, &x, &x);
        assert_eq!(j1.cols(), 6 * 3 + 3);
    }
}
