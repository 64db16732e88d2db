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
use prdnn_nn::{ActivationKernel, Conv2dLayer, FlatBatch, Layer, Network};
use serde::{Deserialize, Serialize};

/// Whether `a` and `b` hold the same values bit for bit: +0.0 and −0.0
/// differ, and a NaN equals only a NaN of the same payload.
fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Whether two layers of one architecture hold bitwise-equal parameters.
fn same_params(a: &Layer, v: &Layer) -> bool {
    match (a, v) {
        (Layer::Dense(a), Layer::Dense(v)) => {
            same_bits(a.weights.as_slice(), v.weights.as_slice()) && same_bits(&a.bias, &v.bias)
        }
        (Layer::Conv2d(a), Layer::Conv2d(v)) => {
            same_bits(&a.weights, &v.weights) && same_bits(&a.bias, &v.bias)
        }
        // `DecoupledNetwork::try_new` makes the channels' layer kinds
        // agree, so these are pooling layers, which have no parameters.
        _ => true,
    }
}

/// Whether two layers differ in nothing but their parameter values: the
/// same kind, activation function and geometry.
fn same_architecture(a: &Layer, v: &Layer) -> bool {
    let same_geometry = match (a, v) {
        (Layer::Dense(a), Layer::Dense(v)) => {
            (a.weights.rows(), a.weights.cols(), a.bias.len())
                == (v.weights.rows(), v.weights.cols(), v.bias.len())
        }
        (Layer::Conv2d(a), Layer::Conv2d(v)) => {
            let geometry = |c: &Conv2dLayer| {
                [
                    c.in_channels,
                    c.in_height,
                    c.in_width,
                    c.out_channels,
                    c.kernel_h,
                    c.kernel_w,
                    c.stride,
                    c.padding,
                    c.weights.len(),
                    c.bias.len(),
                ]
            };
            geometry(a) == geometry(v)
        }
        (Layer::MaxPool2d(a), Layer::MaxPool2d(v)) | (Layer::AvgPool2d(a), Layer::AvgPool2d(v)) => {
            a == v
        }
        _ => false,
    };
    same_geometry && a.activation() == v.activation()
}

/// Why two networks cannot be the channels of one DDNN: Definition 4.1
/// requires identical architectures ([`DecoupledNetwork::try_new`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChannelMismatch {
    /// The channels have different numbers of layers.
    LayerCount {
        /// The activation channel's layer count.
        activation: usize,
        /// The value channel's layer count.
        value: usize,
    },
    /// Layer `layer` differs between the channels in kind (dense, conv,
    /// max or average pool), activation function, or geometry (shape,
    /// kernel, stride, padding, pooling window).
    Layer {
        /// The offending layer index.
        layer: usize,
    },
}

impl std::fmt::Display for ChannelMismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChannelMismatch::LayerCount { activation, value } => write!(
                f,
                "DDNN channels have {activation} and {value} layers; they must match"
            ),
            ChannelMismatch::Layer { layer } => write!(
                f,
                "DDNN channels differ in kind, activation or geometry at layer {layer}"
            ),
        }
    }
}

impl std::error::Error for ChannelMismatch {}

/// Every layer's activation kernel, built once per pass and read by both
/// channels and the backward accumulation.
fn kernels(net: &Network) -> Vec<ActivationKernel> {
    net.layers().iter().map(Layer::activation_kernel).collect()
}

/// What a batched pass builds once per public call and hands to every
/// chunk.
struct PassSetup {
    /// Every layer's activation kernel ([`kernels`]).
    kernels: Vec<ActivationKernel>,
    /// How many leading layers hold bitwise-equal parameters in both
    /// channels.
    equal_params: usize,
}

/// The two channels' values on entry to a layer of a batched pass, stored
/// flat so every dense layer is one GEMM call per batch.
enum Channels {
    /// Bitwise-equal values: one batch stands for both channels.
    Shared(FlatBatch),
    /// The activation channel's values and the value channel's; the
    /// latter is empty once the pass stops carrying the value channel.
    Split(FlatBatch, FlatBatch),
}

impl Channels {
    /// The channel batches of `(act, val)` input pairs: one batch when
    /// every pair's two inputs are bitwise equal.
    fn of_pairs(in_dim: usize, pairs: &[(&[f64], &[f64])]) -> Self {
        let mut v_act = FlatBatch::with_capacity(in_dim, pairs.len());
        if pairs.iter().all(|(a, v)| same_bits(a, v)) {
            for (a, _) in pairs {
                v_act.push_row(a);
            }
            return Channels::Shared(v_act);
        }
        let mut v_val = FlatBatch::with_capacity(in_dim, pairs.len());
        for (a, v) in pairs {
            v_act.push_row(a);
            v_val.push_row(v);
        }
        Channels::Split(v_act, v_val)
    }

    /// The value channel's values.
    fn into_value(self) -> FlatBatch {
        match self {
            Channels::Shared(v) | Channels::Split(_, v) => v,
        }
    }
}

/// The value channel's step for one point (Definition 4.3): `z_val`
/// through the activation linearised at the activation channel's
/// pre-activation `z_act`.
fn apply_linearized(kernel: &ActivationKernel, z_act: &[f64], z_val: &[f64]) -> Vec<f64> {
    // Allocated and then written, as `FlatBatch::zeros` is: a zeroed
    // allocation (`vec![0.0; n]`) bypasses glibc's per-thread cache.
    let len = kernel.output_dim(z_val.len());
    let mut out = Vec::with_capacity(len);
    out.resize(len, 0.0);
    kernel.apply_linearized_row(z_act, z_val, &mut out);
    out
}

/// [`apply_linearized`] for a batch: row `k` of `z_val` through the
/// activation linearised at row `k` of `z_act`.
fn apply_linearized_batch(
    kernel: &ActivationKernel,
    z_act: &FlatBatch,
    z_val: &FlatBatch,
) -> FlatBatch {
    let mut out = FlatBatch::zeros(kernel.output_dim(z_val.dim()), z_val.count());
    for (k, (c, z)) in z_act.rows().zip(z_val.rows()).enumerate() {
        kernel.apply_linearized_row(c, z, out.row_mut(k));
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
    /// Panics with [`Self::try_new`]'s error if the two networks do not
    /// have the same architecture.
    pub fn new(activation: Network, value: Network) -> Self {
        Self::try_new(activation, value).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Builds a DDNN from separate activation- and value-channel networks
    /// of the same architecture (Definition 4.1): per layer, the same kind,
    /// activation and geometry, so that the two differ in parameter values
    /// only.
    ///
    /// # Errors
    ///
    /// Returns the first layer at which the architectures differ.
    pub fn try_new(activation: Network, value: Network) -> Result<Self, ChannelMismatch> {
        if activation.num_layers() != value.num_layers() {
            return Err(ChannelMismatch::LayerCount {
                activation: activation.num_layers(),
                value: value.num_layers(),
            });
        }
        let mismatch = (activation.layers().iter().zip(value.layers()))
            .position(|(a, v)| !same_architecture(a, v));
        if let Some(layer) = mismatch {
            return Err(ChannelMismatch::Layer { layer });
        }
        Ok(DecoupledNetwork { activation, value })
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
        for (i, kernel) in kernels(&self.activation).iter().enumerate() {
            let z_act = self.activation.layer(i).preactivation(&v_act);
            let z_val = self.value.layer(i).preactivation(&v_val);
            // The value channel applies the linearisation of σ around the
            // activation channel's pre-activation (Definition 4.3).
            v_val = apply_linearized(kernel, &z_act, &z_val);
            v_act = self.activation.layer(i).activate(&z_act);
        }
        v_val
    }

    /// The batch form of [`Self::forward_decoupled`]: evaluates the DDNN on
    /// every `(act_input, val_input)` pair in `pairs`.
    ///
    /// The whole batch is pushed through one layer at a time — mirroring
    /// [`prdnn_nn::Network::forward_batch`] — so per-layer setup (each
    /// layer's activation kernel, with its pooling window table) is paid
    /// once per layer instead of once per point.  When every pair feeds
    /// both channels the same input, bit for bit, a layer's pre-activation
    /// is computed once for both channels while its parameters agree bit
    /// for bit and the layer below it produced bitwise-equal outputs in
    /// both.  Per-point results are identical to
    /// [`Self::forward_decoupled`], which stays the two-channel reference.
    ///
    /// # Panics
    ///
    /// Panics if any input has the wrong dimension.
    pub fn forward_decoupled_batch(&self, pairs: &[(&[f64], &[f64])]) -> Vec<Vec<f64>> {
        self.forward_batch(&self.pass_setup(), pairs).to_rows()
    }

    /// [`Self::forward_decoupled_batch`] fanned across a thread pool.
    ///
    /// The pairs are cut into contiguous chunks, each evaluated as a serial
    /// batch on a pool worker and spliced back in input order, so the
    /// output is bit-identical for every thread count.
    pub fn forward_decoupled_batch_in(
        &self,
        pool: &prdnn_par::ThreadPool,
        pairs: &[(&[f64], &[f64])],
    ) -> Vec<Vec<f64>> {
        let setup = self.pass_setup();
        let chunk_size = pool.even_chunk_size(pairs.len());
        pool.par_chunks(pairs, chunk_size, |chunk| {
            self.forward_batch(&setup, chunk).to_rows()
        })
        .into_iter()
        .flatten()
        .collect()
    }

    /// The kernels and the count of leading layers whose parameters agree,
    /// for one public call of a batched pass.
    fn pass_setup(&self) -> PassSetup {
        let equal_params = self
            .activation
            .layers()
            .iter()
            .zip(self.value.layers())
            .take_while(|(a, v)| same_params(a, v))
            .count();
        PassSetup {
            kernels: kernels(&self.activation),
            equal_params,
        }
    }

    /// One layer of a batched pass, the step every batched pass takes.
    /// Returns the activation channel's pre-activation, which fixes the
    /// layer's linearisation, and the layer's outputs: the value channel's
    /// while `carry_value`, and the activation channel's unless `i` is the
    /// last layer, whose activation output nothing reads.
    ///
    /// While the channels' inputs are [`Channels::Shared`] and layer `i`'s
    /// parameters agree bit for bit, one pre-activation `z` serves both
    /// channels: `σ(z)` for the activation channel and σ linearised at `z`,
    /// applied to `z`, for the value channel — the two-channel step's
    /// operations on bitwise-equal operands, so the same bits.  The
    /// outputs stay shared only if they come out bitwise equal: σ and its
    /// linearisation can differ at the centre (Tanh in the last bit, a max
    /// pool's tie of +0.0 and −0.0 in the sign of the zero).  Once the
    /// channels split, they stay split for the rest of the pass.
    fn layer_step(
        &self,
        setup: &PassSetup,
        i: usize,
        input: &Channels,
        carry_value: bool,
    ) -> (FlatBatch, Channels) {
        let kernel = &setup.kernels[i];
        let (v_act, v_val, shared) = match input {
            Channels::Shared(v) => (v, v, carry_value && i < setup.equal_params),
            Channels::Split(act, val) => (act, val, false),
        };
        let z_act = self.activation.layer(i).preactivation_batch_flat(v_act);
        let val = if !carry_value {
            FlatBatch::default()
        } else if shared {
            apply_linearized_batch(kernel, &z_act, &z_act)
        } else {
            let z_val = self.value.layer(i).preactivation_batch_flat(v_val);
            apply_linearized_batch(kernel, &z_act, &z_val)
        };
        let act = if i + 1 < self.num_layers() {
            kernel.apply_batch(&z_act)
        } else {
            FlatBatch::default()
        };
        let output = if shared && same_bits(act.as_slice(), val.as_slice()) {
            Channels::Shared(val)
        } else {
            Channels::Split(act, val)
        };
        (z_act, output)
    }

    /// [`Self::forward_decoupled_batch`] of one chunk, with the call's
    /// setup.
    fn forward_batch(&self, setup: &PassSetup, pairs: &[(&[f64], &[f64])]) -> FlatBatch {
        let mut channels = Channels::of_pairs(self.input_dim(), pairs);
        for i in 0..self.num_layers() {
            channels = self.layer_step(setup, i, &channels, true).1;
        }
        channels.into_value()
    }

    /// Predicted class label of the DDNN output (argmax).
    pub fn classify(&self, input: &[f64]) -> usize {
        vector::argmax(&self.forward(input))
    }

    /// [`Self::classify`] of every input, in order, pushed through
    /// [`Self::forward_decoupled_batch`] [`prdnn_nn::CLASSIFY_CHUNK`] inputs
    /// at a time on the calling thread; the batch's rows are
    /// [`Self::forward`]'s.
    pub fn classify_all(&self, inputs: &[Vec<f64>]) -> Vec<usize> {
        let setup = self.pass_setup();
        let mut classes = Vec::with_capacity(inputs.len());
        for chunk in inputs.chunks(prdnn_nn::CLASSIFY_CHUNK) {
            let pairs: Vec<(&[f64], &[f64])> =
                chunk.iter().map(|x| (x.as_slice(), x.as_slice())).collect();
            let outputs = self.forward_batch(&setup, &pairs);
            classes.extend(outputs.rows().map(vector::argmax));
        }
        classes
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
        let kernels = kernels(&self.activation);
        let mut v_act = act_input.to_vec();
        let mut v_val = val_input.to_vec();
        let mut act_preacts: Vec<Vec<f64>> = Vec::with_capacity(self.num_layers());
        let mut val_inputs: Vec<Vec<f64>> = Vec::with_capacity(self.num_layers());
        for (i, kernel) in kernels.iter().enumerate() {
            val_inputs.push(v_val.clone());
            let z_act = self.activation.layer(i).preactivation(&v_act);
            let z_val = self.value.layer(i).preactivation(&v_val);
            v_val = apply_linearized(kernel, &z_act, &z_val);
            v_act = self.activation.layer(i).activate(&z_act);
            act_preacts.push(z_act);
        }

        // Backward accumulation of M = ∂ output / ∂ v_val^(j), starting from
        // the output (identity) down to the repaired layer's output.
        let mut m = Matrix::identity(self.output_dim());
        for j in (layer + 1..self.num_layers()).rev() {
            // v^(j) = lin(z^(j)), z^(j) = W_v^(j) v^(j-1) + b.
            let dz = kernels[j].vjp(&act_preacts[j], &m);
            m = self.value.layer(j).preact_input_vjp(&dz);
        }
        // Through the repaired layer itself: output depends on its
        // pre-activation via the linearisation, and the pre-activation
        // depends linearly on the parameters.
        let dz = kernels[layer].vjp(&act_preacts[layer], &m);
        self.value
            .layer(layer)
            .preact_param_vjp(&dz, &val_inputs[layer])
    }

    /// The batch form of [`Self::value_param_jacobian`]: one Jacobian per
    /// `(act_input, val_input)` pair, all for the same repaired `layer`.
    ///
    /// The forward phase runs batched (per-layer setup shared across the
    /// whole batch, like [`Self::forward_decoupled_batch`]); the backward
    /// accumulation is inherently per point and reads the activation-channel
    /// pre-activations recorded on the way forward.  Per-point results are
    /// identical to [`Self::value_param_jacobian`].
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
        self.jacobian_batch(&self.pass_setup(), layer, pairs, false)
            .0
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
        let setup = self.pass_setup();
        let chunk_size = pool.even_chunk_size(pairs.len());
        pool.par_chunks(pairs, chunk_size, |chunk| {
            self.jacobian_batch(&setup, layer, chunk, false).0
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
        let setup = self.pass_setup();
        let chunk_size = pool.even_chunk_size(pairs.len());
        let chunks = pool.par_chunks(pairs, chunk_size, |chunk| {
            self.jacobian_batch(&setup, layer, chunk, true)
        });
        let mut jacobians = Vec::with_capacity(pairs.len());
        let mut outputs = Vec::with_capacity(pairs.len());
        for (chunk_jacobians, chunk_outputs) in chunks {
            jacobians.extend(chunk_jacobians);
            outputs.extend(chunk_outputs.to_rows());
        }
        (jacobians, outputs)
    }

    /// The shared batched Jacobian pass, on one chunk with the call's
    /// setup.  A batched forward pass records every layer's
    /// activation-channel pre-activations (they fix every linearisation of
    /// the backward pass) and the value-channel inputs of the repaired
    /// layer; the backward accumulation then runs per point, through the
    /// same kernels.  The value channel is propagated up to the repaired
    /// layer — beyond it the Jacobian depends on the activation channel
    /// alone — or, with `with_outputs`, through to the output, which is
    /// returned as the second element (empty otherwise).
    fn jacobian_batch(
        &self,
        setup: &PassSetup,
        layer: usize,
        pairs: &[(&[f64], &[f64])],
        with_outputs: bool,
    ) -> (Vec<Matrix>, FlatBatch) {
        assert!(
            layer < self.num_layers(),
            "layer index {layer} out of bounds"
        );
        let mut channels = Channels::of_pairs(self.input_dim(), pairs);
        let mut act_preacts: Vec<FlatBatch> = Vec::with_capacity(self.num_layers());
        let mut repaired_layer_inputs = FlatBatch::default();
        for i in 0..self.num_layers() {
            let (z_act, output) = self.layer_step(setup, i, &channels, i < layer || with_outputs);
            if i == layer {
                repaired_layer_inputs = channels.into_value();
            }
            channels = output;
            act_preacts.push(z_act);
        }
        let kernels = &setup.kernels;

        // Backward accumulation per point (see `value_param_jacobian`).
        let out_dim = self.output_dim();
        let jacobians = (0..pairs.len())
            .map(|p| {
                let mut m = Matrix::identity(out_dim);
                for j in (layer + 1..self.num_layers()).rev() {
                    let dz = kernels[j].vjp(act_preacts[j].row(p), &m);
                    m = self.value.layer(j).preact_input_vjp(&dz);
                }
                let dz = kernels[layer].vjp(act_preacts[layer].row(p), &m);
                self.value
                    .layer(layer)
                    .preact_param_vjp(&dz, repaired_layer_inputs.row(p))
            })
            .collect();
        let outputs = if with_outputs {
            channels.into_value()
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
        // this to keep the LP, and so the repair, deterministic) — on pairs
        // that feed the channels different inputs and on pairs that feed
        // both the same one, which the batched passes compute once for
        // both channels up to the repaired copy's layer 1.
        let mut rng = StdRng::seed_from_u64(41);
        let net = Network::mlp(&[3, 8, 6, 2], Activation::Relu, &mut rng);
        let ddnn = DecoupledNetwork::from_network(&net);
        let mut repaired = ddnn.clone();
        let delta: Vec<f64> = (0..repaired.value_layer(1).num_params())
            .map(|_| rng.gen_range(-0.5..0.5))
            .collect();
        repaired.apply_value_delta(1, &delta);
        let acts = random_points(&mut rng, 3, 13);
        let vals = random_points(&mut rng, 3, 13);
        let unequal: Vec<(&[f64], &[f64])> = acts
            .iter()
            .zip(&vals)
            .map(|(a, v)| (a.as_slice(), v.as_slice()))
            .collect();
        let equal: Vec<(&[f64], &[f64])> =
            acts.iter().map(|a| (a.as_slice(), a.as_slice())).collect();

        for (ddnn, pairs) in [
            (&ddnn, &unequal),
            (&ddnn, &equal),
            (&repaired, &equal),
            (&repaired, &unequal),
        ] {
            let expected_fwd: Vec<Vec<f64>> = pairs
                .iter()
                .map(|(a, v)| ddnn.forward_decoupled(a, v))
                .collect();
            assert_eq!(ddnn.forward_decoupled_batch(pairs), expected_fwd);

            for layer in 0..ddnn.num_layers() {
                let expected_jac: Vec<Matrix> = pairs
                    .iter()
                    .map(|(a, v)| ddnn.value_param_jacobian(layer, a, v))
                    .collect();
                assert_eq!(ddnn.value_param_jacobian_batch(layer, pairs), expected_jac);
                for threads in [1, 2, 4] {
                    let pool = prdnn_par::ThreadPool::new(threads);
                    assert_eq!(
                        ddnn.forward_decoupled_batch_in(&pool, pairs),
                        expected_fwd,
                        "forward, threads = {threads}"
                    );
                    assert_eq!(
                        ddnn.value_param_jacobian_batch_in(&pool, layer, pairs),
                        expected_jac,
                        "jacobian, layer {layer}, threads = {threads}"
                    );
                    // The repair loop's fused pass: both channels from one pass.
                    let (jacobians, outputs) =
                        ddnn.jacobians_and_outputs_batch_in(&pool, layer, pairs);
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
    }

    #[test]
    fn batched_channels_work_with_pooling_layers() {
        // Max pooling exercises the kernel's shared window table.
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

    #[test]
    fn shared_pass_keeps_the_bits_at_max_pool_ties_of_signed_zeros() {
        // A max pool fed both channels the same windows with ties of +0.0
        // and −0.0.  The linearisation copies each window's first strict
        // maximum; the fold with `f64::max` may resolve a tie of zeros
        // either way (IEEE maxNum leaves the sign open), so the channels
        // may split after the pool.  Either way the bits must be the
        // per-point reference's.
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
                vec![0.0, 0.0],
                Activation::Tanh,
            ),
            Layer::dense(
                Matrix::from_rows(&[vec![1.0, 1.0]]),
                vec![0.0],
                Activation::Identity,
            ),
        ]);
        // Windows are input entries (0, 1, 4, 5) and (2, 3, 6, 7).
        let inputs = [
            vec![-0.0, 0.0, 0.0, -0.0, -1.0, -2.0, -3.0, -0.5],
            vec![0.0, -0.0, -0.0, -0.0, -0.0, 0.0, 0.0, -4.0],
            vec![-1.0, 0.5, -2.0, 0.0, -0.0, 0.25, -0.0, -3.0],
        ];
        let pairs: Vec<(&[f64], &[f64])> = inputs
            .iter()
            .map(|x| (x.as_slice(), x.as_slice()))
            .collect();
        let mut repaired = DecoupledNetwork::from_network(&net);
        repaired.apply_value_delta(2, &[0.25, -0.5, 0.125]);
        for ddnn in [DecoupledNetwork::from_network(&net), repaired] {
            let expected: Vec<Vec<f64>> = inputs.iter().map(|x| ddnn.forward(x)).collect();
            assert_eq!(ddnn.forward_decoupled_batch(&pairs), expected);
            for layer in [1, 2] {
                let expected_jac: Vec<Matrix> = inputs
                    .iter()
                    .map(|x| ddnn.value_param_jacobian(layer, x, x))
                    .collect();
                assert_eq!(ddnn.value_param_jacobian_batch(layer, &pairs), expected_jac);
                let pool = prdnn_par::ThreadPool::new(2);
                let (jacobians, outputs) =
                    ddnn.jacobians_and_outputs_batch_in(&pool, layer, &pairs);
                assert_eq!(jacobians, expected_jac, "layer {layer}");
                assert_eq!(outputs, expected, "layer {layer}");
            }
        }
    }

    #[test]
    fn channels_must_share_kind_activation_and_geometry() {
        let mut rng = StdRng::seed_from_u64(3);
        let relu = Network::mlp(&[2, 3, 1], Activation::Relu, &mut rng);
        let mut tanh = relu.clone();
        if let Layer::Dense(d) = tanh.layer_mut(0) {
            d.activation = Activation::Tanh;
        }
        let pool = prdnn_nn::Pool2dLayer {
            channels: 1,
            in_height: 2,
            in_width: 2,
            pool_h: 2,
            pool_w: 2,
            stride: 1,
        };
        let max = Network::new(vec![Layer::MaxPool2d(pool.clone())]);
        let avg = Network::new(vec![Layer::AvgPool2d(pool.clone())]);
        let taller = Network::new(vec![Layer::MaxPool2d(prdnn_nn::Pool2dLayer {
            pool_w: 1,
            in_width: 1,
            in_height: 4,
            ..pool
        })]);
        let deeper = Network::mlp(&[2, 3, 3, 1], Activation::Relu, &mut rng);

        assert_eq!(
            DecoupledNetwork::try_new(relu.clone(), tanh.clone()),
            Err(ChannelMismatch::Layer { layer: 0 })
        );
        assert_eq!(
            DecoupledNetwork::try_new(max.clone(), avg.clone()),
            Err(ChannelMismatch::Layer { layer: 0 })
        );
        assert_eq!(
            DecoupledNetwork::try_new(max.clone(), taller),
            Err(ChannelMismatch::Layer { layer: 0 })
        );
        assert_eq!(
            DecoupledNetwork::try_new(relu.clone(), deeper),
            Err(ChannelMismatch::LayerCount {
                activation: 2,
                value: 3
            })
        );
        // Parameter values may differ: that is what a repair changes.
        let mut edited = relu.clone();
        edited.layer_mut(1).add_to_params(&[0.5; 4]);
        assert!(DecoupledNetwork::try_new(relu.clone(), edited).is_ok());

        for (activation, value) in [(relu, tanh), (max, avg)] {
            let panic = std::panic::catch_unwind(|| DecoupledNetwork::new(activation, value));
            assert!(panic.is_err(), "`new` must refuse what `try_new` refuses");
        }
    }

    #[test]
    fn classify_all_matches_per_point_classify_past_a_chunk_boundary() {
        // conv(3×3, pad 1) → max pool(2×2) → dense on 1×4×4 inputs, with
        // the conv's value channel moved off the activation channel.
        let mut rng = StdRng::seed_from_u64(61);
        let conv = Layer::Conv2d(prdnn_nn::Conv2dLayer {
            in_channels: 1,
            in_height: 4,
            in_width: 4,
            out_channels: 2,
            kernel_h: 3,
            kernel_w: 3,
            stride: 1,
            padding: 1,
            weights: (0..18).map(|_| rng.gen_range(-0.6..0.6)).collect(),
            bias: vec![0.1, -0.1],
            activation: Activation::Relu,
        });
        let pool = Layer::MaxPool2d(prdnn_nn::Pool2dLayer {
            channels: 2,
            in_height: 4,
            in_width: 4,
            pool_h: 2,
            pool_w: 2,
            stride: 2,
        });
        let dense = Layer::dense(
            Matrix::from_fn(3, 8, |_, _| rng.gen_range(-0.5..0.5)),
            vec![0.0; 3],
            Activation::Identity,
        );
        let mut ddnn = DecoupledNetwork::from_network(&Network::new(vec![conv, pool, dense]));
        let delta: Vec<f64> = (0..20).map(|_| rng.gen_range(-0.3..0.3)).collect();
        ddnn.apply_value_delta(0, &delta);
        let inputs = random_points(&mut rng, 16, 300);
        assert!(inputs.len() > prdnn_nn::CLASSIFY_CHUNK);
        let expected: Vec<usize> = inputs.iter().map(|x| ddnn.classify(x)).collect();
        assert_eq!(ddnn.classify_all(&inputs), expected);
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
