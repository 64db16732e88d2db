//! Feed-forward networks: composition of layers, traces, activation patterns.

use crate::activation::Activation;
use crate::batch::FlatBatch;
use crate::layer::Layer;
use prdnn_linalg::{vector, Matrix};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A feed-forward deep neural network: an ordered list of layers
/// (Definition 2.1/2.2).
///
/// # Example
///
/// ```
/// use prdnn_nn::{Activation, Layer, Network};
/// use prdnn_linalg::Matrix;
///
/// // The paper's running example N1 (Figure 3a).
/// let n1 = Network::new(vec![
///     Layer::dense(
///         Matrix::from_rows(&[vec![-1.0], vec![1.0], vec![1.0]]),
///         vec![0.0, 0.0, -1.0],
///         Activation::Relu,
///     ),
///     Layer::dense(
///         Matrix::from_rows(&[vec![-1.0, -1.0, 1.0]]),
///         vec![0.0],
///         Activation::Identity,
///     ),
/// ]);
/// assert_eq!(n1.forward(&[0.5]), vec![-0.5]);
/// assert_eq!(n1.forward(&[1.5]), vec![-1.0]);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Network {
    layers: Vec<Layer>,
}

/// All intermediate values from a forward pass: per-layer pre-activations
/// and post-activation outputs.
#[derive(Debug, Clone, PartialEq)]
pub struct ForwardTrace {
    /// The network input.
    pub input: Vec<f64>,
    /// Pre-activation `z^(i)` of every layer.
    pub preactivations: Vec<Vec<f64>>,
    /// Post-activation output `v^(i)` of every layer.
    pub outputs: Vec<Vec<f64>>,
}

impl ForwardTrace {
    /// The final network output.
    pub fn output(&self) -> &[f64] {
        self.outputs
            .last()
            .map(|v| v.as_slice())
            .unwrap_or(&self.input)
    }
}

/// Inputs per batch when [`Network::classify_all`] (and through it
/// [`Network::accuracy`] and [`crate::Dataset::misclassified`]) classifies a
/// dataset: bounds the batch buffers, and changes no bit.
pub const CLASSIFY_CHUNK: usize = 256;

/// The activation pattern of a network at a point (Definition 2.5): for each
/// layer, the linear piece each unit (or pooling window) falls into.
pub type ActivationPattern = Vec<Vec<i8>>;

impl Network {
    /// Creates a network from an ordered list of layers.
    ///
    /// # Panics
    ///
    /// Panics if `layers` is empty or if consecutive layer dimensions do not
    /// chain (`layer[i].output_dim() != layer[i+1].input_dim()`).
    pub fn new(layers: Vec<Layer>) -> Self {
        assert!(!layers.is_empty(), "network must have at least one layer");
        for i in 0..layers.len() - 1 {
            assert_eq!(
                layers[i].output_dim(),
                layers[i + 1].input_dim(),
                "layer {} output dim {} does not match layer {} input dim {}",
                i,
                layers[i].output_dim(),
                i + 1,
                layers[i + 1].input_dim()
            );
        }
        Network { layers }
    }

    /// Builds a fully-connected network ("MLP") with the given layer sizes,
    /// hidden activation, and identity output layer, using Xavier-style
    /// random initialisation.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two sizes are given.
    pub fn mlp(sizes: &[usize], hidden: Activation, rng: &mut impl Rng) -> Self {
        assert!(
            sizes.len() >= 2,
            "mlp needs at least input and output sizes"
        );
        let mut layers = Vec::with_capacity(sizes.len() - 1);
        for i in 0..sizes.len() - 1 {
            let (fan_in, fan_out) = (sizes[i], sizes[i + 1]);
            let bound = (6.0 / (fan_in + fan_out) as f64).sqrt();
            let weights = Matrix::from_fn(fan_out, fan_in, |_, _| rng.gen_range(-bound..bound));
            let bias = vec![0.0; fan_out];
            let activation = if i + 1 == sizes.len() - 1 {
                Activation::Identity
            } else {
                hidden
            };
            layers.push(Layer::dense(weights, bias, activation));
        }
        Network::new(layers)
    }

    /// The network's layers.
    pub fn layers(&self) -> &[Layer] {
        &self.layers
    }

    /// Mutable access to a single layer.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub fn layer_mut(&mut self, index: usize) -> &mut Layer {
        &mut self.layers[index]
    }

    /// A single layer.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub fn layer(&self, index: usize) -> &Layer {
        &self.layers[index]
    }

    /// Number of layers.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Network input dimension.
    pub fn input_dim(&self) -> usize {
        self.layers[0].input_dim()
    }

    /// Network output dimension.
    pub fn output_dim(&self) -> usize {
        self.layers.last().unwrap().output_dim()
    }

    /// Total number of parameters across all layers.
    pub fn num_params(&self) -> usize {
        self.layers.iter().map(Layer::num_params).sum()
    }

    /// Indices of layers that have parameters and can therefore be repaired
    /// or fine-tuned (dense and convolutional layers).
    pub fn repairable_layers(&self) -> Vec<usize> {
        (0..self.layers.len())
            .filter(|&i| self.layers[i].num_params() > 0)
            .collect()
    }

    /// Evaluates the network on `input` (Definition 2.2).
    ///
    /// # Panics
    ///
    /// Panics if `input.len() != self.input_dim()`.
    pub fn forward(&self, input: &[f64]) -> Vec<f64> {
        let mut v = input.to_vec();
        for layer in &self.layers {
            v = layer.forward(&v);
        }
        v
    }

    /// Evaluates the network on a batch of inputs, layer by layer.
    ///
    /// Equivalent to mapping [`Self::forward`] over `inputs`, but pushes the
    /// whole batch through one layer at a time so per-layer setup (e.g.
    /// pooling window enumeration) is paid once per layer, not once per
    /// input.
    pub fn forward_batch(&self, inputs: &[Vec<f64>]) -> Vec<Vec<f64>> {
        self.forward_batch_flat(&FlatBatch::from_rows(self.input_dim(), inputs))
            .to_rows()
    }

    /// [`Self::forward_batch`] on a batch-major flat buffer: the batch stays
    /// in one contiguous allocation from input to output, and every dense
    /// layer is a single blocked GEMM call.  Bit-identical to mapping
    /// [`Self::forward`] (the GEMM shares the per-point accumulation order).
    pub fn forward_batch_flat(&self, inputs: &FlatBatch) -> FlatBatch {
        let (first, rest) = self
            .layers
            .split_first()
            .expect("network has at least one layer");
        let mut batch = first.forward_batch_flat(inputs);
        for layer in rest {
            batch = layer.forward_batch_flat(&batch);
        }
        batch
    }

    /// [`Self::forward_batch`] fanned across a thread pool.
    ///
    /// The batch is cut into contiguous chunks, each pushed through the
    /// whole network on a pool worker; chunk results are spliced back in
    /// input order, so the output is identical to [`Self::forward_batch`]
    /// for every thread count (no per-input arithmetic crosses a chunk
    /// boundary).
    pub fn forward_batch_in(
        &self,
        pool: &prdnn_par::ThreadPool,
        inputs: &[Vec<f64>],
    ) -> Vec<Vec<f64>> {
        let chunk_size = pool.even_chunk_size(inputs.len());
        pool.par_chunks(inputs, chunk_size, |chunk| self.forward_batch(chunk))
            .into_iter()
            .flatten()
            .collect()
    }

    /// Evaluates the network, returning every intermediate value.
    pub fn forward_trace(&self, input: &[f64]) -> ForwardTrace {
        let mut preactivations = Vec::with_capacity(self.layers.len());
        let mut outputs = Vec::with_capacity(self.layers.len());
        let mut v = input.to_vec();
        for layer in &self.layers {
            let z = layer.preactivation(&v);
            v = layer.activate(&z);
            preactivations.push(z);
            outputs.push(v.clone());
        }
        ForwardTrace {
            input: input.to_vec(),
            preactivations,
            outputs,
        }
    }

    /// Predicted class label: `argmax` of the output logits.
    pub fn classify(&self, input: &[f64]) -> usize {
        vector::argmax(&self.forward(input))
    }

    /// [`Self::classify`] of every input, in order, pushed through the
    /// network [`CLASSIFY_CHUNK`] inputs at a time by
    /// [`Self::forward_batch_flat`], whose rows are [`Self::forward`]'s.
    pub fn classify_all(&self, inputs: &[Vec<f64>]) -> Vec<usize> {
        let mut classes = Vec::with_capacity(inputs.len());
        for chunk in inputs.chunks(CLASSIFY_CHUNK) {
            let outputs = self.forward_batch_flat(&FlatBatch::from_rows(self.input_dim(), chunk));
            classes.extend(outputs.rows().map(vector::argmax));
        }
        classes
    }

    /// Fraction of `(input, label)` pairs classified correctly.
    ///
    /// Returns 1.0 for an empty dataset.
    pub fn accuracy(&self, inputs: &[Vec<f64>], labels: &[usize]) -> f64 {
        assert_eq!(
            inputs.len(),
            labels.len(),
            "accuracy: inputs/labels length mismatch"
        );
        if inputs.is_empty() {
            return 1.0;
        }
        let correct = self
            .classify_all(inputs)
            .iter()
            .zip(labels)
            .filter(|(class, label)| class == label)
            .count();
        correct as f64 / inputs.len() as f64
    }

    /// The activation pattern of the network at `input` (Definition 2.5).
    pub fn activation_pattern(&self, input: &[f64]) -> ActivationPattern {
        let trace = self.forward_trace(input);
        self.layers
            .iter()
            .zip(&trace.preactivations)
            .map(|(layer, z)| layer.activation_pattern(z))
            .collect()
    }

    /// Whether every layer of the network is piecewise linear
    /// (required by polytope repair, §6).
    pub fn is_piecewise_linear(&self) -> bool {
        self.layers.iter().all(Layer::is_piecewise_linear)
    }

    /// Flattened parameters of every layer, concatenated in layer order.
    pub fn params(&self) -> Vec<f64> {
        let mut p = Vec::with_capacity(self.num_params());
        for layer in &self.layers {
            p.extend(layer.params());
        }
        p
    }

    /// Sets all parameters from a flat vector in [`Self::params`] order.
    ///
    /// # Panics
    ///
    /// Panics if `params.len() != self.num_params()`.
    pub fn set_params(&mut self, params: &[f64]) {
        assert_eq!(params.len(), self.num_params(), "set_params: wrong length");
        let mut offset = 0;
        for layer in &mut self.layers {
            let n = layer.num_params();
            layer.set_params(&params[offset..offset + n]);
            offset += n;
        }
    }

    /// Largest absolute difference between this network's parameters and
    /// `other`'s (used to measure repair size across whole networks).
    ///
    /// # Panics
    ///
    /// Panics if the two networks have different parameter counts.
    pub fn param_linf_distance(&self, other: &Network) -> f64 {
        vector::linf_distance(&self.params(), &other.params())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's running example N1 (Figure 3a): one input, three ReLU
    /// hidden nodes, one output.
    pub(crate) fn paper_n1() -> Network {
        Network::new(vec![
            Layer::dense(
                Matrix::from_rows(&[vec![-1.0], vec![1.0], vec![1.0]]),
                vec![0.0, 0.0, -1.0],
                Activation::Relu,
            ),
            Layer::dense(
                Matrix::from_rows(&[vec![-1.0, -1.0, 1.0]]),
                vec![0.0],
                Activation::Identity,
            ),
        ])
    }

    #[test]
    fn n1_matches_paper_values() {
        let n1 = paper_n1();
        // Figure 3(c): N1(0.5) = -0.5 and N1(1.5) = -1 (§3.1).
        assert!((n1.forward(&[0.5])[0] + 0.5).abs() < 1e-12);
        assert!((n1.forward(&[1.5])[0] + 1.0).abs() < 1e-12);
        // Endpoint checks of the three linear regions: on [-1, 0] the output
        // follows y = x (only h1 is active and its output weight is -1).
        assert!((n1.forward(&[-1.0])[0] + 1.0).abs() < 1e-12);
        assert!((n1.forward(&[0.0])[0] - 0.0).abs() < 1e-12);
        assert!((n1.forward(&[1.0])[0] + 1.0).abs() < 1e-12);
        assert!((n1.forward(&[2.0])[0] + 1.0).abs() < 1e-12);
    }

    #[test]
    fn n1_activation_patterns_match_paper_regions() {
        let n1 = paper_n1();
        // Region [-1, 0]: only h1 active; region [0, 1]: only h2; region
        // [1, 2]: h2 and h3 active.
        assert_eq!(n1.activation_pattern(&[-0.5])[0], vec![1, 0, 0]);
        assert_eq!(n1.activation_pattern(&[0.5])[0], vec![0, 1, 0]);
        assert_eq!(n1.activation_pattern(&[1.5])[0], vec![0, 1, 1]);
    }

    #[test]
    fn trace_is_consistent_with_forward() {
        let n1 = paper_n1();
        let trace = n1.forward_trace(&[0.7]);
        assert_eq!(trace.output(), n1.forward(&[0.7]).as_slice());
        assert_eq!(trace.preactivations.len(), 2);
        assert_eq!(trace.outputs.len(), 2);
    }

    #[test]
    fn mlp_builder_shapes() {
        let mut rng = rand::rngs::mock::StepRng::new(42, 13);
        let net = Network::mlp(&[4, 8, 3], Activation::Relu, &mut rng);
        assert_eq!(net.num_layers(), 2);
        assert_eq!(net.input_dim(), 4);
        assert_eq!(net.output_dim(), 3);
        assert_eq!(net.layer(0).activation(), Some(Activation::Relu));
        assert_eq!(net.layer(1).activation(), Some(Activation::Identity));
        assert_eq!(net.num_params(), 4 * 8 + 8 + 8 * 3 + 3);
        assert!(net.is_piecewise_linear());
    }

    #[test]
    fn forward_batch_matches_forward() {
        let mut rng = rand::rngs::mock::StepRng::new(7, 11);
        let net = Network::mlp(&[3, 6, 4], Activation::Relu, &mut rng);
        let batch: Vec<Vec<f64>> = (0..6)
            .map(|k| (0..3).map(|i| (k + i) as f64 * 0.4 - 1.0).collect())
            .collect();
        let outs = net.forward_batch(&batch);
        assert_eq!(outs.len(), batch.len());
        for (input, out) in batch.iter().zip(&outs) {
            assert_eq!(*out, net.forward(input));
        }
        assert!(net.forward_batch(&[]).is_empty());
    }

    #[test]
    fn forward_batch_in_is_bit_identical_for_every_thread_count() {
        let mut rng = rand::rngs::mock::StepRng::new(3, 17);
        let net = Network::mlp(&[4, 9, 7, 3], Activation::Relu, &mut rng);
        let batch: Vec<Vec<f64>> = (0..37)
            .map(|k| (0..4).map(|i| ((k * 4 + i) as f64).sin()).collect())
            .collect();
        let serial = net.forward_batch(&batch);
        for threads in [1, 2, 4] {
            let pool = prdnn_par::ThreadPool::new(threads);
            assert_eq!(net.forward_batch_in(&pool, &batch), serial);
            assert!(net.forward_batch_in(&pool, &[]).is_empty());
        }
    }

    #[test]
    fn params_roundtrip() {
        let n1 = paper_n1();
        let mut other = paper_n1();
        let p = n1.params();
        assert_eq!(p.len(), n1.num_params());
        other.set_params(&p);
        assert_eq!(other, n1);
        assert_eq!(n1.param_linf_distance(&other), 0.0);
        // Perturb one parameter.
        let mut perturbed = p.clone();
        perturbed[0] += 0.25;
        other.set_params(&perturbed);
        assert!((n1.param_linf_distance(&other) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn accuracy_counts_correct_labels() {
        let n1 = paper_n1();
        // Single output network: argmax is always 0, so label 0 is "correct".
        let inputs = vec![vec![0.1], vec![0.4]];
        assert_eq!(n1.accuracy(&inputs, &[0, 0]), 1.0);
        assert_eq!(n1.accuracy(&[], &[]), 1.0);
    }

    #[test]
    #[should_panic]
    fn mismatched_layer_dims_panic() {
        Network::new(vec![
            Layer::dense(Matrix::identity(2), vec![0.0, 0.0], Activation::Relu),
            Layer::dense(Matrix::identity(3), vec![0.0; 3], Activation::Identity),
        ]);
    }
}
