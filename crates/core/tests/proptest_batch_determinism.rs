//! Determinism of the batched/pooled DDNN entry points: for random
//! networks and every thread count, `forward_decoupled_batch_in` and
//! `value_param_jacobian_batch_in` must return output that is
//! point-for-point **bit-identical** to the per-point serial calls.
//!
//! The batched paths route through the flat-buffer GEMM kernels while the
//! per-point paths use the matvec kernel (dense layers) or a batch of one
//! through the same GEMM, below its blocking threshold (conv layers); the
//! kernels accumulate in the same ascending-k order, so the two must agree
//! to the last bit — and parallelism may only change wall-clock time,
//! never a single f64 bit.  Both MLPs and small CNNs (conv → maxpool →
//! conv → dense) are drawn, with value-channel deltas on some layers, and
//! fed batches whose pairs feed both channels the same input, batches whose
//! pairs all differ, and mixed batches: the batched passes compute a layer
//! once for both channels while inputs, parameters and the previous
//! layer's outputs agree bit for bit, and every way that sharing ends must
//! keep the per-point bits.
//!
//! The repair loop reads both channels from one fused pass that shares the
//! batched Jacobian code (its bit-identity to the two entry points is a
//! unit proptest in `ddnn.rs`, since the pass is crate-private); here a
//! point repair, which runs that pass and encodes its LP from it, must
//! return the same bits on every thread count.

use prdnn_core::{repair_points_ddnn_in, DecoupledNetwork, PointSpec, RepairConfig};
use prdnn_nn::{Activation, Conv2dLayer, Layer, Network, Pool2dLayer};
use prdnn_par::ThreadPool;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Thread counts exercised: 1 (spawns no workers — the pooled serial
/// path), the boundary case, an odd count, and more threads than this
/// container has cores.
const THREAD_COUNTS: [usize; 4] = [1, 2, 3, 4];

/// An MLP whose hidden activation is ReLU, LeakyReLU, HardTanh or Tanh.
/// Tanh and its linearisation at a centre can differ in the last bit, so
/// a Tanh layer ends a shared prefix.
fn random_ddnn(seed: u64, depth: usize, width: usize, in_dim: usize) -> DecoupledNetwork {
    let mut rng = StdRng::seed_from_u64(seed);
    let activations = [
        Activation::Relu,
        Activation::LeakyRelu { alpha: 0.1 },
        Activation::HardTanh,
        Activation::Tanh,
    ];
    let activation = activations[rng.gen_range(0..activations.len())];
    let mut sizes = vec![in_dim];
    sizes.extend(std::iter::repeat_n(width, depth));
    sizes.push(3);
    DecoupledNetwork::from_network(&Network::mlp(&sizes, activation, &mut rng))
}

/// `ddnn` with value-channel deltas on 0–2 random layers with parameters;
/// one delta in four is all zeros.
fn perturbed(mut ddnn: DecoupledNetwork, seed: u64) -> DecoupledNetwork {
    let mut rng = StdRng::seed_from_u64(seed);
    let layers = ddnn.repairable_layers();
    for _ in 0..rng.gen_range(0..3) {
        let layer = layers[rng.gen_range(0..layers.len())];
        let zero = rng.gen_range(0..4) == 0;
        let delta: Vec<f64> = (0..ddnn.value_layer(layer).num_params())
            .map(|_| if zero { 0.0 } else { rng.gen_range(-0.3..0.3) })
            .collect();
        ddnn.apply_value_delta(layer, &delta);
    }
    ddnn
}

/// conv(3×3, pad 1) → maxpool(2×2) → conv(3×3, pad 1) → dense(→ 3) on
/// `in_c × side × side` inputs (`side` even).
fn random_cnn(seed: u64, in_c: usize, side: usize, c1: usize, c2: usize) -> DecoupledNetwork {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut conv = |in_c: usize, out_c: usize, side: usize| {
        Layer::Conv2d(Conv2dLayer {
            in_channels: in_c,
            in_height: side,
            in_width: side,
            out_channels: out_c,
            kernel_h: 3,
            kernel_w: 3,
            stride: 1,
            padding: 1,
            weights: (0..out_c * in_c * 9)
                .map(|_| rng.gen_range(-0.6..0.6))
                .collect(),
            bias: (0..out_c).map(|_| rng.gen_range(-0.2..0.2)).collect(),
            activation: Activation::Relu,
        })
    };
    let (conv1, conv2) = (conv(in_c, c1, side), conv(c1, c2, side / 2));
    let pool = Layer::MaxPool2d(Pool2dLayer {
        channels: c1,
        in_height: side,
        in_width: side,
        pool_h: 2,
        pool_w: 2,
        stride: 2,
    });
    let flat = c2 * (side / 2) * (side / 2);
    let dense = Layer::dense(
        prdnn_linalg::Matrix::from_fn(3, flat, |_, _| rng.gen_range(-0.5..0.5)),
        vec![0.1, -0.1, 0.0],
        Activation::Identity,
    );
    DecoupledNetwork::from_network(&Network::new(vec![conv1, pool, conv2, dense]))
}

/// `count` `(act, val)` input pairs with entries in [−2, 2), one in eight
/// of them exactly +0.0 or −0.0.  A random run of `differing` rows feeds
/// the value channel an input of its own; the other rows feed both
/// channels the same input.
fn random_pairs(
    seed: u64,
    count: usize,
    dim: usize,
    differing: usize,
) -> Vec<(Vec<f64>, Vec<f64>)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let input = |rng: &mut StdRng| -> Vec<f64> {
        (0..dim)
            .map(|_| match rng.gen_range(0..16) {
                0 => 0.0,
                1 => -0.0,
                _ => rng.gen_range(-2.0..2.0),
            })
            .collect()
    };
    let first = rng.gen_range(0..=count - differing);
    (0..count)
        .map(|k| {
            let a = input(&mut rng);
            let v = if (first..first + differing).contains(&k) {
                input(&mut rng)
            } else {
                a.clone()
            };
            (a, v)
        })
        .collect()
}

/// The row counts of [`random_pairs`] that differ, for a batch of
/// `count`: none, one (a mixed batch), all.
fn differing_rows(count: usize) -> [usize; 3] {
    [0, 1, count]
}

fn borrowed(owned: &[(Vec<f64>, Vec<f64>)]) -> Vec<(&[f64], &[f64])> {
    owned
        .iter()
        .map(|(a, v)| (a.as_slice(), v.as_slice()))
        .collect()
}

fn check_forward_batch(ddnn: &DecoupledNetwork, pairs: &[(&[f64], &[f64])]) {
    let expected: Vec<Vec<f64>> = pairs
        .iter()
        .map(|(a, v)| ddnn.forward_decoupled(a, v))
        .collect();
    assert_eq!(&ddnn.forward_decoupled_batch(pairs), &expected);
    for threads in THREAD_COUNTS {
        let pool = ThreadPool::new(threads);
        let pooled = ddnn.forward_decoupled_batch_in(&pool, pairs);
        assert_eq!(&pooled, &expected, "threads = {}", threads);
    }
}

fn check_jacobian_batch(ddnn: &DecoupledNetwork, layers: &[usize], pairs: &[(&[f64], &[f64])]) {
    for &layer in layers {
        let expected: Vec<_> = pairs
            .iter()
            .map(|(a, v)| ddnn.value_param_jacobian(layer, a, v))
            .collect();
        assert_eq!(&ddnn.value_param_jacobian_batch(layer, pairs), &expected);
        for threads in THREAD_COUNTS {
            let pool = ThreadPool::new(threads);
            let pooled = ddnn.value_param_jacobian_batch_in(&pool, layer, pairs);
            assert_eq!(&pooled, &expected, "layer {}, threads = {}", layer, threads);
        }
    }
}

fn check_point_repair(ddnn: &DecoupledNetwork, layers: &[usize], points: &[Vec<f64>], seed: u64) {
    let labels: Vec<usize> = (0..points.len()).map(|i| (seed as usize + i) % 3).collect();
    let spec = PointSpec::from_classification(points, &labels, 3, 0.1);
    for &layer in layers {
        let repair = |threads: usize| {
            repair_points_ddnn_in(
                &ThreadPool::new(threads),
                ddnn,
                layer,
                &spec,
                &RepairConfig::default(),
            )
            .map(|outcome| {
                let bits: Vec<u64> = outcome.delta.iter().map(|d| d.to_bits()).collect();
                (bits, outcome.stats.num_constraints, outcome.stats.lp_pivots)
            })
        };
        let serial = repair(1);
        for threads in [2, 3, 4] {
            assert_eq!(
                &repair(threads),
                &serial,
                "layer {}, threads = {}",
                layer,
                threads
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn forward_decoupled_batch_is_bit_identical_to_per_point(
        seed in 0u64..10_000,
        depth in 1usize..4,
        width in 4usize..14,
        batch in 1usize..20,
    ) {
        let ddnn = perturbed(random_ddnn(seed, depth, width, 3), seed);
        for differing in differing_rows(batch) {
            check_forward_batch(&ddnn, &borrowed(&random_pairs(seed ^ 0xD00D, batch, 3, differing)));
        }
    }

    #[test]
    fn value_param_jacobian_batch_is_bit_identical_to_per_point(
        seed in 0u64..10_000,
        depth in 1usize..4,
        width in 4usize..12,
        batch in 1usize..12,
    ) {
        let ddnn = perturbed(random_ddnn(seed, depth, width, 3), seed);
        let layers: Vec<usize> = (0..=depth).collect();
        for differing in differing_rows(batch) {
            let pairs = random_pairs(seed ^ 0xBEEF, batch, 3, differing);
            check_jacobian_batch(&ddnn, &layers, &borrowed(&pairs));
        }
    }

    #[test]
    fn point_repair_is_bit_identical_for_every_thread_count(
        seed in 0u64..10_000,
        depth in 1usize..3,
        width in 4usize..10,
        batch in 1usize..8,
    ) {
        let ddnn = perturbed(random_ddnn(seed, depth, width, 3), seed);
        let points: Vec<Vec<f64>> =
            random_pairs(seed ^ 0xFACE, batch, 3, 0).into_iter().map(|(a, _)| a).collect();
        let layers: Vec<usize> = (0..=depth).collect();
        check_point_repair(&ddnn, &layers, &points, seed);
    }

    /// The CNN forms of the three properties above.  Layer 0 is a conv
    /// layer with another conv layer above it, layer 2 the upper conv
    /// layer, layer 3 the dense head.
    #[test]
    fn cnn_batches_and_repairs_are_bit_identical_to_per_point(
        seed in 0u64..10_000,
        in_c in 1usize..3,
        half_side in 2usize..4,
        channels in (1usize..5, 1usize..5),
        batch in 1usize..9,
    ) {
        let ddnn = perturbed(random_cnn(seed, in_c, 2 * half_side, channels.0, channels.1), seed);
        for differing in differing_rows(batch) {
            let pairs = random_pairs(seed ^ 0xC0DE, batch, ddnn.input_dim(), differing);
            check_forward_batch(&ddnn, &borrowed(&pairs));
            check_jacobian_batch(&ddnn, &[0, 2, 3], &borrowed(&pairs));
        }
        let points: Vec<Vec<f64>> = random_pairs(seed ^ 0xC0DE, batch, ddnn.input_dim(), 0)
            .into_iter()
            .map(|(a, _)| a)
            .collect();
        check_point_repair(&ddnn, &[0, 2], &points, seed);
    }
}
