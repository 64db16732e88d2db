//! Determinism of the batched/pooled DDNN entry points: for random
//! networks and every thread count, `forward_decoupled_batch_in` and
//! `value_param_jacobian_batch_in` must return output that is
//! point-for-point **bit-identical** to the per-point serial calls.
//!
//! The batched paths route through the flat-buffer GEMM kernels while the
//! per-point paths use the matvec kernel; the kernels accumulate in the
//! same ascending-k order, so the two must agree to the last bit — and
//! parallelism may only change wall-clock time, never a single f64 bit.
//!
//! The repair loop reads both channels from one fused pass that shares the
//! batched Jacobian code (its bit-identity to the two entry points is a
//! unit proptest in `ddnn.rs`, since the pass is crate-private); here a
//! point repair, which runs that pass and encodes its LP from it, must
//! return the same bits on every thread count.

use prdnn_core::{repair_points_ddnn_in, DecoupledNetwork, PointSpec, RepairConfig};
use prdnn_nn::{Activation, Network};
use prdnn_par::ThreadPool;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Thread counts exercised: 1 (spawns no workers — the pooled serial
/// path), the boundary case, an odd count, and more threads than this
/// container has cores.
const THREAD_COUNTS: [usize; 4] = [1, 2, 3, 4];

fn random_ddnn(seed: u64, depth: usize, width: usize, in_dim: usize) -> DecoupledNetwork {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut sizes = vec![in_dim];
    sizes.extend(std::iter::repeat_n(width, depth));
    sizes.push(3);
    DecoupledNetwork::from_network(&Network::mlp(&sizes, Activation::Relu, &mut rng))
}

fn random_pairs(seed: u64, count: usize, dim: usize) -> Vec<(Vec<f64>, Vec<f64>)> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            let a: Vec<f64> = (0..dim).map(|_| rng.gen_range(-2.0..2.0)).collect();
            let v: Vec<f64> = (0..dim).map(|_| rng.gen_range(-2.0..2.0)).collect();
            (a, v)
        })
        .collect()
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
        let ddnn = random_ddnn(seed, depth, width, 3);
        let owned = random_pairs(seed ^ 0xD00D, batch, 3);
        let pairs: Vec<(&[f64], &[f64])> =
            owned.iter().map(|(a, v)| (a.as_slice(), v.as_slice())).collect();
        let expected: Vec<Vec<f64>> = pairs
            .iter()
            .map(|(a, v)| ddnn.forward_decoupled(a, v))
            .collect();
        prop_assert_eq!(&ddnn.forward_decoupled_batch(&pairs), &expected);
        for threads in THREAD_COUNTS {
            let pool = ThreadPool::new(threads);
            let pooled = ddnn.forward_decoupled_batch_in(&pool, &pairs);
            prop_assert_eq!(&pooled, &expected, "threads = {}", threads);
        }
    }

    #[test]
    fn value_param_jacobian_batch_is_bit_identical_to_per_point(
        seed in 0u64..10_000,
        depth in 1usize..4,
        width in 4usize..12,
        batch in 1usize..12,
    ) {
        let ddnn = random_ddnn(seed, depth, width, 3);
        let owned = random_pairs(seed ^ 0xBEEF, batch, 3);
        let pairs: Vec<(&[f64], &[f64])> =
            owned.iter().map(|(a, v)| (a.as_slice(), v.as_slice())).collect();
        for layer in 0..=depth {
            let expected: Vec<_> = pairs
                .iter()
                .map(|(a, v)| ddnn.value_param_jacobian(layer, a, v))
                .collect();
            prop_assert_eq!(&ddnn.value_param_jacobian_batch(layer, &pairs), &expected);
            for threads in THREAD_COUNTS {
                let pool = ThreadPool::new(threads);
                let pooled = ddnn.value_param_jacobian_batch_in(&pool, layer, &pairs);
                prop_assert_eq!(&pooled, &expected, "layer {}, threads = {}", layer, threads);
            }
        }
    }

    #[test]
    fn point_repair_is_bit_identical_for_every_thread_count(
        seed in 0u64..10_000,
        depth in 1usize..3,
        width in 4usize..10,
        batch in 1usize..8,
    ) {
        let ddnn = random_ddnn(seed, depth, width, 3);
        let points: Vec<Vec<f64>> =
            random_pairs(seed ^ 0xFACE, batch, 3).into_iter().map(|(a, _)| a).collect();
        let labels: Vec<usize> = (0..batch).map(|i| (seed as usize + i) % 3).collect();
        let spec = PointSpec::from_classification(&points, &labels, 3, 0.1);
        for layer in 0..=depth {
            let repair = |threads: usize| {
                repair_points_ddnn_in(&ThreadPool::new(threads), &ddnn, layer, &spec, &RepairConfig::default())
                    .map(|outcome| {
                        let bits: Vec<u64> = outcome.delta.iter().map(|d| d.to_bits()).collect();
                        (bits, outcome.stats.num_constraints, outcome.stats.lp_pivots)
                    })
            };
            let serial = repair(1);
            for threads in [2, 4] {
                prop_assert_eq!(&repair(threads), &serial, "layer {}, threads = {}", layer, threads);
            }
        }
    }
}
