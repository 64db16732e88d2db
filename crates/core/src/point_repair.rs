//! Provable Point Repair (Algorithm 1, §5).

use crate::ddnn::DecoupledNetwork;
use crate::repair::{
    repair_key_points, validate, KeyPoint, RepairConfig, RepairError, RepairOutcome,
};
use crate::spec::PointSpec;
use prdnn_nn::Network;
use std::time::Duration;

/// Provable Point Repair of a standard DNN (Algorithm 1).
///
/// Converts `net` into the equivalent DDNN (Theorem 4.4), encodes the
/// specification `A_x N'(x) ≤ b_x` for every point `x ∈ X` as a linear
/// program over the parameter delta `Δ` of value-channel layer `layer`,
/// solves for the norm-minimal `Δ`, and returns the repaired DDNN.
///
/// If the returned repair is `Ok`, the repaired network is guaranteed to
/// satisfy the specification (Theorem 5.4) and `Δ` is a minimal layer repair
/// with respect to `config.norm`.
///
/// # Errors
///
/// * [`RepairError::Infeasible`] — no single-layer repair of `layer` exists
///   (the algorithm's `⊥` output).
/// * [`RepairError::LayerHasNoParameters`] / [`RepairError::LayerOutOfRange`]
///   — invalid choice of repair layer.
/// * [`RepairError::SpecDimensionMismatch`] / [`RepairError::EmptySpec`] —
///   malformed specification.
/// * [`RepairError::LpIterationLimit`] — the LP solver ran out of iterations.
/// * [`RepairError::LpNumerical`] — the LP solver broke down numerically.
///
/// # Example
///
/// ```
/// use prdnn_core::{repair_points, OutputPolytope, PointSpec, RepairConfig};
/// use prdnn_linalg::Matrix;
/// use prdnn_nn::{Activation, Layer, Network};
///
/// # fn main() -> Result<(), prdnn_core::RepairError> {
/// // The paper's running example N1 and Equation 2.
/// let n1 = Network::new(vec![
///     Layer::dense(Matrix::from_rows(&[vec![-1.0], vec![1.0], vec![1.0]]),
///                  vec![0.0, 0.0, -1.0], Activation::Relu),
///     Layer::dense(Matrix::from_rows(&[vec![-1.0, -1.0, 1.0]]), vec![0.0], Activation::Identity),
/// ]);
/// let mut spec = PointSpec::new();
/// spec.push(vec![0.5], OutputPolytope::scalar_interval(-1.0, -0.8));
/// spec.push(vec![1.5], OutputPolytope::scalar_interval(-0.2, 0.0));
/// let outcome = repair_points(&n1, 0, &spec, &RepairConfig::default())?;
/// assert!(spec.is_satisfied_by(|x| outcome.repaired.forward(x), 1e-6));
/// # Ok(())
/// # }
/// ```
pub fn repair_points(
    net: &Network,
    layer: usize,
    spec: &PointSpec,
    config: &RepairConfig,
) -> Result<RepairOutcome, RepairError> {
    let ddnn = DecoupledNetwork::from_network(net);
    repair_points_ddnn(&ddnn, layer, spec, config)
}

/// Provable Point Repair starting from an existing DDNN.
///
/// This allows repairs to be chained: the result of one repair (a DDNN) can
/// be repaired again on a different layer or specification.
///
/// # Errors
///
/// See [`repair_points`].
pub fn repair_points_ddnn(
    ddnn: &DecoupledNetwork,
    layer: usize,
    spec: &PointSpec,
    config: &RepairConfig,
) -> Result<RepairOutcome, RepairError> {
    let pool = prdnn_par::pool_for(config.threads);
    repair_points_ddnn_in(&pool, ddnn, layer, spec, config)
}

/// [`repair_points_ddnn`] on an explicit thread pool.
///
/// Long-lived callers that run many repairs (the serving layer's job
/// workers) resolve their pool once and pass it here, instead of paying a
/// `pool_for` resolution — and possibly a transient pool spawn — per
/// repair.  `config.threads` is ignored in favour of `pool`.
///
/// # Errors
///
/// See [`repair_points`].
pub fn repair_points_ddnn_in(
    pool: &prdnn_par::ThreadPool,
    ddnn: &DecoupledNetwork,
    layer: usize,
    spec: &PointSpec,
    config: &RepairConfig,
) -> Result<RepairOutcome, RepairError> {
    validate(ddnn, layer, &spec.constraints)?;
    let key_points: Vec<KeyPoint> = spec
        .points
        .iter()
        .zip(&spec.constraints)
        .map(|(point, constraint)| KeyPoint::pointwise(point.clone(), constraint.clone()))
        .collect();
    repair_key_points(ddnn, layer, &key_points, config, pool, Duration::ZERO)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper_example;
    use crate::repair::RepairNorm;
    use crate::spec::{OutputPolytope, PointSpec};
    use prdnn_nn::Activation;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn running_example_equation_2_is_repaired() {
        // §3.1: repair N1 so that N'(0.5) ∈ [-1, -0.8] and N'(1.5) ∈ [-0.2, 0].
        let n1 = paper_example::n1();
        let spec = paper_example::equation_2_spec();
        let outcome =
            repair_points(&n1, 0, &spec, &RepairConfig::default()).expect("repair must succeed");
        assert!(spec.is_satisfied_by(|x| outcome.repaired.forward(x), 1e-6));
        // The paper's hand-derived repair (Δ2 = 0.6, Δ3 = 1.13, ℓ1 ≈ 1.733)
        // is feasible here, so the minimal repair cannot be larger.
        assert!(outcome.stats.delta_l1 <= 1.7334 + 1e-6);
        assert!(outcome.stats.delta_l1 > 0.0);
        // Repairing the value channel must not move the linear regions
        // (Theorem 4.6): activation patterns are unchanged.
        for &x in &[-0.5, 0.25, 0.75, 1.25, 1.75] {
            assert_eq!(
                outcome
                    .repaired
                    .activation_network()
                    .activation_pattern(&[x]),
                n1.activation_pattern(&[x])
            );
        }
    }

    #[test]
    fn repairing_the_output_layer_also_works() {
        let n1 = paper_example::n1();
        let spec = paper_example::equation_2_spec();
        let outcome = repair_points(&n1, 1, &spec, &RepairConfig::default())
            .expect("output-layer repair must succeed");
        assert!(spec.is_satisfied_by(|x| outcome.repaired.forward(x), 1e-6));
    }

    #[test]
    fn linf_norm_repair_satisfies_spec_with_smaller_max_change() {
        let n1 = paper_example::n1();
        let spec = paper_example::equation_2_spec();
        let l1 = repair_points(&n1, 0, &spec, &RepairConfig::default()).unwrap();
        let linf = repair_points(
            &n1,
            0,
            &spec,
            &RepairConfig {
                norm: RepairNorm::LInf,
                ..RepairConfig::default()
            },
        )
        .unwrap();
        assert!(spec.is_satisfied_by(|x| linf.repaired.forward(x), 1e-6));
        // The ℓ∞-minimal repair can never have a larger max-change than the
        // ℓ1-minimal one.
        assert!(linf.stats.delta_linf <= l1.stats.delta_linf + 1e-7);
    }

    #[test]
    fn infeasible_specification_returns_bottom() {
        // Contradictory requirements on the same point.
        let n1 = paper_example::n1();
        let mut spec = PointSpec::new();
        spec.push(vec![0.5], OutputPolytope::scalar_interval(-1.0, -0.9));
        spec.push(vec![0.5], OutputPolytope::scalar_interval(0.9, 1.0));
        assert_eq!(
            repair_points(&n1, 0, &spec, &RepairConfig::default()).unwrap_err(),
            RepairError::Infeasible
        );
    }

    #[test]
    fn invalid_layer_indices_are_rejected() {
        let n1 = paper_example::n1();
        let spec = paper_example::equation_2_spec();
        assert!(matches!(
            repair_points(&n1, 9, &spec, &RepairConfig::default()).unwrap_err(),
            RepairError::LayerOutOfRange { .. }
        ));
        let empty = PointSpec::new();
        assert_eq!(
            repair_points(&n1, 0, &empty, &RepairConfig::default()).unwrap_err(),
            RepairError::EmptySpec
        );
    }

    #[test]
    fn dimension_mismatch_is_reported() {
        let n1 = paper_example::n1();
        let mut spec = PointSpec::new();
        spec.push(vec![0.5], OutputPolytope::classification(0, 3, 0.0));
        assert!(matches!(
            repair_points(&n1, 0, &spec, &RepairConfig::default()).unwrap_err(),
            RepairError::SpecDimensionMismatch {
                expected: 1,
                found: 3
            }
        ));
    }

    #[test]
    fn classification_repair_on_a_trained_style_network() {
        // Random ReLU classifier; force five random points to specific labels.
        let mut rng = StdRng::seed_from_u64(99);
        let net = prdnn_nn::Network::mlp(&[4, 16, 12, 3], Activation::Relu, &mut rng);
        let points: Vec<Vec<f64>> = (0..5)
            .map(|_| (0..4).map(|_| rng.gen_range(-1.0..1.0)).collect())
            .collect();
        let labels: Vec<usize> = (0..5).map(|i| i % 3).collect();
        let spec = PointSpec::from_classification(&points, &labels, 3, 1e-4);
        // Repair the last layer (the paper's most reliable choice).
        let outcome =
            repair_points(&net, 2, &spec, &RepairConfig::default()).expect("repair must succeed");
        for (p, &label) in points.iter().zip(&labels) {
            assert_eq!(outcome.repaired.classify(p), label, "efficacy must be 100%");
        }
    }

    #[test]
    fn point_repair_works_for_smooth_activations() {
        // §5: point repair makes no PWL assumption — repair a Tanh network.
        let mut rng = StdRng::seed_from_u64(7);
        let net = prdnn_nn::Network::mlp(&[2, 8, 2], Activation::Tanh, &mut rng);
        let points = vec![vec![0.2, -0.4], vec![-0.6, 0.9]];
        let labels = vec![1, 0];
        let spec = PointSpec::from_classification(&points, &labels, 2, 1e-3);
        let outcome =
            repair_points(&net, 1, &spec, &RepairConfig::default()).expect("repair succeeds");
        for (p, &label) in points.iter().zip(&labels) {
            assert_eq!(outcome.repaired.classify(p), label);
        }
    }

    #[test]
    fn lp_backends_agree_on_classifier_repair() {
        // The same wide, block-sparse repair LP solved by the dense tableau
        // oracle and the sparse revised simplex must yield repairs of the
        // same (minimal) norm, and both must satisfy the spec exactly.
        let mut rng = StdRng::seed_from_u64(21);
        let net = prdnn_nn::Network::mlp(&[6, 18, 14, 4], Activation::Relu, &mut rng);
        let points: Vec<Vec<f64>> = (0..8)
            .map(|_| (0..6).map(|_| rng.gen_range(-1.0..1.0)).collect())
            .collect();
        let labels: Vec<usize> = (0..8).map(|i| i % 4).collect();
        let spec = PointSpec::from_classification(&points, &labels, 4, 1e-4);
        let mut outcomes = Vec::new();
        for backend in [
            prdnn_lp::LpBackend::DenseTableau,
            prdnn_lp::LpBackend::RevisedSparse,
        ] {
            let config = RepairConfig {
                lp_backend: backend,
                ..RepairConfig::default()
            };
            let outcome = repair_points(&net, 2, &spec, &config).expect("repair must succeed");
            for (p, &label) in points.iter().zip(&labels) {
                assert_eq!(outcome.repaired.classify(p), label, "backend {backend:?}");
            }
            outcomes.push(outcome.stats.delta_l1);
        }
        assert!(
            (outcomes[0] - outcomes[1]).abs() < 1e-6,
            "minimal-repair norms disagree: dense {} vs revised {}",
            outcomes[0],
            outcomes[1]
        );
    }

    #[test]
    fn repair_is_bit_identical_for_every_thread_count() {
        // The `threads` knob may only change wall-clock time: the batched
        // Jacobians come back in key-point order, so the LP — and the
        // minimal delta — are identical bit for bit.
        let mut rng = StdRng::seed_from_u64(57);
        let net = prdnn_nn::Network::mlp(&[4, 12, 10, 3], Activation::Relu, &mut rng);
        let points: Vec<Vec<f64>> = (0..6)
            .map(|_| (0..4).map(|_| rng.gen_range(-1.0..1.0)).collect())
            .collect();
        let labels: Vec<usize> = (0..6).map(|i| i % 3).collect();
        let spec = PointSpec::from_classification(&points, &labels, 3, 1e-4);
        let serial = repair_points(
            &net,
            2,
            &spec,
            &RepairConfig {
                threads: Some(1),
                ..RepairConfig::default()
            },
        )
        .expect("serial repair succeeds");
        for threads in [2, 4] {
            let config = RepairConfig {
                threads: Some(threads),
                ..RepairConfig::default()
            };
            let outcome = repair_points(&net, 2, &spec, &config).expect("repair succeeds");
            assert_eq!(outcome.delta, serial.delta, "threads = {threads}");
            assert_eq!(outcome.repaired, serial.repaired, "threads = {threads}");
        }
    }

    #[test]
    fn param_bound_is_respected() {
        let n1 = paper_example::n1();
        let spec = paper_example::equation_2_spec();
        let config = RepairConfig {
            param_bound: Some(10.0),
            ..RepairConfig::default()
        };
        let outcome = repair_points(&n1, 0, &spec, &config).unwrap();
        assert!(outcome.stats.delta_linf <= 10.0 + 1e-7);
        // An impossibly tight bound makes the repair infeasible.
        let tight = RepairConfig {
            param_bound: Some(1e-4),
            ..RepairConfig::default()
        };
        assert_eq!(
            repair_points(&n1, 0, &spec, &tight).unwrap_err(),
            RepairError::Infeasible
        );
    }

    #[test]
    fn stats_are_populated() {
        let n1 = paper_example::n1();
        let spec = paper_example::equation_2_spec();
        let outcome = repair_points(&n1, 0, &spec, &RepairConfig::default()).unwrap();
        assert_eq!(outcome.stats.layer, 0);
        assert_eq!(outcome.stats.num_key_points, 2);
        assert_eq!(outcome.stats.num_constraints, 4);
        assert_eq!(outcome.stats.num_variables, 6); // 3 weights + 3 biases
        assert_eq!(outcome.delta.len(), 6);
        assert!(outcome.stats.delta_linf <= outcome.stats.delta_l1 + 1e-12);
    }
}
