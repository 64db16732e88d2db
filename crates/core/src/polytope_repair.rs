//! Provable Polytope Repair (Algorithm 2, §6).

use crate::ddnn::DecoupledNetwork;
use crate::repair::{
    repair_key_points, validate, KeyPoint, RepairConfig, RepairError, RepairOutcome,
};
use crate::spec::PolytopeSpec;
use prdnn_nn::Network;
use prdnn_syrenn::{lin_regions_batch_in, SyrennError};
use std::time::{Duration, Instant};

/// A successful polytope repair: the point-repair outcome plus the
/// linear-region statistics of the reduction.
#[derive(Debug, Clone)]
pub struct PolytopeRepairOutcome {
    /// The underlying point-repair outcome (repaired DDNN, delta, stats).
    pub outcome: RepairOutcome,
    /// Number of linear regions found across all input polytopes.
    pub num_regions: usize,
    /// Number of key points (region vertices) fed to point repair — the
    /// "Points" column of Table 2.
    pub num_key_points: usize,
}

/// Provable Polytope Repair (Algorithm 2).
///
/// For every input polytope `P` in the specification, computes
/// `LinRegions(N, P)` (via the SyReNN-style subdivision), collects the
/// vertices of every region as key points — each paired with its region's
/// interior point so the Jacobian uses the correct activation pattern
/// (Appendix B) — and hands the resulting *pointwise* specification to
/// Algorithm 1.  By Theorem 6.4, the returned network satisfies the polytope
/// specification on **all** (infinitely many) points of every `P`, and the
/// delta is a minimal layer repair.
///
/// # Errors
///
/// * [`RepairError::NotPiecewiseLinear`] — the network uses Tanh/Sigmoid
///   activations (the §6 assumption is violated).
/// * All errors of [`crate::repair_points`].
///
/// # Example
///
/// ```
/// use prdnn_core::{repair_polytopes, InputPolytope, OutputPolytope, PolytopeSpec, RepairConfig};
/// use prdnn_linalg::Matrix;
/// use prdnn_nn::{Activation, Layer, Network};
///
/// # fn main() -> Result<(), prdnn_core::RepairError> {
/// // The paper's Equation 3: ∀ x ∈ [0.5, 1.5]. -0.8 ≤ N'(x) ≤ -0.4.
/// let n1 = Network::new(vec![
///     Layer::dense(Matrix::from_rows(&[vec![-1.0], vec![1.0], vec![1.0]]),
///                  vec![0.0, 0.0, -1.0], Activation::Relu),
///     Layer::dense(Matrix::from_rows(&[vec![-1.0, -1.0, 1.0]]), vec![0.0], Activation::Identity),
/// ]);
/// let mut spec = PolytopeSpec::new();
/// spec.push(
///     InputPolytope::segment(vec![0.5], vec![1.5]),
///     OutputPolytope::scalar_interval(-0.8, -0.4),
/// );
/// let result = repair_polytopes(&n1, 0, &spec, &RepairConfig::default())?;
/// let y = result.outcome.repaired.forward(&[1.2]);
/// assert!(y[0] <= -0.4 + 1e-6 && y[0] >= -0.8 - 1e-6);
/// # Ok(())
/// # }
/// ```
pub fn repair_polytopes(
    net: &Network,
    layer: usize,
    spec: &PolytopeSpec,
    config: &RepairConfig,
) -> Result<PolytopeRepairOutcome, RepairError> {
    repair_polytopes_ddnn(&DecoupledNetwork::from_network(net), layer, spec, config)
}

/// Provable Polytope Repair starting from an existing DDNN.
///
/// The linear regions are those of the DDNN's *activation channel*
/// ([`DecoupledNetwork::activation_network`]), which by Theorem 4.6 are
/// also the linear regions of any value-channel repair of the DDNN.
///
/// # Errors
///
/// See [`repair_polytopes`].
pub fn repair_polytopes_ddnn(
    ddnn: &DecoupledNetwork,
    layer: usize,
    spec: &PolytopeSpec,
    config: &RepairConfig,
) -> Result<PolytopeRepairOutcome, RepairError> {
    validate(ddnn, layer, &spec.constraints)?;
    let activation_net = ddnn.activation_network();
    if !activation_net.is_piecewise_linear() {
        return Err(RepairError::NotPiecewiseLinear);
    }

    let lin_start = Instant::now();
    let pool = prdnn_par::global();
    let (key_points, num_regions) = region_key_points(pool, activation_net, spec)?;
    let lin_regions_time: Duration = lin_start.elapsed();
    let num_key_points = key_points.len();

    // Line 7: hand the constructed point specification to Algorithm 1.
    let outcome = repair_key_points(ddnn, layer, &key_points, config, pool, lin_regions_time)?;
    Ok(PolytopeRepairOutcome {
        outcome,
        num_regions,
        num_key_points,
    })
}

/// Lines 2–6 of Algorithm 2: each polytope reduced to the vertices of its
/// linear regions, each vertex paired with its region's interior point
/// (Appendix B); returns them with the number of regions.  The polytopes
/// are independent, so the whole slab fans across the thread pool (Task 1/2
/// specifications restrict the network to hundreds of clean→corrupted
/// lines); per-polytope results and their order are identical to
/// one-at-a-time calls for every thread count.
pub(crate) fn region_key_points(
    pool: &prdnn_par::ThreadPool,
    activation_net: &Network,
    spec: &PolytopeSpec,
) -> Result<(Vec<KeyPoint>, usize), RepairError> {
    // Zip against the constraints so an excess polytope without a paired
    // constraint is ignored, exactly as the old per-pair loop did.
    let polytopes: Vec<&[Vec<f64>]> = spec
        .polytopes
        .iter()
        .zip(&spec.constraints)
        .map(|(p, _)| p.vertices.as_slice())
        .collect();
    let all_regions =
        lin_regions_batch_in(pool, activation_net, &polytopes).map_err(|e| match e {
            SyrennError::NotPiecewiseLinear => RepairError::NotPiecewiseLinear,
            SyrennError::DegenerateInput => RepairError::EmptySpec,
        })?;
    let mut key_points: Vec<KeyPoint> = Vec::new();
    let mut num_regions = 0usize;
    for (regions, constraint) in all_regions.into_iter().zip(&spec.constraints) {
        num_regions += regions.len();
        for region in regions {
            for vertex in region.vertices {
                // Appendix B: the vertex must be repaired with the activation
                // pattern of *this* region, fixed by its interior point.
                key_points.push(KeyPoint::region_vertex(
                    vertex,
                    &region.interior,
                    constraint,
                ));
            }
        }
    }
    Ok((key_points, num_regions))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper_example;
    use crate::spec::{InputPolytope, OutputPolytope, PolytopeSpec};
    use prdnn_nn::Activation;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn running_example_equation_3_is_repaired() {
        // §3.2: ∀ x ∈ [0.5, 1.5]. -0.8 ≤ N'(x) ≤ -0.4, repairing layer 1.
        let n1 = paper_example::n1();
        let spec = paper_example::equation_3_spec();
        let result =
            repair_polytopes(&n1, 0, &spec, &RepairConfig::default()).expect("repair succeeds");
        // The paper finds the interval [0.5, 1.5] overlaps two linear regions,
        // giving 4 key points (K1..K4, §3.2).
        assert_eq!(result.num_regions, 2);
        assert_eq!(result.num_key_points, 4);
        // The paper's ℓ1-minimal repair is the single change Δ2 = −0.2; our
        // parameterisation has the same optimum (see analysis in the test
        // module of `paper_example`).
        assert!((result.outcome.stats.delta_l1 - 0.2).abs() < 1e-6);
        // Provable guarantee: *every* point on the segment satisfies the
        // constraint, not just sampled ones — spot-check densely.
        for i in 0..=100 {
            let x = 0.5 + (i as f64) / 100.0;
            let y = result.outcome.repaired.forward(&[x])[0];
            assert!(
                (-0.8 - 1e-6..=-0.4 + 1e-6).contains(&y),
                "violated at x = {x}: y = {y}"
            );
        }
    }

    #[test]
    fn polytope_repair_rejects_smooth_networks() {
        let mut rng = StdRng::seed_from_u64(3);
        let net = prdnn_nn::Network::mlp(&[1, 4, 1], Activation::Tanh, &mut rng);
        let mut spec = PolytopeSpec::new();
        spec.push(
            InputPolytope::segment(vec![0.0], vec![1.0]),
            OutputPolytope::scalar_interval(-1.0, 1.0),
        );
        assert_eq!(
            repair_polytopes(&net, 0, &spec, &RepairConfig::default()).unwrap_err(),
            RepairError::NotPiecewiseLinear
        );
    }

    #[test]
    fn line_polytope_repair_guarantees_whole_segment_classification() {
        // A small classifier and a segment specification requiring every
        // point along the segment to get label 1.
        let mut rng = StdRng::seed_from_u64(12);
        let net = prdnn_nn::Network::mlp(&[3, 10, 8, 2], Activation::Relu, &mut rng);
        let start = vec![-0.5, 0.2, 0.8];
        let end = vec![0.9, -0.7, -0.2];
        let mut spec = PolytopeSpec::new();
        spec.push(
            InputPolytope::segment(start.clone(), end.clone()),
            OutputPolytope::classification(1, 2, 1e-4),
        );
        let result =
            repair_polytopes(&net, 2, &spec, &RepairConfig::default()).expect("repair succeeds");
        // Dense sampling along the segment: every point must be label 1.
        for i in 0..=200 {
            let t = i as f64 / 200.0;
            let p: Vec<f64> = start
                .iter()
                .zip(&end)
                .map(|(s, e)| s + t * (e - s))
                .collect();
            assert_eq!(
                result.outcome.repaired.classify(&p),
                1,
                "violated at t = {t}"
            );
        }
    }

    #[test]
    fn plane_polytope_repair_guarantees_whole_polygon() {
        let mut rng = StdRng::seed_from_u64(40);
        let net = prdnn_nn::Network::mlp(&[2, 8, 6, 3], Activation::Relu, &mut rng);
        let triangle = vec![vec![-1.0, -1.0], vec![1.0, -1.0], vec![0.0, 1.0]];
        let mut spec = PolytopeSpec::new();
        spec.push(
            InputPolytope::polygon(triangle.clone()),
            OutputPolytope::classification(2, 3, 1e-4),
        );
        let result =
            repair_polytopes(&net, 2, &spec, &RepairConfig::default()).expect("repair succeeds");
        assert!(result.num_regions >= 1);
        assert!(result.num_key_points >= 3);
        // Random points inside the triangle must all be classified 2.
        let mut rng = StdRng::seed_from_u64(41);
        for _ in 0..200 {
            let mut w = [
                rng.gen_range(0.0f64..1.0),
                rng.gen_range(0.0..1.0),
                rng.gen_range(0.0..1.0),
            ];
            let s: f64 = w.iter().sum();
            w.iter_mut().for_each(|x| *x /= s);
            let p = vec![
                w[0] * triangle[0][0] + w[1] * triangle[1][0] + w[2] * triangle[2][0],
                w[0] * triangle[0][1] + w[1] * triangle[1][1] + w[2] * triangle[2][1],
            ];
            assert_eq!(result.outcome.repaired.classify(&p), 2);
        }
    }

    /// The points at `t = i / 100` for `i` in `0..=100` along a segment.
    fn samples(start: &[f64], end: &[f64]) -> Vec<Vec<f64>> {
        (0..=100)
            .map(|i| {
                let t = i as f64 / 100.0;
                start
                    .iter()
                    .zip(end)
                    .map(|(s, e)| s + t * (e - s))
                    .collect()
            })
            .collect()
    }

    #[test]
    fn polytope_repair_reaches_the_all_rows_optimum() {
        // Algorithm 2 feeds the vertex key points into the repair LP.  The
        // seed-17 network does not classify the whole segment as 1, so row
        // generation must solve an LP, reach the norm of the LP over every
        // key point's rows, and repair every point of the segment.
        let mut rng = StdRng::seed_from_u64(17);
        let net = prdnn_nn::Network::mlp(&[3, 10, 8, 2], Activation::Relu, &mut rng);
        let start = vec![-0.4, 0.3, 0.6];
        let end = vec![0.8, -0.5, -0.1];
        let mut spec = PolytopeSpec::new();
        spec.push(
            InputPolytope::segment(start.clone(), end.clone()),
            OutputPolytope::classification(1, 2, 1e-4),
        );
        let config = RepairConfig::default();
        let result = repair_polytopes(&net, 2, &spec, &config).expect("repair must succeed");
        assert!(result.outcome.stats.lp_rounds >= 1, "no LP was solved");
        for p in samples(&start, &end) {
            assert_eq!(result.outcome.repaired.classify(&p), 1, "violated at {p:?}");
        }
        let pool = prdnn_par::pool_for(Some(1));
        let (key_points, _) = region_key_points(&pool, &net, &spec).unwrap();
        assert_eq!(key_points.len(), result.num_key_points);
        let ddnn = DecoupledNetwork::from_network(&net);
        let oracle = crate::repair::all_rows_delta(&ddnn, 2, &key_points, &config)
            .expect("the all-rows LP must be feasible");
        let (norm, expected) = (
            result.outcome.stats.delta_l1,
            prdnn_linalg::vector::norm_l1(&oracle),
        );
        assert!(
            (norm - expected).abs() <= 1e-9 * norm.abs().max(expected.abs()),
            "row generation {norm} vs all rows {expected}"
        );
    }

    #[test]
    fn polytope_repair_of_a_decoupled_network_splits_on_its_activation_channel() {
        // After a point repair of layer idx 1 the two channels differ; a
        // polytope repair of layer idx 2 must take its linear regions from
        // the activation channel (Theorem 4.6) and hold on the whole
        // segment.
        let mut rng = StdRng::seed_from_u64(15);
        let net = prdnn_nn::Network::mlp(&[3, 10, 8, 2], Activation::Relu, &mut rng);
        let points: Vec<Vec<f64>> = (0..4)
            .map(|_| (0..3).map(|_| rng.gen_range(-1.0..1.0)).collect())
            .collect();
        let labels = [0, 1, 0, 1];
        let point_spec = crate::PointSpec::from_classification(&points, &labels, 2, 1e-4);
        let config = RepairConfig::default();
        let ddnn = crate::repair_points(&net, 1, &point_spec, &config)
            .expect("point repair succeeds")
            .repaired;
        assert_ne!(ddnn.activation_network(), ddnn.value_network());
        let (start, end) = (vec![-0.5, 0.2, 0.8], vec![0.9, -0.7, -0.2]);
        let mut spec = PolytopeSpec::new();
        spec.push(
            InputPolytope::segment(start.clone(), end.clone()),
            OutputPolytope::classification(1, 2, 1e-4),
        );
        let result = repair_polytopes_ddnn(&ddnn, 2, &spec, &config).expect("repair succeeds");
        let segment = [start.clone(), end.clone()];
        let regions = |net| prdnn_syrenn::lin_regions(net, &segment).unwrap().len();
        assert_eq!(result.num_regions, regions(ddnn.activation_network()));
        // The value channel splits the segment differently, so the count
        // tells the channels apart.
        assert_ne!(result.num_regions, regions(ddnn.value_network()));
        assert!(result.outcome.stats.lp_rounds >= 1, "no LP was solved");
        for p in samples(&start, &end) {
            assert_eq!(result.outcome.repaired.classify(&p), 1, "violated at {p:?}");
        }
    }

    #[test]
    fn unsatisfiable_layer_returns_bottom() {
        // §7.3 observes that for some layers Algorithm 2 returns ⊥.  Force
        // that situation with contradictory constraints on one polytope.
        let n1 = paper_example::n1();
        let mut spec = PolytopeSpec::new();
        spec.push(
            InputPolytope::segment(vec![0.2], vec![0.8]),
            OutputPolytope::scalar_interval(-0.9, -0.8),
        );
        spec.push(
            InputPolytope::segment(vec![0.2], vec![0.8]),
            OutputPolytope::scalar_interval(0.8, 0.9),
        );
        assert_eq!(
            repair_polytopes(&n1, 0, &spec, &RepairConfig::default()).unwrap_err(),
            RepairError::Infeasible
        );
    }

    #[test]
    fn timing_includes_lin_regions_component() {
        let n1 = paper_example::n1();
        let spec = paper_example::equation_3_spec();
        let result = repair_polytopes(&n1, 0, &spec, &RepairConfig::default()).unwrap();
        let timing = result.outcome.stats.timing;
        assert!(timing.total() >= timing.lin_regions);
    }
}
