//! The correctness gate.  Every timed output is checked here, outside the
//! timed call, against an independent evaluation through the library's
//! public API.  A failed check fails the operation and the run.

use prdnn_core::{DecoupledNetwork, OutputPolytope, PointSpec, PolytopeSpec};
use prdnn_nn::Network;
use prdnn_serve::protocol::RegionWire;
use prdnn_syrenn::LinearRegion;

/// Slack allowed on `A y ≤ b` when re-checking a repair (the LP solves to
/// ~1e-9; the specs' classification margin is 1e-4).
pub const TOL: f64 = 1e-6;

/// A point repair passes when the repaired network maps every spec point
/// into its output polytope.
pub fn point_repair_holds(repaired: &DecoupledNetwork, spec: &PointSpec) -> bool {
    spec.is_satisfied_by(|x| repaired.forward(x), TOL)
}

/// How far a point repair misses its spec: the worst `A y − b`.
pub fn point_violation(repaired: &DecoupledNetwork, spec: &PointSpec) -> f64 {
    worst_violation(
        spec.points
            .iter()
            .map(|x| repaired.forward(x))
            .zip(&spec.constraints),
    )
}

/// The largest `max(A y − b)` over `outputs` and their constraints: how
/// far a failed repair misses its spec.
pub fn worst_violation<'a>(
    outputs: impl IntoIterator<Item = (Vec<f64>, &'a OutputPolytope)>,
) -> f64 {
    outputs
        .into_iter()
        .flat_map(|(y, c)| {
            let ay = c.a.matvec(&y);
            ay.into_iter()
                .zip(&c.b)
                .map(|(a, b)| a - b)
                .collect::<Vec<_>>()
        })
        .fold(f64::NEG_INFINITY, f64::max)
}

/// How far a polytope repair misses its spec: the worst `A y − b` over
/// every vertex of every linear region of the original network on each
/// input polytope (`None` if the regions cannot be computed).  The value
/// channel is evaluated under the region's own activation pattern (fixed
/// by its interior point), where the repaired network is affine, so by
/// Theorem 6.4 the vertex check covers every point of the polytope.
pub fn polytope_violation(
    original: &Network,
    repaired: &DecoupledNetwork,
    spec: &PolytopeSpec,
) -> Option<f64> {
    let mut outputs = Vec::new();
    for (polytope, c) in spec.polytopes.iter().zip(&spec.constraints) {
        for region in prdnn_syrenn::lin_regions(original, &polytope.vertices).ok()? {
            for v in &region.vertices {
                outputs.push((repaired.forward_decoupled(&region.interior, v), c));
            }
        }
    }
    Some(worst_violation(outputs))
}

/// Whether two batches of vectors are equal bit for bit.
pub fn same_bits(a: &[Vec<f64>], b: &[Vec<f64>]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.len() == y.len() && x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits())
        })
}

/// An FNV-1a digest over `f64` bit patterns.  Equal replies have equal
/// digests, and unequal ones differ but with probability 2^-64, so a run
/// keeps one word per reply instead of the reply.
pub struct Digest(u64);

impl Digest {
    fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn row(&mut self, row: &[f64]) {
        self.word(row.len() as u64);
        for x in row {
            self.word(x.to_bits());
        }
    }

    /// The digest of a batch of outputs.
    pub fn outputs(outputs: &[Vec<f64>]) -> u64 {
        let mut d = Digest::new();
        d.word(outputs.len() as u64);
        outputs.iter().for_each(|y| d.row(y));
        d.0
    }

    /// The digest of `lin_regions` replies, one region list per polytope.
    pub fn wire_regions(polytopes: &[Vec<RegionWire>]) -> u64 {
        let mut d = Digest::new();
        d.word(polytopes.len() as u64);
        for regions in polytopes {
            d.region_list(regions.iter().map(|r| (&r.vertices, &r.interior)));
        }
        d.0
    }

    /// The digest of one polytope's library regions, equal to
    /// [`Digest::wire_regions`] of the same regions as a one-polytope reply.
    pub fn regions(regions: &[LinearRegion]) -> u64 {
        let mut d = Digest::new();
        d.word(1);
        d.region_list(regions.iter().map(|r| (&r.vertices, &r.interior)));
        d.0
    }

    fn region_list<'a>(
        &mut self,
        regions: impl ExactSizeIterator<Item = (&'a Vec<Vec<f64>>, &'a Vec<f64>)>,
    ) {
        self.word(regions.len() as u64);
        for (vertices, interior) in regions {
            self.word(vertices.len() as u64);
            vertices.iter().for_each(|v| self.row(v));
            self.row(interior);
        }
    }
}

/// Whether `regions` tile the segment `start → end`: they run from `start`
/// to `end` and consecutive regions share their endpoint.  Vertices are
/// `start + t·(end − start)`, so the last one may differ from `end` by
/// rounding.
pub fn tiles_segment(regions: &[LinearRegion], start: &[f64], end: &[f64]) -> bool {
    let ends = |r: &LinearRegion| match r.vertices.as_slice() {
        [a, b] => Some((a.clone(), b.clone())),
        _ => None,
    };
    let Some(pieces) = regions.iter().map(ends).collect::<Option<Vec<_>>>() else {
        return false;
    };
    !pieces.is_empty()
        && pieces[0].0 == start
        && pieces[pieces.len() - 1]
            .1
            .iter()
            .zip(end)
            .all(|(a, b)| (a - b).abs() <= 1e-12 * (1.0 + b.abs()))
        && pieces.windows(2).all(|w| w[0].1 == w[1].0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use prdnn_core::{paper_example, repair_points, repair_polytopes, RepairConfig};

    #[test]
    fn point_gate_rejects_a_repair_whose_delta_was_perturbed() {
        let n1 = paper_example::n1();
        let spec = paper_example::equation_2_spec();
        let outcome = repair_points(&n1, 0, &spec, &RepairConfig::default()).unwrap();
        assert!(point_repair_holds(&outcome.repaired, &spec));

        // The delta is ℓ1-minimal, so any shorter step from the buggy
        // network towards it must leave some constraint violated.
        let mut perturbed = DecoupledNetwork::from_network(&n1);
        let shrunk: Vec<f64> = outcome.delta.iter().map(|d| 0.9 * d).collect();
        perturbed.apply_value_delta(0, &shrunk);
        assert!(!point_repair_holds(&perturbed, &spec));
    }

    #[test]
    fn polytope_gate_rejects_a_repair_whose_delta_was_perturbed() {
        let n1 = paper_example::n1();
        let spec = paper_example::equation_3_spec();
        let outcome = repair_polytopes(&n1, 0, &spec, &RepairConfig::default())
            .unwrap()
            .outcome;
        let holds = |net: &DecoupledNetwork| polytope_violation(&n1, net, &spec).unwrap() <= TOL;
        assert!(holds(&outcome.repaired));

        let mut perturbed = DecoupledNetwork::from_network(&n1);
        let shrunk: Vec<f64> = outcome.delta.iter().map(|d| 0.9 * d).collect();
        perturbed.apply_value_delta(0, &shrunk);
        assert!(!holds(&perturbed));
    }

    #[test]
    fn bitwise_comparisons_see_the_last_bit() {
        let x = vec![vec![0.1, 0.2]];
        let mut y = x.clone();
        assert!(same_bits(&x, &y));
        assert_eq!(Digest::outputs(&x), Digest::outputs(&y));
        y[0][1] = f64::from_bits(y[0][1].to_bits() + 1);
        assert!(!same_bits(&x, &y));
        assert!(!same_bits(&x, &[]));
        assert_ne!(Digest::outputs(&x), Digest::outputs(&y));

        let net = paper_example::n1();
        let regions = prdnn_syrenn::lin_regions(&net, &[vec![-1.0], vec![2.0]]).unwrap();
        let wire: Vec<RegionWire> = regions
            .iter()
            .map(|r| RegionWire {
                vertices: r.vertices.clone(),
                interior: r.interior.clone(),
            })
            .collect();
        assert_eq!(
            Digest::regions(&regions),
            Digest::wire_regions(std::slice::from_ref(&wire))
        );
        assert_ne!(
            Digest::regions(&regions),
            Digest::wire_regions(&[wire.clone(), wire])
        );
    }

    #[test]
    fn segment_tiling_is_checked() {
        let net = paper_example::n1();
        let regions = prdnn_syrenn::lin_regions(&net, &[vec![-1.0], vec![2.0]]).unwrap();
        assert!(regions.len() > 1);
        assert!(tiles_segment(&regions, &[-1.0], &[2.0]));
        assert!(!tiles_segment(&regions[1..], &[-1.0], &[2.0]));
    }
}
