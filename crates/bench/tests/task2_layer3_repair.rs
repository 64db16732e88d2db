//! Regression: Task 2's "Layer 3" polytope repair (layer index 2 of the
//! digit MLP) on the first 6 fog lines at the `small` scale.
//!
//! The primal simplex broke down on this LP and the repair returned
//! `RepairError::LpNumerical`; the dual simplex from the slack basis solves
//! it.  The repaired network is checked at every vertex of every linear
//! region of the original network, under that region's activation pattern,
//! where the repaired network is affine: by Theorem 6.4 this covers every
//! point of every line.

use prdnn_bench::scale::{Scale, Task2Params};
use prdnn_bench::task2;
use prdnn_core::{repair_polytopes, RepairConfig};

/// Slack allowed on `A y ≤ b` at a vertex (the spec's margin is 1e-4).
const TOL: f64 = 1e-6;

#[test]
fn layer_index_2_repairs_six_small_lines() {
    let setup = task2::setup(&Task2Params::for_scale(Scale::Small));
    let spec = task2::line_spec(&setup, 6);
    let outcome = repair_polytopes(&setup.network, 2, &spec, &RepairConfig::default())
        .expect("layer index 2 must repair the first 6 lines");

    let repaired = &outcome.outcome.repaired;
    let mut vertices = 0usize;
    let mut worst = f64::NEG_INFINITY;
    for (polytope, constraint) in spec.polytopes.iter().zip(&spec.constraints) {
        let regions = prdnn_syrenn::lin_regions(&setup.network, &polytope.vertices)
            .expect("a segment of the digit MLP has linear regions");
        for region in regions {
            for v in &region.vertices {
                let y = repaired.forward_decoupled(&region.interior, v);
                let ay = constraint.a.matvec(&y);
                for (lhs, rhs) in ay.iter().zip(&constraint.b) {
                    worst = worst.max(lhs - rhs);
                }
                vertices += 1;
            }
        }
    }
    assert!(vertices > 0);
    assert!(
        worst <= TOL,
        "repaired network violates the spec by {worst} over {vertices} vertices"
    );
}
