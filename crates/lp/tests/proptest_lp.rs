//! Property-based tests for the LP solver.
//!
//! Strategy: generate random constraint systems that are feasible *by
//! construction* (we pick a witness point first and only keep constraints it
//! satisfies), then check that the solver (i) returns a feasible point and
//! (ii) never returns an objective worse than the witness.

use prdnn_lp::{solve, ConstraintOp, LpProblem, VarKind};
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct RandomLp {
    witness: Vec<f64>,
    rows: Vec<(Vec<f64>, f64)>, // coeffs, slack added to make the row satisfied
}

fn random_lp(num_vars: usize, num_rows: usize) -> impl Strategy<Value = RandomLp> {
    let witness = prop::collection::vec(-3.0..3.0f64, num_vars);
    let rows = prop::collection::vec(
        (prop::collection::vec(-2.0..2.0f64, num_vars), 0.0..2.0f64),
        num_rows,
    );
    (witness, rows).prop_map(|(witness, rows)| RandomLp { witness, rows })
}

fn build_problem(spec: &RandomLp) -> (LpProblem, Vec<prdnn_lp::VarId>) {
    let mut lp = LpProblem::new();
    let vars = lp.add_vars(spec.witness.len(), VarKind::Free);
    for (coeffs, slack) in &spec.rows {
        // a · witness <= a · witness + slack, so the witness satisfies it.
        let rhs: f64 = coeffs
            .iter()
            .zip(&spec.witness)
            .map(|(a, w)| a * w)
            .sum::<f64>()
            + slack;
        let terms: Vec<_> = vars.iter().copied().zip(coeffs.iter().copied()).collect();
        lp.add_constraint(&terms, ConstraintOp::Le, rhs);
    }
    (lp, vars)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn feasible_by_construction_is_solved(spec in random_lp(4, 6)) {
        let (mut lp, vars) = build_problem(&spec);
        lp.minimize_l1_of(&vars);
        let sol = solve(&lp).expect("constructed problem must be feasible");
        prop_assert!(lp.is_feasible(&sol.values, 1e-6));
        // The witness is feasible, so the optimum can never exceed its norm.
        let witness_norm: f64 = spec.witness.iter().map(|x| x.abs()).sum();
        prop_assert!(sol.objective <= witness_norm + 1e-6);
        // The objective reported equals the l1 norm of the returned values.
        let sol_norm: f64 = sol.values.iter().map(|x| x.abs()).sum();
        prop_assert!((sol.objective - sol_norm).abs() < 1e-6);
    }

    #[test]
    fn linf_objective_never_exceeds_l1(spec in random_lp(3, 5)) {
        let (mut lp, vars) = build_problem(&spec);
        lp.minimize_l1_of(&vars);
        let l1 = solve(&lp).expect("feasible").objective;
        let (mut lp2, vars2) = build_problem(&spec);
        lp2.minimize_linf_of(&vars2);
        let linf = solve(&lp2).expect("feasible").objective;
        // For any vector, ||x||_inf <= ||x||_1; the same holds for the optima.
        prop_assert!(linf <= l1 + 1e-6);
    }
}
