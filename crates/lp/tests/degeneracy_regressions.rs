//! Degeneracy regression tests: hand-built stalling programs that
//! historically trip simplex implementations, pinned to terminate at the
//! right answer on the dual simplex within a finite iteration budget.
//!
//! The fallback mechanics themselves (that a degenerate streak really
//! switches to the smallest-index rule) are pinned by unit tests inside
//! `dual.rs`, which can see the internal pivot counters, and the dense
//! tableau oracle checks the dual there; these integration tests pin the
//! user-visible contract: degenerate programs terminate, classify
//! correctly, and return a feasible point at the known optimum.

use prdnn_lp::{solve_with_limit, ConstraintOp, LpProblem, VarKind};

/// Solves with a finite iteration budget (so a cycling solver fails the
/// test instead of hanging), checks the point is feasible, and returns the
/// objective.
fn solve_all_and_agree(lp: &LpProblem) -> f64 {
    let solution = solve_with_limit(lp, 50_000)
        .unwrap_or_else(|e| panic!("the dual failed on a degenerate program: {e}"));
    assert!(
        lp.is_feasible(&solution.values, 1e-6),
        "the dual returned an infeasible point"
    );
    solution.objective
}

#[test]
fn duplicate_rows_keep_all_configurations_consistent() {
    // Duplicate and scaled-duplicate rows, each pinning x + y = 3 from
    // both sides: one pivot fixes every copy at once, and the rest stay
    // basic at zero, a degenerate vertex.
    let mut lp = LpProblem::new();
    let x = lp.add_var(VarKind::Free);
    let y = lp.add_var(VarKind::Free);
    for scale in [1.0, 1.0, 2.0, 5.0] {
        for op in [ConstraintOp::Ge, ConstraintOp::Le] {
            lp.add_constraint(&[(x, scale), (y, scale)], op, 3.0 * scale);
        }
    }
    lp.add_constraint(&[(x, 1.0), (y, -1.0)], ConstraintOp::Le, 1.0);
    lp.minimize_l1_of(&[x, y]);
    let objective = solve_all_and_agree(&lp);
    assert!((objective - 3.0).abs() < 1e-7, "l1-minimum on x+y=3 is 3");
}

/// The negative-RHS standard-form fixtures: they exercise the slack-sign
/// flip that once seeded phase 1 with an unusable basis.
#[test]
fn negative_rhs_fixtures_hold_under_all_configurations() {
    // `x ≤ -3` with min |x|: the flipped row starts violated.
    let mut le = LpProblem::new();
    let x = le.add_var(VarKind::Free);
    le.add_constraint(&[(x, 1.0)], ConstraintOp::Le, -3.0);
    le.minimize_l1_of(&[x]);
    let objective = solve_all_and_agree(&le);
    assert!((objective - 3.0).abs() < 1e-7);

    // `-x ≥ -5` (⟺ x ≤ 5) carries a clean slack; with `x ≥ 5` it is
    // tight at the optimum.
    let mut ge = LpProblem::new();
    let x = ge.add_var(VarKind::NonNegative);
    ge.add_constraint(&[(x, -1.0)], ConstraintOp::Ge, -5.0);
    ge.add_constraint(&[(x, 1.0)], ConstraintOp::Ge, 5.0);
    ge.minimize_l1_of(&[x]);
    let objective = solve_all_and_agree(&ge);
    assert!((objective - 5.0).abs() < 1e-7);

    // Mixed system with several flipped rows and `2a = -3` as a pair.
    let mut mixed = LpProblem::new();
    let a = mixed.add_var(VarKind::Free);
    let b = mixed.add_var(VarKind::Free);
    mixed.add_constraint(&[(a, 1.0), (b, 1.0)], ConstraintOp::Ge, -2.0);
    mixed.add_constraint(&[(a, 1.0), (b, -1.0)], ConstraintOp::Le, -1.0);
    mixed.add_constraint(&[(a, 2.0)], ConstraintOp::Le, -3.0);
    mixed.add_constraint(&[(a, 2.0)], ConstraintOp::Ge, -3.0);
    mixed.minimize_l1_of(&[a, b]);
    let objective = solve_all_and_agree(&mixed);
    // a = -1.5 fixed; rows 1–2 only force b ≥ -0.5, so the ℓ1-minimal
    // choice is b = 0 and the objective is |a| = 1.5.
    assert!((objective - 1.5).abs() < 1e-7, "expected |a| = 1.5");
}

/// Lowered ℓ∞ prices every original column at zero (only the bound `t`
/// costs), so the dual simplex starts fully dual-degenerate: every pivot
/// until `t` enters is a zero step.
#[test]
fn linf_objectives_start_fully_dual_degenerate() {
    // Sixty independent violated rows `x_i ≥ 1`, one coupling row that
    // holds at the optimum: max |x_i| = 1.
    let mut rows = LpProblem::new();
    let x = rows.add_vars(60, VarKind::Free);
    for v in &x {
        rows.add_constraint(&[(*v, 1.0)], ConstraintOp::Ge, 1.0);
    }
    let all: Vec<_> = x.iter().map(|&v| (v, 1.0)).collect();
    rows.add_constraint(&all, ConstraintOp::Le, 90.0);
    rows.minimize_linf_of(&x);
    let objective = solve_all_and_agree(&rows);
    assert!(
        (objective - 1.0).abs() < 1e-7,
        "expected 1, got {objective}"
    );

    // The repair shape: dense rows over shared parameters, violated at
    // Δ = 0 (negative right-hand sides on `≤` rows, positive ones on `≥`
    // rows), under a `param_bound`-style box.  Every row asks for
    // `Σ_k w_ik Δ_k ≤ −r_i` with weights `w_ik ∈ [1, 2)`, half of them
    // written negated as `≥` rows.
    let mut repair = LpProblem::new();
    let delta = repair.add_vars(12, VarKind::Free);
    for i in 0..24 {
        let r = 1.0 + (i % 5) as f64 * 0.1;
        let weights = delta
            .iter()
            .enumerate()
            .map(|(k, &v)| (v, 1.0 + ((i + k) % 12) as f64 / 12.0));
        if i % 2 == 0 {
            repair.add_constraint(&weights.collect::<Vec<_>>(), ConstraintOp::Le, -r);
        } else {
            let negated: Vec<_> = weights.map(|(v, w)| (v, -w)).collect();
            repair.add_constraint(&negated, ConstraintOp::Ge, r);
        }
    }
    for &v in &delta {
        repair.add_constraint(&[(v, 1.0)], ConstraintOp::Le, 2.0);
        repair.add_constraint(&[(v, 1.0)], ConstraintOp::Ge, -2.0);
    }
    repair.minimize_linf_of(&delta);
    let objective = solve_all_and_agree(&repair);
    // Δ = −c·1 is feasible once c·Σ_k w_ik ≥ r_i, and Σ_k w_ik = 17.5 on
    // every row, so the optimum is at most 1.4 / 17.5 = 0.08.
    assert!(objective > 0.0 && objective <= 0.08 + 1e-9, "{objective}");
}
