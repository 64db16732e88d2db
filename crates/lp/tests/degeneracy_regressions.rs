//! Degeneracy regression tests: hand-built stalling / cycling programs that
//! historically trip simplex implementations, pinned to terminate at the
//! right answer under every backend × pricing combination.
//!
//! Programs with a dual-feasible slack basis (every cost `≥ 0`, every row
//! an inequality) take the dual simplex under both revised configurations,
//! so the primal revised backend sees only the others here: the negative
//! costs of Beale's example and the zero-RHS chain, and equality rows.
//!
//! The fallback mechanics themselves (that a degenerate streak really
//! switches to the smallest-index rule) are pinned by unit tests inside
//! `revised.rs` and `dual.rs`, which can see the internal pivot counters;
//! these integration tests pin the user-visible contract: degenerate
//! programs terminate, classify correctly, and agree across configurations.

use prdnn_lp::{
    solve_with_options, ConstraintOp, LpBackend, LpProblem, PricingRule, SolveOptions, VarKind,
};

const CONFIGS: [(&str, LpBackend, PricingRule); 3] = [
    ("dense", LpBackend::DenseTableau, PricingRule::Auto),
    (
        "revised+dantzig",
        LpBackend::RevisedSparse,
        PricingRule::Dantzig,
    ),
    (
        "revised+devex",
        LpBackend::RevisedSparse,
        PricingRule::Devex,
    ),
];

/// Solves under every configuration with a finite iteration budget (so a
/// cycling solver fails the test instead of hanging) and checks agreement;
/// returns the dense oracle's objective.
fn solve_all_and_agree(lp: &LpProblem) -> f64 {
    let mut reference: Option<f64> = None;
    for (name, backend, pricing) in CONFIGS {
        let solution = solve_with_options(
            lp,
            &SolveOptions {
                backend,
                pricing,
                max_iters: 50_000,
            },
        )
        .unwrap_or_else(|e| panic!("{name} failed on a degenerate program: {e}"));
        assert!(
            lp.is_feasible(&solution.values, 1e-6),
            "{name} returned an infeasible point"
        );
        match reference {
            None => reference = Some(solution.objective),
            Some(r) => assert!(
                (r - solution.objective).abs() <= 1e-6 * (1.0 + r.abs()),
                "{name} disagrees on a degenerate program: {r} vs {}",
                solution.objective
            ),
        }
    }
    reference.unwrap()
}

#[test]
fn beale_cycling_example_terminates_under_all_configurations() {
    // Beale (1955): the classic example on which Dantzig's rule cycles
    // forever without an anti-cycling safeguard.
    //   min -0.75 x1 + 150 x2 - 0.02 x3 + 6 x4
    //   s.t. 0.25 x1 - 60 x2 - 0.04 x3 + 9 x4 <= 0
    //        0.50 x1 - 90 x2 - 0.02 x3 + 3 x4 <= 0
    //        x3 <= 1,  x >= 0
    // Optimum: x = (0.04, 0, 1, 0) with objective -0.05.
    let mut lp = LpProblem::new();
    let x = lp.add_vars(4, VarKind::NonNegative);
    lp.add_constraint(
        &[(x[0], 0.25), (x[1], -60.0), (x[2], -0.04), (x[3], 9.0)],
        ConstraintOp::Le,
        0.0,
    );
    lp.add_constraint(
        &[(x[0], 0.5), (x[1], -90.0), (x[2], -0.02), (x[3], 3.0)],
        ConstraintOp::Le,
        0.0,
    );
    lp.add_constraint(&[(x[2], 1.0)], ConstraintOp::Le, 1.0);
    lp.set_objective_linear(&[(x[0], -0.75), (x[1], 150.0), (x[2], -0.02), (x[3], 6.0)]);
    let objective = solve_all_and_agree(&lp);
    assert!(
        (objective + 0.05).abs() < 1e-7,
        "Beale optimum is -0.05, got {objective}"
    );
}

#[test]
fn zero_rhs_block_stalls_resolve() {
    // A long chain of zero-RHS rows makes every early vertex massively
    // degenerate: dozens of basic variables sit at level zero, and most
    // pivots make no progress.  The Devex rule must hand over to Bland
    // (pinned internally) and still reach the optimum.
    let n = 60usize;
    let mut lp = LpProblem::new();
    let x = lp.add_vars(n, VarKind::NonNegative);
    for i in 0..n - 1 {
        lp.add_constraint(&[(x[i], 1.0), (x[i + 1], -1.0)], ConstraintOp::Le, 0.0);
    }
    lp.add_constraint(
        &x.iter().map(|&v| (v, 1.0)).collect::<Vec<_>>(),
        ConstraintOp::Le,
        6.0,
    );
    let terms: Vec<_> = x
        .iter()
        .enumerate()
        .map(|(i, &v)| (v, -1.0 - (i % 3) as f64))
        .collect();
    lp.set_objective_linear(&terms);
    let objective = solve_all_and_agree(&lp);
    // All mass goes to the chain tail (largest coefficient reachable):
    // x_i ≤ x_{i+1} forces a nondecreasing profile, so the optimum is
    // bounded and strictly negative.
    assert!(objective < -6.0 + 1e-9);
}

#[test]
fn duplicate_rows_keep_all_configurations_consistent() {
    // Duplicate and scaled-duplicate rows create redundant constraints
    // whose artificials stay basic at zero (the inert-artificial path) —
    // a classic source of backend divergence.
    let mut lp = LpProblem::new();
    let x = lp.add_var(VarKind::Free);
    let y = lp.add_var(VarKind::Free);
    for scale in [1.0, 1.0, 2.0, 5.0] {
        lp.add_constraint(&[(x, scale), (y, scale)], ConstraintOp::Eq, 3.0 * scale);
    }
    lp.add_constraint(&[(x, 1.0), (y, -1.0)], ConstraintOp::Le, 1.0);
    lp.minimize_l1_of(&[x, y]);
    let objective = solve_all_and_agree(&lp);
    assert!((objective - 3.0).abs() < 1e-7, "l1-minimum on x+y=3 is 3");
}

/// The negative-RHS standard-form fixtures from PR 2, now pinned across
/// every backend × pricing combination (they exercise the slack-sign
/// flip that once seeded phase 1 with an unusable basis).
#[test]
fn negative_rhs_fixtures_hold_under_all_configurations() {
    // `x ≤ -3` with min |x|: the flipped row needs an artificial.
    let mut le = LpProblem::new();
    let x = le.add_var(VarKind::Free);
    le.add_constraint(&[(x, 1.0)], ConstraintOp::Le, -3.0);
    le.minimize_l1_of(&[x]);
    let objective = solve_all_and_agree(&le);
    assert!((objective - 3.0).abs() < 1e-7);

    // `-x ≥ -5` (⟺ x ≤ 5) with max x: the flipped row carries a clean
    // slack, so no artificial is needed.
    let mut ge = LpProblem::new();
    let x = ge.add_var(VarKind::NonNegative);
    ge.add_constraint(&[(x, -1.0)], ConstraintOp::Ge, -5.0);
    ge.set_objective_linear(&[(x, -1.0)]);
    let objective = solve_all_and_agree(&ge);
    assert!((objective + 5.0).abs() < 1e-7);

    // Mixed system with several flipped rows and an equality.
    let mut mixed = LpProblem::new();
    let a = mixed.add_var(VarKind::Free);
    let b = mixed.add_var(VarKind::Free);
    mixed.add_constraint(&[(a, 1.0), (b, 1.0)], ConstraintOp::Ge, -2.0);
    mixed.add_constraint(&[(a, 1.0), (b, -1.0)], ConstraintOp::Le, -1.0);
    mixed.add_constraint(&[(a, 2.0)], ConstraintOp::Eq, -3.0);
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
