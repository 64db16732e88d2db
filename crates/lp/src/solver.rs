//! Conversion from modelling form to standard form, and the solve.
//!
//! The conversion writes a *sparse* standard form straight from the
//! (already sparse) modelling constraints, once, together with the
//! all-slack basis the dual simplex ([`crate::dual`]) starts from.  Every
//! program the modelling layer builds has costs `≥ 0` (a norm's, or none)
//! and a slack on every row, so that basis is dual feasible and the dual
//! solves every program: no phase 1, and it pivots only on violated rows.
//!
//! [`ResumableLp`] keeps the standard form and the dual's state between
//! solves: an appended inequality row is converted exactly as the
//! conversion writes a row, its slack a new last column, and the next solve
//! resumes the dual from its basis.  [`solve`] and [`solve_with_limit`]
//! are a `ResumableLp` solved once.

use crate::dual::{self, COST_EPS, PIVOT_EPS};
use crate::problem::{ConstraintOp, LpProblem, Objective, VarId, VarKind};
use crate::sparse::{CsrMatrix, SparseStandardForm};
use crate::LpError;
use std::borrow::Cow;

/// An optimal solution of an [`LpProblem`].
#[derive(Debug, Clone, PartialEq)]
pub struct Solution {
    /// Value of each problem variable, indexed by [`crate::VarId::index`].
    pub values: Vec<f64>,
    /// Optimal objective value (0 for pure feasibility problems).
    pub objective: f64,
}

/// Work counters of the dual simplex, surfaced by [`ResumableLp::solve`]
/// and cumulative over every solve of one handle.  A lowered ℓ∞ objective
/// is solved as one augmented program, whose counters carry through.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LpStats {
    /// Simplex pivots.
    pub pivots: u64,
    /// Pivots taken under the smallest-index (Bland) anti-cycling fallback.
    pub bland_pivots: u64,
    /// Mid-solve basis refactorisations.
    pub refactorizations: u64,
    /// Dual-degenerate pivots: the entering reduced cost was zero, so the
    /// dual objective did not move.
    pub degenerate_pivots: u64,
}

/// Default simplex iteration limit used by [`solve`].
const DEFAULT_MAX_ITERS: usize = 2_000_000;

/// Solves the problem with the default iteration limit.
///
/// # Errors
///
/// Returns [`LpError::Infeasible`] if no point satisfies the constraints,
/// [`LpError::IterationLimit`] if the simplex iteration budget is
/// exhausted, and [`LpError::Numerical`] if the dual simplex breaks down.
pub fn solve(problem: &LpProblem) -> Result<Solution, LpError> {
    solve_with_limit(problem, DEFAULT_MAX_ITERS)
}

/// Solves the problem with an explicit simplex iteration limit.
///
/// # Errors
///
/// See [`solve`].
pub fn solve_with_limit(problem: &LpProblem, max_iters: usize) -> Result<Solution, LpError> {
    ResumableLp::new(problem, max_iters)
        .solve()
        .map(|(solution, _)| solution)
}

/// `problem` with an ℓ∞ objective lowered to an ℓ1 one: an extra bound
/// variable `t ≥ |x_i|` over the normed variables, the last variable, is
/// minimised.  Any other objective is returned as it is.
pub(crate) fn lowered(problem: &LpProblem) -> Cow<'_, LpProblem> {
    let Objective::MinimizeLinf(vars) = &problem.objective else {
        return Cow::Borrowed(problem);
    };
    let mut problem = problem.clone();
    let t = problem.add_var(VarKind::NonNegative);
    for v in vars {
        problem.add_constraint(&[(*v, 1.0), (t, -1.0)], ConstraintOp::Le, 0.0);
        problem.add_constraint(&[(*v, -1.0), (t, -1.0)], ConstraintOp::Le, 0.0);
    }
    problem.minimize_l1_of(&[t]);
    Cow::Owned(problem)
}

/// A norm-minimising LP that grows between solves: solve it, append
/// inequality rows, and solve again from the basis the last solve ended on.
/// This is delayed constraint generation (Bertsimas & Tsitsiklis,
/// *Introduction to Linear Optimization*, 1997, §6.3) on the dual simplex,
/// which re-optimises cheaply after rows are added (Koberstein, *The dual
/// simplex method*, PhD thesis, Paderborn 2005).
///
/// An appended row enters with its slack basic.  Its dual is 0, so the
/// basis stays dual feasible, and the next solve pivots only on the rows
/// the last point violates.  An ℓ∞ objective is lowered once, at
/// construction, so its bound variable and rows are in from the start.
/// `max_iters` bounds the iterations of all solves together.
///
/// # Example
///
/// ```
/// use prdnn_lp::{ConstraintOp, LpProblem, ResumableLp, VarKind};
///
/// # fn main() -> Result<(), prdnn_lp::LpError> {
/// let mut lp = LpProblem::new();
/// let x = lp.add_var(VarKind::Free);
/// lp.add_constraint(&[(x, 1.0)], ConstraintOp::Ge, 1.0);
/// lp.minimize_l1_of(&[x]);
/// let mut lp = ResumableLp::new(&lp, 1_000);
/// assert_eq!(lp.solve()?.0.values, vec![1.0]);
/// // x = 1 violates the new row: one more pivot, counted cumulatively.
/// lp.add_constraint(&[(x, 1.0)], ConstraintOp::Ge, 2.0);
/// let (solution, stats) = lp.solve()?;
/// assert_eq!((solution.values, stats.pivots), (vec![2.0], 2));
/// # Ok(())
/// # }
/// ```
pub struct ResumableLp {
    /// The caller's variables: the lowered ℓ∞ bound comes after them.
    num_vars: usize,
    mapping: VarMapping,
    dual: dual::Dual,
}

impl ResumableLp {
    /// Prepares `problem` for its first [`Self::solve`], with a budget of
    /// `max_iters` simplex iterations over every solve.
    pub fn new(problem: &LpProblem, max_iters: usize) -> Self {
        let (sf, mapping) = to_standard_form(&lowered(problem));
        ResumableLp {
            num_vars: problem.num_vars(),
            mapping,
            dual: dual::Dual::new(sf, max_iters),
        }
    }

    /// Appends the constraint `Σ coeffs_i · x_i  op  rhs`, as
    /// [`LpProblem::add_constraint`] does; the next [`Self::solve`] resumes
    /// with it.
    ///
    /// # Panics
    ///
    /// Panics if a variable does not belong to the problem.
    pub fn add_constraint(&mut self, coeffs: &[(VarId, f64)], op: ConstraintOp, rhs: f64) {
        for (v, _) in coeffs {
            assert!(
                v.0 < self.num_vars,
                "constraint references unknown variable {v:?}"
            );
        }
        let (entries, b) = self
            .mapping
            .standard_row(coeffs, op, rhs, self.dual.num_cols());
        self.dual.push_row(&entries, b);
    }

    /// Solves every row so far, resuming from the last solve's basis.  The
    /// counters are cumulative over every solve of this handle.
    ///
    /// # Errors
    ///
    /// See [`solve`]; [`LpError::IterationLimit`] once all solves together
    /// exceed the handle's `max_iters`.
    pub fn solve(&mut self) -> Result<(Solution, LpStats), LpError> {
        let (x, objective) = self.dual.resume()?;
        let values = self.mapping.values(&x, self.num_vars);
        Ok((Solution { values, objective }, self.dual.stats))
    }
}

/// How each problem variable maps onto standard-form columns.
pub(crate) struct VarMapping {
    /// `(positive_col, Option<negative_col>)` per problem variable; free
    /// variables are split `x = x⁺ − x⁻`.
    cols: Vec<(usize, Option<usize>)>,
}

impl VarMapping {
    /// The values of the first `num_vars` problem variables at the
    /// standard-form point `x`.
    pub(crate) fn values(&self, x: &[f64], num_vars: usize) -> Vec<f64> {
        self.cols[..num_vars]
            .iter()
            .map(|&(p, n)| x[p] - n.map_or(0.0, |n| x[n]))
            .collect()
    }

    /// The inequality `terms · x op rhs` as [`to_standard_form`] writes a
    /// row: its entries, oriented so that `b ≥ 0`, sorted and merged, with
    /// its slack in column `slack` last; and `b`.
    fn standard_row(
        &self,
        terms: &[(VarId, f64)],
        op: ConstraintOp,
        rhs: f64,
        slack: usize,
    ) -> (Vec<(usize, f64)>, f64) {
        let (negate, op, rhs) = oriented(op, rhs);
        let mut row = Vec::with_capacity(2 * terms.len() + 1);
        split_terms(&self.cols, terms, negate, &mut row);
        row.push((slack, slack_value(op)));
        let mut entries = Vec::with_capacity(row.len());
        push_merged(&mut row, &mut entries);
        (entries, rhs)
    }
}

/// Converts a modelling-form problem into sparse standard simplex form.
///
/// Each row is one constraint: a free variable splits into the adjacent
/// columns `x⁺, x⁻`, a row with a negative right-hand side is negated (its
/// operator flipped) so that `b ≥ 0`, and row `i` then gets its own slack
/// column, after the variables' columns: `+1` for `≤` and `−1` for `≥`.
/// The CSR arrays are written once, at their exact size: a row whose
/// variables strictly increase maps onto strictly increasing columns and is
/// copied as it stands; any other row is sorted, its repeated columns
/// summed, and exact zeros dropped.  The objective must not be ℓ∞
/// ([`lowered`] lowers it first).
pub(crate) fn to_standard_form(problem: &LpProblem) -> (SparseStandardForm, VarMapping) {
    // Assign columns to variables.
    let mut cols: Vec<(usize, Option<usize>)> = Vec::with_capacity(problem.num_vars());
    let mut next = 0usize;
    for kind in &problem.kinds {
        match kind {
            VarKind::NonNegative => {
                cols.push((next, None));
                next += 1;
            }
            VarKind::Free => {
                cols.push((next, Some(next + 1)));
                next += 2;
            }
        }
    }
    let num_var_cols = next;
    // One slack/surplus column per constraint.
    let m = problem.num_constraints();
    let num_cols = num_var_cols + m;
    let c = standard_costs(problem, &cols, num_cols);

    // Pass 1: size every row.  The rows that need sorting are sorted and
    // merged here, into `merged`, and `merged_len` records each one's length.
    let mut merged: Vec<(usize, f64)> = Vec::new();
    let mut merged_len: Vec<Option<usize>> = Vec::with_capacity(m);
    let mut scratch: Vec<(usize, f64)> = Vec::new();
    let mut nnz = m;
    for (i, (terms, op, rhs)) in problem.constraints().enumerate() {
        if terms.windows(2).all(|pair| pair[0].0 < pair[1].0) {
            merged_len.push(None);
            nnz += terms
                .iter()
                .filter(|&&(_, coeff)| coeff != 0.0)
                .map(|(v, _)| 1 + usize::from(cols[v.0].1.is_some()))
                .sum::<usize>();
        } else {
            let (negate, op, _) = oriented(op, rhs);
            scratch.clear();
            split_terms(&cols, terms, negate, &mut scratch);
            scratch.push((num_var_cols + i, slack_value(op)));
            let before = merged.len();
            push_merged(&mut scratch, &mut merged);
            merged_len.push(Some(merged.len() - before));
            nnz += merged.len() - before - 1;
        }
    }

    // The slack basis needs, per zero-cost variable column, its entry count
    // and last entry.
    let candidate: Vec<bool> = c[..num_var_cols]
        .iter()
        .map(|&cost| cost <= COST_EPS)
        .collect();
    let track = candidate.contains(&true);
    let mut col_entries = vec![(0usize, 0usize, 0.0f64); if track { num_var_cols } else { 0 }];
    let mut record = |i: usize, j: usize, v: f64| {
        if track && j < num_var_cols && candidate[j] {
            let (count, _, _) = col_entries[j];
            col_entries[j] = (count + 1, i, v);
        }
    };

    // Pass 2: write the arrays.
    let mut indptr = Vec::with_capacity(m + 1);
    let mut indices = Vec::with_capacity(nnz);
    let mut values = Vec::with_capacity(nnz);
    let mut b = Vec::with_capacity(m);
    let mut merged = merged.into_iter();
    indptr.push(0);
    for (i, ((terms, op, rhs), len)) in problem.constraints().zip(merged_len).enumerate() {
        let (negate, op, rhs) = oriented(op, rhs);
        match len {
            None => {
                for &(v, coeff) in terms {
                    if coeff != 0.0 {
                        let coeff = if negate { -coeff } else { coeff };
                        let (p, n) = cols[v.0];
                        indices.push(p);
                        values.push(coeff);
                        record(i, p, coeff);
                        if let Some(n) = n {
                            indices.push(n);
                            values.push(-coeff);
                            record(i, n, -coeff);
                        }
                    }
                }
                indices.push(num_var_cols + i);
                values.push(slack_value(op));
            }
            Some(len) => {
                for (j, v) in merged.by_ref().take(len) {
                    indices.push(j);
                    values.push(v);
                    record(i, j, v);
                }
            }
        }
        indptr.push(indices.len());
        b.push(rhs);
    }
    debug_assert_eq!(indices.len(), nnz);

    // The slack basis: per row, the lowest singleton ±1 column of zero
    // cost.  Variable columns come first; the row's own slack always
    // qualifies.
    let mut basis: Vec<Option<usize>> = vec![None; m];
    for (j, &(count, i, v)) in col_entries.iter().enumerate() {
        if count == 1 && (v.abs() - 1.0).abs() <= PIVOT_EPS && basis[i].is_none() {
            basis[i] = Some(j);
        }
    }
    let dual_slacks = basis
        .into_iter()
        .enumerate()
        .map(|(i, var_col)| var_col.unwrap_or(num_var_cols + i))
        .collect();

    let a = CsrMatrix::from_parts(num_cols, indptr, indices, values);
    // Record the split pairs: column `n` is the exact negation of `p`.
    let mut mirror = vec![None; num_cols];
    for &(p, n) in &cols {
        if let Some(n) = n {
            mirror[p] = Some(n);
        }
    }
    let sf = SparseStandardForm {
        a,
        b,
        c,
        mirror,
        dual_slacks,
    };
    (sf, VarMapping { cols })
}

/// Standard form needs `b ≥ 0`: a row with a negative right-hand side is
/// negated *before* its slack is assigned, its operator flipped to match,
/// so the slack sign follows directly from the (flipped) operator.  Returns
/// whether to negate, and the row's operator and right-hand side after.
fn oriented(op: ConstraintOp, rhs: f64) -> (bool, ConstraintOp, f64) {
    if rhs < 0.0 {
        let flipped = match op {
            ConstraintOp::Le => ConstraintOp::Ge,
            ConstraintOp::Ge => ConstraintOp::Le,
        };
        (true, flipped, -rhs)
    } else {
        (false, op, rhs)
    }
}

/// Appends each term's standard-form entries to `out`, negated when
/// `negate`: a free variable's coefficient on `x⁺`, and negated on `x⁻`.
fn split_terms(
    cols: &[(usize, Option<usize>)],
    terms: &[(VarId, f64)],
    negate: bool,
    out: &mut Vec<(usize, f64)>,
) {
    for &(v, coeff) in terms {
        let coeff = if negate { -coeff } else { coeff };
        let (p, n) = cols[v.0];
        out.push((p, coeff));
        if let Some(n) = n {
            out.push((n, -coeff));
        }
    }
}

/// The slack coefficient of an (oriented) row: `+1` for `≤`, `−1` for `≥`.
fn slack_value(op: ConstraintOp) -> f64 {
    match op {
        ConstraintOp::Le => 1.0,
        ConstraintOp::Ge => -1.0,
    }
}

/// Sorts one row's `(column, value)` entries by column and appends them to
/// `out` with repeated columns summed and exact zeros dropped.
fn push_merged(row: &mut [(usize, f64)], out: &mut Vec<(usize, f64)>) {
    row.sort_unstable_by_key(|&(j, _)| j);
    let mut k = 0;
    while k < row.len() {
        let (j, mut v) = row[k];
        k += 1;
        while k < row.len() && row[k].0 == j {
            v += row[k].1;
            k += 1;
        }
        if v != 0.0 {
            out.push((j, v));
        }
    }
}

/// The standard-form cost vector: `+1` on both columns of each normed
/// variable (once per listing), zero elsewhere.
fn standard_costs(
    problem: &LpProblem,
    cols: &[(usize, Option<usize>)],
    num_cols: usize,
) -> Vec<f64> {
    let mut c = vec![0.0; num_cols];
    match &problem.objective {
        Objective::Feasibility => {}
        Objective::MinimizeL1(vars) => {
            // With the split x = x⁺ − x⁻, minimising Σ (x⁺ + x⁻) equals
            // minimising Σ |x| (at an optimum at most one of the pair is
            // non-zero).
            for v in vars {
                let (p, n) = cols[v.0];
                c[p] += 1.0;
                if let Some(n) = n {
                    c[n] += 1.0;
                }
            }
        }
        Objective::MinimizeLinf(_) => unreachable!("lowered before conversion"),
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simplex::{solve_oracle, solve_standard};
    use crate::{LpProblem, VarKind};
    use proptest::prelude::*;

    /// Solves with the dual and checks it against the dense tableau oracle:
    /// the same classification, and the same objective within 1e-6.
    fn solve_checked(lp: &LpProblem) -> Result<Solution, LpError> {
        let solved = solve(lp);
        match (&solved, solve_oracle(lp, DEFAULT_MAX_ITERS)) {
            (Ok(dual), Ok(dense)) => assert!(
                (dual.objective - dense.objective).abs() < 1e-6,
                "dual {} vs dense {}",
                dual.objective,
                dense.objective
            ),
            (dual, dense) => assert_eq!(dual.clone().err(), dense.err(), "classification"),
        }
        solved
    }

    #[test]
    fn l1_minimisation_prefers_sparse_solutions() {
        // Constraints: x + y >= 1. The l1-minimal solutions have |x|+|y| = 1.
        let mut lp = LpProblem::new();
        let x = lp.add_var(VarKind::Free);
        let y = lp.add_var(VarKind::Free);
        lp.add_constraint(&[(x, 1.0), (y, 1.0)], ConstraintOp::Ge, 1.0);
        lp.minimize_l1_of(&[x, y]);
        let sol = solve_checked(&lp).unwrap();
        assert!((sol.objective - 1.0).abs() < 1e-7);
        assert!(lp.is_feasible(&sol.values, 1e-7));
    }

    #[test]
    fn linf_minimisation_spreads_mass() {
        // x + y >= 1 with linf objective: optimum max(|x|,|y|) = 0.5.
        let mut lp = LpProblem::new();
        let x = lp.add_var(VarKind::Free);
        let y = lp.add_var(VarKind::Free);
        lp.add_constraint(&[(x, 1.0), (y, 1.0)], ConstraintOp::Ge, 1.0);
        lp.minimize_linf_of(&[x, y]);
        let sol = solve_checked(&lp).unwrap();
        assert!((sol.objective - 0.5).abs() < 1e-7);
        assert!(lp.is_feasible(&sol.values, 1e-7));
        assert!(sol.values.iter().all(|v| v.abs() <= 0.5 + 1e-7));
    }

    #[test]
    fn negative_rhs_handled() {
        // x <= -3 with min |x| => x = -3.
        let mut lp = LpProblem::new();
        let x = lp.add_var(VarKind::Free);
        lp.add_constraint(&[(x, 1.0)], ConstraintOp::Le, -3.0);
        lp.minimize_l1_of(&[x]);
        let sol = solve_checked(&lp).unwrap();
        assert!((sol.values[0] + 3.0).abs() < 1e-7);
        assert!((sol.objective - 3.0).abs() < 1e-7);
    }

    #[test]
    fn negative_rhs_ge_rows_get_usable_slack() {
        // Pins the standard-form slack invariant: a `≥` row with negative
        // RHS is flipped to a `≤` row with positive RHS and must carry a
        // clean `+1` slack, which the slack basis uses directly.  Guards
        // the flip-before-slack rewrite of `to_standard_form`.
        let mut lp = LpProblem::new();
        let x = lp.add_var(VarKind::NonNegative);
        lp.add_constraint(&[(x, -1.0)], ConstraintOp::Ge, -5.0); // -x >= -5 ⟺ x <= 5
        let (sf, _) = to_standard_form(&lp);
        assert_eq!(sf.b, vec![5.0]);
        let (cols, vals) = sf.a.row(0);
        // Row stores x's coefficient +1 (negated) and the slack +1.
        assert_eq!(cols, &[0, 1]);
        assert_eq!(vals, &[1.0, 1.0]);

        // And the flipped row holds, tight, at the optimum of x ≥ 5.
        lp.add_constraint(&[(x, 1.0)], ConstraintOp::Ge, 5.0);
        lp.minimize_l1_of(&[x]);
        let sol = solve_checked(&lp).unwrap();
        assert!((sol.values[0] - 5.0).abs() < 1e-7);
    }

    #[test]
    fn negative_rhs_le_rows_become_surplus_rows() {
        // The mirror case: `x ≤ -3` flips to `-x ≥ 3`, whose surplus is -1.
        // The origin violates this row, so the dual starts by pivoting on it.
        let mut lp = LpProblem::new();
        let x = lp.add_var(VarKind::Free);
        lp.add_constraint(&[(x, 1.0)], ConstraintOp::Le, -3.0);
        let (sf, _) = to_standard_form(&lp);
        assert_eq!(sf.b, vec![3.0]);
        let (cols, vals) = sf.a.row(0);
        // x = p - n: flipped row is -p + n - s = 3 with surplus s.
        assert_eq!(cols, &[0, 1, 2]);
        assert_eq!(vals, &[-1.0, 1.0, -1.0]);
    }

    #[test]
    fn infeasible_problem_reports_error() {
        let mut lp = LpProblem::new();
        let x = lp.add_var(VarKind::Free);
        lp.add_constraint(&[(x, 1.0)], ConstraintOp::Ge, 1.0);
        lp.add_constraint(&[(x, 1.0)], ConstraintOp::Le, 0.0);
        lp.minimize_l1_of(&[x]);
        assert_eq!(solve_checked(&lp), Err(LpError::Infeasible));
    }

    #[test]
    fn feasibility_only_problem() {
        let mut lp = LpProblem::new();
        let x = lp.add_var(VarKind::NonNegative);
        lp.add_constraint(&[(x, 1.0)], ConstraintOp::Ge, 2.0);
        let sol = solve_checked(&lp).unwrap();
        assert!(lp.is_feasible(&sol.values, 1e-7));
        // No rows at all: the origin.
        let mut empty = LpProblem::new();
        let x = empty.add_vars(2, VarKind::Free);
        empty.minimize_l1_of(&x);
        let sol = solve_checked(&empty).unwrap();
        assert_eq!((sol.values, sol.objective), (vec![0.0, 0.0], 0.0));
    }

    #[test]
    fn equality_constraints_with_free_vars() {
        // x + 2y = 4, x - y = 1, each as a `≤` and `≥` pair => x = 2, y = 1.
        let mut lp = LpProblem::new();
        let x = lp.add_var(VarKind::Free);
        let y = lp.add_var(VarKind::Free);
        for (terms, rhs) in [([(x, 1.0), (y, 2.0)], 4.0), ([(x, 1.0), (y, -1.0)], 1.0)] {
            lp.add_constraint(&terms, ConstraintOp::Le, rhs);
            lp.add_constraint(&terms, ConstraintOp::Ge, rhs);
        }
        lp.minimize_l1_of(&[x, y]);
        let sol = solve_checked(&lp).unwrap();
        assert!((sol.values[0] - 2.0).abs() < 1e-6);
        assert!((sol.values[1] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn iteration_limit_is_reported() {
        let mut lp = LpProblem::new();
        let xs = lp.add_vars(8, VarKind::Free);
        for (i, x) in xs.iter().enumerate() {
            lp.add_constraint(&[(*x, 1.0)], ConstraintOp::Ge, i as f64);
        }
        lp.minimize_l1_of(&xs);
        assert_eq!(solve_with_limit(&lp, 1), Err(LpError::IterationLimit));
    }

    /// The per-row builder `to_standard_form` replaced, kept as its oracle:
    /// one `Vec` per row, flipped and given its slack, then sorted and
    /// merged by `CsrMatrix::from_rows`.
    fn reference_standard_form(problem: &LpProblem) -> SparseStandardForm {
        let mut cols: Vec<(usize, Option<usize>)> = Vec::with_capacity(problem.num_vars());
        let mut next = 0usize;
        for kind in &problem.kinds {
            match kind {
                VarKind::NonNegative => {
                    cols.push((next, None));
                    next += 1;
                }
                VarKind::Free => {
                    cols.push((next, Some(next + 1)));
                    next += 2;
                }
            }
        }
        let num_var_cols = next;
        let num_cols = num_var_cols + problem.num_constraints();

        let mut rows: Vec<Vec<(usize, f64)>> = Vec::new();
        let mut b: Vec<f64> = Vec::new();
        for (slack_idx, (terms, op, rhs)) in (num_var_cols..).zip(problem.constraints()) {
            let mut row: Vec<(usize, f64)> = Vec::new();
            for (v, coeff) in terms {
                let (p, n) = cols[v.0];
                row.push((p, *coeff));
                if let Some(n) = n {
                    row.push((n, -*coeff));
                }
            }
            let mut rhs = rhs;
            let mut op = op;
            if rhs < 0.0 {
                for (_, v) in row.iter_mut() {
                    *v = -*v;
                }
                rhs = -rhs;
                op = match op {
                    ConstraintOp::Le => ConstraintOp::Ge,
                    ConstraintOp::Ge => ConstraintOp::Le,
                };
            }
            match op {
                ConstraintOp::Le => row.push((slack_idx, 1.0)),
                ConstraintOp::Ge => row.push((slack_idx, -1.0)),
            }
            rows.push(row);
            b.push(rhs);
        }
        let c = standard_costs(problem, &cols, num_cols);
        let a = CsrMatrix::from_rows(num_cols, &rows);
        let mut mirror = vec![None; num_cols];
        for &(p, n) in &cols {
            if let Some(n) = n {
                mirror[p] = Some(n);
            }
        }
        let mut sf = SparseStandardForm {
            a,
            b,
            c,
            mirror,
            dual_slacks: Vec::new(),
        };
        sf.dual_slacks = dual::dual_feasible_slack_basis(&sf).expect("a slack on every row");
        sf
    }

    /// Asserts that `to_standard_form` matches the oracle bit for bit, and
    /// that its slack basis is the one the seeding scan picks.
    fn assert_conversion_matches_oracle(lp: &LpProblem) {
        let (sf, _) = to_standard_form(lp);
        let reference = reference_standard_form(lp);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let ((indptr, indices, values), (ref_indptr, ref_indices, ref_values)) =
            (sf.a.parts(), reference.a.parts());
        assert_eq!(sf.a.ncols(), reference.a.ncols());
        assert_eq!(indptr, ref_indptr, "indptr");
        assert_eq!(indices, ref_indices, "indices");
        assert_eq!(bits(values), bits(ref_values), "values");
        assert_eq!(bits(&sf.b), bits(&reference.b), "b");
        assert_eq!(bits(&sf.c), bits(&reference.c), "c");
        assert_eq!(sf.mirror, reference.mirror, "mirror");
        assert_eq!(sf.dual_slacks, reference.dual_slacks, "slack basis");

        // Rows appended one at a time, as a `ResumableLp` does, are written
        // the same way, slack columns included.
        let mut empty = lp.clone();
        empty.terms.clear();
        empty.rows.clear();
        let (mut appended, mapping) = to_standard_form(&empty);
        for (terms, op, rhs) in lp.constraints() {
            let slack = appended.num_cols();
            let (entries, b) = mapping.standard_row(terms, op, rhs, slack);
            appended.a.push_row(slack + 1, &entries);
            appended.b.push(b);
        }
        let (indptr, indices, values) = appended.a.parts();
        assert_eq!(appended.a.ncols(), reference.a.ncols());
        assert_eq!(indptr, ref_indptr, "appended indptr");
        assert_eq!(indices, ref_indices, "appended indices");
        assert_eq!(bits(values), bits(ref_values), "appended values");
        assert_eq!(bits(&appended.b), bits(&reference.b), "appended b");
    }

    #[test]
    fn conversion_picks_the_seeding_scans_slack_basis() {
        // Zero-cost singleton variable columns beat the slack of their row
        // when within PIVOT_EPS of ±1 (x0 on row 0; x1⁺, at −1 once the
        // row is flipped, on row 1), not otherwise (x2 on row 2).
        let mut lp = LpProblem::new();
        let x0 = lp.add_var(VarKind::NonNegative);
        let x1 = lp.add_var(VarKind::Free);
        let x2 = lp.add_var(VarKind::NonNegative);
        let y = lp.add_var(VarKind::Free);
        lp.add_constraint(&[(x0, 1.0 + 5e-11), (y, 2.0)], ConstraintOp::Le, 1.0);
        lp.add_constraint(&[(y, 1.0), (x1, 1.0)], ConstraintOp::Ge, -2.0);
        lp.add_constraint(&[(x2, 0.5), (y, -1.0)], ConstraintOp::Ge, 1.0);
        lp.minimize_l1_of(&[y]);
        assert_conversion_matches_oracle(&lp);
        let (sf, _) = to_standard_form(&lp);
        // Columns: x0, x1⁺ x1⁻, x2, y⁺ y⁻, then the slacks 6, 7, 8.
        assert_eq!(sf.dual_slacks, vec![0, 1, 8]);
        // A normed column costs 1, so it is no row's starting basic column.
        lp.minimize_l1_of(&[x0, y]);
        assert_eq!(to_standard_form(&lp).0.dual_slacks, vec![6, 1, 8]);
        assert_conversion_matches_oracle(&lp);
    }

    /// A random modelling-form program: `(free, rows, objective)`, where a
    /// row is `(op, rhs, sorted, terms)` and a term `(variable, kind, x)`
    /// picks its coefficient: 0, ±1, 1 + 5e-11, `x`, or `x` followed by an
    /// exactly cancelling `−x`.
    type Program = (
        Vec<bool>,
        Vec<(u8, f64, bool, Vec<(usize, u8, f64)>)>,
        (u8, Vec<f64>),
    );

    fn program() -> impl Strategy<Value = Program> {
        let term = (0usize..5, 0u8..7, -3.0..3.0f64);
        let row = (
            0u8..2,
            -2.0..2.0f64,
            0u8..2,
            prop::collection::vec(term, 0..6),
        )
            .prop_map(|(op, rhs, sorted, terms)| (op, rhs, sorted == 1, terms));
        (
            prop::collection::vec(0u8..2, 5),
            prop::collection::vec(row, 0..7),
            (0u8..3, prop::collection::vec(-1.0..3.0f64, 5)),
        )
            .prop_map(|(free, rows, objective)| {
                (free.iter().map(|&f| f == 1).collect(), rows, objective)
            })
    }

    fn build(program: &Program) -> LpProblem {
        let (free, rows, (objective, weights)) = program;
        let mut lp = LpProblem::new();
        let vars: Vec<VarId> = free
            .iter()
            .map(|&f| {
                lp.add_var(if f {
                    VarKind::Free
                } else {
                    VarKind::NonNegative
                })
            })
            .collect();
        for (op, rhs, sorted, terms) in rows {
            let mut coeffs = Vec::new();
            for &(v, kind, x) in terms {
                let coeff = match kind {
                    0 => 0.0,
                    1 => 1.0,
                    2 => -1.0,
                    3 => 1.0 + 5e-11,
                    _ => x,
                };
                coeffs.push((vars[v], coeff));
                if kind == 6 {
                    coeffs.push((vars[v], -x));
                }
            }
            if *sorted {
                coeffs.sort_by_key(|&(v, _)| v);
                coeffs.dedup_by_key(|&mut (v, _)| v);
            }
            let op = [ConstraintOp::Le, ConstraintOp::Ge][*op as usize];
            // Every fourth right-hand side is exactly zero.
            let rhs = if (rhs * 4.0).fract().abs() < 0.25 {
                0.0
            } else {
                *rhs
            };
            lp.add_constraint(&coeffs, op, rhs);
        }
        let normed = &vars[..weights.len().min(1 + (weights[0].abs() * 2.0) as usize)];
        match objective {
            0 => {}
            1 => lp.minimize_l1_of(normed),
            _ => {
                lp.minimize_linf_of(normed);
                lp = lowered(&lp).into_owned();
            }
        }
        lp
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn conversion_matches_the_per_row_oracle_bit_for_bit(p in program()) {
            assert_conversion_matches_oracle(&build(&p));
        }
    }

    #[test]
    fn solve_with_stats_counts_pivots_on_both_backends() {
        // A wide block-sparse program with every row violated at the
        // origin: the dual takes one pivot per violated row.
        let mut wide = LpProblem::new();
        let vars = wide.add_vars(128, VarKind::Free);
        for block in 0..16 {
            let terms: Vec<_> = (0..8).map(|k| (vars[block * 8 + k], 1.0)).collect();
            wide.add_constraint(&terms, ConstraintOp::Ge, 1.0);
        }
        wide.minimize_l1_of(&vars);
        let (solution, stats) = ResumableLp::new(&wide, DEFAULT_MAX_ITERS).solve().unwrap();
        assert!((solution.objective - 16.0).abs() < 1e-6);
        assert_eq!(stats.pivots, 16, "{stats:?}");

        // The same rows satisfied at the origin: the slack basis is already
        // optimal, and the dual reports no work.
        let mut satisfied = LpProblem::new();
        let vars = satisfied.add_vars(128, VarKind::Free);
        for block in 0..16 {
            let terms: Vec<_> = (0..8).map(|k| (vars[block * 8 + k], 1.0)).collect();
            satisfied.add_constraint(&terms, ConstraintOp::Ge, -1.0);
        }
        satisfied.minimize_l1_of(&vars);
        let (satisfied_solution, satisfied_stats) = ResumableLp::new(&satisfied, DEFAULT_MAX_ITERS)
            .solve()
            .unwrap();
        assert_eq!(satisfied_solution.objective, 0.0);
        assert_eq!(satisfied_stats, LpStats::default());

        // The dense tableau oracle reaches the same optimum and counts its
        // work: each of the 16 `≥` rows starts on an artificial, which only
        // a pivot can remove, and no factorised basis means no
        // refactorisations.
        let (dense_solution, dense_stats) =
            solve_standard(&to_standard_form(&wide).0.to_dense(), DEFAULT_MAX_ITERS);
        let dense_objective = match dense_solution {
            crate::simplex::SimplexOutcome::Optimal { objective, .. } => objective,
            other => panic!("{other:?}"),
        };
        assert!((dense_objective - solution.objective).abs() < 1e-6);
        assert!(dense_stats.pivots >= 16, "{dense_stats:?}");
        assert_eq!(dense_stats.refactorizations, 0);

        // ℓ∞ lowering carries the augmented solve's counters through.
        let mut linf = LpProblem::new();
        let x = linf.add_var(VarKind::Free);
        let y = linf.add_var(VarKind::Free);
        linf.add_constraint(&[(x, 1.0), (y, 1.0)], ConstraintOp::Ge, 1.0);
        linf.minimize_linf_of(&[x, y]);
        let (linf_solution, linf_stats) =
            ResumableLp::new(&linf, DEFAULT_MAX_ITERS).solve().unwrap();
        assert!((linf_solution.objective - 0.5).abs() < 1e-7);
        assert!(linf_stats.pivots > 0);
    }
}
