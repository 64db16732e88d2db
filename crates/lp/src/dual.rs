//! Dual simplex from the all-slack basis.
//!
//! Every repair LP minimises a norm, so every cost is `≥ 0` (+1 on the ℓ1
//! split halves, +1 on the ℓ∞ bound `t`, 0 elsewhere), and every row is an
//! inequality with a singleton ±1 slack column of zero cost.  The all-slack
//! basis `B = diag(±1)` therefore prices every column at its own cost: it
//! is *dual feasible*, and its basic values `x_B = B⁻¹ b` are negative
//! exactly on the rows the unrepaired network violates.  The dual simplex
//! starts there, needs no artificial variables and no phase 1, and pivots
//! only while some row is violated, keeping every reduced cost `d ≥ 0`
//! (Koberstein, *The dual simplex method, techniques for a fast and stable
//! implementation*, PhD thesis, Paderborn 2005).
//!
//! One iteration:
//!
//! 1. **Leaving row** — dual steepest edge (Forrest & Goldfarb, Math. Prog.
//!    1992): among the rows with `x_r < 0`, the one maximising
//!    `x_r² / β_r`, where `β_r = ‖e_rᵀ B⁻¹‖²` is exactly 1 at the slack
//!    basis and kept up to date by the Forrest–Goldfarb recurrence.
//! 2. **Pivot row** — `ρ = B⁻ᵀ e_r` (BTRAN), then `α_j = ρ · A_j` for every
//!    nonbasic column, accumulated from the CSR rows of `ρ`'s non-zeros.
//!    `ρ` vanishes on every row whose slack is basic elsewhere, so it has
//!    at most one non-zero per structural basic column, plus one.
//! 3. **Entering column** — Harris' two-pass ratio test: a bound on the
//!    dual step with every reduced cost relaxed by `COST_EPS`, then the
//!    largest `|α_q|` within it.  No column with `α_j < 0` proves the
//!    program infeasible: row `r` reads `x_p + Σ α_j x_j = x_r < 0` with
//!    every `α_j ≥ 0` and `x ≥ 0`.
//! 4. **Update** — FTRAN the entering column (looked up row by row in the
//!    CSR, the only layout of `A` the dual reads) and `τ = B⁻¹ ρ` (for the
//!    weights), move `d` and `x_B`, and append one eta to the basis.
//!
//! The slack columns are the basis's unit columns ([`crate::basis`]), so
//! the starting basis factorises in `O(m)` and a refactorisation after `k`
//! structural pivots factorises only a `k × k` kernel.
//!
//! **Resuming after rows are appended** ([`crate::ResumableLp`], delayed
//! constraint generation).  A new row's slack is a new last column, so no
//! column id changes, and it enters the basis on the new row.  The row's
//! dual is 0, so no reduced cost moves and the basis stays dual feasible;
//! the slack's value is the row's residual at the current point, negative
//! exactly when the point violates the row.  The new row is a unit row of
//! the basis, so the kernel keeps its size: each round refactorises once
//! (counted as a round, not in `refactorizations`, which counts mid-solve
//! ones), and each new row gets its exact weight `‖e_rᵀ B⁻¹‖²` from one
//! BTRAN; the old rows' weights are unchanged.  The loop then continues
//! with the iteration budget every solve of the program shares.  A column
//! that was some row's singleton (a unit column) and gains an entry on the
//! new row is factorised as a structural column from then on.
//!
//! After a streak of `BLAND_THRESHOLD` dual-degenerate pivots (the
//! entering reduced cost was zero, so the dual objective did not move) both
//! choices fall back to the smallest index — leaving row by basic column,
//! entering column among the ratio ties — which guarantees termination.
//!
//! `Optimal` is returned only after a check against the program itself:
//! `A x − b`, recomputed from the CSR rows, and the reduced costs,
//! recomputed from a fresh BTRAN, must both be within tolerance.  Otherwise
//! the basis is refactorised and the loop resumes; a check that still fails
//! on a fresh factorisation is a numerical breakdown, and the caller takes
//! the primal path instead.
//!
//! The classifying tolerances are the primal backends'.  A row is violated
//! below `-FEAS_EPS`, the bound on the oracle's phase-1 value.  A column
//! can enter only with `α_j < -COST_EPS`: with one violated row, `α_j` is
//! the column's phase-1 reduced cost, which the primal backends enter only
//! below `-COST_EPS`.  A reduced cost within `COST_EPS` of zero is
//! degenerate.  So on a program with one violated row the dual reports
//! `Infeasible` exactly where the oracle's phase 1 does; with several, the
//! two may spread a violation under `FEAS_EPS` over the rows differently.
//! Only the optimality check has tolerances of its own.

use crate::basis::{Basis, UpdateOutcome};
use crate::revised::{RevisedStats, BLAND_THRESHOLD};
#[cfg(test)]
use crate::simplex::seed_basis_from_unit_columns;
use crate::simplex::{solve_unconstrained, SimplexOutcome, COST_EPS, FEAS_EPS, PIVOT_EPS};
use crate::sparse::{CsrMatrix, SparseStandardForm};
use std::borrow::Cow;

/// Relative disagreement between two computations of one quantity that
/// marks the eta file as drifted: the pivot element from the pivot row and
/// from the FTRANed column (against `1 + |α_q|`), and `(A x)_i` from the CSR
/// rows and `b_i` in the optimality check (against `1 + |b_i| + Σ_j
/// |a_ij x_j|`, the size of the terms that cancel).
const DRIFT_TOL: f64 = 1e-9;

/// Relative tolerance of the optimality check on a recomputed reduced cost,
/// `−d_j` against `1 + c_j`: looser than `COST_EPS`, which the updated
/// values may drift past by rounding.
const DUAL_CHECK_TOL: f64 = 1e-7;

/// The all-slack basis, when it is dual feasible: every cost is `≥ 0`, and
/// every row has a singleton ±1 column of zero cost (its slack).  `None`
/// sends the program down the primal path.
///
/// The oracle for [`SparseStandardForm::dual_slacks`], which the
/// conversion records without this second pass over every entry.
#[cfg(test)]
pub(crate) fn dual_feasible_slack_basis(sf: &SparseStandardForm) -> Option<Vec<usize>> {
    if sf.c.iter().any(|&c| c < 0.0) {
        return None;
    }
    // The primal seeding scan with the signs dropped: the −1 surplus of a
    // `≥` row starts the dual as well as a +1 slack does.
    let entries = (0..sf.num_rows()).flat_map(|i| {
        let (cols, vals) = sf.a.row(i);
        cols.iter().zip(vals).map(move |(&j, &v)| (i, j, v.abs()))
    });
    seed_basis_from_unit_columns(sf.num_rows(), sf.num_cols(), &sf.c, entries)
        .into_iter()
        .collect()
}

/// Dual simplex on a standard-form program from the dual-feasible basis
/// `slacks` (one column per row, [`SparseStandardForm::dual_slacks`]).
///
/// `Err` is a numerical breakdown (a singular refactorisation, or an
/// optimality check that fails on a fresh factorisation); it carries the
/// work done so far.  The outcome is never `Unbounded`: costs `≥ 0` bound
/// the objective below by 0.
pub(crate) fn solve(
    sf: &SparseStandardForm,
    slacks: &[usize],
    max_iters: usize,
) -> Result<(SimplexOutcome, RevisedStats), RevisedStats> {
    if sf.num_rows() == 0 {
        return Ok((
            solve_unconstrained(sf.num_cols(), &sf.c),
            RevisedStats::default(),
        ));
    }
    let Some(mut dual) = Dual::new(Cow::Borrowed(sf), slacks, max_iters) else {
        return Err(RevisedStats::default());
    };
    match dual.run() {
        Ok(outcome) => Ok((outcome, dual.stats)),
        Err(Breakdown) => Err(dual.stats),
    }
}

/// Whether a row whose slack takes the value `residual` — `b − a·x` for a
/// `a·x ≤ b` row, `a·x − b` for a `≥` one — is violated: the dual
/// simplex's leaving-row test, `residual < −1e-7` (the bound on the dense
/// oracle's phase-1 value).  Row generation stops on this same test, so
/// a row it leaves out of the LP is one the dual would not pivot on.
pub fn is_violated(residual: f64) -> bool {
    residual < -FEAS_EPS
}

/// Factorises the basis `basis_cols`: the slacks are unit columns, and
/// each structural column is looked up row by row in the CSR.
fn factorize(a: &CsrMatrix, unit: &[Option<(usize, f64)>], basis_cols: &[usize]) -> Option<Basis> {
    Basis::factorize(
        basis_cols.len(),
        |r| unit[basis_cols[r]],
        |r, out| out.extend(a.col(basis_cols[r])),
    )
}

/// A numerical breakdown of the dual loop.
pub(crate) struct Breakdown;

/// The dual simplex's state on one program, borrowed for a one-shot solve
/// or owned by a [`crate::ResumableLp`], which appends rows between solves.
pub(crate) struct Dual<'a> {
    sf: Cow<'a, SparseStandardForm>,
    /// `(row, value)` of each slack column's one entry, by column.
    unit: Vec<Option<(usize, f64)>>,
    /// Basic column per row.
    basis_cols: Vec<usize>,
    in_basis: Vec<bool>,
    basis: Basis,
    /// Basic values `x_B = B⁻¹ b`; negative entries are violated rows.
    x_b: Vec<f64>,
    /// Reduced costs `d_j = c_j − A_jᵀ B⁻ᵀ c_B` (zero on basic columns).
    d: Vec<f64>,
    /// Dual steepest-edge weights `β_r = ‖e_rᵀ B⁻¹‖²`, one per row.
    beta: Vec<f64>,
    /// No pivot since the last factorisation: a failed check here is a
    /// breakdown, not stale eta-file error.
    fresh: bool,
    /// Iterations left of the budget every solve on this state shares.
    pub(crate) iters_left: usize,
    pub(crate) stats: RevisedStats,
}

impl<'a> Dual<'a> {
    /// The state at the slack basis `slacks` (one column per row): `None`
    /// if it does not factorise.
    pub(crate) fn new(
        sf: Cow<'a, SparseStandardForm>,
        slacks: &[usize],
        max_iters: usize,
    ) -> Option<Self> {
        let (m, n) = (sf.num_rows(), sf.num_cols());
        // Each slack is a singleton column: a unit column of the basis.
        let mut unit = vec![None; n];
        for (i, &j) in slacks.iter().enumerate() {
            unit[j] = Some((i, sf.a.get(i, j)));
        }
        let basis = factorize(&sf.a, &unit, slacks)?;
        let mut in_basis = vec![false; n];
        for &j in slacks {
            in_basis[j] = true;
        }
        let mut dual = Dual {
            sf,
            unit,
            basis_cols: slacks.to_vec(),
            in_basis,
            basis,
            x_b: vec![0.0; m],
            d: vec![0.0; n],
            beta: vec![1.0; m],
            fresh: true,
            iters_left: max_iters,
            stats: RevisedStats::default(),
        };
        dual.recompute_values();
        Some(dual)
    }
}

impl Dual<'_> {
    /// Number of standard-form columns; an appended row's slack takes the
    /// next one.
    pub(crate) fn num_cols(&self) -> usize {
        self.sf.num_cols()
    }

    /// Appends the standard-form row `entries = b` (column ids strictly
    /// increasing, `b ≥ 0`), whose last entry is its slack: a new column
    /// after every existing one, of zero cost, entering the basis on the
    /// new row.  [`Self::resume`] makes the factorisation catch up.
    pub(crate) fn push_row(&mut self, entries: &[(usize, f64)], b: f64) {
        let sf = self.sf.to_mut();
        let (row, slack) = (sf.num_rows(), sf.num_cols());
        let (&(last, value), structural) = entries.split_last().expect("a slack entry");
        debug_assert_eq!(last, slack);
        sf.a.push_row(slack + 1, entries);
        sf.b.push(b);
        sf.c.push(0.0);
        sf.mirror.push(None);
        // A column with an entry on the new row is no longer a singleton,
        // so not a unit column of the basis either.
        for &(j, _) in structural {
            self.unit[j] = None;
        }
        self.unit.push(Some((row, value)));
        self.basis_cols.push(slack);
        self.in_basis.push(true);
    }

    /// Solves from the current basis, with every row appended since the
    /// last solve entering on its slack.  A new row's dual is 0, so no
    /// reduced cost moves and the basis stays dual feasible; the slack's
    /// value is the row's residual at the current point.  A new row is a
    /// unit row of the basis, so the kernel keeps its size: one
    /// factorisation (not counted in `refactorizations`, which means
    /// mid-solve) restores `x_B` and the reduced costs, and one BTRAN per
    /// new row gives its exact steepest-edge weight.
    pub(crate) fn resume(&mut self) -> Result<SimplexOutcome, Breakdown> {
        let (m, weighted) = (self.basis_cols.len(), self.beta.len());
        if weighted < m {
            self.x_b.resize(m, 0.0);
            self.d.resize(self.sf.num_cols(), 0.0);
            self.refactorize()?;
            let mut rho = vec![0.0; m];
            for r in weighted..m {
                rho.fill(0.0);
                rho[r] = 1.0;
                self.basis.btran(&mut rho);
                self.beta.push(rho.iter().map(|v| v * v).sum());
            }
        }
        self.run()
    }

    fn run(&mut self) -> Result<SimplexOutcome, Breakdown> {
        let (m, n) = (self.sf.num_rows(), self.sf.num_cols());
        let mut rho = vec![0.0; m];
        let mut w = vec![0.0; m];
        let mut tau = vec![0.0; m];
        let mut alpha = vec![0.0; n];
        let mut degenerate_streak = 0usize;
        loop {
            if self.basis.should_refactorize() {
                self.refactorize_mid_solve()?;
            }
            let bland = degenerate_streak > BLAND_THRESHOLD;
            let Some(r) = self.leaving_row(bland) else {
                if self.certified() {
                    return Ok(self.optimal());
                }
                if self.fresh {
                    return Err(Breakdown);
                }
                self.refactorize_mid_solve()?;
                continue;
            };
            if self.iters_left == 0 {
                return Ok(SimplexOutcome::IterationLimit);
            }
            self.iters_left -= 1;

            rho.fill(0.0);
            rho[r] = 1.0;
            self.basis.btran(&mut rho);
            self.pivot_row(&rho, &mut alpha);
            let Some(q) = self.entering_column(&alpha, bland) else {
                // Row `r` is a Farkas certificate; trust it only from a
                // fresh factorisation.
                if self.fresh {
                    return Ok(SimplexOutcome::Infeasible);
                }
                self.refactorize_mid_solve()?;
                continue;
            };

            self.scatter_column(q, &mut w);
            self.basis.ftran(&mut w);
            let pivot = w[r];
            // The row-wise and column-wise views of the pivot element must
            // agree; a mismatch means the eta file has drifted.
            if (pivot - alpha[q]).abs() > DRIFT_TOL * (1.0 + pivot.abs()) && !self.fresh {
                self.refactorize_mid_solve()?;
                continue;
            }
            if pivot >= -PIVOT_EPS {
                return Err(Breakdown);
            }
            tau.copy_from_slice(&rho);
            self.basis.ftran(&mut tau);

            // Dual step: d ← d − θ_D α, with θ_D = d_q / α_q ≤ 0.  The
            // leaving column becomes nonbasic at reduced cost −θ_D ≥ 0.
            let d_q = self.d[q].max(0.0);
            let theta_d = d_q / pivot;
            if theta_d != 0.0 {
                for ((d, &a), &basic) in self.d.iter_mut().zip(&alpha).zip(&self.in_basis) {
                    if !basic && a != 0.0 {
                        *d -= theta_d * a;
                    }
                }
            }
            let leaving = self.basis_cols[r];
            self.d[q] = 0.0;
            self.d[leaving] = -theta_d;

            // Primal step: the entering column takes x_r / α_q > 0 and the
            // leaving one drops to its bound 0.
            let theta_p = self.x_b[r] / pivot;
            for (x, &wi) in self.x_b.iter_mut().zip(&w) {
                *x -= theta_p * wi;
            }
            self.x_b[r] = theta_p;

            // Dual steepest-edge weights of B' = B with column r replaced:
            // ρ_i' = ρ_i − (w_i/α_q) ρ_r, so
            // β_i' = β_i − 2 (w_i/α_q) τ_i + (w_i/α_q)² β_r.
            let beta_r = self.beta[r];
            for i in 0..m {
                if i != r && w[i] != 0.0 {
                    let k = w[i] / pivot;
                    let updated = self.beta[i] - 2.0 * k * tau[i] + k * k * beta_r;
                    self.beta[i] = updated.max(k * k);
                }
            }
            self.beta[r] = beta_r / (pivot * pivot);

            self.stats.pivots += 1;
            if d_q <= COST_EPS {
                self.stats.degenerate_pivots += 1;
                degenerate_streak += 1;
            } else {
                degenerate_streak = 0;
            }
            if bland {
                self.stats.bland_pivots += 1;
            }

            self.basis_cols[r] = q;
            self.in_basis[q] = true;
            self.in_basis[leaving] = false;
            self.fresh = false;
            if self.basis.update(r, &w) == UpdateOutcome::RefusedNeedsRefactor {
                self.refactorize_mid_solve()?;
            }
        }
    }

    /// Factorises the current basic set and recomputes `x_B` and the
    /// reduced costs from scratch.  The weights are kept: they depend only
    /// on the basis, not on how it was factorised.
    fn refactorize_mid_solve(&mut self) -> Result<(), Breakdown> {
        self.stats.refactorizations += 1;
        self.refactorize()
    }

    fn refactorize(&mut self) -> Result<(), Breakdown> {
        self.basis = factorize(&self.sf.a, &self.unit, &self.basis_cols).ok_or(Breakdown)?;
        self.recompute_values();
        self.fresh = true;
        Ok(())
    }

    /// Scatters column `j` of `A` into the dense buffer `out`: a slack from
    /// its one entry, any other column row by row.
    fn scatter_column(&self, j: usize, out: &mut [f64]) {
        out.fill(0.0);
        match self.unit[j] {
            Some((i, v)) => out[i] = v,
            None => {
                for (i, v) in self.sf.a.col(j) {
                    out[i] = v;
                }
            }
        }
    }

    /// `x_B = B⁻¹ b` and the reduced costs from the current factorisation.
    fn recompute_values(&mut self) {
        self.x_b.copy_from_slice(&self.sf.b);
        self.basis.ftran(&mut self.x_b);
        self.recompute_reduced_costs();
    }

    /// `d_j = c_j − y · A_j` with `y = B⁻ᵀ c_B` from a fresh BTRAN.  The
    /// products `y · A_j` are accumulated from the CSR rows of `y`'s
    /// non-zeros in ascending row order, the order a column dot product
    /// adds in, so they carry the same bits; a split pair `x⁺, x⁻` (exact
    /// column negations) is priced from `x⁺`'s sum.
    fn recompute_reduced_costs(&mut self) {
        let c = &self.sf.c;
        let mut y: Vec<f64> = self.basis_cols.iter().map(|&j| c[j]).collect();
        self.basis.btran(&mut y);
        let dots = &mut self.d;
        dots.fill(0.0);
        for (i, &y_i) in y.iter().enumerate() {
            if y_i != 0.0 {
                let (cols, vals) = self.sf.a.row(i);
                for (&j, &v) in cols.iter().zip(vals) {
                    dots[j] += y_i * v;
                }
            }
        }
        let mut j = 0;
        while j < c.len() {
            let dot = dots[j];
            dots[j] = c[j] - dot;
            if self.sf.mirror[j] == Some(j + 1) {
                dots[j + 1] = c[j + 1] + dot;
                j += 1;
            }
            j += 1;
        }
        for &j in &self.basis_cols {
            self.d[j] = 0.0;
        }
    }

    /// Dual steepest edge: the violated row maximising `x_r² / β_r`, or
    /// under the fallback the violated row with the smallest basic column.
    fn leaving_row(&self, bland: bool) -> Option<usize> {
        let violated = self
            .x_b
            .iter()
            .enumerate()
            .filter(|&(_, &x)| is_violated(x))
            .map(|(i, _)| i);
        if bland {
            violated.min_by_key(|&i| self.basis_cols[i])
        } else {
            // The first row of the highest score.
            let score = |i: usize| self.x_b[i] * self.x_b[i] / self.beta[i];
            violated.min_by(|&a, &b| score(b).total_cmp(&score(a)))
        }
    }

    /// `α_j = ρ · A_j` for every column (the basic entries are never read),
    /// from the CSR rows of `ρ`'s non-zeros.
    fn pivot_row(&self, rho: &[f64], alpha: &mut [f64]) {
        alpha.fill(0.0);
        for (i, &rho_i) in rho.iter().enumerate() {
            if rho_i != 0.0 {
                let (cols, vals) = self.sf.a.row(i);
                for (&j, &v) in cols.iter().zip(vals) {
                    alpha[j] += rho_i * v;
                }
            }
        }
    }

    /// The entering column for a leaving row with pivot row `alpha`:
    /// Harris' two-pass ratio test over the columns with `α_j < 0`, or
    /// under the fallback the smallest index among the exact minimum
    /// ratios.  `None` proves the row infeasible.
    fn entering_column(&self, alpha: &[f64], bland: bool) -> Option<usize> {
        let eligible = (0..alpha.len()).filter(|&j| !self.in_basis[j] && alpha[j] < -COST_EPS);
        if bland {
            let mut best: Option<(usize, f64)> = None;
            for j in eligible {
                let ratio = self.d[j].max(0.0) / -alpha[j];
                if best.is_none_or(|(_, b)| ratio < b) {
                    best = Some((j, ratio));
                }
            }
            return best.map(|(j, _)| j);
        }
        let bound = eligible
            .clone()
            .map(|j| (self.d[j].max(0.0) + COST_EPS) / -alpha[j])
            .fold(f64::INFINITY, f64::min);
        let mut best: Option<(usize, f64)> = None;
        for j in eligible {
            if self.d[j].max(0.0) / -alpha[j] <= bound && best.is_none_or(|(_, a)| -alpha[j] > a) {
                best = Some((j, -alpha[j]));
            }
        }
        best.map(|(j, _)| j)
    }

    /// The optimality check: `A x − b` from the CSR rows, and the reduced
    /// costs from a fresh BTRAN (kept for the loop if the check fails).
    fn certified(&mut self) -> bool {
        let x = self.point();
        let primal_ok = (0..self.sf.num_rows()).all(|i| {
            let (cols, vals) = self.sf.a.row(i);
            let (mut ax, mut scale) = (0.0, 0.0);
            for (&j, &v) in cols.iter().zip(vals) {
                ax += v * x[j];
                scale += (v * x[j]).abs();
            }
            let b = self.sf.b[i];
            (ax - b).abs() <= DRIFT_TOL * (1.0 + b.abs() + scale)
        });
        self.recompute_reduced_costs();
        let dual_ok = self
            .d
            .iter()
            .zip(&self.sf.c)
            .all(|(&d, &c)| d >= -DUAL_CHECK_TOL * (1.0 + c));
        primal_ok && dual_ok
    }

    fn point(&self) -> Vec<f64> {
        let mut x = vec![0.0; self.sf.num_cols()];
        for (&j, &v) in self.basis_cols.iter().zip(&self.x_b) {
            x[j] = v;
        }
        x
    }

    fn optimal(&self) -> SimplexOutcome {
        let x = self.point();
        let objective = self.sf.c.iter().zip(&x).map(|(c, v)| c * v).sum();
        SimplexOutcome::Optimal { x, objective }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::revised::{solve_standard_sparse_with_stats, Pricing};
    use crate::simplex::solve_standard;
    use crate::solver::{solve_via, LpStats, Solution};
    use crate::{ConstraintOp, LpError, LpProblem, ResumableLp, SolveOptions, VarKind};
    use proptest::prelude::*;

    const ITERS: usize = 100_000;

    type Engine = fn(&LpProblem) -> Result<(Solution, LpStats), LpError>;

    fn dense(sf: &SparseStandardForm) -> (SimplexOutcome, LpStats) {
        solve_standard(&sf.to_dense(), ITERS)
    }

    fn primal(sf: &SparseStandardForm, pricing: Pricing) -> (SimplexOutcome, LpStats) {
        let (outcome, stats) =
            solve_standard_sparse_with_stats(sf, ITERS, pricing).expect("no primal breakdown");
        (outcome, stats.into())
    }

    fn dual(sf: &SparseStandardForm) -> (SimplexOutcome, LpStats) {
        let slacks = sf
            .dual_slacks
            .as_ref()
            .expect("a dual-feasible slack basis");
        let Ok((outcome, stats)) = solve(sf, slacks, ITERS) else {
            panic!("dual breakdown");
        };
        (outcome, stats.into())
    }

    /// The five engines the conformance test compares, the oracle first.
    const ENGINES: [(&str, Engine); 5] = [
        ("dense", |lp| solve_via(lp, &mut dense)),
        ("primal+dantzig", |lp| {
            solve_via(lp, &mut |sf| primal(sf, Pricing::Dantzig))
        }),
        ("primal+devex", |lp| {
            solve_via(lp, &mut |sf| primal(sf, Pricing::Devex))
        }),
        ("dual", solve_dual),
        ("dual+resume", solve_resumed),
    ];

    fn solve_dual(lp: &LpProblem) -> Result<(Solution, LpStats), LpError> {
        solve_via(lp, &mut dual)
    }

    fn resumable(lp: LpProblem, max_iters: usize) -> ResumableLp {
        let options = SolveOptions {
            max_iters,
            ..SolveOptions::default()
        };
        ResumableLp::new(lp, &options)
    }

    /// The dual on the first half of `lp`'s rows, resumed after the rest
    /// are appended (an ℓ∞ objective's rows, lowered at construction, sit
    /// between the halves).
    fn solve_resumed(lp: &LpProblem) -> Result<(Solution, LpStats), LpError> {
        let rows: Vec<_> = lp.constraints().collect();
        let (first, rest) = rows.split_at(rows.len() / 2);
        let mut half = LpProblem::new();
        for &kind in &lp.kinds {
            half.add_var(kind);
        }
        half.objective = lp.objective.clone();
        for &(terms, op, rhs) in first {
            half.add_constraint(terms, op, rhs);
        }
        let mut half = resumable(half, ITERS);
        let first_solve = half.solve();
        assert!(half.is_warm(), "dual breakdown");
        first_solve?;
        for &(terms, op, rhs) in rest {
            half.add_constraint(terms, op, rhs);
        }
        let resumed = half.solve();
        assert!(half.is_warm(), "dual breakdown");
        resumed
    }

    /// Solves with every engine and checks they agree on classification,
    /// on the objective within `1e-6·(1+|obj|)`, and that every returned
    /// point is feasible; returns the oracle's result.
    fn five_way(lp: &LpProblem) -> Result<f64, LpError> {
        let oracle = solve_via(lp, &mut dense).map(|(s, _)| s.objective);
        for (name, engine) in ENGINES {
            match (engine(lp), &oracle) {
                (Ok((solution, _)), Ok(reference)) => {
                    assert!(
                        (solution.objective - reference).abs() <= 1e-6 * (1.0 + reference.abs()),
                        "{name}: objective {} vs dense {reference}",
                        solution.objective
                    );
                    assert!(
                        lp.is_feasible(&solution.values, 1e-6),
                        "{name} returned an infeasible point"
                    );
                }
                (result, reference) => assert_eq!(
                    result.map(|(s, _)| s.objective).err(),
                    reference.clone().err(),
                    "{name} classifies the program differently from dense"
                ),
            }
        }
        oracle
    }

    #[test]
    fn norm_objectives_have_a_dual_feasible_slack_basis() {
        let mut lp = LpProblem::new();
        let x = lp.add_vars(2, VarKind::Free);
        lp.add_constraint(&[(x[0], 1.0), (x[1], 2.0)], ConstraintOp::Ge, 1.0);
        lp.add_constraint(&[(x[0], 1.0)], ConstraintOp::Le, -3.0);
        lp.minimize_l1_of(&x);
        let (sf, _) = crate::solver::to_standard_form(&lp);
        // Columns: x0⁺ x0⁻ x1⁺ x1⁻, then one slack per row (−1 on both:
        // the `≥` row keeps its surplus, the `≤ −3` row flips into one).
        assert_eq!(dual_feasible_slack_basis(&sf), Some(vec![4, 5]));

        // A negative cost, or an equality row without a slack, is not.
        let mut negative = lp.clone();
        negative.set_objective_linear(&[(x[0], -1.0)]);
        let (sf, _) = crate::solver::to_standard_form(&negative);
        assert_eq!(dual_feasible_slack_basis(&sf), None);
        let mut equality = lp;
        equality.add_constraint(&[(x[1], 1.0)], ConstraintOp::Eq, 2.0);
        let (sf, _) = crate::solver::to_standard_form(&equality);
        assert_eq!(dual_feasible_slack_basis(&sf), None);
    }

    #[test]
    fn pivots_only_on_violated_rows() {
        // x ≥ 1 and y ≥ 2 are violated at the origin, x + y ≤ 10 is not:
        // two pivots, one per violated row, reach the ℓ1 optimum 3.
        let mut lp = LpProblem::new();
        let x = lp.add_var(VarKind::Free);
        let y = lp.add_var(VarKind::Free);
        lp.add_constraint(&[(x, 1.0)], ConstraintOp::Ge, 1.0);
        lp.add_constraint(&[(y, 1.0)], ConstraintOp::Ge, 2.0);
        lp.add_constraint(&[(x, 1.0), (y, 1.0)], ConstraintOp::Le, 10.0);
        lp.minimize_l1_of(&[x, y]);
        let (solution, stats) = solve_dual(&lp).unwrap();
        assert!((solution.objective - 3.0).abs() < 1e-12);
        assert_eq!(solution.values, vec![1.0, 2.0]);
        assert_eq!(stats.pivots, 2, "{stats:?}");
        assert_eq!(stats.refactorizations, 0);

        // With every row satisfied at the origin the slack basis is
        // already optimal.
        let mut slack = LpProblem::new();
        let x = slack.add_var(VarKind::Free);
        slack.add_constraint(&[(x, 1.0)], ConstraintOp::Le, 1.0);
        slack.add_constraint(&[(x, 1.0)], ConstraintOp::Ge, -1.0);
        slack.minimize_l1_of(&[x]);
        let (solution, stats) = solve_dual(&slack).unwrap();
        assert_eq!(solution.objective, 0.0);
        assert_eq!(stats, LpStats::default());
    }

    #[test]
    fn contradictory_rows_are_infeasible() {
        let mut lp = LpProblem::new();
        let x = lp.add_vars(2, VarKind::Free);
        lp.add_constraint(&[(x[0], 1.0), (x[1], 1.0)], ConstraintOp::Ge, 2.0);
        lp.add_constraint(&[(x[0], 1.0), (x[1], 1.0)], ConstraintOp::Le, 1.0);
        lp.minimize_linf_of(&x);
        assert_eq!(solve_dual(&lp).unwrap_err(), LpError::Infeasible);
        assert_eq!(five_way(&lp), Err(LpError::Infeasible));
    }

    #[test]
    fn classifies_with_the_primal_backends_tolerances() {
        // A pair 5e-8 apart is contradictory by less than FEAS_EPS: the
        // oracle's phase 1 accepts it, and so must the dual, which after one
        // pivot sees the second row violated by 5e-8.
        let mut lp = LpProblem::new();
        let x = lp.add_var(VarKind::Free);
        lp.add_constraint(&[(x, 1.0)], ConstraintOp::Ge, 1.0);
        lp.add_constraint(&[(x, 1.0)], ConstraintOp::Le, 1.0 - 5e-8);
        lp.minimize_l1_of(&[x]);
        let objective = five_way(&lp).expect("feasible within FEAS_EPS");
        assert!((objective - 1.0).abs() < 1e-7, "{objective}");

        // With one violated row, a pivot-row entry is the column's phase-1
        // reduced cost, so it can enter only below −COST_EPS: a row
        // `1.2e-9·x ≥ 1` is solved at x ≈ 8.3e8, one of `0.8e-9·x ≥ 1` is
        // infeasible, on every engine.
        for (coefficient, feasible) in [(1.2e-9, true), (0.8e-9, false)] {
            let mut lp = LpProblem::new();
            let x = lp.add_var(VarKind::Free);
            lp.add_constraint(&[(x, coefficient)], ConstraintOp::Ge, 1.0);
            lp.minimize_l1_of(&[x]);
            match five_way(&lp) {
                Ok(objective) if feasible => {
                    assert!((objective * coefficient - 1.0).abs() < 1e-9, "{objective}");
                }
                outcome => assert!(!feasible && outcome == Err(LpError::Infeasible)),
            }
        }
    }

    #[test]
    fn iteration_limit_is_reported() {
        let mut lp = LpProblem::new();
        let x = lp.add_vars(3, VarKind::Free);
        for v in &x {
            lp.add_constraint(&[(*v, 1.0)], ConstraintOp::Ge, 1.0);
        }
        lp.minimize_l1_of(&x);
        let (sf, _) = crate::solver::to_standard_form(&lp);
        let slacks = sf.dual_slacks.clone().unwrap();
        assert!(matches!(
            solve(&sf, &slacks, 2),
            Ok((
                SimplexOutcome::IterationLimit,
                RevisedStats { pivots: 2, .. }
            ))
        ));
    }

    #[test]
    fn smallest_index_fallback_engages_on_a_dual_degenerate_linf_program() {
        // Lowered ℓ∞ prices every x column at zero, so each `x_i ≥ 1` row
        // enters a zero-cost column: a degenerate dual step.  Sixty of them
        // in a row outlast the threshold, and the fallback must still end
        // at the optimum max |x_i| = 1.
        let mut lp = LpProblem::new();
        let x = lp.add_vars(60, VarKind::Free);
        for v in &x {
            lp.add_constraint(&[(*v, 1.0)], ConstraintOp::Ge, 1.0);
        }
        lp.minimize_linf_of(&x);
        let (solution, stats) = solve_dual(&lp).unwrap();
        assert!(stats.bland_pivots > 0, "{stats:?}");
        assert!(
            stats.degenerate_pivots > BLAND_THRESHOLD as u64,
            "{stats:?}"
        );
        assert!((solution.objective - 1.0).abs() < 1e-9);
        assert!(lp.is_feasible(&solution.values, 1e-9));
        assert_eq!(five_way(&lp), Ok(solution.objective));
    }

    #[test]
    fn refactorises_mid_solve_with_slack_and_structural_columns_basic() {
        // Sixty violated coupled rows `x_i + 0.3 x_{i+1} ≥ 1 + i/100` need
        // more pivots than the eta file holds, so the basis is refactorised
        // mid-solve; the satisfied rows `x_i − x_{i+1} ≤ 5` keep their
        // slacks basic, and the structural columns have entries on those
        // unit rows, which the kernel solves substitute through.
        let mut lp = LpProblem::new();
        let x = lp.add_vars(61, VarKind::Free);
        for i in 0..60 {
            let rhs = 1.0 + i as f64 / 100.0;
            lp.add_constraint(&[(x[i], 1.0), (x[i + 1], 0.3)], ConstraintOp::Ge, rhs);
            lp.add_constraint(&[(x[i], 1.0), (x[i + 1], -1.0)], ConstraintOp::Le, 5.0);
        }
        lp.minimize_l1_of(&x);
        let (solution, stats) = solve_dual(&lp).unwrap();
        assert!(stats.refactorizations >= 1, "{stats:?}");
        assert!(lp.is_feasible(&solution.values, 1e-9));
        let (dense, _) = solve_via(&lp, &mut dense).unwrap();
        assert!(
            (solution.objective - dense.objective).abs() <= 1e-9 * dense.objective,
            "dual {} vs dense {}",
            solution.objective,
            dense.objective
        );
        assert_eq!(five_way(&lp), Ok(dense.objective));
    }

    #[test]
    fn appending_rows_the_optimum_satisfies_costs_no_pivots() {
        let mut lp = LpProblem::new();
        let x = lp.add_vars(2, VarKind::Free);
        lp.add_constraint(&[(x[0], 1.0)], ConstraintOp::Ge, 1.0);
        lp.add_constraint(&[(x[1], 1.0)], ConstraintOp::Ge, 2.0);
        lp.minimize_l1_of(&x);
        let mut lp = resumable(lp, ITERS);
        let (first, stats) = lp.solve().unwrap();
        assert_eq!(first.values, vec![1.0, 2.0]);
        assert_eq!(stats.pivots, 2, "{stats:?}");
        // A tight row and a flipped one (negative right-hand side), both
        // satisfied at (1, 2): the round's factorisation is not counted,
        // and no pivot is needed.
        lp.add_constraint(&[(x[0], 1.0), (x[1], 1.0)], ConstraintOp::Le, 3.0);
        lp.add_constraint(&[(x[0], 1.0), (x[1], -1.0)], ConstraintOp::Ge, -5.0);
        let (second, resumed) = lp.solve().unwrap();
        assert_eq!(resumed, stats);
        assert_eq!(second, first);
        assert!(lp.is_warm());
    }

    #[test]
    fn a_contradiction_appended_after_a_solve_is_infeasible() {
        // The appended row's Farkas certificate comes from the round's
        // fresh factorisation, so the dual reports it without breaking
        // down (the handle stays warm).
        let mut lp = LpProblem::new();
        let x = lp.add_vars(2, VarKind::Free);
        lp.add_constraint(&[(x[0], 1.0), (x[1], 1.0)], ConstraintOp::Ge, 2.0);
        lp.minimize_linf_of(&x);
        let mut lp = resumable(lp, ITERS);
        let (solution, _) = lp.solve().unwrap();
        assert!((solution.objective - 1.0).abs() < 1e-12);
        lp.add_constraint(&[(x[0], 1.0), (x[1], 1.0)], ConstraintOp::Le, 1.0);
        assert_eq!(lp.solve().unwrap_err(), LpError::Infeasible);
        assert!(lp.is_warm());
    }

    #[test]
    fn the_iteration_budget_is_shared_across_resumes() {
        // One pivot per violated row `x_i ≥ 1`: three in the first solve,
        // two more after two rows are appended.
        for (budget, fits) in [(4, false), (5, true)] {
            let mut lp = LpProblem::new();
            let x = lp.add_vars(5, VarKind::Free);
            for v in &x[..3] {
                lp.add_constraint(&[(*v, 1.0)], ConstraintOp::Ge, 1.0);
            }
            lp.minimize_l1_of(&x);
            let mut lp = resumable(lp, budget);
            assert_eq!(lp.solve().unwrap().1.pivots, 3);
            for v in &x[3..] {
                lp.add_constraint(&[(*v, 1.0)], ConstraintOp::Ge, 1.0);
            }
            match lp.solve() {
                Ok((solution, stats)) if fits => {
                    assert_eq!(stats.pivots, 5);
                    assert_eq!(solution.objective, 5.0);
                }
                outcome => assert!(!fits && outcome == Err(LpError::IterationLimit)),
            }
        }
    }

    #[test]
    fn a_row_on_a_singleton_basic_column_moves_it_into_the_kernel() {
        // z stays out of the norm and appears only in `x + z ≥ 1`, so z⁺ is
        // that row's unit column in the slack basis, basic at 1.  Appending
        // `z ≤ 0` gives z⁺ a second entry: it must be factorised as a
        // structural column, or the new row's slack would read 0 instead
        // of −1 and only the optimality check would catch it.
        let mut lp = LpProblem::new();
        let x = lp.add_var(VarKind::Free);
        let z = lp.add_var(VarKind::Free);
        lp.add_constraint(&[(x, 1.0), (z, 1.0)], ConstraintOp::Ge, 1.0);
        lp.minimize_l1_of(&[x]);
        let mut lp = resumable(lp, ITERS);
        let (solution, stats) = lp.solve().unwrap();
        assert_eq!((solution.values, stats.pivots), (vec![0.0, 1.0], 0));
        lp.add_constraint(&[(z, 1.0)], ConstraintOp::Le, 0.0);
        let (solution, stats) = lp.solve().unwrap();
        assert_eq!((solution.values, stats.pivots), (vec![1.0, 0.0], 1));
        assert!(lp.is_warm());
    }

    /// A random dual-feasible program: every row an inequality, every cost
    /// a norm's.
    #[derive(Debug, Clone)]
    struct Draw {
        /// A point that satisfies the rows of family 0.
        witness: Vec<f64>,
        /// Dense coefficients (entries under 0.5 in magnitude dropped) and
        /// a non-negative slack off the witness.
        rows: Vec<(Vec<f64>, f64)>,
        /// 0: feasible `≤`/`≥` rows; 1: plus a contradictory pair;
        /// 2: arbitrary right-hand sides; 3: feasible rows under a tight box;
        /// 4: plus a pair contradictory by 5e-8 (under `FEAS_EPS`, so still
        /// feasible); 5: plus a row `tiny·z ≥ 1` on a new variable `z`
        /// (feasible when `tiny > COST_EPS`).  `z` stays out of the norm:
        /// at `z = 1/tiny` the dense oracle misreads an ℓ∞ program as
        /// unbounded.
        family: u8,
        /// ℓ∞ instead of ℓ1.
        linf: bool,
        /// How many leading variables the norm covers.
        normed: usize,
        /// `param_bound`-style box `|x_i| ≤ bound`.
        bound: f64,
        /// The coefficient of family 5's row, in `[2, 5)·1e-10` or
        /// `[2, 5)·1e-9`: a factor 2 off `COST_EPS`, where the primal
        /// backends' classifications can differ from each other.
        tiny: f64,
    }

    fn draw() -> impl Strategy<Value = Draw> {
        (
            prop::collection::vec(-3.0..3.0f64, 5),
            prop::collection::vec((prop::collection::vec(-2.0..2.0f64, 5), 0.0..2.0f64), 1..8),
            0u8..6,
            0u8..2,
            1usize..6,
            (0.2..4.0f64, 2.0..5.0f64, 0u8..2),
        )
            .prop_map(
                |(witness, rows, family, linf, normed, (bound, tiny, above))| Draw {
                    witness,
                    rows,
                    family,
                    linf: linf == 1,
                    normed,
                    bound,
                    tiny: tiny * if above == 1 { 1e-9 } else { 1e-10 },
                },
            )
    }

    fn build(d: &Draw) -> LpProblem {
        let mut lp = LpProblem::new();
        let x = lp.add_vars(d.witness.len(), VarKind::Free);
        for (k, (coeffs, slack)) in d.rows.iter().enumerate() {
            let terms: Vec<_> = x
                .iter()
                .zip(coeffs)
                .filter(|(_, c)| c.abs() >= 0.5)
                .map(|(v, c)| (*v, *c))
                .collect();
            let at_witness: f64 = terms.iter().map(|(v, c)| c * d.witness[v.index()]).sum();
            match (d.family, k % 2) {
                (2, 0) => lp.add_constraint(&terms, ConstraintOp::Le, slack - 1.5),
                (2, _) => lp.add_constraint(&terms, ConstraintOp::Ge, 1.5 - slack),
                (_, 0) => lp.add_constraint(&terms, ConstraintOp::Le, at_witness + slack),
                (_, _) => lp.add_constraint(&terms, ConstraintOp::Ge, at_witness - slack),
            }
            if d.family == 1 && k == 0 {
                lp.add_constraint(&terms, ConstraintOp::Le, at_witness - slack - 0.1);
                lp.add_constraint(&terms, ConstraintOp::Ge, at_witness + 0.1);
            }
            if d.family == 4 && k == 0 {
                lp.add_constraint(&terms, ConstraintOp::Ge, at_witness);
                lp.add_constraint(&terms, ConstraintOp::Le, at_witness - 5e-8);
            }
        }
        if d.family == 3 {
            for v in &x {
                lp.add_constraint(&[(*v, 1.0)], ConstraintOp::Le, d.bound);
                lp.add_constraint(&[(*v, 1.0)], ConstraintOp::Ge, -d.bound);
            }
        }
        if d.family == 5 {
            let z = lp.add_var(VarKind::Free);
            lp.add_constraint(&[(z, d.tiny)], ConstraintOp::Ge, 1.0);
        }
        if d.linf {
            lp.minimize_linf_of(&x[..d.normed]);
        } else {
            lp.minimize_l1_of(&x[..d.normed]);
        }
        lp
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]

        #[test]
        fn dense_primal_and_dual_agree_on_dual_feasible_programs(d in draw()) {
            let lp = build(&d);
            let outcome = five_way(&lp);
            match d.family {
                0 | 4 => {
                    prop_assert!(outcome.is_ok(), "family {} is feasible: {outcome:?}", d.family);
                }
                5 => prop_assert_eq!(outcome.is_ok(), d.tiny > COST_EPS),
                1 if d.rows.iter().any(|(c, _)| c.iter().any(|c| c.abs() >= 0.5)) => {
                    prop_assert_eq!(outcome, Err(LpError::Infeasible));
                }
                _ => {}
            }
        }
    }
}
