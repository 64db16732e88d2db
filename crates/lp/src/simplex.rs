//! Dense two-phase primal simplex on standard-form programs: the test
//! oracle the dual simplex is checked against.
//!
//! Standard form: `minimize c·x  subject to  A x = b,  x ≥ 0,  b ≥ 0`.
//! [`solve_oracle`] converts a modelling-form program as the solver does
//! and solves it here; the unit tests also drive [`solve_standard`]
//! directly, on equality rows and negative costs the modelling layer does
//! not build.
//!
//! The tableau — every constraint row, the right-hand sides, *and* the
//! reduced-cost row — lives in one contiguous row-major `Vec<f64>`
//! ([`Tableau`]).  Pivots are stride-indexed row operations over that single
//! allocation, so the hot loop is cache-friendly and allocation-free; the
//! phase-1 → phase-2 transition compacts the artificial columns away in
//! place instead of rebuilding per-row vectors.

use crate::dual::{COST_EPS, FEAS_EPS, PIVOT_EPS};
use crate::solver::{lowered, to_standard_form};
use crate::{LpError, LpProblem, LpStats, Solution};

/// A standard-form LP: `min c·x  s.t.  A x = b, x ≥ 0` with `b ≥ 0`.
#[derive(Debug, Clone)]
pub(crate) struct StandardForm {
    /// Dense constraint rows, each of length `num_cols`.
    pub a: Vec<Vec<f64>>,
    /// Right-hand sides, one per row, all non-negative.
    pub b: Vec<f64>,
    /// Objective coefficients, one per column.
    pub c: Vec<f64>,
}

/// Result of running the simplex method on a [`StandardForm`].
#[derive(Debug, Clone)]
pub(crate) enum SimplexOutcome {
    Optimal { x: Vec<f64>, objective: f64 },
    Infeasible,
    Unbounded,
    IterationLimit,
}

/// Converts `problem` as [`crate::ResumableLp`] does and solves it on the
/// tableau.  A norm objective is bounded below by 0, so an `Unbounded`
/// outcome panics.
pub(crate) fn solve_oracle(problem: &LpProblem, max_iters: usize) -> Result<Solution, LpError> {
    let (sf, mapping) = to_standard_form(&lowered(problem));
    match solve_standard(&sf.to_dense(), max_iters).0 {
        SimplexOutcome::Optimal { x, objective } => Ok(Solution {
            values: mapping.values(&x, problem.num_vars()),
            objective,
        }),
        SimplexOutcome::Infeasible => Err(LpError::Infeasible),
        SimplexOutcome::IterationLimit => Err(LpError::IterationLimit),
        SimplexOutcome::Unbounded => panic!("the oracle declared a norm objective unbounded"),
    }
}

/// Solves the trivial constraint-free program `min c·x, x ≥ 0`: the optimum
/// is `x = 0` unless some cost is negative (the variables are non-negative,
/// so only negative costs cause unboundedness).
fn solve_unconstrained(n: usize, c: &[f64]) -> SimplexOutcome {
    if c.iter().any(|&cj| cj < -COST_EPS) {
        return SimplexOutcome::Unbounded;
    }
    SimplexOutcome::Optimal {
        x: vec![0.0; n],
        objective: 0.0,
    }
}

/// The ready-basis scan: a column usable as an initial basic variable for
/// its row must be a singleton with coefficient (approximately) `+1` and
/// (tolerance-consistent) zero cost — the slack columns the standard-form
/// conversion arranges.  Rows left `None` need an artificial variable.
/// `entries` yields every stored `(row, col, value)` of the constraint
/// matrix, in any order.  Run on the absolute values, it is the oracle for
/// the dual simplex's slack basis.
pub(crate) fn seed_basis_from_unit_columns(
    m: usize,
    n: usize,
    c: &[f64],
    entries: impl IntoIterator<Item = (usize, usize, f64)>,
) -> Vec<Option<usize>> {
    let mut col_nonzeros = vec![0usize; n];
    let mut col_last: Vec<(usize, f64)> = vec![(usize::MAX, 0.0); n];
    for (i, j, v) in entries {
        if v != 0.0 {
            col_nonzeros[j] += 1;
            col_last[j] = (i, v);
        }
    }
    let mut basis_for_row: Vec<Option<usize>> = vec![None; m];
    for j in 0..n {
        if col_nonzeros[j] == 1
            && (col_last[j].1 - 1.0).abs() <= PIVOT_EPS
            && c[j].abs() <= COST_EPS
        {
            let row = col_last[j].0;
            if basis_for_row[row].is_none() {
                basis_for_row[row] = Some(j);
            }
        }
    }
    basis_for_row
}

/// The simplex working set: `m` constraint rows plus the reduced-cost row,
/// stored row-major in a single flat buffer.
///
/// Row `i < m` is constraint `i`; row `m` is the reduced-cost (objective)
/// row.  Each row has `stride = width + 1` entries: `width` structural
/// columns followed by the right-hand side (for the objective row, the
/// negated objective value).
struct Tableau {
    data: Vec<f64>,
    /// Entries per row (structural columns + 1 for the RHS).
    stride: usize,
    /// Number of constraint rows (the objective row is row `m`).
    m: usize,
    /// Work counters: every pivot, with the degenerate and Bland ones
    /// counted again on their own.  A dense tableau keeps no factorised
    /// basis, so it never refactorises.
    stats: LpStats,
}

impl Tableau {
    /// Number of structural columns.
    fn width(&self) -> usize {
        self.stride - 1
    }

    fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.stride..(i + 1) * self.stride]
    }

    fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * self.stride..(i + 1) * self.stride]
    }

    fn obj(&self) -> &[f64] {
        self.row(self.m)
    }

    /// Entry `(row, col)` without slicing (hot-path reads).
    #[inline]
    fn at(&self, row: usize, col: usize) -> f64 {
        self.data[row * self.stride + col]
    }

    /// Pivots on `(row, col)`: normalises the pivot row and eliminates the
    /// pivot column from every other row, including the reduced-cost row.
    ///
    /// One pass of stride-indexed row operations over the flat buffer; no
    /// allocation.
    fn pivot(&mut self, row: usize, col: usize) {
        self.stats.pivots += 1;
        let stride = self.stride;
        let piv = self.at(row, col);
        debug_assert!(piv.abs() > PIVOT_EPS, "pivot on (near-)zero element");
        let inv = 1.0 / piv;
        for v in self.row_mut(row) {
            *v *= inv;
        }
        // Make the pivot column exactly canonical to limit error
        // accumulation.
        self.data[row * stride + col] = 1.0;

        let (before, rest) = self.data.split_at_mut(row * stride);
        let (pivot_row, after) = rest.split_at_mut(stride);
        for other in before
            .chunks_exact_mut(stride)
            .chain(after.chunks_exact_mut(stride))
        {
            let factor = other[col];
            if factor != 0.0 {
                for (o, p) in other.iter_mut().zip(pivot_row.iter()) {
                    *o -= factor * p;
                }
                other[col] = 0.0;
            }
        }
    }

    /// Removes constraint row `i`, shifting later rows (and the objective
    /// row) up in place.
    fn remove_row(&mut self, i: usize) {
        let stride = self.stride;
        self.data
            .copy_within((i + 1) * stride..(self.m + 1) * stride, i * stride);
        self.m -= 1;
        self.data.truncate((self.m + 1) * stride);
    }

    /// Shrinks the tableau to its first `new_width` structural columns,
    /// compacting every row (and the RHS) in place.
    fn truncate_columns(&mut self, new_width: usize) {
        let (old_stride, new_stride) = (self.stride, new_width + 1);
        debug_assert!(new_stride <= old_stride);
        for i in 0..=self.m {
            let (src, dst) = (i * old_stride, i * new_stride);
            self.data.copy_within(src..src + new_width, dst);
            self.data[dst + new_width] = self.data[src + old_stride - 1];
        }
        self.stride = new_stride;
        self.data.truncate((self.m + 1) * new_stride);
    }
}

/// Full-tableau two-phase simplex.
///
/// Phase 1 introduces one artificial variable per row and minimises their
/// sum; phase 2 optimises the real objective after driving the artificials
/// out of the basis.  Dantzig pricing is used until a run of degenerate
/// pivots is detected, at which point Bland's rule takes over to guarantee
/// termination.  Returns the outcome with the solve's pivot counts.
pub(crate) fn solve_standard(sf: &StandardForm, max_iters: usize) -> (SimplexOutcome, LpStats) {
    let m = sf.a.len();
    let n = if m == 0 { sf.c.len() } else { sf.a[0].len() };
    debug_assert!(sf.a.iter().all(|row| row.len() == n));
    debug_assert_eq!(sf.b.len(), m);
    debug_assert_eq!(sf.c.len(), n);
    debug_assert!(sf.b.iter().all(|&bi| bi >= -PIVOT_EPS));

    if m == 0 {
        return (solve_unconstrained(n, &sf.c), LpStats::default());
    }

    // ---- Phase 1 setup.  Rows whose slack column already forms a unit
    // column (coefficient +1, zero elsewhere, non-negative RHS) can use that
    // slack as their initial basic variable; only the remaining rows need an
    // artificial variable.  This keeps the phase-1 tableau narrow, which is
    // where most of the repair LPs' time goes.
    let basis_for_row = seed_basis_from_unit_columns(
        m,
        n,
        &sf.c,
        sf.a.iter()
            .enumerate()
            .flat_map(|(i, row)| row.iter().enumerate().map(move |(j, &v)| (i, j, v))),
    );
    let artificial_rows: Vec<usize> = (0..m).filter(|&i| basis_for_row[i].is_none()).collect();
    let num_artificials = artificial_rows.len();
    let total = n + num_artificials;

    // One allocation for the whole working set: m constraint rows plus the
    // reduced-cost row, each `total + 1` wide.
    let stride = total + 1;
    let mut tab = Tableau {
        data: vec![0.0; (m + 1) * stride],
        stride,
        m,
        stats: LpStats::default(),
    };
    let mut basis: Vec<usize> = Vec::with_capacity(m);
    for (i, row) in sf.a.iter().enumerate() {
        let dst = tab.row_mut(i);
        dst[..n].copy_from_slice(row);
        dst[total] = sf.b[i];
        match basis_for_row[i] {
            Some(j) => basis.push(j),
            None => {
                let k = artificial_rows.iter().position(|&ar| ar == i).unwrap();
                tab.row_mut(i)[n + k] = 1.0;
                basis.push(n + k);
            }
        }
    }

    let mut iters_left = max_iters;
    if num_artificials > 0 {
        // Phase-1 reduced-cost row: costs are 1 on artificials, 0 elsewhere;
        // subtract each artificial-basic row to zero out the basic columns.
        let obj_start = m * stride;
        for j in n..total {
            tab.data[obj_start + j] = 1.0;
        }
        for (i, &b) in basis.iter().enumerate() {
            if b >= n {
                for j in 0..stride {
                    tab.data[obj_start + j] -= tab.data[i * stride + j];
                }
            }
        }
        match run_pivots(&mut tab, &mut basis, &mut iters_left, Some(n)) {
            PivotRun::Unbounded => return (SimplexOutcome::Unbounded, tab.stats),
            PivotRun::IterationLimit => return (SimplexOutcome::IterationLimit, tab.stats),
            PivotRun::Optimal => {}
        }
        // The objective row's RHS holds the negated phase-1 value.
        let phase1_value = -tab.obj()[total];
        if phase1_value > FEAS_EPS {
            return (SimplexOutcome::Infeasible, tab.stats);
        }

        // Drive any remaining artificial variables out of the basis.
        let mut drop_rows: Vec<usize> = Vec::new();
        for (i, b) in basis.iter_mut().enumerate() {
            if *b >= n {
                // Find a real column with a non-zero entry to pivot in.
                match (0..n).find(|&j| tab.at(i, j).abs() > PIVOT_EPS) {
                    Some(j) => {
                        tab.pivot(i, j);
                        *b = j;
                    }
                    None => drop_rows.push(i),
                }
            }
        }
        // Remove redundant rows (all-zero in real columns).
        for &i in drop_rows.iter().rev() {
            tab.remove_row(i);
            basis.remove(i);
        }
    }
    // Remove the artificial columns (no-op when there were none).
    tab.truncate_columns(n);

    // ---- Phase 2: real objective.
    let obj_start = tab.m * tab.stride;
    for v in &mut tab.data[obj_start..] {
        *v = 0.0;
    }
    tab.data[obj_start..obj_start + n].copy_from_slice(&sf.c);
    for (i, &b) in basis.iter().enumerate() {
        let cb = sf.c[b];
        if cb != 0.0 {
            for j in 0..tab.stride {
                tab.data[obj_start + j] -= cb * tab.data[i * tab.stride + j];
            }
        }
    }
    match run_pivots(&mut tab, &mut basis, &mut iters_left, None) {
        PivotRun::Unbounded => return (SimplexOutcome::Unbounded, tab.stats),
        PivotRun::IterationLimit => return (SimplexOutcome::IterationLimit, tab.stats),
        PivotRun::Optimal => {}
    }

    let mut x = vec![0.0; n];
    for i in 0..tab.m {
        if basis[i] < n {
            x[basis[i]] = tab.at(i, n);
        }
    }
    let objective: f64 = sf.c.iter().zip(&x).map(|(c, v)| c * v).sum();
    (SimplexOutcome::Optimal { x, objective }, tab.stats)
}

enum PivotRun {
    Optimal,
    Unbounded,
    IterationLimit,
}

/// Runs pivots until optimality.  If `restrict_entering` is `Some(k)`, only
/// columns `< k` may enter the basis (used in phase 1 to let real columns
/// replace artificials, and to forbid artificials re-entering).
fn run_pivots(
    tab: &mut Tableau,
    basis: &mut [usize],
    iters_left: &mut usize,
    restrict_entering: Option<usize>,
) -> PivotRun {
    let rhs = tab.width();
    let entering_limit = restrict_entering.unwrap_or(rhs);
    let mut degenerate_streak = 0usize;
    loop {
        if *iters_left == 0 {
            return PivotRun::IterationLimit;
        }
        *iters_left -= 1;

        let use_bland = degenerate_streak > 40;
        // Entering column: most-negative reduced cost (Dantzig) or smallest
        // index with negative reduced cost (Bland).
        let obj = &tab.obj()[..entering_limit];
        let mut entering: Option<usize> = None;
        if use_bland {
            entering = obj.iter().position(|&cj| cj < -COST_EPS);
        } else {
            let mut best = -COST_EPS;
            for (j, &cj) in obj.iter().enumerate() {
                if cj < best {
                    best = cj;
                    entering = Some(j);
                }
            }
        }
        let Some(e) = entering else {
            return PivotRun::Optimal;
        };

        // Ratio test.
        let mut leave: Option<usize> = None;
        let mut best_ratio = f64::INFINITY;
        for i in 0..tab.m {
            let a = tab.at(i, e);
            if a > PIVOT_EPS {
                let ratio = tab.at(i, rhs) / a;
                let better = ratio < best_ratio - PIVOT_EPS
                    || (ratio < best_ratio + PIVOT_EPS
                        && leave.is_none_or(|l| basis[i] < basis[l]));
                if better {
                    best_ratio = ratio;
                    leave = Some(i);
                }
            }
        }
        let Some(l) = leave else {
            return PivotRun::Unbounded;
        };
        if best_ratio < PIVOT_EPS {
            degenerate_streak += 1;
            tab.stats.degenerate_pivots += 1;
        } else {
            degenerate_streak = 0;
        }
        if use_bland {
            tab.stats.bland_pivots += 1;
        }
        tab.pivot(l, e);
        basis[l] = e;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn optimal(sf: &StandardForm) -> (Vec<f64>, f64) {
        match solve_standard(sf, 10_000).0 {
            SimplexOutcome::Optimal { x, objective } => (x, objective),
            other => panic!("expected optimal, got {:?}", other),
        }
    }

    #[test]
    fn textbook_maximization_as_minimization() {
        // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18, x,y >= 0.
        // Optimum (2, 6) with value 36; as minimization of -(3x+5y).
        // Standard form with slacks s1, s2, s3.
        let sf = StandardForm {
            a: vec![
                vec![1.0, 0.0, 1.0, 0.0, 0.0],
                vec![0.0, 2.0, 0.0, 1.0, 0.0],
                vec![3.0, 2.0, 0.0, 0.0, 1.0],
            ],
            b: vec![4.0, 12.0, 18.0],
            c: vec![-3.0, -5.0, 0.0, 0.0, 0.0],
        };
        let (x, obj) = optimal(&sf);
        assert!((x[0] - 2.0).abs() < 1e-7);
        assert!((x[1] - 6.0).abs() < 1e-7);
        assert!((obj + 36.0).abs() < 1e-7);
        // The slack basis is feasible, so Dantzig pricing reaches the
        // optimum in two non-degenerate pivots: y enters, then x.
        let stats = solve_standard(&sf, 10_000).1;
        assert_eq!(
            stats,
            LpStats {
                pivots: 2,
                ..LpStats::default()
            }
        );
    }

    #[test]
    fn infeasible_detected() {
        // x = 1 and x = 2 simultaneously.
        let sf = StandardForm {
            a: vec![vec![1.0], vec![1.0]],
            b: vec![1.0, 2.0],
            c: vec![0.0],
        };
        assert!(matches!(
            solve_standard(&sf, 1000).0,
            SimplexOutcome::Infeasible
        ));
    }

    #[test]
    fn unbounded_detected() {
        // min -x - y s.t. x - y = 0 (both can grow forever).
        let sf = StandardForm {
            a: vec![vec![1.0, -1.0]],
            b: vec![0.0],
            c: vec![-1.0, -1.0],
        };
        assert!(matches!(
            solve_standard(&sf, 1000).0,
            SimplexOutcome::Unbounded
        ));
    }

    #[test]
    fn degenerate_problem_terminates() {
        // A classic degenerate vertex: several constraints through origin.
        let sf = StandardForm {
            a: vec![
                vec![1.0, 1.0, 1.0, 0.0, 0.0],
                vec![1.0, 2.0, 0.0, 1.0, 0.0],
                vec![2.0, 1.0, 0.0, 0.0, 1.0],
            ],
            b: vec![0.0, 0.0, 4.0],
            c: vec![-1.0, -1.0, 0.0, 0.0, 0.0],
        };
        let (x, _) = optimal(&sf);
        // Feasibility of the returned point.
        for (row, b) in sf.a.iter().zip(&sf.b) {
            let lhs: f64 = row.iter().zip(&x).map(|(a, v)| a * v).sum();
            assert!((lhs - b).abs() < 1e-7);
        }
    }

    #[test]
    fn empty_constraint_system() {
        let sf = StandardForm {
            a: vec![],
            b: vec![],
            c: vec![1.0, 2.0],
        };
        let (x, obj) = optimal(&sf);
        assert_eq!(x, vec![0.0, 0.0]);
        assert_eq!(obj, 0.0);
        let sf2 = StandardForm {
            a: vec![],
            b: vec![],
            c: vec![-1.0],
        };
        assert!(matches!(
            solve_standard(&sf2, 10).0,
            SimplexOutcome::Unbounded
        ));
    }

    #[test]
    fn redundant_rows_are_dropped() {
        // The second row is twice the first: phase 1 must detect the
        // redundancy (an artificial stuck in the basis on a zero row) and
        // remove the row rather than fail.
        let sf = StandardForm {
            a: vec![vec![1.0, 1.0], vec![2.0, 2.0]],
            b: vec![1.0, 2.0],
            c: vec![1.0, 0.0],
        };
        let (x, obj) = optimal(&sf);
        assert!((x[0] + x[1] - 1.0).abs() < 1e-7);
        assert!(obj.abs() < 1e-7);
    }

    #[test]
    fn tableau_pivot_and_compaction() {
        // 2x2 system with one artificial column appended; pivot then compact.
        let mut tab = Tableau {
            data: vec![
                2.0, 1.0, 1.0, 0.0, 4.0, // row 0 (artificial col 2)
                1.0, 3.0, 0.0, 1.0, 6.0, // row 1 (artificial col 3)
                0.0, 0.0, 1.0, 1.0, 0.0, // objective row
            ],
            stride: 5,
            m: 2,
            stats: LpStats::default(),
        };
        tab.pivot(0, 0);
        assert_eq!(tab.stats.pivots, 1);
        assert_eq!(tab.at(0, 0), 1.0);
        assert_eq!(tab.at(1, 0), 0.0);
        // Row 1 became (0, 2.5, -0.5, 1, 4).
        assert!((tab.at(1, 1) - 2.5).abs() < 1e-12);
        assert!((tab.at(1, 4) - 4.0).abs() < 1e-12);
        tab.truncate_columns(2);
        assert_eq!(tab.stride, 3);
        assert_eq!(tab.data.len(), 9);
        // RHS entries survived the compaction.
        assert!((tab.at(0, 2) - 2.0).abs() < 1e-12);
        assert!((tab.at(1, 2) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn tableau_remove_row_shifts_objective() {
        let mut tab = Tableau {
            data: vec![
                1.0, 0.0, 3.0, //
                0.0, 1.0, 4.0, //
                5.0, 6.0, 7.0, // objective row
            ],
            stride: 3,
            m: 2,
            stats: LpStats::default(),
        };
        tab.remove_row(0);
        assert_eq!(tab.m, 1);
        assert_eq!(tab.row(0), &[0.0, 1.0, 4.0]);
        assert_eq!(tab.obj(), &[5.0, 6.0, 7.0]);
    }

    // Random standard-form programs `min c·x s.t. A x = b, x ≥ 0`, feasible
    // *by construction*: a non-negative witness `x₀` is drawn first and
    // `b := A x₀`.  The tableau must then (i) return a feasible point,
    // (ii) report an objective equal to `c · x` for the returned `x`, and
    // (iii) never return an objective worse than the witness's.

    use proptest::prelude::*;

    #[derive(Debug, Clone)]
    struct StandardProgram {
        witness: Vec<f64>,
        rows: Vec<Vec<f64>>,
        cost: Vec<f64>,
    }

    fn standard_program(
        num_vars: usize,
        num_rows: usize,
    ) -> impl Strategy<Value = StandardProgram> {
        (
            prop::collection::vec(0.0..3.0f64, num_vars),
            prop::collection::vec(prop::collection::vec(-2.0..2.0f64, num_vars), num_rows),
            prop::collection::vec(-1.0..1.0f64, num_vars),
        )
            .prop_map(|(witness, rows, cost)| StandardProgram {
                witness,
                rows,
                cost,
            })
    }

    /// `A x = A·witness` (each row negated if its right-hand side is
    /// negative), then, with `bound`, the box `x_i + s_i = witness_i +
    /// bound` on slack columns after the program's own.  `cost` is the
    /// program's columns' costs.
    fn build(program: &StandardProgram, bound: Option<f64>, cost: &[f64]) -> StandardForm {
        let n = program.witness.len();
        let width = n + bound.map_or(0, |_| n);
        let (mut a, mut b) = (Vec::new(), Vec::new());
        for row in &program.rows {
            let rhs: f64 = row.iter().zip(&program.witness).map(|(a, w)| a * w).sum();
            let sign = if rhs < 0.0 { -1.0 } else { 1.0 };
            let mut dense = vec![0.0; width];
            for (d, &v) in dense.iter_mut().zip(row) {
                *d = sign * v;
            }
            a.push(dense);
            b.push(sign * rhs);
        }
        if let Some(bound) = bound {
            for (i, w) in program.witness.iter().enumerate() {
                let mut dense = vec![0.0; width];
                dense[i] = 1.0;
                dense[n + i] = 1.0;
                a.push(dense);
                b.push(w + bound);
            }
        }
        let mut c = cost.to_vec();
        c.resize(width, 0.0);
        StandardForm { a, b, c }
    }

    /// `A x = b` within `tol` on every row, and `x ≥ −tol`.
    fn is_feasible(sf: &StandardForm, x: &[f64], tol: f64) -> bool {
        x.iter().all(|&v| v >= -tol)
            && sf.a.iter().zip(&sf.b).all(|(row, b)| {
                let lhs: f64 = row.iter().zip(x).map(|(a, v)| a * v).sum();
                (lhs - b).abs() <= tol
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn standard_form_feasibility_and_objective_invariants(
            program in standard_program(5, 3),
            bound in 4.0..8.0f64,
        ) {
            // The box keeps a negative cost from making the program
            // unbounded.
            let sf = build(&program, Some(bound), &program.cost);
            let (x, objective) = optimal(&sf);
            // (i) The returned point satisfies A x = b, x ≥ 0, and the boxes.
            prop_assert!(is_feasible(&sf, &x, 1e-6));
            // (ii) The reported objective is complementary to the point.
            let recomputed: f64 = program.cost.iter().zip(&x).map(|(c, x)| c * x).sum();
            prop_assert!(
                (objective - recomputed).abs() < 1e-6,
                "objective {} disagrees with c.x = {}",
                objective,
                recomputed
            );
            // (iii) The optimum is no worse than the witness.
            let witness_obj: f64 =
                program.cost.iter().zip(&program.witness).map(|(c, w)| c * w).sum();
            prop_assert!(objective <= witness_obj + 1e-6);
        }

        #[test]
        fn pure_feasibility_standard_form(program in standard_program(4, 4)) {
            let sf = build(&program, None, &[]);
            let (x, objective) = optimal(&sf);
            prop_assert!(is_feasible(&sf, &x, 1e-6));
            prop_assert_eq!(objective, 0.0);
        }

        #[test]
        fn l1_objective_on_standard_form(program in standard_program(4, 2)) {
            // For non-negative variables the ℓ1 norm is the plain sum.
            let sf = build(&program, None, &[1.0; 4]);
            let (x, objective) = optimal(&sf);
            prop_assert!(is_feasible(&sf, &x, 1e-6));
            let witness_norm: f64 = program.witness.iter().sum();
            prop_assert!(objective <= witness_norm + 1e-6);
            let norm: f64 = x.iter().map(|x| x.abs()).sum();
            prop_assert!((objective - norm).abs() < 1e-6);
        }
    }
}
