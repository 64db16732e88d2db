//! Conversion from modelling form to standard form and backend selection.
//!
//! The conversion writes a *sparse* standard form straight from the
//! (already sparse) modelling constraints, once, together with the all-slack
//! basis when it is dual feasible; the solver then routes it to one of three
//! simplex implementations:
//!
//! * the dual simplex ([`crate::dual`]) from the all-slack basis, for every
//!   program where that basis is dual feasible: every cost `≥ 0` and a
//!   singleton ±1 zero-cost column in every row.  Every ℓ1 and ℓ∞ repair
//!   LP qualifies, with or without `param_bound` boxes.  No phase 1, and
//!   it pivots only on violated rows.
//! * [`LpBackend::RevisedSparse`] — the two-phase primal revised simplex
//!   over CSR/CSC columns with an eta-updated basis that LU-factorises only
//!   its structural kernel ([`crate::revised`]).  `O(nnz + m²)` per pivot.
//!   [`PricingRule`] picks its entering-column rule (Devex partial pricing
//!   by default).
//! * [`LpBackend::DenseTableau`] — the flat-tableau two-phase simplex
//!   ([`crate::simplex`]).  `O(m·n)` per pivot but with a small constant;
//!   kept as the small-problem fallback and as the differential-testing
//!   oracle for the other two.
//!
//! Under [`LpBackend::Auto`] (the default used by [`solve`] /
//! [`solve_with_limit`]) and [`LpBackend::RevisedSparse`] alike, a program
//! with a dual-feasible slack basis goes to the dual; only an explicit
//! `DenseTableau` bypasses it.  Every other program, and one on which the
//! dual breaks down numerically, takes the primal path: `RevisedSparse`
//! runs the primal revised backend, and `Auto` compares the estimated
//! per-pivot work of the two primal backends — `m·n` cells for the tableau
//! against `nnz + 2m²` for pricing plus the BTRAN/FTRAN triangular solves —
//! and picks the cheaper one.  If the primal revised backend hits a
//! numerical breakdown (singular basis refactorisation), the solve
//! transparently re-runs on the dense oracle.
//!
//! [`ResumableLp`] keeps the standard form and the dual's state between
//! solves: an appended inequality row is converted exactly as the
//! conversion writes a row, its slack a new last column, and the next solve
//! resumes the dual from its basis.  The three cases that bypass the dual
//! here (no dual-feasible slack basis, a pinned `DenseTableau`, a
//! breakdown) make it re-solve every row so far cold through the policy
//! above.

use crate::dual;
use crate::problem::{ConstraintOp, LpProblem, Objective, VarId, VarKind};
use crate::revised::{solve_standard_sparse_with_stats, Pricing, RevisedStats};
use crate::simplex::{solve_standard, SimplexOutcome, COST_EPS, PIVOT_EPS};
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

/// Work counters from one solve, surfaced by [`solve_with_stats`].
///
/// Every backend fills the counters.  The dual simplex counts its pivots,
/// its dual-degenerate ones and those under its smallest-index fallback.
/// The dense tableau counts every pivot (phase 1, driving artificials out,
/// phase 2) and never refactorises, since it keeps no factorised basis.
/// When one backend breaks down numerically and another takes over, the
/// counters of both attempts are summed, except that a breakdown of the
/// primal revised backend reports only the dense fallback's counts.  ℓ∞
/// objectives are lowered to a single augmented solve, whose counters
/// carry through unchanged.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LpStats {
    /// Total simplex pivots across both phases.
    pub pivots: u64,
    /// Pivots taken under the smallest-index (Bland) anti-cycling fallback.
    pub bland_pivots: u64,
    /// Mid-solve basis refactorisations.
    pub refactorizations: u64,
    /// Degenerate (zero-step) pivots: no primal step in the primal
    /// backends, no dual step in the dual simplex.
    pub degenerate_pivots: u64,
}

impl LpStats {
    /// The counters of two attempts at one solve, summed.
    fn plus(self, other: LpStats) -> LpStats {
        LpStats {
            pivots: self.pivots + other.pivots,
            bland_pivots: self.bland_pivots + other.bland_pivots,
            refactorizations: self.refactorizations + other.refactorizations,
            degenerate_pivots: self.degenerate_pivots + other.degenerate_pivots,
        }
    }
}

impl From<RevisedStats> for LpStats {
    fn from(s: RevisedStats) -> Self {
        LpStats {
            pivots: s.pivots as u64,
            bland_pivots: s.bland_pivots as u64,
            refactorizations: s.refactorizations as u64,
            degenerate_pivots: s.degenerate_pivots as u64,
        }
    }
}

/// Which simplex implementation executes the solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LpBackend {
    /// Choose per problem from the standard form's shape and sparsity.
    #[default]
    Auto,
    /// Always use the dense flat-tableau simplex.
    DenseTableau,
    /// Always use the sparse revised machinery: the dual simplex when the
    /// slack basis is dual feasible, the primal revised simplex otherwise
    /// (falling back to the dense tableau on numerical breakdown).
    RevisedSparse,
}

/// Entering-column pricing rule for the primal revised simplex backend (the
/// dense tableau always full-prices its reduced-cost row, and the dual
/// simplex, which solves every program with a dual-feasible slack basis,
/// always uses dual steepest edge; both rules fall back to Bland's
/// anti-cycling rule on degenerate stalls).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PricingRule {
    /// Resolve from the `PRDNN_LP_PRICING` environment variable (`dantzig`
    /// or `devex`, mirroring `PRDNN_THREADS`); defaults to Devex, the rule
    /// built for the wide sparse repair programs.
    #[default]
    Auto,
    /// Full pricing: most negative reduced cost, one sparse dot per
    /// nonbasic column per pivot.
    Dantzig,
    /// Devex reference weights with candidate-list partial pricing: most
    /// pivots price a few dozen columns instead of all of them, and the
    /// weights steer towards steepest-edge-like entering choices.
    Devex,
}

impl PricingRule {
    /// Resolves the policy to a concrete rule for the revised backend.
    ///
    /// Precedence mirrors the thread knob: an explicit rule wins over the
    /// `PRDNN_LP_PRICING` environment variable, which wins over the
    /// built-in default (Devex).  Unrecognised variable values fall through
    /// to the default, like an unparsable `PRDNN_THREADS` — but not
    /// silently: the first one seen prints a warning naming the variable
    /// and the value to stderr.
    fn resolve(self) -> Pricing {
        match self {
            PricingRule::Dantzig => Pricing::Dantzig,
            PricingRule::Devex => Pricing::Devex,
            PricingRule::Auto => match std::env::var("PRDNN_LP_PRICING") {
                Ok(raw) => match parse_pricing_value(&raw) {
                    Ok(pricing) => pricing,
                    Err(warning) => {
                        static WARNED: std::sync::Once = std::sync::Once::new();
                        WARNED.call_once(|| eprintln!("{warning}"));
                        Pricing::Devex
                    }
                },
                Err(_) => Pricing::Devex,
            },
        }
    }
}

/// Parses a `PRDNN_LP_PRICING` value (`dantzig` or `devex`, case
/// insensitive), or returns the warning message (naming the variable and
/// the offending value) emitted when it is unrecognised.
///
/// Split out of [`PricingRule::resolve`] so the warning path is
/// unit-testable without capturing stderr.
fn parse_pricing_value(raw: &str) -> Result<Pricing, String> {
    if raw.eq_ignore_ascii_case("dantzig") {
        Ok(Pricing::Dantzig)
    } else if raw.eq_ignore_ascii_case("devex") {
        Ok(Pricing::Devex)
    } else {
        Err(format!(
            "warning: ignoring PRDNN_LP_PRICING={raw:?}: \
             expected \"dantzig\" or \"devex\"; falling back to devex"
        ))
    }
}

/// Options accepted by [`solve_with_options`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SolveOptions {
    /// Backend selection policy.
    pub backend: LpBackend,
    /// Simplex iteration budget (shared across both phases).
    pub max_iters: usize,
    /// Entering-column pricing rule for the primal revised backend.
    pub pricing: PricingRule,
}

impl Default for SolveOptions {
    fn default() -> Self {
        SolveOptions {
            backend: LpBackend::Auto,
            max_iters: DEFAULT_MAX_ITERS,
            pricing: PricingRule::Auto,
        }
    }
}

/// Default simplex iteration limit used by [`solve`].
const DEFAULT_MAX_ITERS: usize = 2_000_000;

/// Solves the problem with the default iteration limit and automatic
/// backend selection.
///
/// # Errors
///
/// Returns [`LpError::Infeasible`] if no point satisfies the constraints,
/// [`LpError::Unbounded`] if the objective is unbounded below, and
/// [`LpError::IterationLimit`] if the simplex iteration budget is exhausted.
pub fn solve(problem: &LpProblem) -> Result<Solution, LpError> {
    solve_with_options(problem, &SolveOptions::default())
}

/// Solves the problem with an explicit simplex iteration limit.
///
/// # Errors
///
/// See [`solve`].
pub fn solve_with_limit(problem: &LpProblem, max_iters: usize) -> Result<Solution, LpError> {
    solve_with_options(
        problem,
        &SolveOptions {
            max_iters,
            ..SolveOptions::default()
        },
    )
}

/// Solves the problem with explicit backend and iteration options.
///
/// # Errors
///
/// See [`solve`].
pub fn solve_with_options(
    problem: &LpProblem,
    options: &SolveOptions,
) -> Result<Solution, LpError> {
    solve_with_stats(problem, options).map(|(solution, _)| solution)
}

/// [`solve_with_options`] plus the [`LpStats`] work counters for the solve.
///
/// # Errors
///
/// See [`solve`].
pub fn solve_with_stats(
    problem: &LpProblem,
    options: &SolveOptions,
) -> Result<(Solution, LpStats), LpError> {
    solve_via(problem, &mut |sf| route(sf, options))
}

/// Lowers `problem` to sparse standard form, solves that with `engine`, and
/// maps the outcome back to the modelling variables.
///
/// ℓ∞ objectives are first lowered to a plain linear objective over an
/// augmented problem with one extra bound variable `t ≥ |x_i|`.
pub(crate) fn solve_via(
    problem: &LpProblem,
    engine: &mut dyn FnMut(&SparseStandardForm) -> (SimplexOutcome, LpStats),
) -> Result<(Solution, LpStats), LpError> {
    if let Objective::MinimizeLinf(vars) = &problem.objective {
        let (augmented, t) = lower_linf(problem.clone(), vars);
        let (mut solution, stats) = solve_via(&augmented, engine)?;
        let objective = solution.values[t.index()];
        solution.values.truncate(problem.num_vars());
        return Ok((
            Solution {
                values: solution.values,
                objective,
            },
            stats,
        ));
    }

    let (sf, mapping) = to_standard_form(problem);
    let (outcome, stats) = engine(&sf);
    mapping
        .solution(problem, outcome)
        .map(|solution| (solution, stats))
}

/// `problem` with its ℓ∞ objective over `vars` lowered to a linear one: an
/// extra bound variable `t ≥ |x_i|`, returned beside it, is minimised.
fn lower_linf(mut problem: LpProblem, vars: &[VarId]) -> (LpProblem, VarId) {
    let t = problem.add_var(VarKind::NonNegative);
    for v in vars {
        problem.add_constraint(&[(*v, 1.0), (t, -1.0)], ConstraintOp::Le, 0.0);
        problem.add_constraint(&[(*v, -1.0), (t, -1.0)], ConstraintOp::Le, 0.0);
    }
    problem.set_objective_linear(&[(t, 1.0)]);
    (problem, t)
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
///
/// Three cases make a solve *cold*: the program has no dual-feasible slack
/// basis, the backend is pinned to [`LpBackend::DenseTableau`], or the
/// dual breaks down.  A cold solve re-solves every row so far through
/// [`solve_with_stats`]'s backend policy, with all its fallbacks, and every
/// later solve stays cold.  `options.max_iters` bounds the iterations of
/// all solves together.
///
/// # Example
///
/// ```
/// use prdnn_lp::{ConstraintOp, LpProblem, ResumableLp, SolveOptions, VarKind};
///
/// # fn main() -> Result<(), prdnn_lp::LpError> {
/// let mut lp = LpProblem::new();
/// let x = lp.add_var(VarKind::Free);
/// lp.add_constraint(&[(x, 1.0)], ConstraintOp::Ge, 1.0);
/// lp.minimize_l1_of(&[x]);
/// let mut lp = ResumableLp::new(lp, &SolveOptions::default());
/// assert_eq!(lp.solve()?.0.values, vec![1.0]);
/// // x = 1 violates the new row: one more pivot, counted cumulatively.
/// lp.add_constraint(&[(x, 1.0)], ConstraintOp::Ge, 2.0);
/// let (solution, stats) = lp.solve()?;
/// assert_eq!((solution.values, stats.pivots), (vec![2.0], 2));
/// # Ok(())
/// # }
/// ```
pub struct ResumableLp {
    /// Every row so far, the objective already lowered.
    problem: LpProblem,
    /// The caller's variables: the lowered ℓ∞ bound comes after them.
    num_vars: usize,
    mapping: VarMapping,
    options: SolveOptions,
    /// The dual simplex's state; `None` once solving has gone cold.
    dual: Option<dual::Dual<'static>>,
    /// Once cold: the counters so far and the iterations left.
    spent: LpStats,
    iters_left: usize,
}

impl ResumableLp {
    /// Prepares `problem` for its first [`Self::solve`].
    pub fn new(problem: LpProblem, options: &SolveOptions) -> Self {
        let num_vars = problem.num_vars();
        let problem = match problem.objective.clone() {
            Objective::MinimizeLinf(vars) => lower_linf(problem, &vars).0,
            _ => problem,
        };
        let (sf, mapping) = to_standard_form(&problem);
        let dual = match sf.dual_slacks.clone() {
            Some(slacks) if options.backend != LpBackend::DenseTableau => {
                dual::Dual::new(Cow::Owned(sf), &slacks, options.max_iters)
            }
            _ => None,
        };
        ResumableLp {
            problem,
            num_vars,
            mapping,
            options: *options,
            dual,
            spent: LpStats::default(),
            iters_left: options.max_iters,
        }
    }

    /// Appends the constraint `Σ coeffs_i · x_i  op  rhs`, as
    /// [`LpProblem::add_constraint`] does; the next [`Self::solve`] resumes
    /// with it.
    ///
    /// # Panics
    ///
    /// Panics if `op` is [`ConstraintOp::Eq`] (only inequality rows can
    /// enter on a slack), or if a variable does not belong to the problem.
    pub fn add_constraint(&mut self, coeffs: &[(VarId, f64)], op: ConstraintOp, rhs: f64) {
        assert_ne!(op, ConstraintOp::Eq, "only inequality rows can be appended");
        self.problem.add_constraint(coeffs, op, rhs);
        if let Some(dual) = &mut self.dual {
            let (entries, b) = self.mapping.standard_row(coeffs, op, rhs, dual.num_cols());
            dual.push_row(&entries, b);
        }
    }

    /// Solves every row so far, resuming from the last solve's basis.  The
    /// counters are cumulative over every solve of this handle.
    ///
    /// # Errors
    ///
    /// See [`solve`]; [`LpError::IterationLimit`] once all solves together
    /// exceed `options.max_iters`.
    pub fn solve(&mut self) -> Result<(Solution, LpStats), LpError> {
        if let Some(dual) = &mut self.dual {
            match dual.resume() {
                Ok(outcome) => {
                    let stats = dual.stats.into();
                    return self.finish(outcome, stats);
                }
                Err(dual::Breakdown) => {
                    self.spent = dual.stats.into();
                    self.iters_left = dual.iters_left;
                    self.dual = None;
                }
            }
        }
        let options = SolveOptions {
            max_iters: self.iters_left,
            ..self.options
        };
        let (outcome, stats) = route(&to_standard_form(&self.problem).0, &options);
        self.spent = self.spent.plus(stats);
        self.iters_left = self.iters_left.saturating_sub(stats.pivots as usize);
        self.finish(outcome, self.spent)
    }

    /// Whether the next solve resumes the dual (no cold solve so far).
    #[cfg(test)]
    pub(crate) fn is_warm(&self) -> bool {
        self.dual.is_some()
    }

    /// The caller's variables' values (the lowered ℓ∞ bound dropped: the
    /// objective is its value).
    fn finish(
        &self,
        outcome: SimplexOutcome,
        stats: LpStats,
    ) -> Result<(Solution, LpStats), LpError> {
        let mut solution = self.mapping.solution(&self.problem, outcome)?;
        solution.values.truncate(self.num_vars);
        Ok((solution, stats))
    }
}

/// The backend policy on one standard-form program.
///
/// Unless the dense tableau is requested explicitly, a program whose
/// all-slack basis is dual feasible goes to the dual simplex.  Every other
/// program, and one on which the dual breaks down numerically, takes the
/// primal path: the revised backend (under `Auto`, only when
/// [`auto_prefers_revised`]), which itself falls back to the dense tableau
/// on a breakdown.  A broken-down dual's counters are added to the primal
/// path's.
fn route(sf: &SparseStandardForm, options: &SolveOptions) -> (SimplexOutcome, LpStats) {
    let mut spent = LpStats::default();
    if options.backend != LpBackend::DenseTableau {
        if let Some(slacks) = &sf.dual_slacks {
            match dual::solve(sf, slacks, options.max_iters) {
                Ok((outcome, stats)) => return (outcome, stats.into()),
                Err(stats) => spent = stats.into(),
            }
        }
    }
    let use_revised = match options.backend {
        LpBackend::DenseTableau => false,
        LpBackend::RevisedSparse => true,
        LpBackend::Auto => auto_prefers_revised(sf),
    };
    let (outcome, stats) = if use_revised {
        // `None` is a numerical breakdown in the revised backend; the dense
        // tableau is the robust fallback, and its counts are reported.
        solve_standard_sparse_with_stats(sf, options.max_iters, options.pricing.resolve())
            .map(|(outcome, stats)| (outcome, LpStats::from(stats)))
            .unwrap_or_else(|| solve_standard(&sf.to_dense(), options.max_iters))
    } else {
        solve_standard(&sf.to_dense(), options.max_iters)
    };
    (outcome, stats.plus(spent))
}

/// `Auto` policy: estimated per-pivot work of the revised backend
/// (column pricing over the stored non-zeros plus two triangular solves)
/// against the flat tableau's full `m·n` cell update, with a bias towards
/// the tableau's smaller constant factor on little problems.
fn auto_prefers_revised(sf: &SparseStandardForm) -> bool {
    let m = sf.num_rows();
    let n = sf.num_cols();
    if m < 8 || n < 32 {
        return false;
    }
    let revised_estimate = sf.a.nnz() as f64 + 2.0 * (m * m) as f64;
    let tableau_estimate = (m * n) as f64;
    revised_estimate < 0.75 * tableau_estimate
}

/// How each problem variable maps onto standard-form columns.
pub(crate) struct VarMapping {
    /// `(positive_col, Option<negative_col>)` per problem variable; free
    /// variables are split `x = x⁺ − x⁻`.
    cols: Vec<(usize, Option<usize>)>,
}

impl VarMapping {
    /// A standard-form outcome as a solution over `problem`'s variables.
    fn solution(&self, problem: &LpProblem, outcome: SimplexOutcome) -> Result<Solution, LpError> {
        match outcome {
            SimplexOutcome::Optimal { x, objective } => {
                let values = (0..problem.num_vars())
                    .map(|i| {
                        let (p, n) = self.cols[i];
                        x[p] - n.map_or(0.0, |n| x[n])
                    })
                    .collect();
                Ok(Solution { values, objective })
            }
            SimplexOutcome::Infeasible => Err(LpError::Infeasible),
            SimplexOutcome::Unbounded => Err(LpError::Unbounded),
            SimplexOutcome::IterationLimit => Err(LpError::IterationLimit),
        }
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
        row.push((slack, slack_value(op).expect("an inequality row")));
        let mut entries = Vec::with_capacity(row.len());
        push_merged(&mut row, &mut entries);
        (entries, rhs)
    }
}

/// Converts a modelling-form problem into sparse standard simplex form.
///
/// Each row is one constraint: a free variable splits into the adjacent
/// columns `x⁺, x⁻`, a row with a negative right-hand side is negated (its
/// operator flipped) so that `b ≥ 0`, and an inequality then gets its own
/// slack column, `+1` for `≤` and `−1` for `≥`.  The CSR arrays are written
/// once, at their exact size: a row whose variables strictly increase maps
/// onto strictly increasing columns and is copied as it stands; any other
/// row is sorted, its repeated columns summed, and exact zeros dropped.
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
    // One slack/surplus column per inequality constraint.
    let num_slacks = problem
        .rows
        .iter()
        .filter(|row| row.op != ConstraintOp::Eq)
        .count();
    let num_cols = num_var_cols + num_slacks;
    let m = problem.num_constraints();
    let c = standard_costs(problem, &cols, num_cols);

    // Pass 1: size every row.  The rows that need sorting are sorted and
    // merged here, into `merged`, and `merged_len` records each one's length.
    let mut merged: Vec<(usize, f64)> = Vec::new();
    let mut merged_len: Vec<Option<usize>> = Vec::with_capacity(m);
    let mut scratch: Vec<(usize, f64)> = Vec::new();
    let mut nnz = num_slacks;
    let mut slack_idx = num_var_cols;
    for (terms, op, rhs) in problem.constraints() {
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
            if let Some(value) = slack_value(op) {
                scratch.push((slack_idx, value));
            }
            let before = merged.len();
            push_merged(&mut scratch, &mut merged);
            merged_len.push(Some(merged.len() - before));
            nnz += merged.len() - before - usize::from(op != ConstraintOp::Eq);
        }
        if op != ConstraintOp::Eq {
            slack_idx += 1;
        }
    }

    // The dual's slack basis needs, per zero-cost variable column, its
    // entry count and last entry; a negative cost rules the basis out.
    let dual_feasible = c.iter().all(|&cost| cost >= 0.0);
    let candidate: Vec<bool> = c[..num_var_cols]
        .iter()
        .map(|&cost| dual_feasible && cost <= COST_EPS)
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
    let mut row_slack: Vec<Option<usize>> = Vec::with_capacity(m);
    let mut merged = merged.into_iter();
    let mut slack_idx = num_var_cols;
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
                if let Some(value) = slack_value(op) {
                    indices.push(slack_idx);
                    values.push(value);
                }
            }
            Some(len) => {
                for (j, v) in merged.by_ref().take(len) {
                    indices.push(j);
                    values.push(v);
                    record(i, j, v);
                }
            }
        }
        row_slack.push((op != ConstraintOp::Eq).then_some(slack_idx));
        if op != ConstraintOp::Eq {
            slack_idx += 1;
        }
        indptr.push(indices.len());
        b.push(rhs);
    }
    debug_assert_eq!(indices.len(), nnz);

    // The dual's slack basis: per row, the lowest singleton ±1 column of
    // zero cost.  Variable columns come first; the row's own slack always
    // qualifies.
    let dual_slacks = dual_feasible.then(|| {
        let mut basis = vec![None; m];
        for (j, &(count, i, v)) in col_entries.iter().enumerate() {
            if count == 1 && (v.abs() - 1.0).abs() <= PIVOT_EPS && basis[i].is_none() {
                basis[i] = Some(j);
            }
        }
        basis
            .into_iter()
            .zip(row_slack)
            .map(|(var_col, slack)| var_col.or(slack))
            .collect::<Option<Vec<usize>>>()
    });

    let a = CsrMatrix::from_parts(num_cols, indptr, indices, values);
    // Record the split pairs: column `n` is the exact negation of `p`, which
    // lets the revised backend price both with one dot product.
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
        dual_slacks: dual_slacks.flatten(),
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
            ConstraintOp::Eq => ConstraintOp::Eq,
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
fn slack_value(op: ConstraintOp) -> Option<f64> {
    match op {
        ConstraintOp::Le => Some(1.0),
        ConstraintOp::Ge => Some(-1.0),
        ConstraintOp::Eq => None,
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

/// The standard-form cost vector: each variable's cost on its columns
/// (`x⁻` negated), zero on the slacks.
fn standard_costs(
    problem: &LpProblem,
    cols: &[(usize, Option<usize>)],
    num_cols: usize,
) -> Vec<f64> {
    let mut c = vec![0.0; num_cols];
    match &problem.objective {
        Objective::Feasibility => {}
        Objective::Linear(dense) => {
            for (i, coeff) in dense.iter().enumerate() {
                let (p, n) = cols[i];
                c[p] += coeff;
                if let Some(n) = n {
                    c[n] -= coeff;
                }
            }
        }
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
    use crate::{LpProblem, VarKind};
    use proptest::prelude::*;

    /// Runs every test problem through the dense oracle and the revised
    /// backend under both pricing rules, checking all three agree.
    fn solve_both(lp: &LpProblem) -> Result<Solution, LpError> {
        let dense = solve_with_options(
            lp,
            &SolveOptions {
                backend: LpBackend::DenseTableau,
                ..SolveOptions::default()
            },
        );
        let mut last = dense.clone();
        for pricing in [PricingRule::Dantzig, PricingRule::Devex] {
            let revised = solve_with_options(
                lp,
                &SolveOptions {
                    backend: LpBackend::RevisedSparse,
                    pricing,
                    ..SolveOptions::default()
                },
            );
            match (&dense, &revised) {
                (Ok(d), Ok(r)) => assert!(
                    (d.objective - r.objective).abs() < 1e-6,
                    "backends disagree ({pricing:?}): dense {} vs revised {}",
                    d.objective,
                    r.objective
                ),
                (a, b) => assert_eq!(a, b, "backends disagree on classification ({pricing:?})"),
            }
            last = revised;
        }
        last
    }

    #[test]
    fn simple_linear_objective() {
        // min x + y s.t. x + y >= 2, x - y = 0  => x = y = 1.
        let mut lp = LpProblem::new();
        let x = lp.add_var(VarKind::Free);
        let y = lp.add_var(VarKind::Free);
        lp.add_constraint(&[(x, 1.0), (y, 1.0)], ConstraintOp::Ge, 2.0);
        lp.add_constraint(&[(x, 1.0), (y, -1.0)], ConstraintOp::Eq, 0.0);
        lp.set_objective_linear(&[(x, 1.0), (y, 1.0)]);
        let sol = solve_both(&lp).unwrap();
        assert!((sol.values[0] - 1.0).abs() < 1e-7);
        assert!((sol.values[1] - 1.0).abs() < 1e-7);
        assert!((sol.objective - 2.0).abs() < 1e-7);
    }

    #[test]
    fn l1_minimisation_prefers_sparse_solutions() {
        // Constraints: x + y >= 1. The l1-minimal solutions have |x|+|y| = 1.
        let mut lp = LpProblem::new();
        let x = lp.add_var(VarKind::Free);
        let y = lp.add_var(VarKind::Free);
        lp.add_constraint(&[(x, 1.0), (y, 1.0)], ConstraintOp::Ge, 1.0);
        lp.minimize_l1_of(&[x, y]);
        let sol = solve_both(&lp).unwrap();
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
        let sol = solve_both(&lp).unwrap();
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
        let sol = solve_both(&lp).unwrap();
        assert!((sol.values[0] + 3.0).abs() < 1e-7);
        assert!((sol.objective - 3.0).abs() < 1e-7);
    }

    #[test]
    fn negative_rhs_ge_rows_get_usable_slack() {
        // Pins the standard-form slack invariant: a `≥` row with negative
        // RHS is flipped to a `≤` row with positive RHS and must carry a
        // clean `+1` slack — a basis the phase-1 seeding can use directly,
        // so no artificial variable (and no phase-1 pivots) are needed for
        // it.  Guards the flip-before-slack rewrite of `to_standard_form`.
        let mut lp = LpProblem::new();
        let x = lp.add_var(VarKind::NonNegative);
        lp.add_constraint(&[(x, -1.0)], ConstraintOp::Ge, -5.0); // -x >= -5 ⟺ x <= 5
        let (sf, _) = to_standard_form(&lp);
        assert_eq!(sf.b, vec![5.0]);
        let (cols, vals) = sf.a.row(0);
        // Row stores x's coefficient +1 (negated) and the slack +1.
        assert_eq!(cols, &[0, 1]);
        assert_eq!(vals, &[1.0, 1.0]);

        // And the flipped row solves correctly under both backends.
        lp.set_objective_linear(&[(x, -1.0)]); // max x => x = 5
        let sol = solve_both(&lp).unwrap();
        assert!((sol.values[0] - 5.0).abs() < 1e-7);
    }

    #[test]
    fn negative_rhs_le_rows_become_surplus_rows() {
        // The mirror case: `x ≤ -3` flips to `-x ≥ 3`, whose surplus is -1.
        // The origin violates this row, so an artificial (not the surplus)
        // must seed the basis — the artificial here is mathematically
        // required, and the conversion must *not* pretend the surplus
        // column is usable.
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
        assert_eq!(solve_both(&lp), Err(LpError::Infeasible));
    }

    #[test]
    fn unbounded_problem_reports_error() {
        let mut lp = LpProblem::new();
        let x = lp.add_var(VarKind::Free);
        lp.add_constraint(&[(x, 1.0)], ConstraintOp::Ge, 0.0);
        lp.set_objective_linear(&[(x, -1.0)]);
        assert_eq!(solve_both(&lp), Err(LpError::Unbounded));
    }

    #[test]
    fn feasibility_only_problem() {
        let mut lp = LpProblem::new();
        let x = lp.add_var(VarKind::NonNegative);
        lp.add_constraint(&[(x, 1.0)], ConstraintOp::Ge, 2.0);
        let sol = solve_both(&lp).unwrap();
        assert!(lp.is_feasible(&sol.values, 1e-7));
    }

    #[test]
    fn equality_constraints_with_free_vars() {
        // x + 2y = 4, x - y = 1 => x = 2, y = 1.
        let mut lp = LpProblem::new();
        let x = lp.add_var(VarKind::Free);
        let y = lp.add_var(VarKind::Free);
        lp.add_constraint(&[(x, 1.0), (y, 2.0)], ConstraintOp::Eq, 4.0);
        lp.add_constraint(&[(x, 1.0), (y, -1.0)], ConstraintOp::Eq, 1.0);
        lp.minimize_l1_of(&[x, y]);
        let sol = solve_both(&lp).unwrap();
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

    #[test]
    fn unrecognised_pricing_values_warn_and_fall_back() {
        assert_eq!(parse_pricing_value("dantzig"), Ok(Pricing::Dantzig));
        assert_eq!(parse_pricing_value("DEVEX"), Ok(Pricing::Devex));
        for bad in ["", "steepest", "devex ", "bland"] {
            let warning = parse_pricing_value(bad).expect_err(bad);
            assert!(warning.contains("PRDNN_LP_PRICING"), "{warning}");
            assert!(warning.contains(bad), "{warning}");
            assert!(warning.contains("devex"), "{warning}");
        }
    }

    #[test]
    fn auto_policy_picks_dense_for_small_and_revised_for_wide_sparse() {
        // Small problem: dense.
        let mut small = LpProblem::new();
        let x = small.add_var(VarKind::Free);
        small.add_constraint(&[(x, 1.0)], ConstraintOp::Le, 1.0);
        let (sf_small, _) = to_standard_form(&small);
        assert!(!auto_prefers_revised(&sf_small));

        // Wide block-sparse problem (one block per "key point"): revised.
        let mut wide = LpProblem::new();
        let vars = wide.add_vars(128, VarKind::Free);
        for block in 0..16 {
            let terms: Vec<_> = (0..8).map(|k| (vars[block * 8 + k], 1.0)).collect();
            wide.add_constraint(&terms, ConstraintOp::Le, 1.0);
            wide.add_constraint(&terms, ConstraintOp::Ge, -1.0);
        }
        wide.minimize_l1_of(&vars);
        let (sf_wide, _) = to_standard_form(&wide);
        assert!(auto_prefers_revised(&sf_wide));
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
        let num_slacks = problem
            .constraints()
            .filter(|&(_, op, _)| op != ConstraintOp::Eq)
            .count();
        let num_cols = num_var_cols + num_slacks;

        let mut rows: Vec<Vec<(usize, f64)>> = Vec::new();
        let mut b: Vec<f64> = Vec::new();
        let mut slack_idx = num_var_cols;
        for (terms, op, rhs) in problem.constraints() {
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
                    ConstraintOp::Eq => ConstraintOp::Eq,
                };
            }
            match op {
                ConstraintOp::Le => {
                    row.push((slack_idx, 1.0));
                    slack_idx += 1;
                }
                ConstraintOp::Ge => {
                    row.push((slack_idx, -1.0));
                    slack_idx += 1;
                }
                ConstraintOp::Eq => {}
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
            dual_slacks: None,
        };
        sf.dual_slacks = dual::dual_feasible_slack_basis(&sf);
        sf
    }

    /// Asserts that `to_standard_form` matches the oracle bit for bit, and
    /// that its dual slack basis is the one the seeding scan picks.
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
        assert_eq!(sf.dual_slacks, reference.dual_slacks, "dual slack basis");

        // Inequality rows appended one at a time, as a `ResumableLp` does,
        // are written the same way, slack columns included.
        if lp.rows.iter().any(|row| row.op == ConstraintOp::Eq) {
            return;
        }
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
        // row is flipped, on row 1), not otherwise (x2 on row 2); an
        // equality row needs one (x3 on row 3).
        let mut lp = LpProblem::new();
        let x0 = lp.add_var(VarKind::NonNegative);
        let x1 = lp.add_var(VarKind::Free);
        let x2 = lp.add_var(VarKind::NonNegative);
        let x3 = lp.add_var(VarKind::NonNegative);
        let y = lp.add_var(VarKind::Free);
        lp.add_constraint(&[(x0, 1.0 + 5e-11), (y, 2.0)], ConstraintOp::Le, 1.0);
        lp.add_constraint(&[(y, 1.0), (x1, 1.0)], ConstraintOp::Ge, -2.0);
        lp.add_constraint(&[(x2, 0.5), (y, -1.0)], ConstraintOp::Ge, 1.0);
        lp.add_constraint(&[(y, 3.0), (x3, -1.0)], ConstraintOp::Eq, 4.0);
        lp.minimize_l1_of(&[y]);
        assert_conversion_matches_oracle(&lp);
        let (sf, _) = to_standard_form(&lp);
        // Columns: x0, x1⁺ x1⁻, x2, x3, y⁺ y⁻, then the slacks 7, 8, 9.
        assert_eq!(sf.dual_slacks, Some(vec![0, 1, 9, 4]));
        // A negative cost rules the basis out; so does an equality row with
        // no singleton.
        lp.set_objective_linear(&[(x2, -1.0)]);
        assert_eq!(to_standard_form(&lp).0.dual_slacks, None);
        lp.minimize_l1_of(&[y]);
        lp.add_constraint(&[(y, 1.0), (x0, 1.0)], ConstraintOp::Eq, 0.0);
        assert_eq!(to_standard_form(&lp).0.dual_slacks, None);
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
            0u8..3,
            -2.0..2.0f64,
            0u8..2,
            prop::collection::vec(term, 0..6),
        )
            .prop_map(|(op, rhs, sorted, terms)| (op, rhs, sorted == 1, terms));
        (
            prop::collection::vec(0u8..2, 5),
            prop::collection::vec(row, 0..7),
            (0u8..4, prop::collection::vec(-1.0..3.0f64, 5)),
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
            let op = [ConstraintOp::Le, ConstraintOp::Ge, ConstraintOp::Eq][*op as usize];
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
            1 => {
                // Some costs zero, some negative.
                let costs: Vec<_> = vars
                    .iter()
                    .zip(weights)
                    .map(|(&v, &w)| (v, if w > 1.0 { 0.0 } else { w }))
                    .collect();
                lp.set_objective_linear(&costs);
            }
            2 => lp.minimize_l1_of(normed),
            _ => {
                lp.minimize_linf_of(normed);
                lp = lower_linf(lp, normed).0;
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
    fn dual_feasible_programs_take_the_dual_unless_dense_is_pinned() {
        // A chain of 8 rows, all violated at the origin, with an ℓ1
        // objective.  The dual fixes two rows per pivot; the two-phase
        // tableau starts with an artificial on every row.
        let mut lp = LpProblem::new();
        let x = lp.add_vars(9, VarKind::Free);
        for i in 0..8 {
            let rhs = 1.0 + i as f64 * 0.1;
            lp.add_constraint(&[(x[i], 1.0), (x[i + 1], 1.0)], ConstraintOp::Ge, rhs);
        }
        lp.minimize_l1_of(&x);
        let (_, dual_stats) = solve_via(&lp, &mut |sf| {
            let slacks = sf.dual_slacks.as_ref().expect("dual feasible");
            let (outcome, stats) =
                dual::solve(sf, slacks, DEFAULT_MAX_ITERS).expect("no breakdown");
            (outcome, stats.into())
        })
        .unwrap();
        assert_eq!(dual_stats.pivots, 4, "{dual_stats:?}");
        for backend in [LpBackend::Auto, LpBackend::RevisedSparse] {
            let options = SolveOptions {
                backend,
                ..SolveOptions::default()
            };
            let (solution, stats) = solve_with_stats(&lp, &options).unwrap();
            assert_eq!(stats, dual_stats, "{backend:?}");
            assert!((solution.objective - 5.6).abs() < 1e-9);
        }
        let dense = SolveOptions {
            backend: LpBackend::DenseTableau,
            ..SolveOptions::default()
        };
        let (solution, stats) = solve_with_stats(&lp, &dense).unwrap();
        assert!(stats.pivots >= 8, "{stats:?}");
        assert!((solution.objective - 5.6).abs() < 1e-9);
    }

    #[test]
    fn solve_with_stats_counts_pivots_on_both_backends() {
        // A wide block-sparse program with every row violated at the
        // origin: its slack basis is dual feasible, so the revised backend
        // solves it with the dual simplex, one pivot per violated row.
        let mut wide = LpProblem::new();
        let vars = wide.add_vars(128, VarKind::Free);
        for block in 0..16 {
            let terms: Vec<_> = (0..8).map(|k| (vars[block * 8 + k], 1.0)).collect();
            wide.add_constraint(&terms, ConstraintOp::Ge, 1.0);
        }
        wide.minimize_l1_of(&vars);
        let revised = SolveOptions {
            backend: LpBackend::RevisedSparse,
            ..SolveOptions::default()
        };
        let (solution, stats) = solve_with_stats(&wide, &revised).unwrap();
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
        let (satisfied_solution, satisfied_stats) = solve_with_stats(&satisfied, &revised).unwrap();
        assert_eq!(satisfied_solution.objective, 0.0);
        assert_eq!(satisfied_stats, LpStats::default());

        // A negative cost takes the primal revised path, which pivots too.
        let mut primal = wide.clone();
        let cost: Vec<_> = vars.iter().map(|&v| (v, -1.0)).collect();
        primal.set_objective_linear(&cost);
        for &v in &vars {
            primal.add_constraint(&[(v, 1.0)], ConstraintOp::Le, 1.0);
        }
        let (primal_solution, primal_stats) = solve_with_stats(&primal, &revised).unwrap();
        assert!((primal_solution.objective + 128.0).abs() < 1e-6);
        assert!(primal_stats.pivots > 0, "{primal_stats:?}");

        // The dense tableau reaches the same optimum and counts its work:
        // each of the 16 `≥` rows starts on an artificial, which only a
        // pivot can remove, and no factorised basis means no
        // refactorisations.
        let dense = SolveOptions {
            backend: LpBackend::DenseTableau,
            ..SolveOptions::default()
        };
        let (dense_solution, dense_stats) = solve_with_stats(&wide, &dense).unwrap();
        assert!((dense_solution.objective - solution.objective).abs() < 1e-6);
        assert!(dense_stats.pivots >= 16, "{dense_stats:?}");
        assert_eq!(dense_stats.refactorizations, 0);

        // ℓ∞ lowering carries the augmented solve's counters through.
        let mut linf = LpProblem::new();
        let x = linf.add_var(VarKind::Free);
        let y = linf.add_var(VarKind::Free);
        linf.add_constraint(&[(x, 1.0), (y, 1.0)], ConstraintOp::Ge, 1.0);
        linf.minimize_linf_of(&[x, y]);
        let (linf_solution, linf_stats) = solve_with_stats(
            &linf,
            &SolveOptions {
                backend: LpBackend::RevisedSparse,
                ..SolveOptions::default()
            },
        )
        .unwrap();
        assert!((linf_solution.objective - 0.5).abs() < 1e-7);
        assert!(linf_stats.pivots > 0);
        // `Auto` routes it to the dual as well, whatever its size.
        let (_, auto_stats) = solve_with_stats(&linf, &SolveOptions::default()).unwrap();
        assert_eq!(auto_stats, linf_stats);
    }
}
