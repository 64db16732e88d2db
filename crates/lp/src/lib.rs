//! Linear-programming substrate for the PRDNN reproduction.
//!
//! The paper's repair algorithms reduce DNN repair to a linear program whose
//! variables are the parameter deltas `Δ` of a single value-channel layer and
//! whose objective is the ℓ1 or ℓ∞ norm of `Δ` (the paper uses Gurobi for
//! this step).  This crate provides the equivalent capability from scratch:
//!
//! * [`LpProblem`] — a small modelling layer: free or non-negative variables,
//!   `≤` / `≥` / `=` constraints, linear or norm-minimisation objectives.
//! * [`solve`] — a simplex solve that returns an optimal solution, or
//!   reports that the program is [infeasible](LpError::Infeasible) (the
//!   paper's `⊥`: no single-layer repair exists) or unbounded.
//! * [`ResumableLp`] — the same solve on a program that grows: append
//!   inequality rows to a solved program and resume from its basis.  The
//!   repair algorithms generate their rows this way, appending only the
//!   rows the current `Δ` violates by [`is_violated`], the dual simplex's
//!   own leaving-row test.
//!
//! Every repair LP minimises a norm over inequality rows, so its all-slack
//! basis is dual feasible, and a *dual simplex* started there solves it
//! with no phase 1, pivoting only on the rows the unrepaired network
//! violates.  It reads the constraint rows in the one CSR layout the
//! standard-form conversion writes, and shares an eta-updated basis with
//! the two-phase primal *revised* simplex (which takes every other program
//! — negative costs, equality rows — and any program the dual breaks down
//! on): the slack and artificial columns are placed without elimination,
//! and only the structural kernel is LU-factorised.  An appended row enters
//! with its slack basic, so the basis stays dual feasible and the dual
//! resumes where it stopped.  The dense flat-tableau two-phase simplex is
//! the primal backend's own numerical fallback and the differential-testing
//! oracle.  The primal
//! revised backend prices entering columns with Devex reference weights
//! over a partial-pricing candidate list by default; [`PricingRule`] pins
//! Dantzig or Devex explicitly (or via the `PRDNN_LP_PRICING` environment
//! variable).  [`SolveOptions`]/[`LpBackend`] select explicitly; [`solve`]
//! picks automatically per problem.
//!
//! # Example
//!
//! Find the ℓ1-minimal `(x, y)` with `x + y ≥ 1` and `x − y ≤ 0.25`:
//!
//! ```
//! use prdnn_lp::{ConstraintOp, LpProblem, VarKind};
//!
//! # fn main() -> Result<(), prdnn_lp::LpError> {
//! let mut lp = LpProblem::new();
//! let x = lp.add_var(VarKind::Free);
//! let y = lp.add_var(VarKind::Free);
//! lp.add_constraint(&[(x, 1.0), (y, 1.0)], ConstraintOp::Ge, 1.0);
//! lp.add_constraint(&[(x, 1.0), (y, -1.0)], ConstraintOp::Le, 0.25);
//! lp.minimize_l1_of(&[x, y]);
//! let solution = prdnn_lp::solve(&lp)?;
//! assert!((solution.objective - 1.0).abs() < 1e-6);
//! # Ok(())
//! # }
//! ```

mod basis;
mod dual;
mod problem;
mod revised;
mod simplex;
mod solver;
mod sparse;

pub use dual::is_violated;
pub use problem::{ConstraintOp, LpProblem, Objective, VarId, VarKind};
pub use solver::{
    solve, solve_with_limit, solve_with_options, solve_with_stats, LpBackend, LpStats, PricingRule,
    ResumableLp, Solution, SolveOptions,
};

/// Errors returned by [`solve`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LpError {
    /// The constraint system has no feasible point.  For the repair
    /// algorithms this is the paper's `⊥`: no single-layer repair of the
    /// requested layer satisfies the specification.
    Infeasible,
    /// The objective can be made arbitrarily small over the feasible region.
    Unbounded,
    /// The simplex iteration limit was exceeded before reaching optimality.
    IterationLimit,
}

impl std::fmt::Display for LpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LpError::Infeasible => write!(f, "linear program is infeasible"),
            LpError::Unbounded => write!(f, "linear program is unbounded"),
            LpError::IterationLimit => write!(f, "simplex iteration limit exceeded"),
        }
    }
}

impl std::error::Error for LpError {}
