//! The LP modelling layer: variables, constraints, objectives.

/// Identifier of a variable in an [`LpProblem`].
///
/// Returned by [`LpProblem::add_var`] and used to refer to the variable when
/// adding constraints or objectives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(pub(crate) usize);

impl VarId {
    /// The position of this variable in [`crate::Solution::values`].
    pub fn index(self) -> usize {
        self.0
    }
}

/// Sign restriction of a variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VarKind {
    /// May take any real value (the parameter deltas `Δ` of a repair).
    Free,
    /// Restricted to `x ≥ 0` (auxiliary norm variables).
    NonNegative,
}

/// Direction of a linear constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConstraintOp {
    /// `a · x ≤ rhs`
    Le,
    /// `a · x ≥ rhs`
    Ge,
    /// `a · x = rhs`
    Eq,
}

/// Objective of an [`LpProblem`]; always a minimisation.
#[derive(Debug, Clone, PartialEq)]
pub enum Objective {
    /// Any feasible point is acceptable (pure feasibility query).
    Feasibility,
    /// Minimise `c · x` where `c` has one entry per variable.
    Linear(Vec<f64>),
    /// Minimise `Σ_i |x_i|` over the listed variables.
    ///
    /// This is the repair-size measure the paper uses by default.
    MinimizeL1(Vec<VarId>),
    /// Minimise `max_i |x_i|` over the listed variables.
    MinimizeLinf(Vec<VarId>),
}

/// One constraint `terms · x (≤ | ≥ | =) rhs`: its terms are
/// `LpProblem::terms[previous row's end..end]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Row {
    pub(crate) end: usize,
    pub(crate) op: ConstraintOp,
    pub(crate) rhs: f64,
}

/// A linear program in "modelling" form: free/non-negative variables,
/// inequality/equality constraints, and a (possibly norm) objective.
///
/// Converted to standard simplex form by [`crate::solve`].
///
/// # Example
///
/// ```
/// use prdnn_lp::{ConstraintOp, LpProblem, VarKind};
///
/// let mut lp = LpProblem::new();
/// let x = lp.add_var(VarKind::NonNegative);
/// lp.add_constraint(&[(x, 2.0)], ConstraintOp::Le, 8.0);
/// lp.set_objective_linear(&[(x, -1.0)]);
/// let solution = prdnn_lp::solve(&lp).unwrap();
/// assert!((solution.values[x.index()] - 4.0).abs() < 1e-6);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LpProblem {
    pub(crate) kinds: Vec<VarKind>,
    /// The terms of every constraint, back to back, in insertion order.
    pub(crate) terms: Vec<(VarId, f64)>,
    pub(crate) rows: Vec<Row>,
    pub(crate) objective: Objective,
}

impl Default for LpProblem {
    fn default() -> Self {
        Self::new()
    }
}

impl LpProblem {
    /// Creates an empty problem with a pure-feasibility objective.
    pub fn new() -> Self {
        LpProblem {
            kinds: Vec::new(),
            terms: Vec::new(),
            rows: Vec::new(),
            objective: Objective::Feasibility,
        }
    }

    /// Adds a variable of the given kind and returns its id.
    pub fn add_var(&mut self, kind: VarKind) -> VarId {
        self.kinds.push(kind);
        VarId(self.kinds.len() - 1)
    }

    /// Adds `count` variables of the given kind, returning their ids in order.
    pub fn add_vars(&mut self, count: usize, kind: VarKind) -> Vec<VarId> {
        (0..count).map(|_| self.add_var(kind)).collect()
    }

    /// Number of variables added so far.
    pub fn num_vars(&self) -> usize {
        self.kinds.len()
    }

    /// Number of constraints added so far.
    pub fn num_constraints(&self) -> usize {
        self.rows.len()
    }

    /// Every constraint as `(terms, op, rhs)`, in insertion order.
    pub(crate) fn constraints(
        &self,
    ) -> impl Iterator<Item = (&[(VarId, f64)], ConstraintOp, f64)> + '_ {
        self.rows.iter().scan(0, |start, row| {
            let terms = &self.terms[*start..row.end];
            *start = row.end;
            Some((terms, row.op, row.rhs))
        })
    }

    /// Adds the constraint `Σ coeffs_i · x_i  op  rhs`.
    ///
    /// Coefficients for variables not listed are zero.  Listing the same
    /// variable twice sums the coefficients.
    ///
    /// # Panics
    ///
    /// Panics if any referenced variable does not belong to this problem.
    pub fn add_constraint(&mut self, coeffs: &[(VarId, f64)], op: ConstraintOp, rhs: f64) {
        for (v, _) in coeffs {
            assert!(
                v.0 < self.kinds.len(),
                "constraint references unknown variable {:?}",
                v
            );
        }
        self.terms.extend_from_slice(coeffs);
        self.rows.push(Row {
            end: self.terms.len(),
            op,
            rhs,
        });
    }

    /// Sets a plain linear objective `minimize Σ coeffs_i · x_i`.
    ///
    /// # Panics
    ///
    /// Panics if any referenced variable does not belong to this problem.
    pub fn set_objective_linear(&mut self, coeffs: &[(VarId, f64)]) {
        let mut dense = vec![0.0; self.kinds.len()];
        for (v, c) in coeffs {
            assert!(
                v.0 < self.kinds.len(),
                "objective references unknown variable {:?}",
                v
            );
            dense[v.0] += c;
        }
        self.objective = Objective::Linear(dense);
    }

    /// Sets the objective to `minimize Σ |x_i|` over the given variables.
    ///
    /// # Panics
    ///
    /// Panics if any referenced variable does not belong to this problem.
    pub fn minimize_l1_of(&mut self, vars: &[VarId]) {
        for v in vars {
            assert!(
                v.0 < self.kinds.len(),
                "objective references unknown variable {:?}",
                v
            );
        }
        self.objective = Objective::MinimizeL1(vars.to_vec());
    }

    /// Sets the objective to `minimize max_i |x_i|` over the given variables.
    ///
    /// # Panics
    ///
    /// Panics if any referenced variable does not belong to this problem.
    pub fn minimize_linf_of(&mut self, vars: &[VarId]) {
        for v in vars {
            assert!(
                v.0 < self.kinds.len(),
                "objective references unknown variable {:?}",
                v
            );
        }
        self.objective = Objective::MinimizeLinf(vars.to_vec());
    }

    /// The current objective.
    pub fn objective(&self) -> &Objective {
        &self.objective
    }

    /// Evaluates whether `x` satisfies every constraint up to tolerance `tol`.
    ///
    /// `x` must assign a value to every variable in problem order.  This is
    /// used by tests and by the repair algorithms' self-checks.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from [`Self::num_vars`].
    pub fn is_feasible(&self, x: &[f64], tol: f64) -> bool {
        assert_eq!(
            x.len(),
            self.kinds.len(),
            "is_feasible: wrong number of values"
        );
        for (i, kind) in self.kinds.iter().enumerate() {
            if *kind == VarKind::NonNegative && x[i] < -tol {
                return false;
            }
        }
        self.constraints().all(|(terms, op, rhs)| {
            let lhs: f64 = terms.iter().map(|(v, a)| a * x[v.0]).sum();
            match op {
                ConstraintOp::Le => lhs <= rhs + tol,
                ConstraintOp::Ge => lhs >= rhs - tol,
                ConstraintOp::Eq => (lhs - rhs).abs() <= tol,
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_tracks_vars_and_constraints() {
        let mut lp = LpProblem::new();
        let x = lp.add_var(VarKind::Free);
        let ys = lp.add_vars(3, VarKind::NonNegative);
        assert_eq!(lp.num_vars(), 4);
        assert_eq!(x.index(), 0);
        assert_eq!(ys[2].index(), 3);
        lp.add_constraint(&[(x, 1.0), (ys[0], -1.0)], ConstraintOp::Eq, 0.0);
        assert_eq!(lp.num_constraints(), 1);
        assert_eq!(*lp.objective(), Objective::Feasibility);
    }

    #[test]
    fn feasibility_check() {
        let mut lp = LpProblem::new();
        let x = lp.add_var(VarKind::Free);
        let y = lp.add_var(VarKind::NonNegative);
        lp.add_constraint(&[(x, 1.0), (y, 1.0)], ConstraintOp::Le, 2.0);
        lp.add_constraint(&[(x, 1.0)], ConstraintOp::Ge, -1.0);
        assert!(lp.is_feasible(&[0.0, 1.0], 1e-9));
        assert!(!lp.is_feasible(&[0.0, 3.0], 1e-9)); // violates Le
        assert!(!lp.is_feasible(&[-2.0, 0.0], 1e-9)); // violates Ge
        assert!(!lp.is_feasible(&[0.0, -1.0], 1e-9)); // violates non-negativity
    }

    #[test]
    fn duplicate_objective_coefficients_sum() {
        let mut lp = LpProblem::new();
        let x = lp.add_var(VarKind::Free);
        lp.set_objective_linear(&[(x, 1.0), (x, 2.0)]);
        assert_eq!(*lp.objective(), Objective::Linear(vec![3.0]));
    }

    #[test]
    #[should_panic]
    fn unknown_variable_in_constraint_panics() {
        let mut lp = LpProblem::new();
        let _ = lp.add_var(VarKind::Free);
        lp.add_constraint(&[(VarId(7), 1.0)], ConstraintOp::Le, 0.0);
    }
}
