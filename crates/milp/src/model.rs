//! MILP model builder.

use crate::branch::BranchAndBound;
use crate::error::MilpError;
use crate::solution::Solution;

/// Handle to a decision variable in a [`Model`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(pub(crate) usize);

impl VarId {
    /// Index of the variable within the model.
    pub fn index(self) -> usize {
        self.0
    }
}

/// Whether a variable is continuous or must take integer values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VarKind {
    /// Real-valued variable.
    Continuous,
    /// Integer-valued variable.
    Integer,
    /// Integer variable restricted to `{0, 1}` (bounds are forced to `[0, 1]`).
    Binary,
}

/// Optimization direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Sense {
    /// Minimize the objective.
    Minimize,
    /// Maximize the objective.
    Maximize,
}

/// Constraint comparison sense.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ConstraintSense {
    /// `expr <= rhs`
    Le,
    /// `expr >= rhs`
    Ge,
    /// `expr == rhs`
    Eq,
}

/// A decision variable.
#[derive(Debug, Clone, PartialEq)]
pub struct Variable {
    /// Display name.
    pub name: String,
    /// Continuous / integer / binary.
    pub kind: VarKind,
    /// Lower bound (any finite value, or `f64::NEG_INFINITY` when unbounded
    /// below; see [`Model::solve`] for when a bound must be finite).
    pub lower: f64,
    /// Upper bound (`f64::INFINITY` when unbounded above).
    pub upper: f64,
    /// Objective coefficient.
    pub objective: f64,
}

/// A linear constraint `sum(coeff * var) sense rhs`.
#[derive(Debug, Clone, PartialEq)]
pub struct Constraint {
    /// Display name.
    pub name: String,
    /// Sparse coefficient list.
    pub terms: Vec<(VarId, f64)>,
    /// Comparison sense.
    pub sense: ConstraintSense,
    /// Right-hand side.
    pub rhs: f64,
}

/// A mixed-integer linear program under construction.
#[derive(Debug, Clone, PartialEq)]
pub struct Model {
    sense: Sense,
    variables: Vec<Variable>,
    constraints: Vec<Constraint>,
    node_limit: usize,
}

impl Model {
    /// Creates an empty model with the given optimization direction.
    pub fn new(sense: Sense) -> Self {
        Self {
            sense,
            variables: Vec::new(),
            constraints: Vec::new(),
            node_limit: 200_000,
        }
    }

    /// Adds a variable and returns its handle.
    ///
    /// # Panics
    ///
    /// Panics if `lower > upper` or either bound is NaN.
    pub fn add_var(
        &mut self,
        name: impl Into<String>,
        kind: VarKind,
        lower: f64,
        upper: f64,
        objective: f64,
    ) -> VarId {
        assert!(
            !lower.is_nan() && !upper.is_nan(),
            "variable bounds must not be NaN"
        );
        let (lower, upper) = match kind {
            VarKind::Binary => (lower.max(0.0), upper.min(1.0)),
            _ => (lower, upper),
        };
        assert!(lower <= upper, "lower bound must not exceed upper bound");
        let id = VarId(self.variables.len());
        self.variables.push(Variable {
            name: name.into(),
            kind,
            lower,
            upper,
            objective,
        });
        id
    }

    /// Adds a binary variable with the given objective coefficient.
    pub fn add_binary(&mut self, name: impl Into<String>, objective: f64) -> VarId {
        self.add_var(name, VarKind::Binary, 0.0, 1.0, objective)
    }

    /// Adds a non-negative continuous variable with the given objective
    /// coefficient.
    pub fn add_continuous(&mut self, name: impl Into<String>, objective: f64) -> VarId {
        self.add_var(name, VarKind::Continuous, 0.0, f64::INFINITY, objective)
    }

    /// Adds a linear constraint.
    ///
    /// # Panics
    ///
    /// Panics if a term references a variable not belonging to this model or
    /// if the right-hand side is not finite.
    pub fn add_constraint(
        &mut self,
        name: impl Into<String>,
        terms: Vec<(VarId, f64)>,
        sense: ConstraintSense,
        rhs: f64,
    ) {
        assert!(rhs.is_finite(), "constraint rhs must be finite");
        for (v, _) in &terms {
            assert!(
                v.index() < self.variables.len(),
                "constraint references unknown variable"
            );
        }
        self.constraints.push(Constraint {
            name: name.into(),
            terms,
            sense,
            rhs,
        });
    }

    /// Sets the branch-and-bound node limit (default 200,000).
    pub fn set_node_limit(&mut self, limit: usize) {
        assert!(limit > 0, "node limit must be positive");
        self.node_limit = limit;
    }

    /// The optimization direction.
    pub fn sense(&self) -> Sense {
        self.sense
    }

    /// The model's variables.
    pub fn variables(&self) -> &[Variable] {
        &self.variables
    }

    /// The model's constraints.
    pub fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.variables.len()
    }

    /// Number of constraints.
    pub fn num_constraints(&self) -> usize {
        self.constraints.len()
    }

    /// Configured branch-and-bound node limit.
    pub fn node_limit(&self) -> usize {
        self.node_limit
    }

    /// Evaluates the objective for a full assignment of variable values.
    pub fn objective_value(&self, values: &[f64]) -> f64 {
        self.variables
            .iter()
            .zip(values)
            .map(|(v, &x)| v.objective * x)
            .sum()
    }

    /// Checks whether an assignment satisfies all constraints and bounds
    /// within tolerance `tol`.
    pub fn is_feasible(&self, values: &[f64], tol: f64) -> bool {
        if values.len() != self.variables.len() {
            return false;
        }
        for (v, &x) in self.variables.iter().zip(values) {
            if x < v.lower - tol || x > v.upper + tol {
                return false;
            }
            if matches!(v.kind, VarKind::Integer | VarKind::Binary) && (x - x.round()).abs() > tol {
                return false;
            }
        }
        for c in &self.constraints {
            let lhs: f64 = c
                .terms
                .iter()
                .map(|&(v, coeff)| coeff * values[v.index()])
                .sum();
            let ok = match c.sense {
                ConstraintSense::Le => lhs <= c.rhs + tol,
                ConstraintSense::Ge => lhs >= c.rhs - tol,
                ConstraintSense::Eq => (lhs - c.rhs).abs() <= tol,
            };
            if !ok {
                return false;
            }
        }
        true
    }

    /// Solves the model to optimality (LP relaxations via the sparse dual
    /// simplex, integrality via branch and bound).
    ///
    /// Every variable needs a finite bound on the side its objective
    /// coefficient pushes toward (at least one finite bound when the
    /// coefficient is 0), and every coefficient must be finite; both are
    /// checked before any pivot.
    ///
    /// # Errors
    ///
    /// Returns [`MilpError::UnboundedVariable`] or [`MilpError::InvalidModel`]
    /// for a model outside that scope (or an empty one),
    /// [`MilpError::Infeasible`], or [`MilpError::NodeLimit`]; a numerical
    /// failure of the LP solver is also reported as
    /// [`MilpError::InvalidModel`].
    pub fn solve(&self) -> Result<Solution, MilpError> {
        self.solve_with(crate::branch::SolveOptions::default())
    }

    /// Solves the model with explicit branch-and-bound options (e.g. warm
    /// starts disabled, to cross-check the warm-start path).
    ///
    /// # Errors
    ///
    /// See [`Model::solve`].
    pub fn solve_with(&self, options: crate::branch::SolveOptions) -> Result<Solution, MilpError> {
        self.solve_observed(options, &mut recshard_obs::ObsHandle::noop())
    }

    /// Solves the model, emitting LP-solve / node open / prune / incumbent
    /// trace events into `obs`. The search is observation-independent: the
    /// returned solution is identical for any sink, including the no-op one.
    ///
    /// # Errors
    ///
    /// See [`Model::solve`].
    pub fn solve_observed(
        &self,
        options: crate::branch::SolveOptions,
        obs: &mut recshard_obs::ObsHandle<'_>,
    ) -> Result<Solution, MilpError> {
        BranchAndBound::with_options(self, options)?.solve_observed(obs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_accumulates_vars_and_constraints() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_continuous("x", 1.0);
        let y = m.add_binary("y", 2.0);
        m.add_constraint("c", vec![(x, 1.0), (y, 1.0)], ConstraintSense::Ge, 1.0);
        assert_eq!(m.num_vars(), 2);
        assert_eq!(m.num_constraints(), 1);
        assert_eq!(m.variables()[y.index()].upper, 1.0);
    }

    #[test]
    fn feasibility_checker() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_continuous("x", 1.0);
        let y = m.add_var("y", VarKind::Integer, 0.0, 10.0, 1.0);
        m.add_constraint("c", vec![(x, 1.0), (y, 2.0)], ConstraintSense::Le, 5.0);
        assert!(m.is_feasible(&[1.0, 2.0], 1e-9));
        assert!(!m.is_feasible(&[2.0, 2.0], 1e-9)); // violates constraint
        assert!(!m.is_feasible(&[1.0, 2.5], 1e-9)); // fractional integer
        assert!(!m.is_feasible(&[1.0], 1e-9)); // wrong arity
        assert_eq!(m.objective_value(&[1.0, 2.0]), 3.0);
    }

    #[test]
    #[should_panic(expected = "constraint references unknown variable")]
    fn foreign_variable_rejected() {
        let mut a = Model::new(Sense::Minimize);
        let _x = a.add_continuous("x", 1.0);
        let mut b = Model::new(Sense::Minimize);
        b.add_constraint("bad", vec![(VarId(5), 1.0)], ConstraintSense::Le, 1.0);
    }

    #[test]
    #[should_panic(expected = "lower bound must not exceed upper bound")]
    fn inverted_bounds_rejected() {
        let mut m = Model::new(Sense::Minimize);
        m.add_var("x", VarKind::Continuous, 2.0, 1.0, 0.0);
    }

    #[test]
    fn empty_model_is_invalid() {
        let m = Model::new(Sense::Minimize);
        assert!(matches!(m.solve(), Err(MilpError::InvalidModel(_))));
    }

    fn assert_invalid_naming(m: &Model, needle: &str) {
        match m.solve() {
            Err(MilpError::InvalidModel(msg)) => assert!(msg.contains(needle), "{msg}"),
            other => panic!("expected InvalidModel naming {needle}, got {other:?}"),
        }
    }

    #[test]
    fn nan_objective_is_invalid() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var("x", VarKind::Continuous, 0.0, 1.0, f64::NAN);
        let y = m.add_binary("y", 1.0);
        m.add_constraint("c", vec![(x, 1.0), (y, 1.0)], ConstraintSense::Ge, 1.0);
        assert_invalid_naming(&m, "`x`");
    }

    #[test]
    fn infinite_coefficient_is_invalid() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_binary("x", 1.0);
        m.add_constraint("row", vec![(x, f64::INFINITY)], ConstraintSense::Ge, 1.0);
        assert_invalid_naming(&m, "`row`");
    }

    #[test]
    fn nan_coefficient_is_invalid() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_binary("x", 1.0);
        let y = m.add_binary("y", 1.0);
        m.add_constraint(
            "row",
            vec![(x, 1.0), (y, f64::NAN)],
            ConstraintSense::Le,
            1.0,
        );
        assert_invalid_naming(&m, "`row`");
    }

    #[test]
    fn free_zero_cost_variable_is_a_typed_error() {
        // A zero-cost variable with no finite bound has no bound to start at.
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_binary("x", 1.0);
        let f = m.add_var(
            "free",
            VarKind::Continuous,
            f64::NEG_INFINITY,
            f64::INFINITY,
            0.0,
        );
        m.add_constraint("c", vec![(x, 1.0), (f, 1.0)], ConstraintSense::Ge, 1.0);
        assert_eq!(
            m.solve(),
            Err(MilpError::UnboundedVariable {
                name: "free".into()
            })
        );
    }
}
