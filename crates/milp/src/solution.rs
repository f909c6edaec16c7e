//! Solver output types.

use crate::model::VarId;

/// Termination status of a solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Status {
    /// Proven optimal solution.
    Optimal,
    /// Feasible integer solution found, but optimality was not proven before
    /// the node limit was reached.
    Feasible,
}

/// Search statistics of a solve.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolveStats {
    /// Branch-and-bound nodes explored.
    pub nodes_explored: usize,
    /// Simplex pivots performed across all LP relaxations.
    pub simplex_pivots: usize,
    /// Basis refactorisations performed across all LP relaxations.
    pub simplex_refactorizations: usize,
    /// Branch-and-bound nodes pruned by bound or infeasibility.
    pub nodes_pruned: usize,
}

/// A solution to a MILP.
#[derive(Debug, Clone, PartialEq)]
pub struct Solution {
    status: Status,
    objective: f64,
    values: Vec<f64>,
    stats: SolveStats,
}

impl Solution {
    pub(crate) fn new(status: Status, objective: f64, values: Vec<f64>, stats: SolveStats) -> Self {
        Self {
            status,
            objective,
            values,
            stats,
        }
    }

    /// Termination status.
    pub fn status(&self) -> Status {
        self.status
    }

    /// Objective value in the model's original sense.
    pub fn objective(&self) -> f64 {
        self.objective
    }

    /// Value of a variable in the solution.
    pub fn value(&self, var: VarId) -> f64 {
        self.values[var.index()]
    }

    /// All variable values, indexed by [`VarId::index`].
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Search statistics.
    pub fn stats(&self) -> SolveStats {
        self.stats
    }
}
