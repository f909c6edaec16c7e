//! Solver output types.

use crate::model::VarId;

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
    /// Whether the search proved the solution optimal: `false` when branch
    /// and bound reached its node limit and returned its best incumbent.
    pub proven_optimal: bool,
}

/// A solution to a MILP: the optimum, or the best incumbent when the
/// search reaches its node limit with one in hand.
/// [`Model::objective_value`](crate::Model::objective_value) prices it.
#[derive(Debug, Clone, PartialEq)]
pub struct Solution {
    values: Vec<f64>,
    stats: SolveStats,
}

impl Solution {
    pub(crate) fn new(values: Vec<f64>, stats: SolveStats) -> Self {
        Self { values, stats }
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
