//! Error type for the MILP solver.

/// Errors returned by [`Model::solve`](crate::Model::solve).
#[derive(Debug, Clone, PartialEq)]
pub enum MilpError {
    /// The problem has no feasible solution.
    Infeasible,
    /// A variable has no finite bound on the side its objective coefficient
    /// pushes toward (or, with a zero coefficient, no finite bound at all).
    /// The dual simplex starts every nonbasic variable at such a bound, so it
    /// needs one there; the model is rejected before any pivot.
    UnboundedVariable {
        /// Name of the first offending variable.
        name: String,
    },
    /// The branch-and-bound node limit was reached before proving optimality
    /// and no incumbent integer solution was found.
    NodeLimit {
        /// The configured node limit.
        limit: usize,
    },
    /// The model is malformed (e.g. empty, or a non-finite objective or
    /// constraint coefficient), or the LP solve failed numerically.
    InvalidModel(String),
}

impl std::fmt::Display for MilpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MilpError::Infeasible => write!(f, "problem is infeasible"),
            MilpError::UnboundedVariable { name } => write!(
                f,
                "variable `{name}` has no finite bound in the direction its objective \
                 pushes (any direction when its coefficient is 0); the solver needs a \
                 finite bound there"
            ),
            MilpError::NodeLimit { limit } => {
                write!(
                    f,
                    "node limit of {limit} reached without an integer solution"
                )
            }
            MilpError::InvalidModel(msg) => write!(f, "invalid model: {msg}"),
        }
    }
}

impl std::error::Error for MilpError {}
