//! # recshard-milp
//!
//! A small, dependency-free mixed-integer linear programming (MILP) solver:
//! a sparse bounded-variable revised simplex with dual-simplex warm starts
//! ([`sparse`]) drives best-first branch-and-bound with incumbent pruning
//! ([`branch`]); each node re-optimises from its parent's basis in a handful
//! of dual pivots instead of re-solving from scratch.
//!
//! Scope: every variable needs a finite bound on the side its objective
//! coefficient pushes toward (at least one finite bound when the coefficient
//! is 0), and every coefficient must be finite. A model outside that scope
//! gets a typed [`MilpError`] before any pivot.
//!
//! The RecShard paper solves its embedding-table partitioning and placement
//! problem with Gurobi. Gurobi is proprietary and unavailable here, so this
//! crate provides the substrate needed to state the *exact same formulation*
//! (Section 4.2, constraints 1–12) and solve it exactly for small instances;
//! the `recshard` crate then layers the structured and bucketed large-scale
//! solvers on top and validates them against this exact solver.
//!
//! ```
//! use recshard_milp::{ConstraintSense, Model, Sense, VarKind};
//!
//! // maximize 3x + 2y  s.t.  x + y <= 4, x <= 2, x,y in 0..=10 integer
//! // (maximising needs finite upper bounds; 10 never binds here)
//! let mut m = Model::new(Sense::Maximize);
//! let x = m.add_var("x", VarKind::Integer, 0.0, 10.0, 3.0);
//! let y = m.add_var("y", VarKind::Integer, 0.0, 10.0, 2.0);
//! m.add_constraint("cap", vec![(x, 1.0), (y, 1.0)], ConstraintSense::Le, 4.0);
//! m.add_constraint("xcap", vec![(x, 1.0)], ConstraintSense::Le, 2.0);
//! let sol = m.solve().unwrap();
//! assert_eq!(sol.value(x).round() as i64, 2);
//! assert_eq!(sol.value(y).round() as i64, 2);
//! assert!((m.objective_value(sol.values()) - 10.0).abs() < 1e-6);
//! ```
#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod branch;
pub mod error;
pub mod model;
#[cfg(test)]
mod simplex;
pub mod solution;
pub mod sparse;

pub use branch::SolveOptions;
pub use error::MilpError;
pub use model::{Constraint, ConstraintSense, Model, Sense, VarId, VarKind, Variable};
pub use solution::{Solution, SolveStats};
pub use sparse::{BasisSnapshot, SparseLp, SparseLpSolution, VarStatus};
