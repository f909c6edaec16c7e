//! Best-first branch and bound over LP relaxations.
//!
//! Each node's relaxation is solved with the sparse bounded-variable dual
//! simplex ([`crate::sparse`]) warm-started from its parent's optimal basis —
//! a child differs from its parent in exactly one variable bound, so the
//! parent basis stays dual feasible and re-optimisation takes a handful of
//! pivots. Models outside the sparse solver's scope are rejected with a typed
//! error when a [`BranchAndBound`] is built, before any pivot.

use crate::error::MilpError;
use crate::model::{Model, Sense, VarKind};
use crate::solution::{Solution, SolveStats};
use crate::sparse::{BasisSnapshot, SparseLp, SparseLpSolution};
use recshard_obs::{ObsHandle, PruneReason, TraceEvent};
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::rc::Rc;

/// Integrality tolerance: values within this distance of an integer are
/// treated as integral.
const INT_TOL: f64 = 1e-6;
/// Slack allowed when checking that a branch's tightened bounds still admit a
/// value (`lower <= upper + BRANCH_TOL`).
const BRANCH_TOL: f64 = 1e-7;

/// Knobs of the branch-and-bound driver (see [`Model::solve_with`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SolveOptions {
    /// Warm-start each node's dual simplex from the parent's optimal basis.
    /// Disabling re-solves every node from the all-slack basis; the explored
    /// tree and the returned solution are the same, only slower — the knob
    /// exists so tests can assert exactly that equivalence.
    pub warm_start: bool,
}

impl Default for SolveOptions {
    fn default() -> Self {
        Self { warm_start: true }
    }
}

struct Node {
    /// Creation-order id, stable across runs; only used for trace events.
    id: u64,
    /// LP relaxation bound of this node in *minimization* form (lower bound on
    /// any integer solution in the subtree).
    bound: f64,
    lower: Vec<f64>,
    upper: Vec<f64>,
    /// Parent's optimal basis for the dual-simplex warm start (the root's
    /// own, for the root).
    basis: Rc<BasisSnapshot>,
}

impl PartialEq for Node {
    fn eq(&self, other: &Self) -> bool {
        self.bound == other.bound
    }
}
impl Eq for Node {}
impl PartialOrd for Node {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Node {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; we want the node with the *smallest*
        // minimization bound first (best-first search).
        other
            .bound
            .partial_cmp(&self.bound)
            .unwrap_or(Ordering::Equal)
    }
}

/// Nodes branch and bound explores before it gives up.
const NODE_LIMIT: usize = 200_000;

/// Branch-and-bound driver for a [`Model`].
pub struct BranchAndBound<'a> {
    model: &'a Model,
    lp: SparseLp,
    options: SolveOptions,
    node_limit: usize,
}

impl<'a> BranchAndBound<'a> {
    /// Creates a driver for the model with default options.
    ///
    /// # Errors
    ///
    /// As [`SparseLp::try_new`]: the model is checked before any pivot.
    pub fn new(model: &'a Model) -> Result<Self, MilpError> {
        Self::with_options(model, SolveOptions::default())
    }

    /// Creates a driver with explicit options.
    ///
    /// # Errors
    ///
    /// As [`SparseLp::try_new`]: the model is checked before any pivot.
    pub fn with_options(model: &'a Model, options: SolveOptions) -> Result<Self, MilpError> {
        Ok(Self {
            model,
            lp: SparseLp::try_new(model)?,
            options,
            node_limit: NODE_LIMIT,
        })
    }

    /// Solves one node's LP relaxation, warm-started from `parent` when one
    /// is given and warm starts are enabled. A warm start that fails
    /// numerically is retried cold once.
    fn solve_node(
        &self,
        lower: &[f64],
        upper: &[f64],
        parent: Option<&BasisSnapshot>,
    ) -> Result<SparseLpSolution, MilpError> {
        match parent.filter(|_| self.options.warm_start) {
            Some(basis) => match self.lp.solve_warm(lower, upper, basis) {
                Err(MilpError::InvalidModel(_)) => self.lp.solve_cold(lower, upper),
                other => other,
            },
            None => self.lp.solve_cold(lower, upper),
        }
    }

    /// Solves the MILP.
    ///
    /// # Errors
    ///
    /// See [`MilpError`].
    pub fn solve(&self) -> Result<Solution, MilpError> {
        self.solve_observed(&mut ObsHandle::noop())
    }

    /// Solves the MILP, emitting [`TraceEvent::LpSolved`], node open / prune /
    /// incumbent events into `obs`. Timestamps are a synthetic tick counter
    /// (branch and bound has no virtual clock); the search itself is
    /// observation-independent.
    ///
    /// # Errors
    ///
    /// See [`MilpError`].
    pub fn solve_observed(&self, obs: &mut ObsHandle<'_>) -> Result<Solution, MilpError> {
        let model = self.model;
        let mut tick: u64 = 0;
        let int_vars: Vec<usize> = model
            .variables()
            .iter()
            .enumerate()
            .filter(|(_, v)| matches!(v.kind, VarKind::Integer | VarKind::Binary))
            .map(|(i, _)| i)
            .collect();

        let root_lower: Vec<f64> = model.variables().iter().map(|v| v.lower).collect();
        let root_upper: Vec<f64> = model.variables().iter().map(|v| v.upper).collect();

        let minimize_sign = if model.sense() == Sense::Maximize {
            -1.0
        } else {
            1.0
        };
        let mut stats = SolveStats::default();

        // Solve the root relaxation first so pure LPs exit immediately.
        let root_sol = self.solve_node(&root_lower, &root_upper, None)?;
        stats.simplex_pivots += root_sol.pivots;
        stats.simplex_refactorizations += root_sol.refactorizations;
        stats.nodes_explored += 1;
        tick += 1;
        obs.record(
            tick,
            TraceEvent::LpSolved {
                node: 0,
                pivots: root_sol.pivots as u64,
                refactorizations: root_sol.refactorizations as u64,
                objective: root_sol.objective,
            },
        );

        if int_vars.is_empty() || Self::fractional_var(&root_sol.values, &int_vars).is_none() {
            let values = Self::snap(&root_sol.values, &int_vars);
            return Ok(Solution::new(values, stats));
        }

        let mut heap = BinaryHeap::new();
        heap.push(Node {
            id: 0,
            bound: minimize_sign * root_sol.objective,
            lower: root_lower,
            upper: root_upper,
            basis: root_sol.basis,
        });
        let mut next_id: u64 = 1;

        let mut incumbent: Option<(f64, Vec<f64>)> = None; // minimization objective, values
        let node_limit = self.node_limit;

        while let Some(node) = heap.pop() {
            if stats.nodes_explored >= node_limit {
                return match incumbent {
                    Some((_, values)) => Ok(Solution::new(values, stats)),
                    None => Err(MilpError::NodeLimit { limit: node_limit }),
                };
            }
            tick += 1;
            obs.record(
                tick,
                TraceEvent::BnbOpen {
                    node: node.id,
                    bound: node.bound,
                },
            );
            // Prune against the incumbent.
            if let Some((best, _)) = &incumbent {
                if node.bound >= *best - 1e-9 {
                    stats.nodes_pruned += 1;
                    tick += 1;
                    obs.record(
                        tick,
                        TraceEvent::BnbPrune {
                            node: node.id,
                            reason: PruneReason::Bound,
                        },
                    );
                    continue;
                }
            }
            let lp_sol = match self.solve_node(&node.lower, &node.upper, Some(&*node.basis)) {
                Ok(s) => s,
                Err(MilpError::Infeasible) => {
                    stats.nodes_pruned += 1;
                    tick += 1;
                    obs.record(
                        tick,
                        TraceEvent::BnbPrune {
                            node: node.id,
                            reason: PruneReason::Infeasible,
                        },
                    );
                    continue;
                }
                Err(e) => return Err(e),
            };
            stats.nodes_explored += 1;
            stats.simplex_pivots += lp_sol.pivots;
            stats.simplex_refactorizations += lp_sol.refactorizations;
            tick += 1;
            obs.record(
                tick,
                TraceEvent::LpSolved {
                    node: node.id,
                    pivots: lp_sol.pivots as u64,
                    refactorizations: lp_sol.refactorizations as u64,
                    objective: lp_sol.objective,
                },
            );
            let bound_min = minimize_sign * lp_sol.objective;
            if let Some((best, _)) = &incumbent {
                if bound_min >= *best - 1e-9 {
                    stats.nodes_pruned += 1;
                    tick += 1;
                    obs.record(
                        tick,
                        TraceEvent::BnbPrune {
                            node: node.id,
                            reason: PruneReason::Bound,
                        },
                    );
                    continue;
                }
            }

            match Self::fractional_var(&lp_sol.values, &int_vars) {
                None => {
                    // Integer-feasible: candidate incumbent.
                    let snapped = Self::snap(&lp_sol.values, &int_vars);
                    let obj_min = minimize_sign * model.objective_value(&snapped);
                    let better = incumbent
                        .as_ref()
                        .map(|(best, _)| obj_min < *best - 1e-12)
                        .unwrap_or(true);
                    if better && model.is_feasible(&snapped, 1e-5) {
                        tick += 1;
                        obs.record(
                            tick,
                            TraceEvent::BnbIncumbent {
                                node: node.id,
                                objective: minimize_sign * obj_min,
                            },
                        );
                        incumbent = Some((obj_min, snapped));
                    }
                }
                Some((var, value)) => {
                    // Branch: var <= floor(value) and var >= ceil(value); both
                    // children inherit this node's optimal basis.
                    let mut down = Node {
                        id: next_id,
                        bound: bound_min,
                        lower: node.lower.clone(),
                        upper: node.upper.clone(),
                        basis: lp_sol.basis.clone(),
                    };
                    next_id += 1;
                    down.upper[var] = value.floor();
                    if down.lower[var] <= down.upper[var] + BRANCH_TOL {
                        heap.push(down);
                    }
                    let mut up = Node {
                        id: next_id,
                        bound: bound_min,
                        lower: node.lower,
                        upper: node.upper,
                        basis: lp_sol.basis,
                    };
                    next_id += 1;
                    up.lower[var] = value.ceil();
                    if up.lower[var] <= up.upper[var] + BRANCH_TOL {
                        heap.push(up);
                    }
                }
            }
        }

        match incumbent {
            Some((_, values)) => Ok(Solution::new(values, stats)),
            None => Err(MilpError::Infeasible),
        }
    }

    /// Returns the most fractional integer variable, if any.
    fn fractional_var(values: &[f64], int_vars: &[usize]) -> Option<(usize, f64)> {
        let mut best: Option<(usize, f64, f64)> = None;
        for &i in int_vars {
            let v = values[i];
            let frac = (v - v.round()).abs();
            if frac > INT_TOL {
                let distance_to_half = (v - v.floor() - 0.5).abs();
                if best.map(|(_, _, d)| distance_to_half < d).unwrap_or(true) {
                    best = Some((i, v, distance_to_half));
                }
            }
        }
        best.map(|(i, v, _)| (i, v))
    }

    /// Rounds integer variables to the nearest integer.
    fn snap(values: &[f64], int_vars: &[usize]) -> Vec<f64> {
        let mut out = values.to_vec();
        for &i in int_vars {
            out[i] = out[i].round();
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ConstraintSense;

    #[test]
    fn knapsack_exact() {
        // max 10a + 13b + 7c + 4d, weights 3,4,2,1 <= 7, binary.
        // Optimal: b + c + d = 24 (weight 7);  a + c + d = 21, a + b = 23.
        let mut m = Model::new(Sense::Maximize);
        let vals = [10.0, 13.0, 7.0, 4.0];
        let weights = [3.0, 4.0, 2.0, 1.0];
        let vars: Vec<_> = (0..4)
            .map(|i| m.add_binary(format!("x{i}"), vals[i]))
            .collect();
        m.add_constraint(
            "cap",
            vars.iter().zip(weights).map(|(&v, w)| (v, w)).collect(),
            ConstraintSense::Le,
            7.0,
        );
        let sol = m.solve().unwrap();
        assert!(
            (m.objective_value(sol.values()) - 24.0).abs() < 1e-6,
            "obj {}",
            m.objective_value(sol.values())
        );
        assert_eq!(sol.value(vars[0]).round() as i64, 0);
        assert_eq!(sol.value(vars[1]).round() as i64, 1);
        assert_eq!(sol.value(vars[2]).round() as i64, 1);
        assert_eq!(sol.value(vars[3]).round() as i64, 1);
    }

    #[test]
    fn integer_rounding_matters() {
        // max x + y s.t. 2x + 2y <= 5, integer → optimum 2 (not 2.5). The
        // upper bounds of 10 never bind; they only keep the model in scope.
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", VarKind::Integer, 0.0, 10.0, 1.0);
        let y = m.add_var("y", VarKind::Integer, 0.0, 10.0, 1.0);
        m.add_constraint("c", vec![(x, 2.0), (y, 2.0)], ConstraintSense::Le, 5.0);
        let sol = m.solve().unwrap();
        assert!((m.objective_value(sol.values()) - 2.0).abs() < 1e-6);
        assert!(
            sol.stats().nodes_explored > 1,
            "the LP optimum 2.5 must branch"
        );
    }

    #[test]
    fn unbounded_integer_is_a_typed_error() {
        // The same program with integers unbounded above: maximising pushes
        // them toward +inf, where the dual simplex needs a finite bound.
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", VarKind::Integer, 0.0, f64::INFINITY, 1.0);
        let y = m.add_var("y", VarKind::Integer, 0.0, f64::INFINITY, 1.0);
        m.add_constraint("c", vec![(x, 2.0), (y, 2.0)], ConstraintSense::Le, 5.0);
        assert_eq!(
            m.solve(),
            Err(MilpError::UnboundedVariable { name: "x".into() })
        );
        assert!(BranchAndBound::new(&m).is_err());
    }

    #[test]
    fn pure_lp_passes_through() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_continuous("x", 1.0);
        m.add_constraint("c", vec![(x, 1.0)], ConstraintSense::Ge, 2.5);
        let sol = m.solve().unwrap();
        assert!((m.objective_value(sol.values()) - 2.5).abs() < 1e-9);
        assert_eq!(sol.stats().nodes_explored, 1);
    }

    #[test]
    fn assignment_problem_min_max_style() {
        // 3 jobs, 2 machines, each job on exactly one machine, minimize the
        // maximum machine load (the RecShard MILP's min-max structure).
        // Costs: 4, 3, 2 → optimal makespan 5 (4+... no: {4,} vs {3,2} = 5; or {4,2}=6/{3}).
        let mut m = Model::new(Sense::Minimize);
        let costs = [4.0, 3.0, 2.0];
        let c = m.add_continuous("C", 1.0);
        let mut assign = Vec::new();
        for j in 0..3 {
            let row: Vec<_> = (0..2)
                .map(|g| m.add_binary(format!("p_{g}_{j}"), 0.0))
                .collect();
            m.add_constraint(
                format!("one_gpu_{j}"),
                row.iter().map(|&v| (v, 1.0)).collect(),
                ConstraintSense::Eq,
                1.0,
            );
            assign.push(row);
        }
        for g in 0..2 {
            let mut terms: Vec<_> = (0..3).map(|j| (assign[j][g], costs[j])).collect();
            terms.push((c, -1.0));
            m.add_constraint(format!("load_{g}"), terms, ConstraintSense::Le, 0.0);
        }
        let sol = m.solve().unwrap();
        assert!(
            (m.objective_value(sol.values()) - 5.0).abs() < 1e-6,
            "makespan {}",
            m.objective_value(sol.values())
        );
    }

    #[test]
    fn infeasible_integer_program() {
        // x binary, x >= 0.4, x <= 0.6 → no integer solution.
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_binary("x", 1.0);
        m.add_constraint("lo", vec![(x, 1.0)], ConstraintSense::Ge, 0.4);
        m.add_constraint("hi", vec![(x, 1.0)], ConstraintSense::Le, 0.6);
        assert_eq!(m.solve(), Err(MilpError::Infeasible));
    }

    #[test]
    fn equality_partitioned_binaries() {
        // Choose exactly one of three options, maximize value.
        let mut m = Model::new(Sense::Maximize);
        let a = m.add_binary("a", 1.0);
        let b = m.add_binary("b", 5.0);
        let c = m.add_binary("c", 3.0);
        m.add_constraint(
            "pick1",
            vec![(a, 1.0), (b, 1.0), (c, 1.0)],
            ConstraintSense::Eq,
            1.0,
        );
        let sol = m.solve().unwrap();
        assert!((m.objective_value(sol.values()) - 5.0).abs() < 1e-6);
        assert_eq!(sol.value(b).round() as i64, 1);
    }

    #[test]
    fn node_limit_reported() {
        // A hard-ish knapsack with a node limit of 1 and no chance to find an
        // incumbent at the root.
        let mut m = Model::new(Sense::Maximize);
        let n = 12;
        let vars: Vec<_> = (0..n)
            .map(|i| m.add_binary(format!("x{i}"), 1.0 + (i as f64 % 3.0) * 0.37))
            .collect();
        m.add_constraint(
            "cap",
            vars.iter()
                .enumerate()
                .map(|(i, &v)| (v, 1.0 + (i as f64 * 0.77) % 2.0))
                .collect(),
            ConstraintSense::Le,
            3.7,
        );
        let mut search = BranchAndBound::new(&m).unwrap();
        search.node_limit = 1;
        match search.solve() {
            Err(MilpError::NodeLimit { limit }) => assert_eq!(limit, 1),
            Ok(sol) => assert_eq!(sol.stats().nodes_explored, 1),
            Err(e) => panic!("unexpected error {e}"),
        }
    }

    #[test]
    fn mixed_integer_and_continuous() {
        // max 2x + 3y, x integer <= 3.7, y continuous <= 2.5, x + y <= 5.
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", VarKind::Integer, 0.0, 3.7, 2.0);
        let y = m.add_var("y", VarKind::Continuous, 0.0, 2.5, 3.0);
        m.add_constraint("sum", vec![(x, 1.0), (y, 1.0)], ConstraintSense::Le, 5.0);
        let sol = m.solve().unwrap();
        // x=3 (integer), y=2 → 12; x=2,y=2.5 → 11.5. Optimal 12... but x+y<=5
        // allows x=3,y=2 exactly. Also x=2.5 not allowed.
        assert!(
            (m.objective_value(sol.values()) - 12.0).abs() < 1e-6,
            "obj {}",
            m.objective_value(sol.values())
        );
        assert!((sol.value(x) - 3.0).abs() < 1e-6);
    }

    #[test]
    fn observed_solve_is_observation_independent() {
        // Same knapsack as `knapsack_exact`: the traced solve must return the
        // identical solution, and the trace must cover every explored node.
        let mut m = Model::new(Sense::Maximize);
        let vals = [10.0, 13.0, 7.0, 4.0];
        let weights = [3.0, 4.0, 2.0, 1.0];
        let vars: Vec<_> = (0..4)
            .map(|i| m.add_binary(format!("x{i}"), vals[i]))
            .collect();
        m.add_constraint(
            "cap",
            vars.iter().zip(weights).map(|(&v, w)| (v, w)).collect(),
            ConstraintSense::Le,
            7.0,
        );
        let plain = m.solve().unwrap();
        let mut collector = recshard_obs::Collector::new();
        let observed = m
            .solve_observed(
                SolveOptions::default(),
                &mut ObsHandle::attached(&mut collector),
            )
            .unwrap();
        assert_eq!(plain, observed);
        let stats = observed.stats();
        assert!(stats.nodes_explored > 1, "knapsack should branch");
        assert!(
            stats.simplex_refactorizations >= stats.nodes_explored,
            "every sparse node solve refactorizes at least once"
        );
        let bundle = collector.finish();
        let lp_solved = bundle
            .trace
            .records()
            .iter()
            .filter(|r| r.event.name() == "lp_solved")
            .count();
        assert_eq!(lp_solved, stats.nodes_explored);
        let pruned = bundle
            .trace
            .records()
            .iter()
            .filter(|r| r.event.name() == "bnb_prune")
            .count();
        assert_eq!(pruned, stats.nodes_pruned);
    }

    #[test]
    fn warm_and_cold_solves_agree() {
        // A battery of seeded knapsacks: warm-started and cold-started
        // branch and bound must return identical objectives and plans.
        for seed in 0u64..12 {
            let mut m = Model::new(Sense::Maximize);
            let n = 8;
            let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            let mut next = || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state % 1000) as f64 / 100.0 + 0.5
            };
            let vals: Vec<f64> = (0..n).map(|_| next()).collect();
            let weights: Vec<f64> = (0..n).map(|_| next()).collect();
            let vars: Vec<_> = (0..n)
                .map(|i| m.add_binary(format!("x{i}"), vals[i]))
                .collect();
            m.add_constraint(
                "cap",
                vars.iter().zip(&weights).map(|(&v, &w)| (v, w)).collect(),
                ConstraintSense::Le,
                weights.iter().sum::<f64>() / 2.5,
            );
            let warm = m.solve_with(SolveOptions { warm_start: true }).unwrap();
            let cold = m.solve_with(SolveOptions { warm_start: false }).unwrap();
            let (w, c) = (
                m.objective_value(warm.values()),
                m.objective_value(cold.values()),
            );
            assert!((w - c).abs() < 1e-7, "seed {seed}: warm {w} vs cold {c}");
            assert_eq!(
                warm.values(),
                cold.values(),
                "seed {seed}: warm/cold solutions diverged"
            );
        }
    }
}
