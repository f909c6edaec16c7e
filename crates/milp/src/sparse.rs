//! Sparse bounded-variable revised simplex with dual-simplex warm starts —
//! the LP solver behind every branch-and-bound node.
//!
//! The constraint matrix stays in sparse column-major form, variable bounds
//! are handled *natively* (no bound rows, no artificial columns), and only a
//! dense `m × m` basis inverse is kept, updated in product form per pivot and
//! refactorised periodically for numerical hygiene.
//!
//! Branch-and-bound is the intended customer: a node differs from its parent
//! only in one variable bound, so the parent's optimal basis stays *dual
//! feasible* and the dual simplex re-optimises in a handful of pivots instead
//! of re-solving from scratch ([`SparseLp::solve_warm`]).
//!
//! Scope: every solve starts dual feasible from the slack basis, with each
//! structural variable nonbasic at the bound its cost sign favours. That
//! needs a finite lower bound on every variable with a positive
//! minimization-form cost, a finite upper bound on every variable with a
//! negative one, and at least one finite bound on a zero-cost variable (true
//! for all RecShard formulations: binaries plus the non-negative max-cost
//! variable). [`SparseLp::try_new`] checks this, and the finiteness of every
//! coefficient, before any pivot. From a dual-feasible start the primal can
//! be infeasible but never unbounded.

use crate::error::MilpError;
use crate::model::{ConstraintSense, Model, Sense};
use std::rc::Rc;

/// Feasibility/optimality tolerance of the sparse solver.
const EPS: f64 = 1e-9;
/// Primal bound-violation tolerance used by the dual ratio test.
const FEAS_EPS: f64 = 1e-7;
/// Pivots between basis refactorisations.
const REFACTOR_EVERY: usize = 64;

/// Where a nonbasic variable currently sits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VarStatus {
    /// Nonbasic at its lower bound.
    AtLower,
    /// Nonbasic at its upper bound.
    AtUpper,
    /// Basic (value read from the basis solve).
    Basic,
}

/// A reusable snapshot of an optimal basis, shared between branch-and-bound
/// nodes via `Rc` (children warm-start the dual simplex from it).
#[derive(Debug, Clone, PartialEq)]
pub struct BasisSnapshot {
    /// Basic variable index per row.
    pub basic: Vec<usize>,
    /// Status of every variable (structural then slack).
    pub status: Vec<VarStatus>,
}

/// Result of a sparse LP solve.
#[derive(Debug, Clone)]
pub struct SparseLpSolution {
    /// Objective in the model's original sense.
    pub objective: f64,
    /// Structural variable values.
    pub values: Vec<f64>,
    /// Dual-simplex pivots performed.
    pub pivots: usize,
    /// Basis refactorisations performed (the initial factorisation plus one
    /// every `REFACTOR_EVERY` pivots).
    pub refactorizations: usize,
    /// The optimal basis, for warm-starting child nodes.
    pub basis: Rc<BasisSnapshot>,
}

/// A model in computational standard form `A x + s = b` with native bounds:
/// sparse columns, minimization-form costs, and per-row slack bounds encoding
/// the constraint sense.
#[derive(Debug, Clone)]
pub struct SparseLp {
    /// Structural variable count.
    n: usize,
    /// Row count.
    m: usize,
    /// Sparse structural columns: `(row, coeff)` lists.
    cols: Vec<Vec<(usize, f64)>>,
    /// Minimization-form structural costs (slacks cost 0).
    cost: Vec<f64>,
    /// Right-hand sides.
    rhs: Vec<f64>,
    /// Slack bounds per row (encode Le / Ge / Eq).
    slack_lower: Vec<f64>,
    slack_upper: Vec<f64>,
    /// Whether the original model maximizes.
    maximize: bool,
}

/// Mutable solver state for one solve: basis, inverse, primal values and
/// reduced costs.
struct Workspace<'a> {
    lp: &'a SparseLp,
    /// Effective bounds of every variable (structural then slack).
    lower: Vec<f64>,
    upper: Vec<f64>,
    /// Basic variable per row.
    basic: Vec<usize>,
    /// Status per variable.
    status: Vec<VarStatus>,
    /// Dense row-major basis inverse.
    binv: Vec<f64>,
    /// Basic variable values.
    xb: Vec<f64>,
    /// Reduced costs per variable (basic entries are 0).
    d: Vec<f64>,
    pivots: usize,
    refactorizations: usize,
}

impl SparseLp {
    /// Builds the standard form of `model` after checking it is in scope
    /// (see the module docs).
    ///
    /// # Errors
    ///
    /// [`MilpError::InvalidModel`] for a model without variables or with a
    /// non-finite objective or constraint coefficient, and
    /// [`MilpError::UnboundedVariable`] for the first variable whose cost sign
    /// demands a bound it does not have.
    pub fn try_new(model: &Model) -> Result<Self, MilpError> {
        let n = model.num_vars();
        let m = model.num_constraints();
        if n == 0 {
            return Err(MilpError::InvalidModel("model has no variables".into()));
        }
        let maximize = model.sense() == Sense::Maximize;
        let sign = if maximize { -1.0 } else { 1.0 };
        let mut cost = Vec::with_capacity(n);
        for v in model.variables() {
            if !v.objective.is_finite() {
                return Err(MilpError::InvalidModel(format!(
                    "variable `{}` has non-finite objective coefficient {}",
                    v.name, v.objective
                )));
            }
            let c = sign * v.objective;
            let in_scope = if c > EPS {
                v.lower.is_finite()
            } else if c < -EPS {
                v.upper.is_finite()
            } else {
                v.lower.is_finite() || v.upper.is_finite()
            };
            if !in_scope {
                return Err(MilpError::UnboundedVariable {
                    name: v.name.clone(),
                });
            }
            cost.push(c);
        }
        let mut cols = vec![Vec::new(); n];
        let mut rhs = Vec::with_capacity(m);
        let mut slack_lower = Vec::with_capacity(m);
        let mut slack_upper = Vec::with_capacity(m);
        for (i, c) in model.constraints().iter().enumerate() {
            // Sum duplicate terms so each (row, variable) pair is one entry.
            let mut acc: Vec<(usize, f64)> = Vec::with_capacity(c.terms.len());
            for &(v, coeff) in &c.terms {
                if let Some(e) = acc.iter_mut().find(|(j, _)| *j == v.index()) {
                    e.1 += coeff;
                } else {
                    acc.push((v.index(), coeff));
                }
            }
            for (j, coeff) in acc {
                if !coeff.is_finite() {
                    return Err(MilpError::InvalidModel(format!(
                        "constraint `{}` has non-finite coefficient {coeff} on variable `{}`",
                        c.name,
                        model.variables()[j].name
                    )));
                }
                if coeff != 0.0 {
                    cols[j].push((i, coeff));
                }
            }
            rhs.push(c.rhs);
            let (lo, hi) = match c.sense {
                ConstraintSense::Le => (0.0, f64::INFINITY),
                ConstraintSense::Ge => (f64::NEG_INFINITY, 0.0),
                ConstraintSense::Eq => (0.0, 0.0),
            };
            slack_lower.push(lo);
            slack_upper.push(hi);
        }
        Ok(Self {
            n,
            m,
            cols,
            cost,
            rhs,
            slack_lower,
            slack_upper,
            maximize,
        })
    }

    /// Structural column `j` of the standard form (slack columns are unit
    /// vectors and never materialised).
    fn column(&self, j: usize) -> &[(usize, f64)] {
        &self.cols[j]
    }

    /// Solves from the all-slack basis with statuses chosen by cost sign
    /// (the "cold" dual-feasible start).
    ///
    /// # Errors
    ///
    /// [`MilpError::Infeasible`] when no point satisfies the constraints and
    /// bounds, [`MilpError::InvalidModel`] on numerical failure.
    pub fn solve_cold(&self, lower: &[f64], upper: &[f64]) -> Result<SparseLpSolution, MilpError> {
        let mut status = Vec::with_capacity(self.n + self.m);
        for j in 0..self.n {
            let c = self.cost[j];
            let s = if c > EPS {
                VarStatus::AtLower
            } else if c < -EPS {
                VarStatus::AtUpper
            } else if lower[j].is_finite() {
                VarStatus::AtLower
            } else {
                VarStatus::AtUpper
            };
            status.push(s);
        }
        for _ in 0..self.m {
            status.push(VarStatus::Basic);
        }
        let basic: Vec<usize> = (self.n..self.n + self.m).collect();
        self.solve_from(lower, upper, BasisSnapshot { basic, status })
    }

    /// Warm-starts the dual simplex from a previous optimal basis under
    /// (possibly tightened) bounds — the branch-and-bound fast path.
    ///
    /// # Errors
    ///
    /// As [`solve_cold`](Self::solve_cold); a singular inherited basis is
    /// reported as [`MilpError::InvalidModel`] and callers should fall back
    /// to a cold solve.
    pub fn solve_warm(
        &self,
        lower: &[f64],
        upper: &[f64],
        basis: &BasisSnapshot,
    ) -> Result<SparseLpSolution, MilpError> {
        self.solve_from(lower, upper, basis.clone())
    }

    fn solve_from(
        &self,
        lower: &[f64],
        upper: &[f64],
        snapshot: BasisSnapshot,
    ) -> Result<SparseLpSolution, MilpError> {
        debug_assert_eq!(lower.len(), self.n);
        debug_assert_eq!(upper.len(), self.n);
        for j in 0..self.n {
            if lower[j] > upper[j] + FEAS_EPS {
                return Err(MilpError::Infeasible);
            }
        }
        let mut full_lower = lower.to_vec();
        let mut full_upper = upper.to_vec();
        full_lower.extend_from_slice(&self.slack_lower);
        full_upper.extend_from_slice(&self.slack_upper);

        let mut ws = Workspace {
            lp: self,
            lower: full_lower,
            upper: full_upper,
            basic: snapshot.basic,
            status: snapshot.status,
            binv: Vec::new(),
            xb: Vec::new(),
            d: Vec::new(),
            pivots: 0,
            refactorizations: 0,
        };
        // A nonbasic variable sitting on a bound that is no longer finite (or
        // whose bounds were swapped tighter) is re-anchored to the nearest
        // finite bound; branch-and-bound only tightens bounds so this is a
        // no-op there, but it keeps the API safe for other callers.
        for j in 0..ws.lp.n {
            match ws.status[j] {
                VarStatus::AtLower if !ws.lower[j].is_finite() => {
                    ws.status[j] = VarStatus::AtUpper;
                }
                VarStatus::AtUpper if !ws.upper[j].is_finite() => {
                    ws.status[j] = VarStatus::AtLower;
                }
                _ => {}
            }
        }
        ws.refactorize()?;
        ws.dual_simplex()?;
        Ok(ws.into_solution())
    }
}

impl Workspace<'_> {
    /// Value of nonbasic variable `j` implied by its status.
    fn nonbasic_value(&self, j: usize) -> f64 {
        match self.status[j] {
            VarStatus::AtLower => self.lower[j],
            VarStatus::AtUpper => self.upper[j],
            VarStatus::Basic => unreachable!("basic variable has no bound value"),
        }
    }

    /// Rebuilds `binv` from the basis by Gauss-Jordan elimination with
    /// partial pivoting, then recomputes basic values and reduced costs.
    fn refactorize(&mut self) -> Result<(), MilpError> {
        self.refactorizations += 1;
        let m = self.lp.m;
        let n = self.lp.n;
        // Assemble B column-wise into a dense working matrix.
        let mut mat = vec![0.0f64; m * m];
        for (col, &var) in self.basic.iter().enumerate() {
            if var < n {
                for &(row, coeff) in self.lp.column(var) {
                    mat[row * m + col] = coeff;
                }
            } else {
                mat[(var - n) * m + col] = 1.0;
            }
        }
        let mut inv = vec![0.0f64; m * m];
        for i in 0..m {
            inv[i * m + i] = 1.0;
        }
        for col in 0..m {
            // Partial pivot.
            let mut piv = col;
            let mut best = mat[col * m + col].abs();
            for r in col + 1..m {
                let v = mat[r * m + col].abs();
                if v > best {
                    best = v;
                    piv = r;
                }
            }
            if best < 1e-11 {
                return Err(MilpError::InvalidModel(
                    "singular basis during refactorisation".into(),
                ));
            }
            if piv != col {
                // Row swaps permute equations (applied to both sides), not
                // basis columns — `basic` keeps its order.
                for k in 0..m {
                    mat.swap(col * m + k, piv * m + k);
                    inv.swap(col * m + k, piv * m + k);
                }
            }
            let p = mat[col * m + col];
            for k in 0..m {
                mat[col * m + k] /= p;
                inv[col * m + k] /= p;
            }
            for r in 0..m {
                if r != col {
                    let f = mat[r * m + col];
                    if f != 0.0 {
                        for k in 0..m {
                            mat[r * m + k] -= f * mat[col * m + k];
                            inv[r * m + k] -= f * inv[col * m + k];
                        }
                    }
                }
            }
        }
        self.binv = inv;
        self.recompute_xb();
        self.recompute_reduced_costs();
        Ok(())
    }

    /// `x_B = B^{-1} (b - N x_N)`.
    fn recompute_xb(&mut self) {
        let m = self.lp.m;
        let n = self.lp.n;
        let mut adj = self.lp.rhs.clone();
        for j in 0..n + m {
            if self.status[j] == VarStatus::Basic {
                continue;
            }
            let v = self.nonbasic_value(j);
            if v == 0.0 {
                continue;
            }
            if j < n {
                for &(row, coeff) in self.lp.column(j) {
                    adj[row] -= coeff * v;
                }
            } else {
                adj[j - n] -= v;
            }
        }
        let mut xb = vec![0.0f64; m];
        for r in 0..m {
            let mut acc = 0.0;
            let row = &self.binv[r * m..(r + 1) * m];
            for k in 0..m {
                acc += row[k] * adj[k];
            }
            xb[r] = acc;
        }
        self.xb = xb;
    }

    /// `d_j = c_j - c_B^T B^{-1} A_j` for every variable.
    fn recompute_reduced_costs(&mut self) {
        let m = self.lp.m;
        let n = self.lp.n;
        // y^T = c_B^T B^{-1}
        let mut y = vec![0.0f64; m];
        for (r, &var) in self.basic.iter().enumerate() {
            let cb = if var < n { self.lp.cost[var] } else { 0.0 };
            if cb != 0.0 {
                for k in 0..m {
                    y[k] += cb * self.binv[r * m + k];
                }
            }
        }
        let mut d = vec![0.0f64; n + m];
        for j in 0..n {
            let mut acc = self.lp.cost[j];
            for &(row, coeff) in self.lp.column(j) {
                acc -= y[row] * coeff;
            }
            d[j] = acc;
        }
        for r in 0..m {
            d[n + r] = -y[r];
        }
        for &var in &self.basic {
            d[var] = 0.0;
        }
        self.d = d;
    }

    /// The dual simplex main loop: starting dual feasible, drive out primal
    /// bound violations while keeping the reduced costs sign-consistent.
    fn dual_simplex(&mut self) -> Result<(), MilpError> {
        let m = self.lp.m;
        let n = self.lp.n;
        let total = n + m;
        let max_pivots = 200 * (m + n + 10);
        let mut since_refactor = 0usize;
        let mut degenerate_streak = 0usize;

        loop {
            // Leaving row: largest primal bound violation (deterministic
            // tie-break on the basic variable index).
            let mut leave: Option<(usize, f64, bool)> = None; // (row, violation, below_lower)
            for r in 0..m {
                let var = self.basic[r];
                let x = self.xb[r];
                if x < self.lower[var] - FEAS_EPS {
                    let viol = self.lower[var] - x;
                    if leave
                        .map(|(lr, lv, _)| {
                            viol > lv + EPS || (viol > lv - EPS && var < self.basic[lr])
                        })
                        .unwrap_or(true)
                    {
                        leave = Some((r, viol, true));
                    }
                } else if x > self.upper[var] + FEAS_EPS {
                    let viol = x - self.upper[var];
                    if leave
                        .map(|(lr, lv, _)| {
                            viol > lv + EPS || (viol > lv - EPS && var < self.basic[lr])
                        })
                        .unwrap_or(true)
                    {
                        leave = Some((r, viol, false));
                    }
                }
            }
            let Some((r, _, below_lower)) = leave else {
                return Ok(()); // primal feasible + dual feasible = optimal
            };

            // Row r of B^{-1}, then alpha_j = rho . A_j for nonbasic j.
            let rho = &self.binv[r * m..(r + 1) * m];
            let use_bland = degenerate_streak > 40;
            let mut enter: Option<(usize, f64, f64)> = None; // (var, alpha, |ratio|)
            for j in 0..total {
                if self.status[j] == VarStatus::Basic {
                    continue;
                }
                // Fixed variables can never move off their bound.
                if self.upper[j] - self.lower[j] < EPS {
                    continue;
                }
                let alpha = if j < n {
                    let mut acc = 0.0;
                    for &(row, coeff) in self.lp.column(j) {
                        acc += rho[row] * coeff;
                    }
                    acc
                } else {
                    rho[j - n]
                };
                let eligible = if below_lower {
                    (self.status[j] == VarStatus::AtLower && alpha < -EPS)
                        || (self.status[j] == VarStatus::AtUpper && alpha > EPS)
                } else {
                    (self.status[j] == VarStatus::AtLower && alpha > EPS)
                        || (self.status[j] == VarStatus::AtUpper && alpha < -EPS)
                };
                if !eligible {
                    continue;
                }
                let ratio = (self.d[j] / alpha).abs();
                let better = match enter {
                    None => true,
                    Some((bj, balpha, bratio)) => {
                        if use_bland {
                            j < bj
                        } else {
                            ratio < bratio - EPS
                                || (ratio < bratio + EPS
                                    && (alpha.abs() > balpha.abs() + EPS
                                        || (alpha.abs() > balpha.abs() - EPS && j < bj)))
                        }
                    }
                };
                if better {
                    enter = Some((j, alpha, ratio));
                }
            }
            let Some((q, alpha_q, _)) = enter else {
                // No way to repair the violated row: primal infeasible.
                return Err(MilpError::Infeasible);
            };

            // Primal step that lands the leaving variable on its violated
            // bound, and the dual step that zeroes d_q.
            let leave_var = self.basic[r];
            let target = if below_lower {
                self.lower[leave_var]
            } else {
                self.upper[leave_var]
            };
            let t = (self.xb[r] - target) / alpha_q;
            let theta = self.d[q] / alpha_q;

            // FTRAN: w = B^{-1} A_q.
            let mut w = vec![0.0f64; m];
            if q < n {
                for &(row, coeff) in self.lp.column(q) {
                    if coeff != 0.0 {
                        for i in 0..m {
                            w[i] += self.binv[i * m + row] * coeff;
                        }
                    }
                }
            } else {
                let row = q - n;
                for i in 0..m {
                    w[i] = self.binv[i * m + row];
                }
            }
            debug_assert!((w[r] - alpha_q).abs() < 1e-6 * alpha_q.abs().max(1.0));

            // Update primal values.
            let entering_value = self.nonbasic_value(q) + t;
            for i in 0..m {
                if i != r {
                    self.xb[i] -= w[i] * t;
                }
            }
            self.xb[r] = entering_value;

            // Update reduced costs: d_j -= theta * alpha_j for all nonbasic j.
            // Recomputing alpha per column here would double the work, so use
            // the identity d' = d - theta * (rho_row as a linear functional):
            // alpha for slacks is rho[row]; for structural it is the sparse
            // dot — fold theta into a scaled copy of rho instead.
            if theta.abs() > 0.0 {
                let scaled: Vec<f64> = rho.iter().map(|&v| v * theta).collect();
                for j in 0..n {
                    if self.status[j] != VarStatus::Basic {
                        let mut acc = 0.0;
                        for &(row, coeff) in self.lp.column(j) {
                            acc += scaled[row] * coeff;
                        }
                        self.d[j] -= acc;
                    }
                }
                for row in 0..m {
                    let j = n + row;
                    if self.status[j] != VarStatus::Basic {
                        self.d[j] -= scaled[row];
                    }
                }
            }
            self.d[leave_var] = -theta;
            self.d[q] = 0.0;

            // Update the basis inverse in product form: pivot on w[r].
            let piv = w[r];
            for k in 0..m {
                self.binv[r * m + k] /= piv;
            }
            for i in 0..m {
                if i != r {
                    let f = w[i];
                    if f.abs() > 1e-13 {
                        for k in 0..m {
                            self.binv[i * m + k] -= f * self.binv[r * m + k];
                        }
                    }
                }
            }

            self.status[leave_var] = if below_lower {
                VarStatus::AtLower
            } else {
                VarStatus::AtUpper
            };
            self.status[q] = VarStatus::Basic;
            self.basic[r] = q;

            if t.abs() < EPS {
                degenerate_streak += 1;
            } else {
                degenerate_streak = 0;
            }
            self.pivots += 1;
            since_refactor += 1;
            if self.pivots > max_pivots {
                return Err(MilpError::InvalidModel(
                    "dual simplex pivot limit exceeded (numerical trouble)".into(),
                ));
            }
            if since_refactor >= REFACTOR_EVERY {
                since_refactor = 0;
                self.refactorize()?;
            }
        }
    }

    fn into_solution(self) -> SparseLpSolution {
        let n = self.lp.n;
        let mut values = vec![0.0f64; n];
        for j in 0..n {
            if self.status[j] != VarStatus::Basic {
                values[j] = match self.status[j] {
                    VarStatus::AtLower => self.lower[j],
                    VarStatus::AtUpper => self.upper[j],
                    VarStatus::Basic => unreachable!(),
                };
            }
        }
        for (r, &var) in self.basic.iter().enumerate() {
            if var < n {
                values[var] = self.xb[r];
            }
        }
        let min_objective: f64 = (0..n).map(|j| self.lp.cost[j] * values[j]).sum();
        let objective = if self.lp.maximize {
            -min_objective
        } else {
            min_objective
        };
        SparseLpSolution {
            objective,
            values,
            pivots: self.pivots,
            refactorizations: self.refactorizations,
            basis: Rc::new(BasisSnapshot {
                basic: self.basic,
                status: self.status,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Model, VarKind};

    fn bounds(model: &Model) -> (Vec<f64>, Vec<f64>) {
        (
            model.variables().iter().map(|v| v.lower).collect(),
            model.variables().iter().map(|v| v.upper).collect(),
        )
    }

    #[test]
    fn matches_dense_on_bounded_maximization() {
        // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18, x,y in [0, 10]
        // → x=2, y=6, obj=36 (the hand-derived vertex optimum).
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", VarKind::Continuous, 0.0, 10.0, 3.0);
        let y = m.add_var("y", VarKind::Continuous, 0.0, 10.0, 5.0);
        m.add_constraint("c1", vec![(x, 1.0)], ConstraintSense::Le, 4.0);
        m.add_constraint("c2", vec![(y, 2.0)], ConstraintSense::Le, 12.0);
        m.add_constraint("c3", vec![(x, 3.0), (y, 2.0)], ConstraintSense::Le, 18.0);
        let lp = SparseLp::try_new(&m).unwrap();
        let (lo, hi) = bounds(&m);
        let sol = lp.solve_cold(&lo, &hi).unwrap();
        assert!((sol.objective - 36.0).abs() < 1e-6, "obj {}", sol.objective);
        assert!((sol.values[0] - 2.0).abs() < 1e-6);
        assert!((sol.values[1] - 6.0).abs() < 1e-6);
    }

    #[test]
    fn handles_ge_and_eq_rows() {
        // min 2x + 3y s.t. x + y >= 10, x >= 2, y >= 3 → x=7, y=3.
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_continuous("x", 2.0);
        let y = m.add_continuous("y", 3.0);
        m.add_constraint("sum", vec![(x, 1.0), (y, 1.0)], ConstraintSense::Ge, 10.0);
        m.add_constraint("xmin", vec![(x, 1.0)], ConstraintSense::Ge, 2.0);
        m.add_constraint("ymin", vec![(y, 1.0)], ConstraintSense::Ge, 3.0);
        let lp = SparseLp::try_new(&m).unwrap();
        let (lo, hi) = bounds(&m);
        let sol = lp.solve_cold(&lo, &hi).unwrap();
        assert!((sol.objective - 23.0).abs() < 1e-6, "obj {}", sol.objective);
        assert!((sol.values[0] - 7.0).abs() < 1e-6);
        assert!((sol.values[1] - 3.0).abs() < 1e-6);

        // min x + y s.t. x + 2y = 4, x - y = 1 → x=2, y=1.
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_continuous("x", 1.0);
        let y = m.add_continuous("y", 1.0);
        m.add_constraint("e1", vec![(x, 1.0), (y, 2.0)], ConstraintSense::Eq, 4.0);
        m.add_constraint("e2", vec![(x, 1.0), (y, -1.0)], ConstraintSense::Eq, 1.0);
        let lp = SparseLp::try_new(&m).unwrap();
        let (lo, hi) = bounds(&m);
        let sol = lp.solve_cold(&lo, &hi).unwrap();
        assert!((sol.objective - 3.0).abs() < 1e-6);
        assert!((sol.values[0] - 2.0).abs() < 1e-6);
        assert!((sol.values[1] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn detects_infeasibility() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_continuous("x", 1.0);
        m.add_constraint("a", vec![(x, 1.0)], ConstraintSense::Ge, 5.0);
        m.add_constraint("b", vec![(x, 1.0)], ConstraintSense::Le, 3.0);
        let lp = SparseLp::try_new(&m).unwrap();
        let (lo, hi) = bounds(&m);
        assert!(matches!(
            lp.solve_cold(&lo, &hi),
            Err(MilpError::Infeasible)
        ));
    }

    #[test]
    fn rejects_unsupported_cost_sign_bound_combinations() {
        // max x with x unbounded above cannot start dual feasible.
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_continuous("x", 1.0);
        m.add_constraint("a", vec![(x, 1.0)], ConstraintSense::Ge, 0.0);
        assert_eq!(
            SparseLp::try_new(&m).unwrap_err(),
            MilpError::UnboundedVariable { name: "x".into() }
        );
    }

    #[test]
    fn warm_start_reoptimizes_after_bound_tightening() {
        // Knapsack LP relaxation; tighten one variable like a B&B down-branch.
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
        let lp = SparseLp::try_new(&m).unwrap();
        let (lo, hi) = bounds(&m);
        let root = lp.solve_cold(&lo, &hi).unwrap();

        let mut hi2 = hi.clone();
        hi2[1] = 0.0; // forbid item 1
        let warm = lp.solve_warm(&lo, &hi2, &root.basis).unwrap();
        let cold = lp.solve_cold(&lo, &hi2).unwrap();
        assert!(
            (warm.objective - cold.objective).abs() < 1e-8,
            "warm {} vs cold {}",
            warm.objective,
            cold.objective
        );
        // The child differs from the parent in one bound, so the warm start
        // must re-optimise in at most a couple of dual pivots.
        assert!(warm.pivots <= 2, "warm start took {} pivots", warm.pivots);
    }

    #[test]
    fn fixed_bounds_force_variable_values() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var("x", VarKind::Continuous, 0.0, 10.0, 1.0);
        let y = m.add_var("y", VarKind::Continuous, 0.0, 10.0, 1.0);
        m.add_constraint("sum", vec![(x, 1.0), (y, 1.0)], ConstraintSense::Ge, 5.0);
        let lp = SparseLp::try_new(&m).unwrap();
        let sol = lp.solve_cold(&[3.0, 0.0], &[3.0, 10.0]).unwrap();
        assert!((sol.values[0] - 3.0).abs() < 1e-9);
        assert!((sol.values[1] - 2.0).abs() < 1e-6);
        assert!((sol.objective - 5.0).abs() < 1e-6);
    }

    #[test]
    fn degenerate_problem_terminates() {
        // Chvátal's degenerate cycling example (x bounded above so the model
        // is in scope; row c3 stays): it must terminate at objective 1.
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", VarKind::Continuous, 0.0, 1.0, 10.0);
        let y = m.add_continuous("y", -57.0);
        let z = m.add_continuous("z", -9.0);
        let w = m.add_continuous("w", -24.0);
        m.add_constraint(
            "c1",
            vec![(x, 0.5), (y, -5.5), (z, -2.5), (w, 9.0)],
            ConstraintSense::Le,
            0.0,
        );
        m.add_constraint(
            "c2",
            vec![(x, 0.5), (y, -1.5), (z, -0.5), (w, 1.0)],
            ConstraintSense::Le,
            0.0,
        );
        m.add_constraint("c3", vec![(x, 1.0)], ConstraintSense::Le, 1.0);
        let lp = SparseLp::try_new(&m).unwrap();
        let (lo, hi) = bounds(&m);
        let sol = lp.solve_cold(&lo, &hi).unwrap();
        assert!((sol.objective - 1.0).abs() < 1e-5, "obj {}", sol.objective);
    }
}
