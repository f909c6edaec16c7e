//! Textbook LP cases with hand-derived optima, solved cold by the sparse
//! dual simplex ([`crate::sparse::SparseLp`]): maximisation, `>=` and `=`
//! rows, variable bounds (negative ones too), infeasibility, and models the
//! solver rejects before any pivot.

#[cfg(test)]
mod tests {
    use crate::error::MilpError;
    use crate::model::{ConstraintSense, Model, Sense, VarKind};
    use crate::sparse::{SparseLp, SparseLpSolution};

    /// Solves `model` cold under its own variable bounds.
    fn solve(model: &Model) -> Result<SparseLpSolution, MilpError> {
        let lower: Vec<f64> = model.variables().iter().map(|v| v.lower).collect();
        let upper: Vec<f64> = model.variables().iter().map(|v| v.upper).collect();
        SparseLp::try_new(model)?.solve_cold(&lower, &upper)
    }

    #[test]
    fn simple_maximization() {
        // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18, x,y in [0, 10]
        // → x=2, y=6, obj=36 (maximising needs finite upper bounds; 10
        // never binds here).
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", VarKind::Continuous, 0.0, 10.0, 3.0);
        let y = m.add_var("y", VarKind::Continuous, 0.0, 10.0, 5.0);
        m.add_constraint("c1", vec![(x, 1.0)], ConstraintSense::Le, 4.0);
        m.add_constraint("c2", vec![(y, 2.0)], ConstraintSense::Le, 12.0);
        m.add_constraint("c3", vec![(x, 3.0), (y, 2.0)], ConstraintSense::Le, 18.0);
        let sol = solve(&m).unwrap();
        assert!((sol.objective - 36.0).abs() < 1e-6, "obj {}", sol.objective);
        assert!((sol.values[0] - 2.0).abs() < 1e-6);
        assert!((sol.values[1] - 6.0).abs() < 1e-6);
    }

    #[test]
    fn minimization_with_ge_constraints() {
        // min 2x + 3y s.t. x + y >= 10, x >= 2, y >= 3 → x=7, y=3, obj=23.
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_continuous("x", 2.0);
        let y = m.add_continuous("y", 3.0);
        m.add_constraint("sum", vec![(x, 1.0), (y, 1.0)], ConstraintSense::Ge, 10.0);
        m.add_constraint("xmin", vec![(x, 1.0)], ConstraintSense::Ge, 2.0);
        m.add_constraint("ymin", vec![(y, 1.0)], ConstraintSense::Ge, 3.0);
        let sol = solve(&m).unwrap();
        assert!((sol.objective - 23.0).abs() < 1e-6, "obj {}", sol.objective);
        assert!((sol.values[0] - 7.0).abs() < 1e-6);
        assert!((sol.values[1] - 3.0).abs() < 1e-6);
    }

    #[test]
    fn equality_constraints() {
        // min x + y s.t. x + 2y = 4, x - y = 1 → x=2, y=1, obj=3.
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_continuous("x", 1.0);
        let y = m.add_continuous("y", 1.0);
        m.add_constraint("e1", vec![(x, 1.0), (y, 2.0)], ConstraintSense::Eq, 4.0);
        m.add_constraint("e2", vec![(x, 1.0), (y, -1.0)], ConstraintSense::Eq, 1.0);
        let sol = solve(&m).unwrap();
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
        assert_eq!(solve(&m).unwrap_err(), MilpError::Infeasible);
    }

    #[test]
    fn detects_unboundedness() {
        // max x with x unbounded above: the model is rejected before any
        // pivot, naming the variable.
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_continuous("x", 1.0);
        m.add_constraint("a", vec![(x, 1.0)], ConstraintSense::Ge, 0.0);
        assert_eq!(
            solve(&m).unwrap_err(),
            MilpError::UnboundedVariable { name: "x".into() }
        );
    }

    #[test]
    fn respects_variable_bounds() {
        // max x + y, x in [0, 2], y in [1, 3], no rows → obj = 5.
        let mut m = Model::new(Sense::Maximize);
        m.add_var("x", VarKind::Continuous, 0.0, 2.0, 1.0);
        m.add_var("y", VarKind::Continuous, 1.0, 3.0, 1.0);
        let sol = solve(&m).unwrap();
        assert!((sol.objective - 5.0).abs() < 1e-6, "obj {}", sol.objective);
        assert!((sol.values[0] - 2.0).abs() < 1e-6);
        assert!((sol.values[1] - 3.0).abs() < 1e-6);
    }

    #[test]
    fn negative_lower_bounds_supported() {
        // min x, x in [-5, 10] → x = -5.
        let mut m = Model::new(Sense::Minimize);
        m.add_var("x", VarKind::Continuous, -5.0, 10.0, 1.0);
        let sol = solve(&m).unwrap();
        assert!((sol.objective + 5.0).abs() < 1e-6, "obj {}", sol.objective);
        assert!((sol.values[0] + 5.0).abs() < 1e-6);
    }

    #[test]
    fn conflicting_bound_overrides_are_infeasible() {
        // A node override with lower > upper is infeasible before any pivot.
        let mut m = Model::new(Sense::Minimize);
        m.add_continuous("x", 1.0);
        let lp = SparseLp::try_new(&m).unwrap();
        assert_eq!(
            lp.solve_cold(&[2.0], &[1.0]).unwrap_err(),
            MilpError::Infeasible
        );
    }
}
