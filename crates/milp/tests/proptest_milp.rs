//! Property-based tests for the MILP solver: solutions are always feasible,
//! and on small binary knapsacks and small general-integer programs
//! branch-and-bound matches brute force.

use proptest::prelude::*;
use recshard_milp::{ConstraintSense, MilpError, Model, Sense, VarKind};

/// Upper bound of every variable in the general-integer property.
const INT_MAX: i32 = 4;

/// Brute-force optimum of a 0/1 knapsack.
fn knapsack_brute_force(values: &[f64], weights: &[f64], capacity: f64) -> f64 {
    let n = values.len();
    let mut best = 0.0f64;
    for mask in 0..(1u32 << n) {
        let mut v = 0.0;
        let mut w = 0.0;
        for i in 0..n {
            if mask & (1 << i) != 0 {
                v += values[i];
                w += weights[i];
            }
        }
        if w <= capacity + 1e-9 && v > best {
            best = v;
        }
    }
    best
}

/// Brute-force optimum (in the model's own sense) of an integer program over
/// the box `[0, INT_MAX]^n`, or `None` when no point satisfies every row.
/// Rows are `(coefficients, is_le, rhs)`; the data are integers, so every
/// comparison is exact.
fn integer_brute_force(obj: &[i32], rows: &[(Vec<i32>, bool, i32)], maximize: bool) -> Option<i32> {
    let n = obj.len();
    let side = (INT_MAX + 1) as usize;
    let mut best: Option<i32> = None;
    for code in 0..side.pow(n as u32) {
        let point: Vec<i32> = (0..n)
            .map(|i| (code / side.pow(i as u32) % side) as i32)
            .collect();
        let dot = |a: &[i32]| a.iter().zip(&point).map(|(c, x)| c * x).sum::<i32>();
        let feasible = rows
            .iter()
            .all(|(a, le, b)| if *le { dot(a) <= *b } else { dot(a) >= *b });
        if feasible {
            let v = dot(obj);
            let better = best.is_none_or(|b| if maximize { v > b } else { v < b });
            if better {
                best = Some(v);
            }
        }
    }
    best
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Branch-and-bound over general integers in `[0, 4]` matches exhaustive
    /// enumeration: the same optimum, or `Infeasible` exactly when no point
    /// of the box satisfies the rows.
    #[test]
    fn general_integers_match_brute_force(
        obj in prop::collection::vec(-5i32..=5, 2..5),
        rows_raw in prop::collection::vec(
            (prop::collection::vec(-2i32..=5, 4), any::<bool>(), 1i32..=11),
            1..4,
        ),
        maximize in any::<bool>(),
    ) {
        let n = obj.len();
        let rows: Vec<(Vec<i32>, bool, i32)> = rows_raw
            .into_iter()
            .map(|(a, le, b)| (a[..n].to_vec(), le, b))
            .collect();
        let sense = if maximize { Sense::Maximize } else { Sense::Minimize };
        let mut m = Model::new(sense);
        let vars: Vec<_> = obj
            .iter()
            .enumerate()
            .map(|(i, &c)| m.add_var(format!("x{i}"), VarKind::Integer, 0.0, f64::from(INT_MAX), f64::from(c)))
            .collect();
        for (r, (a, le, b)) in rows.iter().enumerate() {
            m.add_constraint(
                format!("r{r}"),
                vars.iter().zip(a).map(|(&v, &c)| (v, f64::from(c))).collect(),
                if *le { ConstraintSense::Le } else { ConstraintSense::Ge },
                f64::from(*b),
            );
        }
        match (m.solve(), integer_brute_force(&obj, &rows, maximize)) {
            (Ok(sol), Some(expected)) => {
                prop_assert!((m.objective_value(sol.values()) - f64::from(expected)).abs() < 1e-6,
                    "B&B gave {} but brute force gives {}", m.objective_value(sol.values()), expected);
                prop_assert!(m.is_feasible(sol.values(), 1e-6));
            }
            (Err(MilpError::Infeasible), None) => {}
            (got, expected) => prop_assert!(false, "B&B gave {:?} but brute force gives {:?}", got, expected),
        }
    }

    /// Branch-and-bound matches exhaustive enumeration on random knapsacks.
    #[test]
    fn knapsack_matches_brute_force(
        values in prop::collection::vec(1.0f64..20.0, 2..8),
        weights_raw in prop::collection::vec(1.0f64..10.0, 2..8),
        cap_frac in 0.2f64..0.9,
    ) {
        let n = values.len().min(weights_raw.len());
        let values = &values[..n];
        let weights = &weights_raw[..n];
        let capacity = weights.iter().sum::<f64>() * cap_frac;

        let mut m = Model::new(Sense::Maximize);
        let vars: Vec<_> = values
            .iter()
            .enumerate()
            .map(|(i, &v)| m.add_binary(format!("x{i}"), v))
            .collect();
        m.add_constraint(
            "cap",
            vars.iter().zip(weights).map(|(&v, &w)| (v, w)).collect(),
            ConstraintSense::Le,
            capacity,
        );
        let sol = m.solve().expect("knapsack always feasible (empty set)");
        let expected = knapsack_brute_force(values, weights, capacity);
        prop_assert!((m.objective_value(sol.values()) - expected).abs() < 1e-6,
            "B&B gave {} but brute force gives {}", m.objective_value(sol.values()), expected);
        // And the returned assignment must itself be feasible.
        prop_assert!(m.is_feasible(sol.values(), 1e-6));
    }

    /// Whatever the solver returns for a random feasible-by-construction LP
    /// satisfies every constraint and bound.
    #[test]
    fn lp_solutions_are_feasible(
        coeffs in prop::collection::vec(prop::collection::vec(-5.0f64..5.0, 3), 1..5),
        bounds in prop::collection::vec(1.0f64..50.0, 1..5),
        obj in prop::collection::vec(-3.0f64..3.0, 3),
    ) {
        let mut m = Model::new(Sense::Minimize);
        let vars: Vec<_> = obj
            .iter()
            .enumerate()
            .map(|(i, &c)| m.add_var(format!("x{i}"), recshard_milp::VarKind::Continuous, 0.0, 20.0, c))
            .collect();
        // Constraints of the form a·x <= b with b > 0 are always feasible at x = 0.
        for (row, b) in coeffs.iter().zip(&bounds) {
            m.add_constraint(
                "c",
                vars.iter().zip(row).map(|(&v, &a)| (v, a)).collect(),
                ConstraintSense::Le,
                *b,
            );
        }
        let sol = m.solve().expect("x = 0 is always feasible");
        prop_assert!(m.is_feasible(sol.values(), 1e-5));
    }

    /// Min-max assignment MILPs (the RecShard structure) always return a
    /// makespan at least as large as the trivial lower bound
    /// `max(total/machines, max item)` and no larger than the total.
    #[test]
    fn min_max_assignment_bounds(costs in prop::collection::vec(1.0f64..10.0, 2..6)) {
        let gpus = 2usize;
        let mut m = Model::new(Sense::Minimize);
        let c = m.add_continuous("C", 1.0);
        let mut assign = Vec::new();
        for (j, _) in costs.iter().enumerate() {
            let row: Vec<_> = (0..gpus).map(|g| m.add_binary(format!("p{g}_{j}"), 0.0)).collect();
            m.add_constraint(
                format!("one_{j}"),
                row.iter().map(|&v| (v, 1.0)).collect(),
                ConstraintSense::Eq,
                1.0,
            );
            assign.push(row);
        }
        for g in 0..gpus {
            let mut terms: Vec<_> = costs.iter().enumerate().map(|(j, &w)| (assign[j][g], w)).collect();
            terms.push((c, -1.0));
            m.add_constraint(format!("load_{g}"), terms, ConstraintSense::Le, 0.0);
        }
        let sol = m.solve().expect("assignment always feasible");
        let total: f64 = costs.iter().sum();
        let max_item = costs.iter().cloned().fold(0.0f64, f64::max);
        let lower = (total / gpus as f64).max(max_item);
        prop_assert!(m.objective_value(sol.values()) + 1e-6 >= lower);
        prop_assert!(m.objective_value(sol.values()) <= total + 1e-6);
    }
}
