//! The bucketed configuration of the placement solver.
//!
//! [`ScalableSolver::new`] builds a [`StructuredSolver`] that groups
//! near-identical tables into buckets
//! ([`TableBuckets`](crate::bucketing::TableBuckets)) before split
//! selection; all solve logic lives in [`crate::solver`]. It is
//! the configuration [`SolverKind::Scalable`](crate::config::SolverKind::Scalable)
//! selects, the one the online re-sharding controller warm-starts
//! ([`StructuredSolver::solve_seeded`]), and on seed experiment
//! configurations its plan cost matches the unbucketed solver's within 1%
//! (asserted by the `solver_scaling` bench and the tests below).

use crate::config::RecShardConfig;
use crate::solver::StructuredSolver;

/// Constructor of the bucketed [`StructuredSolver`] configuration.
pub enum ScalableSolver {}

impl ScalableSolver {
    /// A [`StructuredSolver`] that runs split selection over
    /// [`TableBuckets`](crate::bucketing::TableBuckets); the one bucketed
    /// constructor.
    #[allow(clippy::new_ret_no_self)]
    pub fn new(config: RecShardConfig) -> StructuredSolver {
        StructuredSolver::with_bucketing(config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::RecShardError;
    use recshard_data::{DriftModel, ModelSpec};
    use recshard_sharding::{ShardingPlan, SystemSpec};
    use recshard_stats::{DatasetProfile, DatasetProfiler};

    fn setup(n: usize, seed: u64) -> (ModelSpec, DatasetProfile) {
        let model = ModelSpec::small(n, seed);
        let profile = DatasetProfiler::profile_model(&model, 2_000, seed + 1);
        (model, profile)
    }

    /// A uniform system whose per-GPU HBM holds `1/hbm_denom` of the model.
    fn pressured(model: &ModelSpec, gpus: usize, hbm_denom: u64) -> SystemSpec {
        SystemSpec::uniform(
            gpus,
            model.total_bytes() / hbm_denom,
            model.total_bytes(),
            1555.0,
            16.0,
        )
    }

    /// `model` with every feature's mean pooling scaled to `month` of `drift`.
    fn model_at_month(drift: &DriftModel, model: &ModelSpec, month: u32) -> ModelSpec {
        let features = model
            .features()
            .iter()
            .map(|f| {
                let mut f = f.clone();
                f.pooling = f.pooling.with_mean_scaled(drift.factor(f.class, month));
                f
            })
            .collect();
        ModelSpec::new(
            format!("{}@month{}", model.name(), month),
            model.kind(),
            features,
            model.batch_size(),
        )
    }

    fn max_cost(
        model: &ModelSpec,
        profile: &DatasetProfile,
        system: &SystemSpec,
        plan: &ShardingPlan,
    ) -> f64 {
        StructuredSolver::new(RecShardConfig::default())
            .gpu_costs_exact(model, profile, system, plan)
            .into_iter()
            .fold(0.0f64, f64::max)
    }

    #[test]
    fn plan_is_valid_under_pressure() {
        let (model, profile) = setup(12, 7);
        let system = pressured(&model, 2, 8);
        let report = ScalableSolver::new(RecShardConfig::default())
            .solve_report(&model, &profile, &system)
            .unwrap();
        report.plan.validate(&model, &system).unwrap();
        assert!(report.plan.total_uvm_rows() > 0);
        assert_eq!(report.tables, 12);
        assert!(report.buckets >= 1 && report.buckets <= 12);
        assert_eq!(report.plan.strategy(), "recshard-scalable");
    }

    #[test]
    fn matches_structured_solver_within_one_percent() {
        for seed in [3u64, 11, 21] {
            let (model, profile) = setup(10, seed);
            let system = pressured(&model, 2, 6);
            let config = RecShardConfig::default();
            let unbucketed = StructuredSolver::new(config)
                .solve(&model, &profile, &system)
                .unwrap();
            let bucketed = ScalableSolver::new(config)
                .solve(&model, &profile, &system)
                .unwrap();
            let reference = max_cost(&model, &profile, &system, &unbucketed);
            let cost = max_cost(&model, &profile, &system, &bucketed);
            assert!(
                cost <= reference * 1.01 + 1e-12,
                "seed {seed}: bucketed {cost} vs unbucketed {reference}"
            );
        }
    }

    #[test]
    fn deterministic() {
        let (model, profile) = setup(9, 13);
        let system = pressured(&model, 3, 5);
        let solver = ScalableSolver::new(RecShardConfig::default());
        let a = solver.solve(&model, &profile, &system).unwrap();
        let b = solver.solve(&model, &profile, &system).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn rejects_impossible_models() {
        let (model, profile) = setup(4, 5);
        let system = SystemSpec::uniform(1, 16, 16, 1555.0, 16.0);
        assert!(matches!(
            ScalableSolver::new(RecShardConfig::default()).solve(&model, &profile, &system),
            Err(RecShardError::CapacityExceeded { .. })
        ));
    }

    /// Warm-started re-solves across seeded drift traces are never costlier
    /// than a cold re-solve (the gate guarantees it), stay valid, and keep
    /// at least as many tables on their previous GPUs as the cold path —
    /// the whole point of carrying the assignment across re-sharding events.
    #[test]
    fn warm_start_no_worse_than_cold_on_seeded_drift_traces() {
        for seed in [3u64, 11, 29] {
            let (model, profile) = setup(12, seed);
            let system = pressured(&model, 2, 6);
            let solver = ScalableSolver::new(RecShardConfig::default());
            let mut previous = solver.solve(&model, &profile, &system).unwrap();

            let drift = DriftModel::paper_like();
            for month in [2u32, drift.months()] {
                let drifted = model_at_month(&drift, &model, month);
                let drifted_profile =
                    DatasetProfiler::profile_model(&drifted, 2_000, seed ^ 0xD81F7);

                let warm = solver
                    .solve_seeded(&drifted, &drifted_profile, &system, &previous)
                    .unwrap();
                let cold = solver.solve(&drifted, &drifted_profile, &system).unwrap();
                warm.validate(&drifted, &system).unwrap();

                let max_cost =
                    |plan: &ShardingPlan| max_cost(&drifted, &drifted_profile, &system, plan);
                assert!(
                    max_cost(&warm) <= max_cost(&cold) * (1.0 + 1e-9),
                    "seed {seed} month {month}: warm re-solve must not lose to cold \
                     ({} vs {})",
                    max_cost(&warm),
                    max_cost(&cold)
                );

                let moved = |plan: &ShardingPlan| {
                    plan.placements()
                        .iter()
                        .zip(previous.placements())
                        .filter(|(a, b)| a.gpu != b.gpu)
                        .count()
                };
                assert!(
                    moved(&warm) <= moved(&cold),
                    "seed {seed} month {month}: warm start must not migrate more tables \
                     than cold ({} vs {})",
                    moved(&warm),
                    moved(&cold)
                );
                previous = warm;
            }
        }
    }

    /// A stale seed (wrong GPU count) is ignored rather than crashing.
    #[test]
    fn mismatched_seed_falls_back_to_cold() {
        let (model, profile) = setup(8, 17);
        let system = pressured(&model, 2, 4);
        let four_gpu = pressured(&model, 4, 4);
        let solver = ScalableSolver::new(RecShardConfig::default());
        let stale = solver.solve(&model, &profile, &four_gpu).unwrap();
        let warm = solver
            .solve_seeded(&model, &profile, &system, &stale)
            .unwrap();
        let cold = solver.solve(&model, &profile, &system).unwrap();
        assert_eq!(warm, cold);
    }
}
