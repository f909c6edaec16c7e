//! The end-to-end RecShard pipeline (Figure 10): profile → partition/place →
//! remap — plus [`RecShard::reshard_controller`], the online re-sharding
//! controller `recshard-des` drives with this sharder's re-solves.

use crate::config::{RecShardConfig, SolverKind};
use crate::error::RecShardError;
use crate::formulation::MilpFormulation;
use crate::scalable::ScalableSolver;
use crate::solver::StructuredSolver;
use recshard_data::ModelSpec;
use recshard_des::{ReshardController, ReshardPolicy};
use recshard_sharding::{RemapTable, ShardingPlan, SystemSpec};
use recshard_stats::{DatasetProfile, DatasetProfiler};

/// The RecShard sharder.
///
/// Construct it with a [`RecShardConfig`] and call [`plan`](RecShard::plan)
/// with a profiled dataset, or [`run`](RecShard::run) to let it profile a
/// synthetic dataset itself (phases 1–3 of the paper's Figure 10).
#[derive(Debug, Clone)]
pub struct RecShard {
    config: RecShardConfig,
}

/// Everything the full pipeline produces: the profile it derived, the plan it
/// solved for, and the materialised per-table remapping tables.
#[derive(Debug, Clone)]
pub struct RecShardOutput {
    /// The dataset profile used for partitioning (phase 1).
    pub profile: DatasetProfile,
    /// The partitioning and placement decision (phase 2).
    pub plan: ShardingPlan,
    /// Per-table remapping tables (phase 3), ordered by feature id.
    pub remap_tables: Vec<RemapTable>,
}

impl RecShardOutput {
    /// Total storage overhead of the remapping tables in bytes
    /// (4 bytes per row, Section 6.6).
    pub fn remap_storage_bytes(&self) -> u64 {
        self.remap_tables.iter().map(|r| r.storage_bytes()).sum()
    }
}

impl Default for RecShard {
    fn default() -> Self {
        Self::new(RecShardConfig::default())
    }
}

impl RecShard {
    /// Creates a sharder with the given configuration.
    pub fn new(config: RecShardConfig) -> Self {
        Self { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &RecShardConfig {
        &self.config
    }

    /// Phase 2 only: produce a partitioning and placement plan from an
    /// existing profile.
    ///
    /// # Errors
    ///
    /// See [`RecShardError`].
    pub fn plan(
        &self,
        model: &ModelSpec,
        profile: &DatasetProfile,
        system: &SystemSpec,
    ) -> Result<ShardingPlan, RecShardError> {
        match self.config.solver {
            SolverKind::Structured => {
                StructuredSolver::new(self.config).solve(model, profile, system)
            }
            SolverKind::ExactMilp => {
                MilpFormulation::new(self.config).solve(model, profile, system)
            }
            SolverKind::Scalable => ScalableSolver::new(self.config).solve(model, profile, system),
        }
    }

    /// Like [`plan`](Self::plan), warm-started from a previous plan when the
    /// configured solver supports it. The bucketed solver seeds its
    /// assignment from `previous` and gates the result against a cold solve
    /// (never worse); the other solvers ignore the seed. This is the re-solve
    /// entry point the online re-sharding controller drives on drift events.
    ///
    /// # Errors
    ///
    /// See [`RecShardError`].
    pub fn plan_seeded(
        &self,
        model: &ModelSpec,
        profile: &DatasetProfile,
        system: &SystemSpec,
        previous: Option<&ShardingPlan>,
    ) -> Result<ShardingPlan, RecShardError> {
        match (self.config.solver, previous) {
            (SolverKind::Scalable, Some(prev)) => {
                ScalableSolver::new(self.config).solve_seeded(model, profile, system, prev)
            }
            _ => self.plan(model, profile, system),
        }
    }

    /// Phase 3 only: materialise per-table remapping tables for a plan.
    pub fn remap(&self, plan: &ShardingPlan, profile: &DatasetProfile) -> Vec<RemapTable> {
        plan.placements()
            .iter()
            .zip(profile.profiles())
            .map(|(placement, prof)| RemapTable::build(placement, &prof.ranked_rows))
            .collect()
    }

    /// An online re-sharding controller with `policy` whose re-solves use
    /// *this* sharder's configuration, warm-started from the installed plan
    /// through [`plan_seeded`](Self::plan_seeded). A re-solve that fails
    /// mid-run keeps the current plan. Attach it to a
    /// [`ClusterSimulator`](recshard_des::ClusterSimulator) with
    /// `with_controller`, and drift the workload with `with_scenario`.
    pub fn reshard_controller(&self, policy: ReshardPolicy) -> ReshardController {
        let resolver = self.clone();
        ReshardController::new(
            policy,
            Box::new(move |m, p, s, prev| resolver.plan_seeded(m, p, s, prev).ok()),
        )
    }

    /// The full pipeline: profile `profile_samples` synthetic training samples
    /// of `model`, solve for a plan on `system`, and build the remapping
    /// tables.
    ///
    /// # Errors
    ///
    /// See [`RecShardError`].
    pub fn run(
        &self,
        model: &ModelSpec,
        system: &SystemSpec,
        profile_samples: usize,
        seed: u64,
    ) -> Result<RecShardOutput, RecShardError> {
        let profile = DatasetProfiler::profile_model(model, profile_samples, seed);
        let plan = self.plan(model, &profile, system)?;
        let remap_tables = self.remap(&plan, &profile);
        Ok(RecShardOutput {
            profile,
            plan,
            remap_tables,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recshard_data::{ModelSpec, ScenarioSpec};
    use recshard_des::{CheckOutcome, ClusterConfig, ClusterSimulator, RunSummary};
    use recshard_sharding::MemoryTier;

    #[test]
    fn full_pipeline_produces_consistent_output() {
        let model = ModelSpec::small(8, 17);
        let system = SystemSpec::uniform(
            2,
            model.total_bytes() / 6,
            model.total_bytes(),
            1555.0,
            16.0,
        );
        let out = RecShard::default().run(&model, &system, 1_500, 3).unwrap();
        out.plan.validate(&model, &system).unwrap();
        assert_eq!(out.remap_tables.len(), model.num_features());
        // Remap tables agree with the plan's split sizes.
        for (remap, placement) in out.remap_tables.iter().zip(out.plan.placements()) {
            assert_eq!(remap.total_rows(), placement.total_rows);
            assert_eq!(remap.hbm_rows(), placement.hbm_rows);
        }
        assert_eq!(out.remap_storage_bytes(), model.total_hash_size() * 4);
    }

    #[test]
    fn hot_rows_end_up_in_hbm() {
        let model = ModelSpec::small(6, 23);
        let system = SystemSpec::uniform(
            2,
            model.total_bytes() / 4,
            model.total_bytes(),
            1555.0,
            16.0,
        );
        let out = RecShard::default().run(&model, &system, 2_000, 5).unwrap();
        // For every table that keeps at least one row in HBM, the single most
        // frequently accessed row must be one of them.
        for (t, remap) in out.remap_tables.iter().enumerate() {
            let prof = &out.profile.profiles()[t];
            if out.plan.placements()[t].hbm_rows > 0 && !prof.ranked_rows.is_empty() {
                assert_eq!(remap.tier_of(prof.ranked_rows[0]), MemoryTier::Hbm);
            }
        }
    }

    #[test]
    fn exact_solver_configurable() {
        let model = ModelSpec::small(3, 29).with_batch_size(64);
        let system = SystemSpec::uniform(
            2,
            model.total_bytes() / 4,
            model.total_bytes(),
            1555.0,
            16.0,
        );
        let config = RecShardConfig::default()
            .with_exact_milp()
            .with_icdf_steps(5);
        let out = RecShard::new(config).run(&model, &system, 800, 7).unwrap();
        out.plan.validate(&model, &system).unwrap();
        assert_eq!(out.plan.strategy(), "recshard-milp");
    }

    /// Plans `model` with `sharder` on 2 GPUs holding a sixth of it in HBM
    /// and replays the plan twice for 200 iterations, one arrival per ms,
    /// with `sharder.reshard_controller` checking every 50 iterations. A
    /// drift storm sized to the 200 ms run (pooling waves at 20, 40 and
    /// 60 ms, table growth at 80 ms) shifts the workload. Asserts that the
    /// replays are bit-identical, that every iteration completes and that
    /// the controller re-shards, and returns the workload, the initial plan
    /// and one summary.
    fn storm_run(sharder: &RecShard) -> (ModelSpec, SystemSpec, ShardingPlan, RunSummary) {
        let model = ModelSpec::small(6, 19);
        let system = SystemSpec::uniform(
            2,
            model.total_bytes() / 6,
            model.total_bytes(),
            1555.0,
            16.0,
        );
        let profile = recshard_stats::DatasetProfiler::profile_model(&model, 1_000, 5);
        let config = ClusterConfig {
            iterations: 200,
            batch_size: 32,
            ..ClusterConfig::default()
        };
        let policy = ReshardPolicy {
            check_every_iterations: 50,
            imbalance_threshold: 1.05,
            ..ReshardPolicy::default()
        };
        let plan = sharder.plan(&model, &profile, &system).unwrap();
        let run = || {
            ClusterSimulator::new(&model, &plan, &profile, &system, config)
                .with_scenario(ScenarioSpec::drift_storm(0.02, 0.02, 3))
                .with_controller(sharder.reshard_controller(policy))
                .run()
        };
        let a = run();
        assert_eq!(a, run(), "a re-sharding replay must be bit-identical");
        assert_eq!(a.completed, 200);
        assert!(
            a.reshards >= 1,
            "the drift storm must trip the controller (got {} reshards)",
            a.reshards
        );
        (model, system, plan, a)
    }

    #[test]
    fn simulate_cluster_reports_tails_deterministically() {
        let model = ModelSpec::small(6, 13);
        let system = SystemSpec::uniform(
            2,
            model.total_bytes() / 6,
            model.total_bytes(),
            1555.0,
            16.0,
        );
        let profile = recshard_stats::DatasetProfiler::profile_model(&model, 1_000, 3);
        let config = ClusterConfig {
            iterations: 100,
            batch_size: 32,
            ..ClusterConfig::default()
        };
        let plan = RecShard::default().plan(&model, &profile, &system).unwrap();
        let run = || ClusterSimulator::new(&model, &plan, &profile, &system, config).run();
        let a = run();
        assert_eq!(
            a,
            run(),
            "same seed must reproduce the same cluster summary"
        );
        assert_eq!(a.completed, 100);
        assert!(a.p99_ms >= a.p50_ms && a.p50_ms > 0.0);
        assert_eq!(a.strategy, "recshard");
    }

    #[test]
    fn simulate_cluster_with_resharding_runs_controller() {
        let (_, _, _, summary) = storm_run(&RecShard::default());
        assert!(summary.p99_ms >= summary.p50_ms && summary.p50_ms > 0.0);
        assert_eq!(summary.strategy, "recshard");
    }

    #[test]
    fn resharding_with_scalable_solver_warm_starts_deterministically() {
        // The bucketed (`Scalable`) solver is the warm-startable one: the
        // controller's re-solves seed from the installed plan (and gate
        // against cold), so the run must stay deterministic and drain
        // exactly like any other.
        let sharder = RecShard::new(RecShardConfig {
            solver: SolverKind::Scalable,
            ..RecShardConfig::default()
        });
        let (model, system, plan, summary) = storm_run(&sharder);
        assert_eq!(summary.strategy, "recshard-scalable");
        // The controller's own re-solve goes through the bucketed solver.
        let stormed = ScenarioSpec::drift_storm(0.02, 0.02, 3).model_after(&model, usize::MAX);
        let mut controller = sharder.reshard_controller(ReshardPolicy::default());
        match controller.check(&[1_000, 10], &stormed, &plan, &system) {
            CheckOutcome::Reshard { plan, .. } => assert_eq!(plan.strategy(), "recshard-scalable"),
            other => panic!("expected a re-shard, got {other:?}"),
        }
    }

    #[test]
    fn invalid_config_is_reported() {
        let model = ModelSpec::small(3, 1);
        let system = SystemSpec::uniform(2, model.total_bytes(), model.total_bytes(), 1555.0, 16.0);
        let config = RecShardConfig {
            icdf_steps: 0,
            ..RecShardConfig::default()
        };
        let err = RecShard::new(config).run(&model, &system, 100, 1);
        assert!(matches!(err, Err(RecShardError::InvalidConfig(_))));
    }
}
