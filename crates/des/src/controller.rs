//! Online re-sharding under feature drift.
//!
//! Section 3.5 of the paper shows per-feature statistics drift over months of
//! training data, so a placement that was optimal at month 0 slowly degrades.
//! The static pipeline re-runs RecShard offline; the cluster simulator
//! instead carries an [`ReshardController`] that *watches the running
//! cluster*: every `check_every_iterations` completed iterations it compares
//! per-GPU busy time over the elapsed window, and when the busiest GPU
//! exceeds the mean by [`ReshardPolicy::imbalance_threshold`], it re-profiles
//! the (drifted) workload, asks its plan solver for a fresh
//! [`ShardingPlan`], and installs it — charging every station a migration
//! stall proportional to the embedding bytes that change residency.

use crate::error::DesError;
use crate::time::SimTime;
use recshard_data::ModelSpec;
use recshard_sharding::{ShardingPlan, SystemSpec};
use recshard_stats::{DatasetProfile, DatasetProfiler};

/// Bandwidth at which embedding rows migrate between residencies during a
/// re-shard, in GB/s (bounded by the UVM interconnect).
const MIGRATION_BANDWIDTH_GBPS: f64 = 16.0;

/// Seed of the re-profiling pass, kept separate from the workload stream so
/// re-sharding does not perturb it; each re-shard XORs in its ordinal.
const PROFILE_SEED: u64 = 0x5EED_CAFE;

/// Tunables of the online re-sharding controller.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReshardPolicy {
    /// Completed iterations between imbalance checks.
    pub check_every_iterations: u64,
    /// Trigger threshold on `max(per-GPU busy) / mean(per-GPU busy)` over the
    /// window since the last check. `1.0` means perfectly balanced; the
    /// controller fires above the threshold.
    pub imbalance_threshold: f64,
    /// Training samples profiled when re-solving the plan.
    pub profile_samples: usize,
}

impl Default for ReshardPolicy {
    fn default() -> Self {
        Self {
            check_every_iterations: 500,
            imbalance_threshold: 1.25,
            profile_samples: 2_000,
        }
    }
}

/// Callback that solves for a new plan given the freshly profiled (possibly
/// drifted) workload. The fourth argument is the *currently installed* plan,
/// so warm-startable solvers can seed the re-solve from it (carrying the
/// previous assignment into the new plan keeps migrations small). Returning
/// `None` keeps the current plan (e.g. when the solver deems the system
/// infeasible).
pub type PlanSolver =
    dyn Fn(&ModelSpec, &DatasetProfile, &SystemSpec, Option<&ShardingPlan>) -> Option<ShardingPlan>;

/// The controller: drift-aware imbalance watchdog plus plan-swap machinery.
pub struct ReshardController {
    policy: ReshardPolicy,
    solver: Box<PlanSolver>,
    /// Per-GPU busy counters at the last check (the window baseline).
    window_baseline_ns: Vec<u64>,
    reshard_count: u32,
}

impl std::fmt::Debug for ReshardController {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReshardController")
            .field("policy", &self.policy)
            .field("reshard_count", &self.reshard_count)
            .finish_non_exhaustive()
    }
}

/// Outcome of one controller check.
#[derive(Debug, Clone, PartialEq)]
pub enum CheckOutcome {
    /// Busy times were balanced enough; nothing to do.
    Balanced {
        /// The observed `max/mean` busy ratio.
        imbalance: f64,
    },
    /// The controller re-solved and produced a new plan to install.
    Reshard {
        /// The observed `max/mean` busy ratio that tripped the threshold.
        imbalance: f64,
        /// The freshly solved plan.
        plan: ShardingPlan,
        /// The profile used to solve (and to materialise remap tables).
        profile: DatasetProfile,
        /// Stall charged to every station while rows migrate, in ns.
        migration_ns: u64,
    },
}

impl ReshardController {
    /// Creates a controller around a plan solver.
    ///
    /// # Panics
    ///
    /// Panics on a policy [`try_new`](Self::try_new) rejects.
    pub fn new(policy: ReshardPolicy, solver: Box<PlanSolver>) -> Self {
        Self::try_new(policy, solver).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Creates a controller around a plan solver, returning a typed error
    /// on an invalid policy instead of panicking.
    ///
    /// # Errors
    ///
    /// [`DesError::InvalidReshardPolicy`] for a zero check interval (no
    /// check would ever be due) or an imbalance threshold below 1 or NaN
    /// (a threshold below 1 fires on a perfectly balanced window).
    pub fn try_new(policy: ReshardPolicy, solver: Box<PlanSolver>) -> Result<Self, DesError> {
        if policy.check_every_iterations == 0 {
            return Err(DesError::InvalidReshardPolicy {
                name: "check_every_iterations",
                value: 0.0,
            });
        }
        let threshold = policy.imbalance_threshold;
        if threshold.is_nan() || threshold < 1.0 {
            return Err(DesError::InvalidReshardPolicy {
                name: "imbalance_threshold",
                value: threshold,
            });
        }
        Ok(Self {
            policy,
            solver,
            window_baseline_ns: Vec::new(),
            reshard_count: 0,
        })
    }

    /// Number of re-shards performed so far.
    pub fn reshard_count(&self) -> u32 {
        self.reshard_count
    }

    /// Whether a check is due after `completed` iterations.
    pub fn check_due(&self, completed: u64) -> bool {
        completed > 0 && completed.is_multiple_of(self.policy.check_every_iterations)
    }

    /// Runs one imbalance check over the busy-time window since the previous
    /// check and, if the threshold trips, re-profiles and re-solves.
    ///
    /// `busy_ns` is the cumulative per-GPU busy time, `model` the *current*
    /// (drifted) workload model, and `current_plan` the installed plan.
    pub fn check(
        &mut self,
        busy_ns: &[u64],
        model: &ModelSpec,
        current_plan: &ShardingPlan,
        system: &SystemSpec,
    ) -> CheckOutcome {
        if self.window_baseline_ns.len() != busy_ns.len() {
            if self.window_baseline_ns.is_empty() {
                // First check of the run: the window is everything since
                // the start.
                self.window_baseline_ns = vec![0; busy_ns.len()];
            } else {
                // Topology changed (GPUs added or removed) mid-run: the
                // cumulative busy counters are incomparable with the old
                // baseline. Re-baseline from the *current* counters — the
                // first post-change window is then empty (imbalance 1.0)
                // instead of comparing cumulative busy time against zero
                // and firing a phantom re-shard.
                self.window_baseline_ns = busy_ns.to_vec();
            }
        }
        let window: Vec<u64> = busy_ns
            .iter()
            .zip(&self.window_baseline_ns)
            .map(|(&now, &base)| now.saturating_sub(base))
            .collect();
        self.window_baseline_ns.copy_from_slice(busy_ns);

        let max = window.iter().copied().max().unwrap_or(0) as f64;
        let mean = window.iter().sum::<u64>() as f64 / window.len().max(1) as f64;
        let imbalance = if mean > 0.0 { max / mean } else { 1.0 };
        if imbalance <= self.policy.imbalance_threshold {
            return CheckOutcome::Balanced { imbalance };
        }

        let profile = DatasetProfiler::profile_model(
            model,
            self.policy.profile_samples,
            PROFILE_SEED ^ self.reshard_count as u64,
        );
        let Some(plan) = (self.solver)(model, &profile, system, Some(current_plan)) else {
            return CheckOutcome::Balanced { imbalance };
        };
        if plan.placements() == current_plan.placements() {
            return CheckOutcome::Balanced { imbalance };
        }
        let migration_ns = self.migration_ns(current_plan, &plan);
        self.reshard_count += 1;
        CheckOutcome::Reshard {
            imbalance,
            plan,
            profile,
            migration_ns,
        }
    }

    /// Time to migrate from `old` to `new`: every HBM-resident byte that
    /// changes GPU moves once, and every row promoted/demoted between tiers
    /// on the same GPU crosses the UVM link once.
    pub fn migration_ns(&self, old: &ShardingPlan, new: &ShardingPlan) -> u64 {
        let mut bytes: u64 = 0;
        for (a, b) in old.placements().iter().zip(new.placements()) {
            debug_assert_eq!(a.table, b.table);
            if a.gpu != b.gpu {
                bytes += a.hbm_bytes() + b.hbm_bytes();
            } else {
                bytes += a.hbm_rows.abs_diff(b.hbm_rows) * a.row_bytes;
            }
        }
        let seconds = bytes as f64 / (MIGRATION_BANDWIDTH_GBPS * 1e9);
        SimTime::saturating_ns_from_secs(seconds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recshard_data::ModelSpec;
    use recshard_sharding::{GreedySharder, LookupCost, SizeCost, SystemSpec};
    use recshard_stats::DatasetProfiler;

    fn greedy_solver() -> Box<PlanSolver> {
        Box::new(|model, profile, system, _prev| {
            GreedySharder::new(SizeCost)
                .shard(model, profile, system)
                .ok()
        })
    }

    fn setup() -> (ModelSpec, ShardingPlan, SystemSpec) {
        let model = ModelSpec::small(6, 3);
        let profile = DatasetProfiler::profile_model(&model, 1_000, 1);
        let system = SystemSpec::uniform(2, u64::MAX / 4, u64::MAX / 4, 1555.0, 16.0);
        let plan = GreedySharder::new(SizeCost)
            .shard(&model, &profile, &system)
            .unwrap();
        (model, plan, system)
    }

    #[test]
    fn try_new_rejects_a_zero_check_interval() {
        let policy = ReshardPolicy {
            check_every_iterations: 0,
            ..ReshardPolicy::default()
        };
        let err = ReshardController::try_new(policy, greedy_solver()).unwrap_err();
        assert_eq!(
            err,
            DesError::InvalidReshardPolicy {
                name: "check_every_iterations",
                value: 0.0
            }
        );
        assert!(err.to_string().contains("check_every_iterations"));
    }

    #[test]
    fn try_new_rejects_a_threshold_below_one_or_nan() {
        for bad in [0.99, 0.0, -1.0, f64::NAN] {
            let policy = ReshardPolicy {
                imbalance_threshold: bad,
                ..ReshardPolicy::default()
            };
            let err = ReshardController::try_new(policy, greedy_solver()).unwrap_err();
            assert!(
                matches!(
                    err,
                    DesError::InvalidReshardPolicy {
                        name: "imbalance_threshold",
                        ..
                    }
                ),
                "{bad}: {err}"
            );
        }
        let policy = ReshardPolicy {
            imbalance_threshold: 1.0,
            ..ReshardPolicy::default()
        };
        assert!(ReshardController::try_new(policy, greedy_solver()).is_ok());
    }

    #[test]
    fn balanced_window_does_not_fire() {
        let (model, plan, system) = setup();
        let mut c = ReshardController::new(ReshardPolicy::default(), greedy_solver());
        let outcome = c.check(&[100, 100], &model, &plan, &system);
        assert!(matches!(outcome, CheckOutcome::Balanced { .. }));
        assert_eq!(c.reshard_count(), 0);
    }

    #[test]
    fn imbalance_triggers_reshard_when_solver_moves_tables() {
        let (model, plan, system) = setup();
        // Different cost function ⇒ a different plan, so a fired check swaps.
        let solver: Box<PlanSolver> =
            Box::new(|m, p, s, _prev| GreedySharder::new(LookupCost).shard(m, p, s).ok());
        let mut c = ReshardController::new(ReshardPolicy::default(), solver);
        let outcome = c.check(&[1_000, 10], &model, &plan, &system);
        match outcome {
            CheckOutcome::Reshard {
                imbalance,
                plan: new_plan,
                ..
            } => {
                assert!(imbalance > 1.25);
                assert_ne!(new_plan.placements(), plan.placements());
                assert_eq!(c.reshard_count(), 1);
            }
            other => panic!("expected a reshard, got {other:?}"),
        }
    }

    #[test]
    fn identical_replacement_plan_is_ignored() {
        let (model, plan, system) = setup();
        // The same size-based solver reproduces the same plan on the
        // unchanged model, so even a huge imbalance cannot thrash.
        let mut c = ReshardController::new(ReshardPolicy::default(), greedy_solver());
        let outcome = c.check(&[1_000_000, 1], &model, &plan, &system);
        assert!(matches!(outcome, CheckOutcome::Balanced { .. }));
        assert_eq!(c.reshard_count(), 0);
    }

    #[test]
    fn window_is_differential() {
        let (model, plan, system) = setup();
        let mut c = ReshardController::new(ReshardPolicy::default(), greedy_solver());
        // First window hugely imbalanced — but solver returns the same plan,
        // so nothing installs; the baseline still advances.
        let _ = c.check(&[1_000, 10], &model, &plan, &system);
        // Second window adds equal increments: balanced even though the
        // cumulative totals remain skewed.
        let outcome = c.check(&[1_100, 110], &model, &plan, &system);
        match outcome {
            CheckOutcome::Balanced { imbalance } => assert!((imbalance - 1.0).abs() < 1e-9),
            other => panic!("expected balanced, got {other:?}"),
        }
    }

    #[test]
    fn topology_growth_rebaselines_instead_of_firing() {
        let (model, plan, system) = setup();
        // Solver that would happily install a different plan if asked.
        let solver: Box<PlanSolver> =
            Box::new(|m, p, s, _prev| GreedySharder::new(LookupCost).shard(m, p, s).ok());
        let mut c = ReshardController::new(ReshardPolicy::default(), solver);
        // Establish a baseline on a 2-GPU topology.
        let _ = c.check(&[500, 500], &model, &plan, &system);
        // The cluster grows to 4 GPUs mid-run. The cumulative counters of the
        // veterans are large, the newcomers' are zero — comparing against a
        // zeroed baseline would report a huge phantom imbalance. Re-baselining
        // must report a balanced (empty) first window instead.
        let outcome = c.check(&[600_000, 600_000, 0, 0], &model, &plan, &system);
        match outcome {
            CheckOutcome::Balanced { imbalance } => assert!((imbalance - 1.0).abs() < 1e-9),
            other => panic!("expected balanced after topology change, got {other:?}"),
        }
        assert_eq!(c.reshard_count(), 0, "no phantom reshard may fire");
        // The next window is differential against the new counters.
        let outcome = c.check(&[600_100, 600_100, 100, 100], &model, &plan, &system);
        match outcome {
            CheckOutcome::Balanced { imbalance } => assert!((imbalance - 1.0).abs() < 1e-9),
            other => panic!("expected balanced differential window, got {other:?}"),
        }
    }

    #[test]
    fn migration_cost_counts_moved_bytes() {
        let (model, plan, system) = setup();
        let profile = DatasetProfiler::profile_model(&model, 1_000, 1);
        let other = GreedySharder::new(LookupCost)
            .shard(&model, &profile, &system)
            .unwrap();
        let c = ReshardController::new(ReshardPolicy::default(), greedy_solver());
        let ns_self = c.migration_ns(&plan, &plan);
        assert_eq!(ns_self, 0, "migrating to the identical plan is free");
        if other.placements() != plan.placements() {
            assert!(c.migration_ns(&plan, &other) > 0);
        }
    }
}
