//! Fixtures shared by the integration tests.

use recshard::{HierarchicalSolver, RecShardConfig};
use recshard_bench::{skewed_model, Strategy};
use recshard_data::{ModelSpec, ScenarioSpec, ShiftEvent, ShiftKind};
use recshard_des::{
    ArrivalProcess, ClusterConfig, ClusterSimulator, ContentionMode, ReshardController,
    ReshardPolicy,
};
use recshard_sharding::{NodeTopology, ShardingPlan, SystemSpec};
use recshard_stats::{DatasetProfile, DatasetProfiler};

/// Committed fingerprints of [`skewed_des_simulator`]'s runs, in
/// `Strategy::all()` order (SB, LB, SBL, RecShard).
pub const SKEWED_DES_GOLDEN: [u64; 4] = [
    0xf292_4dba_a975_c232,
    0x4c2f_8cba_2b25_1d55,
    0x04dc_a2b2_47d4_d6cc,
    0x311f_1dea_5d96_d7c5,
];

/// The skewed 4-GPU DES configuration: 24 `skewed_model` tables under
/// capacity pressure (HBM holds ~1/3 of the model), a 32-sample traced
/// batch reported at the model's batch, and a fixed 2 ms arrival interval.
pub fn skewed_des_simulator<'obs>(strategy: Strategy) -> ClusterSimulator<'obs> {
    let model = skewed_model(24);
    let system = SystemSpec::uniform(
        4,
        model.total_bytes() / 12,
        model.total_bytes(),
        1555.0,
        16.0,
    );
    let profile = DatasetProfiler::profile_model(&model, 3_000, 0xA5F0);
    let plan = strategy.plan(&model, &profile, &system);
    let config = ClusterConfig {
        batch_size: 32,
        iterations: 400,
        seed: 0xA5F0,
        arrival: ArrivalProcess::FixedRate { interval_ms: 2.0 },
        kernel_overhead_us_per_table: 8.0,
        scale_to_batch: Some(model.batch_size()),
        ..ClusterConfig::default()
    };
    ClusterSimulator::new(&model, &plan, &profile, &system, config)
}

/// The `contended_des_simulator` arguments of the shortened
/// `train_contended`: 4 nodes, no launch overhead, the storm with the
/// benchmark's controller threshold of 3.2, 3,000 iterations.
pub const CONTENDED_DES: (usize, f64, Option<f64>, u64) = (4, 0.0, Some(3.2), 3_000);

/// A shortened `train_contended` family: 48 skewed tables on a
/// hierarchical RecShard plan over `nodes` nodes of `16 / nodes` GPUs,
/// shared-rate links, batch 1, `overhead_us` of launch overhead per table
/// kernel, and Poisson arrivals far faster than one iteration's sojourn,
/// so iterations overlap and their barriers open out of arrival order.
/// Given an imbalance threshold, a drift storm led by a hot-key shift
/// lands at 30% of the span and a re-sharding controller with that
/// threshold watches the run.
pub fn contended_des_simulator<'obs>(
    nodes: usize,
    overhead_us: f64,
    threshold: Option<f64>,
    iterations: u64,
) -> ClusterSimulator<'obs> {
    const INTERVAL_MS: f64 = 0.02;
    let topology = NodeTopology::new(nodes, 16 / nodes);
    let model = skewed_model(48);
    let profile = DatasetProfiler::profile_model(&model, 3_000, 0xA5F0);
    let system = SystemSpec::uniform(
        16,
        model.total_bytes() / 48,
        model.total_bytes(),
        1555.0,
        16.0,
    );
    let solve = move |model: &ModelSpec,
                      profile: &DatasetProfile,
                      system: &SystemSpec,
                      _current: Option<&ShardingPlan>| {
        HierarchicalSolver::new(RecShardConfig::default(), topology)
            .solve(model, profile, system)
            .ok()
    };
    let plan = solve(&model, &profile, &system, None).expect("initial hierarchical solve");
    let config = ClusterConfig {
        batch_size: 1,
        iterations,
        seed: 1,
        arrival: ArrivalProcess::Poisson {
            mean_interval_ms: INTERVAL_MS,
        },
        kernel_overhead_us_per_table: overhead_us,
        contention: ContentionMode::SharedRate,
        ..ClusterConfig::default()
    };
    let sim = ClusterSimulator::new(&model, &plan, &profile, &system, config);
    let Some(threshold) = threshold else {
        return sim;
    };
    let span_s = iterations as f64 * INTERVAL_MS / 1e3;
    let mut scenario = ScenarioSpec::drift_storm(0.3 * span_s, 0.1 * span_s, 3);
    scenario.shifts.insert(
        0,
        ShiftEvent {
            at_s: 0.3 * span_s,
            shift: ShiftKind::HotKeyShift { fraction: 0.3 },
        },
    );
    let policy = ReshardPolicy {
        check_every_iterations: 300,
        imbalance_threshold: threshold,
        profile_samples: 1_000,
        ..ReshardPolicy::default()
    };
    sim.with_scenario(scenario)
        .with_controller(ReshardController::new(policy, Box::new(solve)))
}
