//! Integration tests of the discrete-event cluster simulator against the
//! full pipeline: RecShard's placement must beat the size-based baseline on
//! tail latency for a skewed Zipf workload under identical event streams.

use recshard::{RecShard, RecShardConfig};
use recshard_bench::{skewed_model, Strategy};
use recshard_data::ScenarioSpec;
use recshard_des::{ArrivalProcess, ClusterConfig, ClusterSimulator, ReshardPolicy};
use recshard_sharding::SystemSpec;
use recshard_stats::DatasetProfiler;

/// Skewed workload, tight HBM, identical arrival streams: RecShard's hot-row
/// placement must win on p99 sojourn time against the size-based baseline.
#[test]
fn recshard_beats_size_based_on_p99_for_skewed_workload() {
    let model = skewed_model(24);
    let system = SystemSpec::uniform(
        4,
        model.total_bytes() / 12, // cluster HBM holds ~1/3 of the model
        model.total_bytes(),
        1555.0,
        16.0,
    );
    let profile = DatasetProfiler::profile_model(&model, 3_000, 11);

    // Calibrate arrivals so the RecShard plan has ~10% headroom.
    let base = ClusterConfig {
        batch_size: 32,
        iterations: 1_500,
        seed: 0x11,
        scale_to_batch: Some(model.batch_size()),
        arrival: ArrivalProcess::FixedRate { interval_ms: 1e9 },
        ..ClusterConfig::default()
    };
    let recshard_plan = Strategy::RecShard.plan(&model, &profile, &system);
    let calib = ClusterSimulator::new(
        &model,
        &recshard_plan,
        &profile,
        &system,
        ClusterConfig {
            iterations: 100,
            ..base
        },
    )
    .run();
    let config = ClusterConfig {
        arrival: ArrivalProcess::FixedRate {
            interval_ms: calib.p50_ms * 1.1,
        },
        ..base
    };

    let recshard = ClusterSimulator::new(&model, &recshard_plan, &profile, &system, config).run();
    let size_plan = Strategy::SizeBased.plan(&model, &profile, &system);
    let size_based = ClusterSimulator::new(&model, &size_plan, &profile, &system, config).run();

    assert_eq!(recshard.completed, 1_500);
    assert_eq!(size_based.completed, 1_500);
    assert!(
        recshard.p99_ms < size_based.p99_ms,
        "RecShard p99 {} ms must beat size-based p99 {} ms on a skewed workload",
        recshard.p99_ms,
        size_based.p99_ms
    );
    assert!(
        recshard.throughput_iters_per_s >= size_based.throughput_iters_per_s,
        "RecShard must sustain at least the baseline's throughput"
    );
}

/// Re-sharding mid-run keeps the simulation consistent: a drift storm
/// trips the controller, every iteration completes and the summary stays
/// deterministic.
#[test]
fn online_resharding_is_deterministic() {
    let model = skewed_model(12);
    let system = SystemSpec::uniform(
        2,
        model.total_bytes() / 6,
        model.total_bytes(),
        1555.0,
        16.0,
    );
    let profile = DatasetProfiler::profile_model(&model, 1_500, 5);
    // No launch overhead: busy time is pure gather time, so the
    // controller's imbalance signal follows the drifting lookup volumes.
    let config = ClusterConfig {
        iterations: 400,
        batch_size: 32,
        kernel_overhead_us_per_table: 0.0,
        ..ClusterConfig::default()
    };
    let policy = ReshardPolicy {
        check_every_iterations: 100,
        imbalance_threshold: 1.05,
        ..ReshardPolicy::default()
    };
    let sharder = RecShard::new(RecShardConfig::default());
    let plan = sharder.plan(&model, &profile, &system).unwrap();
    // One arrival per ms: pooling waves at 50, 100 and 150 ms and table
    // growth at 200 ms, all inside the 400 ms run.
    let run = || {
        ClusterSimulator::new(&model, &plan, &profile, &system, config)
            .with_scenario(ScenarioSpec::drift_storm(0.05, 0.05, 3))
            .with_controller(sharder.reshard_controller(policy))
            .run()
    };
    let a = run();
    assert_eq!(a, run(), "a re-sharding replay must be bit-identical");
    assert_eq!(a.completed, 400);
    assert!(
        a.reshards >= 1,
        "the drift storm must trip the controller (got {} reshards)",
        a.reshards
    );
}
