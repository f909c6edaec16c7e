//! Walkthrough of the discrete-event cluster simulator: static planning,
//! dynamic replay, tail latency under load, and online re-sharding under
//! feature drift.
//!
//! Run with `cargo run --release --example cluster_simulation`. It panics
//! (exits non-zero) if the drift-storm run leaves an iteration incomplete
//! or never re-shards.

#![allow(clippy::print_stdout)]
use recshard::{RecShard, RecShardConfig};
use recshard_bench::Strategy;
use recshard_data::{ModelSpec, ScenarioSpec};
use recshard_des::{ArrivalProcess, ClusterConfig, ClusterSimulator, ReshardPolicy};
use recshard_sharding::SystemSpec;
use recshard_stats::DatasetProfiler;

fn main() {
    // ── 1. Static pipeline: profile a model, solve a placement. ────────────
    let model = ModelSpec::rm1().scaled(16_384).truncated(48);
    // A tight system: only ~40% of the embedding bytes fit in HBM.
    let system = SystemSpec::uniform(
        4,
        model.total_bytes() / 10,
        model.total_bytes(),
        1555.0,
        16.0,
    );
    let profile = DatasetProfiler::profile_model(&model, 3_000, 7);
    let sharder = RecShard::new(RecShardConfig::default());

    println!(
        "model: {} tables, {:.1} MB of embeddings, 4 GPUs, HBM fits ~40%",
        model.num_features(),
        model.total_bytes() as f64 / 1e6
    );

    // ── 2. Replay the plan through the cluster simulator, lightly loaded. ──
    let config = ClusterConfig {
        batch_size: 64,
        iterations: 2_000,
        seed: 42,
        arrival: ArrivalProcess::Poisson {
            mean_interval_ms: 1.0,
        },
        ..ClusterConfig::default()
    };
    let plan = sharder
        .plan(&model, &profile, &system)
        .expect("recshard plan");
    let summary = ClusterSimulator::new(&model, &plan, &profile, &system, config).run();
    println!("\nunloaded RecShard cluster:\n  {summary}");
    println!(
        "  per-GPU busy: {}",
        summary
            .busy_fraction
            .iter()
            .map(|f| format!("{:.0}%", f * 100.0))
            .collect::<Vec<_>>()
            .join(" ")
    );

    // ── 3. Load it up: arrivals faster than the baseline can serve. ────────
    // The same arrival stream hits RecShard's plan and the size-based
    // baseline; the one whose slowest GPU falls behind builds a queue.
    let loaded = ClusterConfig {
        arrival: ArrivalProcess::FixedRate {
            interval_ms: summary.p50_ms * 1.1,
        },
        ..config
    };
    for strategy in [Strategy::RecShard, Strategy::SizeBased] {
        let plan = strategy.plan(&model, &profile, &system);
        let s = ClusterSimulator::new(&model, &plan, &profile, &system, loaded).run();
        println!(
            "\n{} under load: p50/p95/p99 = {:.3}/{:.3}/{:.3} ms, {:.0} iters/s, max queue wait {:.2} ms",
            strategy.label(),
            s.p50_ms,
            s.p95_ms,
            s.p99_ms,
            s.throughput_iters_per_s,
            s.queue_wait.max
        );
    }

    // ── 4. A drift storm with an online controller. ────────────────────────
    // Three waves of pooling drift (Figure 9: user features grow, content
    // features shrink) from 0.2 s, 0.3 s apart, then table growth, all
    // within the ~2 s run. The controller watches per-GPU busy-time
    // imbalance every 250 iterations and re-solves when it trips.
    let storm = ScenarioSpec::drift_storm(0.2, 0.3, 3);
    let policy = ReshardPolicy {
        check_every_iterations: 250,
        imbalance_threshold: 1.15,
        ..ReshardPolicy::default()
    };
    let drifted = ClusterSimulator::new(&model, &plan, &profile, &system, config)
        .with_scenario(storm)
        .with_controller(sharder.reshard_controller(policy))
        .run();
    println!(
        "\nwith a drift storm + online re-sharding:\n  {drifted}\n  (the controller re-solved {} time(s) as the workload drifted)",
        drifted.reshards
    );
    assert_eq!(
        drifted.completed, config.iterations,
        "the drift-storm run must complete every iteration"
    );
    assert!(
        drifted.reshards >= 1,
        "the drift storm must trip the re-sharding controller"
    );
}
