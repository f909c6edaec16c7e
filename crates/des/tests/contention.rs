//! Integration tests of [`ContentionMode::SharedRate`]: the shared-rate
//! link fabric, the incast acceptance scenario, typed construction errors,
//! and the determinism/observation contracts in contention mode.

use recshard_data::{ModelSpec, ScenarioSpec};
use recshard_des::{
    ArrivalProcess, ClusterConfig, ClusterSimulator, ContentionMode, DesError, ReshardController,
    ReshardPolicy,
};
use recshard_sharding::{
    FabricSpec, GreedySharder, LookupCost, NodeTopology, ShardingPlan, SizeCost, SystemSpec,
    TablePlacement,
};
use recshard_stats::{DatasetProfile, DatasetProfiler};

fn setup(gpus: usize) -> (ModelSpec, DatasetProfile, SystemSpec, ShardingPlan) {
    let model = ModelSpec::small(8, 5);
    let profile = DatasetProfiler::profile_model(&model, 1_000, 2);
    let system = SystemSpec::uniform(gpus, u64::MAX / 8, u64::MAX / 8, 1555.0, 16.0);
    let plan = GreedySharder::new(SizeCost)
        .shard(&model, &profile, &system)
        .unwrap();
    (model, profile, system, plan)
}

fn config(iterations: u64) -> ClusterConfig {
    ClusterConfig {
        iterations,
        batch_size: 32,
        ..ClusterConfig::default()
    }
}

/// A plan concentrating every table on the GPUs of nodes `1..`, so the
/// exchange becomes an incast: all sender nodes converge on each receiver's
/// fabric port at once, and node 0 contributes nothing of its own.
fn incast_plan(model: &ModelSpec, topology: NodeTopology) -> ShardingPlan {
    let gpus = topology.num_gpus();
    let p = topology.gpus_per_node;
    let senders = gpus - p;
    let placements: Vec<TablePlacement> = model
        .features()
        .iter()
        .map(|f| TablePlacement {
            table: f.id,
            gpu: p + f.id.index() % senders,
            hbm_rows: f.hash_size,
            total_rows: f.hash_size,
            row_bytes: f.row_bytes(),
        })
        .collect();
    ShardingPlan::new("incast", gpus, placements).with_topology(topology)
}

#[test]
fn shared_rate_run_completes_with_ordered_percentiles() {
    let (model, profile, system, plan) = setup(4);
    let cfg = ClusterConfig {
        contention: ContentionMode::SharedRate,
        ..config(200)
    };
    let s = ClusterSimulator::new(&model, &plan, &profile, &system, cfg).run();
    assert_eq!(s.completed, 200);
    assert!(s.p50_ms > 0.0);
    assert!(s.p50_ms <= s.p95_ms && s.p95_ms <= s.p99_ms);
    assert!(s.throughput_iters_per_s > 0.0);
}

#[test]
fn shared_rate_replays_bit_identically_per_seed() {
    let (model, profile, system, plan) = setup(4);
    let two_level = plan.with_topology(NodeTopology::new(2, 2));
    let cfg = ClusterConfig {
        contention: ContentionMode::SharedRate,
        arrival: ArrivalProcess::Poisson {
            mean_interval_ms: 0.5,
        },
        ..config(300)
    };
    let run = || ClusterSimulator::new(&model, &two_level, &profile, &system, cfg).run();
    let a = run();
    let b = run();
    assert_eq!(a, b, "identical seeds must replay identical summaries");
    let c = ClusterSimulator::new(
        &model,
        &two_level,
        &profile,
        &system,
        ClusterConfig { seed: 99, ..cfg },
    )
    .run();
    assert_ne!(a.fingerprint, c.fingerprint);
}

/// The acceptance scenario of the shared-rate rework: many remote senders
/// converging on each receiving node's fabric port must inflate the DES
/// sojourn tail beyond what the old split-bandwidth FIFO model reports,
/// because that model divided the remote bytes by the full per-GPU fabric
/// bandwidth and summed the phases into one uncontended scalar.
#[test]
fn seeded_incast_inflates_shared_rate_p99_beyond_fifo() {
    let (model, profile, _, _) = setup(2);
    let system = SystemSpec::uniform(8, u64::MAX / 32, u64::MAX / 32, 1555.0, 16.0);
    let plan = incast_plan(&model, NodeTopology::new(4, 2));
    let cfg = ClusterConfig {
        arrival: ArrivalProcess::FixedRate { interval_ms: 2.0 },
        ..config(200)
    };
    let fifo = ClusterSimulator::new(&model, &plan, &profile, &system, cfg).run();
    let shared = ClusterSimulator::new(
        &model,
        &plan,
        &profile,
        &system,
        ClusterConfig {
            contention: ContentionMode::SharedRate,
            ..cfg
        },
    )
    .run();
    assert!(
        shared.p99_ms > fifo.p99_ms,
        "incast must inflate the shared-rate tail ({} vs {})",
        shared.p99_ms,
        fifo.p99_ms
    );
    // Same iterations drain either way; only the timing model changed.
    assert_eq!(shared.completed, fifo.completed);
}

/// Turning the contention field on and off must not perturb the FIFO model:
/// the `Fifo` arm is the byte-identical historical code path.
#[test]
fn fifo_goldens_survive_the_contention_field() {
    let (model, profile, system, plan) = setup(4);
    let explicit = ClusterSimulator::new(
        &model,
        &plan,
        &profile,
        &system,
        ClusterConfig {
            contention: ContentionMode::Fifo,
            ..config(150)
        },
    )
    .run();
    let default = ClusterSimulator::new(&model, &plan, &profile, &system, config(150)).run();
    assert_eq!(explicit, default);
}

#[test]
fn observation_does_not_perturb_shared_rate_runs() {
    let (model, profile, system, plan) = setup(4);
    let two_level = plan.with_topology(NodeTopology::new(2, 2));
    let cfg = ClusterConfig {
        contention: ContentionMode::SharedRate,
        ..config(80)
    };
    let plain = ClusterSimulator::new(&model, &two_level, &profile, &system, cfg).run();
    let mut collector = recshard_obs::Collector::new();
    let traced = ClusterSimulator::new(&model, &two_level, &profile, &system, cfg)
        .with_obs(&mut collector)
        .run();
    assert_eq!(plain, traced, "observation must not perturb the run");
    let bundle = collector.finish();
    let names: Vec<&str> = bundle
        .metrics
        .entries
        .iter()
        .map(|(n, _)| n.as_str())
        .collect();
    assert!(names.contains(&"des.link.transfers"));
    assert!(names.contains(&"des.link.duration_ms"));
    assert!(names.contains(&"des.link.stretch"));
    assert!(names.contains(&"des.link.tenancy"));
    let transfers = bundle
        .metrics
        .entries
        .iter()
        .find(|(n, _)| n == "des.link.transfers")
        .map(|(_, v)| v.clone());
    // Per iteration: 4 HBM + 4 NVLink + 2 fabric flows. Every table fits
    // in HBM, so the 4 UVM shares carry no work and record nothing.
    assert_eq!(
        transfers,
        Some(recshard_obs::MetricValue::Counter(80 * (4 + 4 + 2)))
    );
    assert!(bundle
        .trace
        .records()
        .iter()
        .any(|r| r.event.name() == "link_transfer"));
}

#[test]
fn shared_rate_handles_online_resharding() {
    let (model, profile, system, plan) = setup(4);
    let cfg = ClusterConfig {
        contention: ContentionMode::SharedRate,
        arrival: ArrivalProcess::FixedRate { interval_ms: 1.0 },
        ..config(400)
    };
    let policy = ReshardPolicy {
        check_every_iterations: 100,
        imbalance_threshold: 1.01,
        ..ReshardPolicy::default()
    };
    // The size-balanced plan ignores lookup volume; the controller
    // re-solves for it once the storm has shifted the pooling factors.
    let run = || {
        let solver: Box<recshard_des::PlanSolver> = Box::new(|model, profile, system, _| {
            GreedySharder::new(LookupCost)
                .shard(model, profile, system)
                .ok()
        });
        // Pooling waves at 50, 100 and 150 ms, table growth at 200 ms, all
        // inside the 400 ms run.
        ClusterSimulator::new(&model, &plan, &profile, &system, cfg)
            .with_scenario(ScenarioSpec::drift_storm(0.05, 0.05, 3))
            .with_controller(ReshardController::new(policy, solver))
            .run()
    };
    let summary = run();
    assert_eq!(summary.completed, 400);
    assert!(
        summary.reshards >= 1,
        "the drift storm must trip the controller (got {} reshards)",
        summary.reshards
    );
    assert_eq!(summary, run(), "a re-sharding replay must be bit-identical");
}

#[test]
fn try_new_reports_typed_configuration_errors() {
    let (model, profile, system, plan) = setup(2);
    let bad_bandwidth = ClusterConfig {
        alltoall_bandwidth_gbps: 0.0,
        ..config(10)
    };
    match ClusterSimulator::try_new(&model, &plan, &profile, &system, bad_bandwidth) {
        Err(DesError::NonPositiveBandwidth { name, value }) => {
            assert_eq!(name, "alltoall_bandwidth_gbps");
            assert_eq!(value, 0.0);
        }
        other => panic!("expected NonPositiveBandwidth, got {other:?}"),
    }

    // The constructors reject bad bandwidths, but the fields are public and
    // `map_classes` rewrites them unchecked, so a poisoned spec can still
    // reach `try_new`.
    let bad_system = system.map_classes(|mut c| {
        c.hbm_bandwidth_gbps = -3.0;
        c
    });
    match ClusterSimulator::try_new(&model, &plan, &profile, &bad_system, config(10)) {
        Err(DesError::NonPositiveBandwidth { name, .. }) => {
            assert_eq!(name, "hbm_bandwidth_gbps");
        }
        other => panic!("expected NonPositiveBandwidth, got {other:?}"),
    }

    let mismatched = SystemSpec::uniform(4, u64::MAX / 8, u64::MAX / 8, 1555.0, 16.0);
    match ClusterSimulator::try_new(&model, &plan, &profile, &mismatched, config(10)) {
        Err(DesError::GpuCountMismatch { plan: p, system: s }) => {
            assert_eq!((p, s), (2, 4));
        }
        other => panic!("expected GpuCountMismatch, got {other:?}"),
    }

    let bad_arrival = ClusterConfig {
        arrival: ArrivalProcess::FixedRate { interval_ms: -1.0 },
        ..config(10)
    };
    match ClusterSimulator::try_new(&model, &plan, &profile, &system, bad_arrival) {
        Err(DesError::InvalidArrival { name, value }) => {
            assert_eq!(name, "interval_ms");
            assert_eq!(value, -1.0);
        }
        other => panic!("expected InvalidArrival, got {other:?}"),
    }

    match ClusterSimulator::try_new(&model, &plan, &profile, &system, config(0)) {
        Err(DesError::EmptyRun { .. }) => {}
        other => panic!("expected EmptyRun, got {other:?}"),
    }
}

#[test]
fn fabric_spec_prices_both_contention_modes() {
    let (model, profile, system, plan) = setup(4);
    let fabric = FabricSpec::hgx();
    let cfg = config(60).with_fabric(fabric);
    // hgx() carries the same figures as the config defaults, so adopting it
    // must be a no-op on the FIFO fingerprint.
    let adopted = ClusterSimulator::new(&model, &plan, &profile, &system, cfg).run();
    let default = ClusterSimulator::new(&model, &plan, &profile, &system, config(60)).run();
    assert_eq!(adopted.fingerprint, default.fingerprint);
    // And the shared-rate fabric accepts the same spec.
    let shared = ClusterSimulator::new(
        &model,
        &plan,
        &profile,
        &system,
        ClusterConfig {
            contention: ContentionMode::SharedRate,
            ..cfg
        },
    )
    .run();
    assert_eq!(shared.completed, 60);
}
