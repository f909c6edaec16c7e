//! Golden-fingerprint regression tests for the DES-backed experiment
//! binaries.
//!
//! Every `RunSummary` carries an order-sensitive FNV-1a hash over the entire
//! event log, so a seeded run is fingerprint-stable by construction. These
//! tests commit the fingerprints of fixed, scaled-down versions of the
//! `des_throughput` and `fig13_scaling` (DES backend) configurations and
//! assert bit-for-bit stability: any change to the event engine, the
//! workload sampler, the service-time model, the remap layer or the
//! strategy solvers that alters a single event — its time, order or payload
//! — fails here *loudly* instead of silently shifting published numbers.
//!
//! If a change is *intentional* (e.g. a new event type), re-derive the
//! constants by running the failing test and copying the `actual` values
//! from the assertion message.

use recshard::{HierarchicalSolver, RecShardConfig};
use recshard_bench::des_bench::{self, DesBenchConfig};
use recshard_bench::scenario_bench::{self, ScenarioBenchConfig};
use recshard_bench::solver_bench::{run_sweep, SolverBenchConfig};
use recshard_bench::{skewed_model, ExperimentConfig, Strategy};
use recshard_data::{ModelSpec, RmKind, ScenarioSpec, ShiftEvent, ShiftKind};
use recshard_des::{
    ArrivalProcess, ClusterConfig, ClusterSimulator, ContentionMode, ReshardController,
    ReshardPolicy, RunSummary,
};
use recshard_serve::{ArrivalModel, InferenceServer, PolicyKind, ServeConfig, ServeReport};
use recshard_sharding::{NodeTopology, ShardingPlan, SystemSpec};
use recshard_stats::{DatasetProfile, DatasetProfiler};

/// Committed fingerprints of the scaled-down `des_throughput` run, in
/// `Strategy::all()` order (SB, LB, SBL, RecShard).
const DES_THROUGHPUT_GOLDEN: [u64; 4] = [
    0x7687_f9c4_1968_5c4b,
    0x695b_6bc5_8bc2_deca,
    0xe817_6674_2fd0_97a0,
    0xb457_439e_6d16_b2fb,
];

/// Committed fingerprint of the shortened `train_contended` run (shared-rate
/// links, 4×4 hierarchical plan, overlapping Poisson arrivals, a drift storm
/// and a re-sharding controller).
const CONTENDED_DES_GOLDEN: u64 = 0x7b02_c829_a906_002d;

/// Committed fingerprint of the `fig13_scaling` DES backend (tiny config,
/// RM1, RecShard plan).
const FIG13_DES_GOLDEN: u64 = 0x30a1_6cc5_a413_0f6b;

/// Committed fingerprint of the tiny `solver_scaling` sweep: the FNV-1a hash
/// of the canonical `BENCH_solver.json` payload with timing fields blanked.
/// It covers the default solver's `structured_*` columns, which the
/// per-point bucketed-plan fingerprints below do not.
const SOLVER_SCALING_GOLDEN: u64 = 0x6ba7_d67b_4171_619c;

/// Committed fingerprints of the tiny `des_bench` and `scenario_bench`
/// sweeps: FNV-1a hashes of their canonical JSON with timing blanked.
const DES_BENCH_TINY_GOLDEN: u64 = 0x868c_34fc_c669_790e;
const SCENARIO_BENCH_TINY_GOLDEN: u64 = 0x0ff8_a2e4_99dc_52d4;

/// Committed per-point scalable-plan fingerprints of the tiny sweep
/// (placement-level regression lock, finer than the JSON hash).
const SOLVER_SCALING_PLAN_GOLDEN: [u64; 2] = [0x2fb9_1b57_659d_ddcb, 0x97c4_2462_237c_40fd];

/// Committed scalable-plan fingerprints of the tiny sweep's mixed-cluster
/// `hetero_scaling` points (2 big + 2 small GPUs).
const HETERO_SCALING_PLAN_GOLDEN: [u64; 2] = [0x3a85_a2fe_9293_a897, 0x1695_d4a3_9a86_b9e7];

/// Committed `InferenceServer::run` fingerprints of the scaled-down
/// `serve_mixed` configuration, StatGuided then LRU.
const SERVE_GOLDEN: [u64; 2] = [0x491e_4bcc_fb0e_99c3, 0x005e_a5c2_5887_06d1];

/// Committed FNV-1a hash over every `FeatureProfile` field of a 200-table
/// `skewed_model` profiled over 1,200 samples: ranked rows, CDF cumulative
/// counts, lookups, present samples and the bits of coverage and average
/// pooling. It pins the profiler itself, upstream of every plan and run.
const PROFILE_GOLDEN: u64 = 0x27ef_3835_86f3_d1dc;

/// The scaled-down `des_throughput` configuration: same skewed workload
/// shape, same capacity pressure (HBM holds ~1/3 of the model), fixed
/// arrival interval instead of the binary's calibration so the golden value
/// does not depend on floating-point calibration output formatting.
fn des_throughput_run(strategy: Strategy) -> RunSummary {
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
    ClusterSimulator::new(&model, &plan, &profile, &system, config).run()
}

#[test]
fn des_throughput_fingerprints_are_bit_for_bit_stable() {
    let summaries: Vec<_> = Strategy::all()
        .iter()
        .map(|&s| (s, des_throughput_run(s)))
        .collect();
    for ((strategy, summary), &golden) in summaries.iter().zip(&DES_THROUGHPUT_GOLDEN) {
        assert_eq!(summary.completed, 400);
        assert_eq!(
            summary.fingerprint,
            golden,
            "{}: fingerprint drifted (actual {:#018x}, golden {:#018x}); all actuals: {:?}",
            strategy.label(),
            summary.fingerprint,
            golden,
            summaries
                .iter()
                .map(|(s, r)| format!("{} {:#018x}", s.label(), r.fingerprint))
                .collect::<Vec<_>>()
        );
    }
}

#[test]
fn des_throughput_replay_reproduces_the_full_summary() {
    let a = des_throughput_run(Strategy::RecShard);
    let b = des_throughput_run(Strategy::RecShard);
    assert_eq!(a, b, "identical seeds must reproduce identical summaries");
}

/// A shortened `train_contended`: 48 skewed tables on a hierarchical
/// RecShard plan over 4 nodes of 4 GPUs, shared-rate links, batch 1 and
/// Poisson arrivals far faster than one iteration's sojourn, so iterations
/// overlap and their barriers open out of arrival order. A drift storm led
/// by a hot-key shift lands at 30% of the span and trips the controller.
fn contended_des_run() -> RunSummary {
    const ITERATIONS: u64 = 3_000;
    const INTERVAL_MS: f64 = 0.02;
    let topology = NodeTopology::new(4, 4);
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
    let span_s = ITERATIONS as f64 * INTERVAL_MS / 1e3;
    let mut storm = ScenarioSpec::drift_storm(0.3 * span_s, 0.1 * span_s, 3);
    storm.shifts.insert(
        0,
        ShiftEvent {
            at_s: 0.3 * span_s,
            shift: ShiftKind::HotKeyShift { fraction: 0.3 },
        },
    );
    let policy = ReshardPolicy {
        check_every_iterations: 300,
        imbalance_threshold: 3.2,
        profile_samples: 1_000,
        ..ReshardPolicy::default()
    };
    let config = ClusterConfig {
        batch_size: 1,
        iterations: ITERATIONS,
        seed: 1,
        arrival: ArrivalProcess::Poisson {
            mean_interval_ms: INTERVAL_MS,
        },
        kernel_overhead_us_per_table: 0.0,
        contention: ContentionMode::SharedRate,
        ..ClusterConfig::default()
    };
    ClusterSimulator::new(&model, &plan, &profile, &system, config)
        .with_scenario(storm)
        .with_controller(ReshardController::new(policy, Box::new(solve)))
        .run()
}

#[test]
fn contended_des_fingerprint_is_bit_for_bit_stable() {
    let summary = contended_des_run();
    assert_eq!(summary.completed, 3_000);
    assert!(
        summary.reshards >= 1,
        "the storm must trip the controller (got {} reshards)",
        summary.reshards
    );
    assert_eq!(
        summary.fingerprint, CONTENDED_DES_GOLDEN,
        "contended DES: fingerprint drifted (actual {:#018x}, golden {:#018x})",
        summary.fingerprint, CONTENDED_DES_GOLDEN
    );
}

#[test]
fn solver_scaling_fingerprint_is_bit_for_bit_stable() {
    let report = run_sweep(&SolverBenchConfig::tiny());
    assert_eq!(report.points.len(), SOLVER_SCALING_PLAN_GOLDEN.len());
    for (p, &golden) in report.points.iter().zip(&SOLVER_SCALING_PLAN_GOLDEN) {
        assert_eq!(
            p.scalable_plan_fingerprint,
            golden,
            "{} tables x {} GPUs: scalable plan drifted (actual {:#018x}, golden {:#018x}); \
             all actuals: {:?}",
            p.tables,
            p.gpus,
            p.scalable_plan_fingerprint,
            golden,
            report
                .points
                .iter()
                .map(|p| format!("{:#018x}", p.scalable_plan_fingerprint))
                .collect::<Vec<_>>()
        );
    }
    for (h, &golden) in report.hetero.iter().zip(&HETERO_SCALING_PLAN_GOLDEN) {
        assert!(
            h.scalable_vs_greedy < 1.0,
            "hetero point {} tables: class-aware must beat class-blind greedy (ratio {})",
            h.tables,
            h.scalable_vs_greedy
        );
        assert_eq!(
            h.scalable_plan_fingerprint,
            golden,
            "{} tables mixed cluster: hetero scalable plan drifted \
             (actual {:#018x}, golden {:#018x}); all actuals: {:?}",
            h.tables,
            h.scalable_plan_fingerprint,
            golden,
            report
                .hetero
                .iter()
                .map(|h| format!("{:#018x}", h.scalable_plan_fingerprint))
                .collect::<Vec<_>>()
        );
    }
    let actual = report.artifact().fingerprint();
    assert_eq!(
        actual, SOLVER_SCALING_GOLDEN,
        "solver_scaling JSON drifted (actual {actual:#018x}, golden {SOLVER_SCALING_GOLDEN:#018x})"
    );
}

#[test]
fn bench_tiny_fingerprints_are_bit_for_bit_stable() {
    let actual = [
        des_bench::run_sweep(&DesBenchConfig::tiny())
            .artifact()
            .fingerprint(),
        scenario_bench::run_sweep(&ScenarioBenchConfig::tiny())
            .artifact()
            .fingerprint(),
    ];
    assert_eq!(
        actual,
        [DES_BENCH_TINY_GOLDEN, SCENARIO_BENCH_TINY_GOLDEN],
        "des_bench / scenario_bench JSON drifted (actual {actual:#018x?})"
    );
}

#[test]
fn solver_scaling_json_is_byte_identical_across_runs() {
    let cfg = SolverBenchConfig::tiny();
    let a = run_sweep(&cfg);
    let b = run_sweep(&cfg);
    assert_eq!(
        a.artifact().to_json(),
        b.artifact().to_json(),
        "identical seeds must emit byte-identical BENCH_solver.json payloads"
    );
}

#[test]
fn fig13_des_backend_fingerprint_is_bit_for_bit_stable() {
    // Exactly the fig13_scaling DES-backend path at the tiny test scale:
    // analytical arrival calibration at 3x headroom, 50 iterations.
    let cfg = ExperimentConfig::tiny();
    let setup = cfg.setup(RmKind::Rm1);
    let plan = setup.plan(Strategy::RecShard);
    let interval = setup.arrival_interval_ms(&plan, 3.0);
    let summary = setup.des_summary(
        &plan,
        cfg.des_config(
            50,
            ArrivalProcess::FixedRate {
                interval_ms: interval,
            },
        ),
    );
    assert_eq!(summary.completed, 50);
    assert_eq!(
        summary.fingerprint, FIG13_DES_GOLDEN,
        "fig13 DES backend: fingerprint drifted (actual {:#018x}, golden {:#018x})",
        summary.fingerprint, FIG13_DES_GOLDEN
    );
}

/// A scaled-down `serve_mixed`: 24 skewed tables on a RecShard placement
/// over 2 shards, caches at 1/100 of a shard's fair share, batch 8, fixed
/// 125 µs arrivals.
fn serve_run(policy: PolicyKind) -> ServeReport {
    let model = skewed_model(24);
    let profile = DatasetProfiler::profile_model(&model, 3_000, 0x5E21);
    let system = SystemSpec::uniform(
        2,
        model.total_bytes() / 200,
        model.total_bytes(),
        1555.0,
        16.0,
    );
    let plan = Strategy::RecShard.plan(&model, &profile, &system);
    let config = ServeConfig {
        queries: 600,
        warmup: 150,
        batch_size: 8,
        seed: 0x5E21,
        arrival: ArrivalModel::FixedRate { interval_us: 125.0 },
        policy,
        ..ServeConfig::default()
    };
    InferenceServer::run(&model, &plan, &profile, &system, config)
}

#[test]
fn serve_fingerprints_are_bit_for_bit_stable() {
    let reports = [
        serve_run(PolicyKind::StatGuided),
        serve_run(PolicyKind::Lru),
    ];
    let actual = reports.each_ref().map(|r| r.fingerprint);
    for r in &reports {
        assert_eq!(r.queries, 600);
        assert!(r.hits > 0 && r.misses > 0, "{}: degenerate run", r.policy);
    }
    assert_eq!(
        actual, SERVE_GOLDEN,
        "serve fingerprints drifted (actual {actual:#018x?}, StatGuided then LRU)"
    );
}

/// Order-sensitive FNV-1a hash over every field of every feature profile.
fn profile_fingerprint(profile: &DatasetProfile) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    let mut fold = |word: u64| {
        hash ^= word;
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    };
    fold(profile.samples_profiled());
    for p in profile.profiles() {
        fold(u64::from(p.id.0));
        fold(p.hash_size);
        fold(u64::from(p.embedding_dim));
        fold(u64::from(p.bytes_per_element));
        fold(p.samples_seen);
        fold(p.present_samples);
        fold(p.total_lookups);
        fold(p.avg_pooling.to_bits());
        fold(p.coverage.to_bits());
        fold(p.cdf.total_accesses());
        fold(p.cdf.cumulative_counts().len() as u64);
        p.cdf.cumulative_counts().iter().for_each(|&c| fold(c));
        fold(p.ranked_rows.len() as u64);
        p.ranked_rows.iter().for_each(|&r| fold(r));
    }
    hash
}

#[test]
fn profile_fingerprint_is_bit_for_bit_stable() {
    let model = skewed_model(200);
    let profile = DatasetProfiler::profile_model(&model, 1_200, 0x9F11);
    assert_eq!(profile.num_features(), 200);
    let actual = profile_fingerprint(&profile);
    assert_eq!(
        actual, PROFILE_GOLDEN,
        "dataset profile drifted (actual {actual:#018x}, golden {PROFILE_GOLDEN:#018x})"
    );
}
