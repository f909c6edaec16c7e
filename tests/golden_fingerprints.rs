//! Golden-fingerprint regression tests for the DES-backed experiment
//! binaries.
//!
//! Every `RunSummary` carries an order-sensitive FNV-1a hash over the entire
//! event log, so a seeded run is fingerprint-stable by construction. These
//! tests commit the fingerprints of fixed, scaled-down DES configurations
//! (the skewed 4-GPU workload, `train_contended`, `fig13_scaling`'s DES
//! backend) and assert bit-for-bit stability: any change to the event
//! engine, the workload sampler, the service-time model, the remap layer or
//! the strategy solvers that alters a single event — its time, order or
//! payload — fails here *loudly* instead of silently shifting published
//! numbers.
//!
//! `CONTENDED_TIMING_GOLDEN` pins a shared-rate sweep differently: it
//! hashes every `RunSummary` field except `events` and `fingerprint`, so
//! it holds the run's virtual times fixed while a change to how the engine
//! sequences one instant re-baselines the event-log fingerprints.
//!
//! If a change is *intentional* (e.g. a new event type), re-derive the
//! constants by running the failing test and copying the `actual` values
//! from the assertion message.

use recshard::{RecShard, RecShardConfig, SolverKind};
use recshard_bench::des_bench::{self, DesBenchConfig};
use recshard_bench::scenario_bench::{self, ScenarioBenchConfig};
use recshard_bench::solver_bench::{bench_system, run_sweep, SolverBenchConfig};
use recshard_bench::{skewed_model, ExperimentConfig, Strategy};
use recshard_data::{fnv1a, ModelSpec, RmKind, FNV_OFFSET};
use recshard_des::{ArrivalProcess, RunSummary};
use recshard_serve::{ArrivalModel, InferenceServer, PolicyKind, ServeConfig, ServeReport};
use recshard_sharding::{ClusterSpec, DeviceClass, ShardingPlan, SystemSpec, TablePlacement};
use recshard_stats::{DatasetProfile, DatasetProfiler};

mod common;
use common::{contended_des_simulator, skewed_des_simulator, CONTENDED_DES, SKEWED_DES_GOLDEN};

/// Committed fingerprint of the shortened `train_contended` run (shared-rate
/// links, 4×4 hierarchical plan, overlapping Poisson arrivals, a drift storm
/// and a re-sharding controller).
const CONTENDED_DES_GOLDEN: u64 = 0xbe24_a651_ce90_8de9;

/// Committed fingerprint of the `fig13_scaling` DES backend (tiny config,
/// RM1, RecShard plan).
const FIG13_DES_GOLDEN: u64 = 0xd92d_83d9_727e_7cd7;

/// Committed fingerprint of the tiny `solver_scaling` sweep: the FNV-1a hash
/// of the canonical `BENCH_solver.json` payload with timing fields blanked.
/// It covers the default solver's `structured_*` columns, which the
/// per-point bucketed-plan fingerprints below do not.
const SOLVER_SCALING_GOLDEN: u64 = 0x6ba7_d67b_4171_619c;

/// Committed fingerprints of the tiny `des_bench` and `scenario_bench`
/// sweeps: FNV-1a hashes of their canonical JSON with timing blanked.
const DES_BENCH_TINY_GOLDEN: u64 = 0x0f51_5072_1882_631d;
const SCENARIO_BENCH_TINY_GOLDEN: u64 = 0xf62e_7780_2a0a_62a8;

/// Committed per-point scalable-plan fingerprints of the tiny sweep
/// (placement-level regression lock, finer than the JSON hash).
const SOLVER_SCALING_PLAN_GOLDEN: [u64; 2] = [0x2fb9_1b57_659d_ddcb, 0x97c4_2462_237c_40fd];

/// Committed scalable-plan fingerprints of the tiny sweep's mixed-cluster
/// `hetero_scaling` points (2 big + 2 small GPUs).
const HETERO_SCALING_PLAN_GOLDEN: [u64; 2] = [0x3a85_a2fe_9293_a897, 0x1695_d4a3_9a86_b9e7];

/// Committed `InferenceServer::run` fingerprints of the scaled-down
/// `serve_mixed` configuration, StatGuided then LRU.
const SERVE_GOLDEN: [u64; 2] = [0x83df_a45b_09ee_1245, 0x190a_e422_6f22_58c8];

/// Committed FNV-1a hash over every `FeatureProfile` field of a 200-table
/// `skewed_model` profiled over 1,200 samples: ranked rows, CDF cumulative
/// counts, lookups, present samples and the bits of coverage and average
/// pooling. It pins the profiler itself, upstream of every plan and run.
const PROFILE_GOLDEN: u64 = 0x27ef_3835_86f3_d1dc;

/// Committed plan fingerprints of the default unbucketed `RecShard::plan`
/// on a 300-table `skewed_model`, in `unbucketed_plan_systems` order: ample
/// HBM, HBM cut 50x, a pressured two-class cluster, and a pressured
/// cluster whose two classes share their bandwidths.
const UNBUCKETED_PLAN_GOLDEN: [u64; 4] = [
    0xd621_9ff2_723e_189a,
    0x07f0_4b87_8a38_d539,
    0x9a7e_81a0_c2f0_92ba,
    0xa5bc_f354_0006_e193,
];

/// Committed plan fingerprints of the bucketed `RecShard::plan_seeded` on
/// the same 300-table `skewed_model`, on the ample and HBM / 50 systems of
/// `unbucketed_plan_systems`. Each is seeded from that system's cold plan
/// with every 18th table moved one GPU over.
const WARM_PLAN_GOLDEN: [u64; 2] = [0x5301_867c_d1a1_f2c7, 0x8fc7_0eaa_7db2_b9c7];

#[test]
fn skewed_des_fingerprints_are_bit_for_bit_stable() {
    let summaries: Vec<_> = Strategy::all()
        .iter()
        .map(|&s| (s, skewed_des_simulator(s).run()))
        .collect();
    for ((strategy, summary), &golden) in summaries.iter().zip(&SKEWED_DES_GOLDEN) {
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

/// Two plain replays of the skewed configuration must agree in every
/// field, not only in the fingerprint.
#[test]
fn des_throughput_replay_reproduces_the_full_summary() {
    let a = skewed_des_simulator(Strategy::RecShard).run();
    let b = skewed_des_simulator(Strategy::RecShard).run();
    assert_eq!(a, b, "identical seeds must reproduce identical summaries");
    assert_eq!(a.fingerprint, SKEWED_DES_GOLDEN[3]);
}

/// The shortened `train_contended` (see `common::CONTENDED_DES`).
fn contended_des_run() -> RunSummary {
    let (nodes, overhead_us, threshold, iterations) = CONTENDED_DES;
    contended_des_simulator(nodes, overhead_us, threshold, iterations).run()
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

/// The shared-rate sweep of `CONTENDED_TIMING_GOLDEN`, as
/// `contended_des_simulator` arguments `(nodes, launch overhead µs per
/// table, controller threshold, iterations)`: flat, 2- and 4-node plans,
/// with and without launch overhead, and storms whose controller
/// re-shards 1 to 10 times, so migration stalls push gather starts past
/// their arrival.
const CONTENDED_TIMING_SWEEP: [(usize, f64, Option<f64>, u64); 8] = [
    (1, 0.0, None, 1_000),
    (1, 0.0, Some(1.5), 3_000),
    (1, 3.0, Some(1.5), 3_000),
    (2, 3.0, None, 1_000),
    (2, 0.0, Some(2.0), 3_000),
    CONTENDED_DES,
    (4, 1.0, Some(1.5), 3_000),
    (4, 3.0, None, 1_000),
];

/// Committed `timing_fingerprint`s of `CONTENDED_TIMING_SWEEP`, in order.
const CONTENDED_TIMING_GOLDEN: [u64; 8] = [
    0x4aef_037f_95fc_abe6,
    0x8827_a60c_8d17_6c6d,
    0xf3ca_afb8_dde5_f650,
    0x73cf_6c0f_3286_8922,
    0x0107_d73a_2971_9434,
    0x990e_aa4d_410f_20f2,
    0xa850_dc08_54ef_54a2,
    0x7596_b6b4_b0cc_05e5,
];

/// FNV-1a hash over every `RunSummary` field except `events` and
/// `fingerprint`, floats as bits: everything a run measures in virtual
/// time, and nothing that depends on how the engine sequences one instant.
fn timing_fingerprint(summary: &RunSummary) -> u64 {
    let mut hash = FNV_OFFSET;
    let mut fold = |word: u64| hash = fnv1a(hash, word);
    summary.strategy.bytes().for_each(|b| fold(u64::from(b)));
    fold(summary.num_gpus as u64);
    fold(summary.iterations);
    fold(summary.completed);
    fold(summary.batch_size as u64);
    for x in [
        summary.makespan_ms,
        summary.throughput_iters_per_s,
        summary.p50_ms,
        summary.p95_ms,
        summary.p99_ms,
    ] {
        fold(x.to_bits());
    }
    for s in [&summary.iteration_time, &summary.queue_wait] {
        fold(s.count);
        for x in [s.min, s.max, s.mean, s.std_dev] {
            fold(x.to_bits());
        }
    }
    for v in [
        &summary.busy_fraction,
        &summary.per_gpu_busy_ms,
        &summary.uvm_busy_share,
    ] {
        fold(v.len() as u64);
        v.iter().for_each(|x| fold(x.to_bits()));
    }
    fold(u64::from(summary.reshards));
    hash
}

/// Every virtual time of a shared-rate run — completions, sojourns, busy
/// and wait accounting, re-shards — is pinned separately from the event
/// log, so a change to how the engine sequences same-instant steps must
/// leave this golden untouched while it re-baselines the fingerprints.
#[test]
fn contended_des_timing_is_bit_for_bit_stable() {
    let actual = CONTENDED_TIMING_SWEEP.map(|(nodes, overhead_us, threshold, iterations)| {
        let summary = contended_des_simulator(nodes, overhead_us, threshold, iterations).run();
        assert_eq!(summary.completed, iterations);
        assert_eq!(
            summary.reshards >= 1,
            threshold.is_some(),
            "{nodes} node(s), {overhead_us} µs: only the storm re-shards (got {})",
            summary.reshards
        );
        timing_fingerprint(&summary)
    });
    assert_eq!(
        actual, CONTENDED_TIMING_GOLDEN,
        "contended DES timing drifted (actual {actual:#018x?})"
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
    let mut hash = FNV_OFFSET;
    let mut fold = |word: u64| hash = fnv1a(hash, word);
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
        fold(p.cdf.cumulative().len() as u64);
        p.cdf.cumulative().for_each(&mut fold);
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

/// The four systems of `UNBUCKETED_PLAN_GOLDEN`, each with whether split
/// selection must downgrade on it:
/// - `bench_system`, where every table's profiled-hot rows fit in HBM, so
///   split selection keeps every table at its top step (as in `plan_5k`);
/// - the same system with per-GPU HBM cut 50x, so split selection
///   downgrades and refinement re-picks splits;
/// - a mixed cluster of 4 fast GPUs and 4 slow ones with a third of their
///   HBM, whose aggregate HBM equals the cut system's;
/// - the same mix, but the small class has the fast class's bandwidths, so
///   a table costs the same on every GPU and only the capacities differ.
fn unbucketed_plan_systems(model: &ModelSpec) -> [(SystemSpec, bool); 4] {
    const GPUS: usize = 8;
    let bytes = model.total_bytes();
    let fair = bytes / (3 * GPUS as u64);
    let big = DeviceClass::new("big", fair / 100 * 3, bytes, 3350.0, 50.0);
    let small = DeviceClass::new("small", fair / 100, bytes, 1555.0, 16.0);
    let small_fast = DeviceClass::new("small-fast", fair / 100, bytes, 3350.0, 50.0);
    [
        (bench_system(bytes, GPUS), false),
        (
            SystemSpec::uniform(GPUS, fair / 50, bytes, 1555.0, 16.0),
            true,
        ),
        (
            ClusterSpec::mixed(&[(big, GPUS / 2), (small, GPUS / 2)]),
            true,
        ),
        (
            ClusterSpec::mixed(&[(big, GPUS / 2), (small_fast, GPUS / 2)]),
            true,
        ),
    ]
}

/// Order-sensitive FNV-1a hash over every placement of a plan.
fn plan_fingerprint(plan: &ShardingPlan) -> u64 {
    plan.placements()
        .iter()
        .flat_map(|p| {
            [
                u64::from(p.table.0),
                p.gpu as u64,
                p.hbm_rows,
                p.total_rows,
                p.row_bytes,
            ]
        })
        .fold(FNV_OFFSET, fnv1a)
}

#[test]
fn unbucketed_plan_fingerprints_are_bit_for_bit_stable() {
    let model = skewed_model(300);
    let profile = DatasetProfiler::profile_model(&model, 1_200, 0x7A11);
    let config = RecShardConfig::default();
    let actual = unbucketed_plan_systems(&model).map(|(system, pressured)| {
        // Split selection downgrades exactly when the top steps (every
        // profiled-hot row in HBM) overrun the slack-adjusted budget.
        let top_demand: u64 = profile
            .profiles()
            .iter()
            .map(|p| p.cdf.full_coverage_rows().min(p.hash_size) * p.row_bytes())
            .sum();
        let budget = (system.total_hbm_capacity() as f64 * (1.0 - config.hbm_slack)) as u64;
        assert_eq!(top_demand > budget, pressured, "{top_demand} vs {budget}");
        let plan = RecShard::new(config)
            .plan(&model, &profile, &system)
            .expect("unbucketed plan");
        plan.validate(&model, &system).expect("valid plan");
        assert_eq!(plan.strategy(), "recshard");
        let at_top = plan
            .placements()
            .iter()
            .zip(profile.profiles())
            .all(|(placement, p)| {
                placement.hbm_rows == p.cdf.full_coverage_rows().min(p.hash_size)
            });
        assert_eq!(
            at_top, !pressured,
            "top steps kept exactly when HBM is ample"
        );
        plan_fingerprint(&plan)
    });
    assert_eq!(
        actual, UNBUCKETED_PLAN_GOLDEN,
        "unbucketed plans drifted (actual {actual:#018x?}; ample, HBM / 50, two-class, \
         two-capacity)"
    );
}

#[test]
fn warm_started_plan_fingerprints_are_bit_for_bit_stable() {
    let model = skewed_model(300);
    let profile = DatasetProfiler::profile_model(&model, 1_200, 0x7A11);
    let sharder = RecShard::new(RecShardConfig {
        solver: SolverKind::Scalable,
        ..RecShardConfig::default()
    });
    let [ample, cut, ..] = unbucketed_plan_systems(&model);
    let actual = [ample, cut].map(|(system, _)| {
        let cold = sharder.plan(&model, &profile, &system).expect("cold plan");
        let gpus = system.num_gpus();
        let placements = cold
            .placements()
            .iter()
            .enumerate()
            .map(|(t, p)| TablePlacement {
                gpu: if t % 18 == 0 {
                    (p.gpu + 1) % gpus
                } else {
                    p.gpu
                },
                ..*p
            })
            .collect();
        let previous = ShardingPlan::new("previous", gpus, placements);
        let plan = sharder
            .plan_seeded(&model, &profile, &system, Some(&previous))
            .expect("warm-started plan");
        plan.validate(&model, &system).expect("valid plan");
        assert_ne!(
            plan, cold,
            "the warm attempt wins the gate, so the golden pins it"
        );
        plan_fingerprint(&plan)
    });
    assert_eq!(
        actual, WARM_PLAN_GOLDEN,
        "warm-started plans drifted (actual {actual:#018x?}; ample, HBM / 50)"
    );
}
