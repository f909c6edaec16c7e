//! Cross-model conformance tests.
//!
//! Three execution models now coexist in the workspace and are supposed to
//! describe the *same* system at different fidelities:
//!
//! 1. the **analytical** estimator (`recshard_memsim::AnalyticalEstimator`)
//!    — closed-form expectations straight from the profiled CDFs (the
//!    quantity the MILP optimises),
//! 2. the **trace** simulator (`recshard_memsim::EmbeddingOpSimulator`) —
//!    samples actual multi-hot batches and counts where lookups land, and
//! 3. the **discrete-event** cluster simulator (`recshard_des`) — adds
//!    queueing, the all-to-all barrier and virtual time on top of the same
//!    timing model.
//!
//! These tests pin the three against each other on identical seeds and
//! workloads so a drive-by change to one backend cannot silently diverge
//! from the others:
//!
//! * trace and DES must agree **draw-for-draw** (they share one sampling
//!   kernel — byte-identical access counters per iteration), and
//! * analytical, trace and DES iteration-time estimates must agree within a
//!   **stated tolerance** (20%): the analytical number is an expectation and
//!   the sampled models fluctuate around it, but none of the three may walk
//!   away from the others.

use rand::rngs::StdRng;
use rand::SeedableRng;
use recshard_data::ModelSpec;
use recshard_des::{ArrivalProcess, ClusterConfig, ClusterSimulator, IterationWorkload};
use recshard_memsim::{AnalyticalEstimator, EmbeddingOpSimulator, SimConfig, TableSampler};
use recshard_sharding::{ShardingPlan, SystemSpec, TablePlacement};
use recshard_stats::{DatasetProfile, DatasetProfiler};

/// Relative tolerance between the analytical expectation and the sampled
/// backends' iteration times.
const ITERATION_TIME_TOLERANCE: f64 = 0.20;

/// A profiled setup whose categorical space the profile saturates (so the
/// analytical expectation is a faithful description of the sampled stream),
/// with a half-split plan that keeps both memory tiers busy.
fn setup() -> (ModelSpec, DatasetProfile, SystemSpec, ShardingPlan) {
    let model = ModelSpec::small(6, 8).scaled(32).with_batch_size(256);
    let profile = DatasetProfiler::profile_model(&model, 8_000, 5);
    let system = SystemSpec::uniform(2, u64::MAX / 4, u64::MAX / 4, 1555.0, 16.0);
    let placements: Vec<TablePlacement> = model
        .features()
        .iter()
        .zip(profile.profiles())
        .map(|(f, p)| TablePlacement {
            table: f.id,
            gpu: f.id.index() % 2,
            hbm_rows: p.cdf.full_coverage_rows() / 2,
            total_rows: f.hash_size,
            row_bytes: f.row_bytes(),
        })
        .collect();
    let plan = ShardingPlan::new("half-split", 2, placements);
    (model, profile, system, plan)
}

/// Trace replay matches the DES draw-for-draw: with identical RNG streams,
/// the DES workload generator and the trace simulator's shared sampling
/// kernel produce byte-identical per-GPU access counters, iteration after
/// iteration.
#[test]
fn trace_replay_matches_des_draw_for_draw() {
    let (model, profile, _, plan) = setup();
    let workload = IterationWorkload::new(&model, &plan, &profile);
    let samplers = TableSampler::for_plan(&model, &plan, &profile);
    let gpu_of = plan.gpu_assignments();

    let mut des_rng = StdRng::seed_from_u64(0xD12A);
    let mut trace_rng = StdRng::seed_from_u64(0xD12A);
    for iteration in 0..5 {
        let des_counters = workload.sample_iteration(64, &mut des_rng);
        let trace_counters = recshard_memsim::sample_batch_accesses(
            &model,
            &samplers,
            &gpu_of,
            plan.num_gpus(),
            64,
            &mut trace_rng,
        );
        assert_eq!(
            des_counters, trace_counters,
            "iteration {iteration}: DES and trace must draw identically"
        );
    }
}

/// The trace simulator's per-iteration counters are exactly what the DES
/// charges its stations with: `run_iteration` (unscaled) equals the DES
/// workload sample under the same seed.
#[test]
fn embedding_op_simulator_consumes_the_same_draws() {
    let (model, profile, system, plan) = setup();
    let sim = EmbeddingOpSimulator::new(
        &model,
        &plan,
        &profile,
        &system,
        SimConfig {
            kernel_overhead_us_per_table: 0.0,
            scale_to_batch: None,
        },
    );
    let workload = IterationWorkload::new(&model, &plan, &profile);
    let mut a = StdRng::seed_from_u64(77);
    let mut b = StdRng::seed_from_u64(77);
    let report = sim.run_iteration(128, &mut a);
    let counters = workload.sample_iteration(128, &mut b);
    for (gpu, stats) in report.per_gpu().iter().enumerate() {
        assert_eq!(stats.counters, counters[gpu], "GPU {gpu} counters differ");
    }
}

/// Analytical vs trace: the closed-form iteration time tracks the sampled
/// one within the stated tolerance.
#[test]
fn analytical_matches_trace_iteration_time() {
    let (model, profile, system, plan) = setup();
    let batch = 256u32;
    let analytical = AnalyticalEstimator::new(&profile, &system, batch).iteration_time_ms(&plan);
    let mut sim = EmbeddingOpSimulator::new(
        &model,
        &plan,
        &profile,
        &system,
        SimConfig {
            kernel_overhead_us_per_table: 0.0,
            scale_to_batch: None,
        },
    );
    let traced = sim.run(8, batch as usize, 23).iteration_time_ms();
    let rel = (analytical - traced).abs() / traced;
    assert!(
        rel < ITERATION_TIME_TOLERANCE,
        "analytical {analytical:.4} ms vs traced {traced:.4} ms: {:.1}% apart \
         (tolerance {:.0}%)",
        rel * 100.0,
        ITERATION_TIME_TOLERANCE * 100.0
    );
}

/// Analytical vs DES: with the barrier and launch overheads configured away
/// and arrivals unloaded, the DES median sojourn time is the slowest GPU's
/// service time — which must agree with the analytical expectation within
/// the stated tolerance.
#[test]
fn analytical_matches_des_iteration_time() {
    let (model, profile, system, plan) = setup();
    let batch = 256usize;
    let analytical =
        AnalyticalEstimator::new(&profile, &system, batch as u32).iteration_time_ms(&plan);

    let config = ClusterConfig {
        batch_size: batch,
        iterations: 200,
        seed: 0xC0F,
        // Unloaded arrivals: no queueing in the sojourn times.
        arrival: ArrivalProcess::FixedRate { interval_ms: 1e6 },
        // Remove everything the analytical model does not charge: kernel
        // launch overhead and the all-to-all exchange.
        kernel_overhead_us_per_table: 0.0,
        scale_to_batch: None,
        alltoall_latency_us: 0.0,
        alltoall_bandwidth_gbps: 1e12,
        ..ClusterConfig::default()
    };
    let summary = ClusterSimulator::new(&model, &plan, &profile, &system, config).run();
    assert_eq!(summary.completed, 200);
    let rel = (analytical - summary.p50_ms).abs() / summary.p50_ms;
    assert!(
        rel < ITERATION_TIME_TOLERANCE,
        "analytical {analytical:.4} ms vs DES p50 {:.4} ms: {:.1}% apart \
         (tolerance {:.0}%)",
        summary.p50_ms,
        rel * 100.0,
        ITERATION_TIME_TOLERANCE * 100.0
    );
}

/// Transitivity check at a different plan shape: all three models agree on
/// *ordering* — a plan with strictly more HBM is never slower under any
/// backend.
#[test]
fn all_models_agree_more_hbm_is_never_slower() {
    let (model, profile, system, _) = setup();
    let mk = |frac: f64| {
        let placements = model
            .features()
            .iter()
            .zip(profile.profiles())
            .map(|(f, p)| TablePlacement {
                table: f.id,
                gpu: f.id.index() % 2,
                hbm_rows: (p.cdf.full_coverage_rows() as f64 * frac) as u64,
                total_rows: f.hash_size,
                row_bytes: f.row_bytes(),
            })
            .collect();
        ShardingPlan::new("frac", 2, placements)
    };
    let lean = mk(0.1);
    let rich = mk(0.9);

    let est = AnalyticalEstimator::new(&profile, &system, 256);
    assert!(est.iteration_time_ms(&rich) <= est.iteration_time_ms(&lean));

    let sim_config = SimConfig {
        kernel_overhead_us_per_table: 0.0,
        scale_to_batch: None,
    };
    let trace = |plan: &ShardingPlan| {
        EmbeddingOpSimulator::new(&model, plan, &profile, &system, sim_config)
            .run(4, 256, 3)
            .iteration_time_ms()
    };
    assert!(trace(&rich) < trace(&lean));

    let des_config = ClusterConfig {
        batch_size: 128,
        iterations: 100,
        seed: 0xDE5,
        arrival: ArrivalProcess::FixedRate { interval_ms: 1e6 },
        kernel_overhead_us_per_table: 0.0,
        scale_to_batch: None,
        ..ClusterConfig::default()
    };
    let des = |plan: &ShardingPlan| {
        ClusterSimulator::new(&model, plan, &profile, &system, des_config)
            .run()
            .p50_ms
    };
    assert!(des(&rich) < des(&lean));
}
