//! The `scenario_bench` sweep: the repo's tracked workload-scenario
//! trajectory artifact (`BENCH_scenarios.json`).
//!
//! Runs the four placement strategies ([`Strategy::all`]) under four
//! canonical traffic scenarios — `stationary`, `diurnal`, `flash_crowd`
//! and `drift_storm` ([`ScenarioSpec`] presets, time constants scaled to
//! each layer's virtual span) — through *both* simulators: the
//! discrete-event trainer with an online [`ReshardController`] attached,
//! and the inference server on the same plan. Every point records the DES
//! event-log fingerprint, re-shard count and sojourn tails alongside the
//! serve report's latency tails, hit rate and fingerprint — all pure
//! functions of the seed. Wall-clock fields follow the [`crate::artifact`]
//! contract: written only under `RECSHARD_BENCH_TIMING=1`, otherwise the
//! timing sentinel keeps the artifact byte-stable.
//!
//! The sweep asserts the scenario engine's acceptance criteria in-line:
//! the flash crowd strictly inflates every placement's DES p99 over the
//! stationary run's, the drift storm triggers at least one controller
//! re-shard somewhere in the sweep, and stationary traffic triggers none.
//!
//! [`SPEC`] gates the artifact on drift of either fingerprint and, when
//! timing is on, on a 25% events/sec floor.

use crate::artifact::{best_of, recorded, row, Artifact, Better, PerfGate, Row, Spec};
use crate::solver_bench::bench_system;
use crate::Strategy;
use recshard_data::{
    FeatureClass, FeatureId, FeatureSpec, ModelSpec, PoolingSpec, RmKind, ScenarioSpec,
};
use recshard_des::{
    ArrivalProcess, ClusterConfig, ClusterSimulator, ReshardController, ReshardPolicy, RunSummary,
};
use recshard_obs::{Collector, ObsBundle};
use recshard_serve::{ArrivalModel, InferenceServer, PolicyKind, ServeConfig};
use recshard_sharding::{ShardingPlan, SystemSpec};
use recshard_stats::{DatasetProfile, DatasetProfiler};

/// The `BENCH_scenarios.json` artifact.
pub static SPEC: Spec = Spec {
    bench: "workload_scenarios",
    file: "BENCH_scenarios.json",
    sections: &[("points", &["scenario", "placement", "gpus", "iterations"])],
    timing: &["wall_ms", "events_per_sec"],
    drift_gated: true,
    perf: &[PerfGate {
        metric: "events_per_sec",
        better: Better::Higher,
        tolerance: 0.25,
    }],
};

/// Sweep configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioBenchConfig {
    /// Tables in the scenario workload.
    pub tables: usize,
    /// GPUs simulated (one count; scenarios × placements already fan out).
    pub gpus: usize,
    /// Training iterations simulated per DES point.
    pub iterations: u64,
    /// Traced samples per batch (DES) and per query (serve).
    pub batch_size: usize,
    /// Synthetic samples profiled before sharding.
    pub profile_samples: usize,
    /// Open-loop DES arrival interval, ms. Chosen close to the iteration
    /// service time so the flash crowd actually queues.
    pub arrival_interval_ms: f64,
    /// Measured serve queries per point.
    pub serve_queries: u32,
    /// Serve warmup queries (excluded from measurement).
    pub serve_warmup: u32,
    /// Serve arrival interval, µs.
    pub serve_interval_us: f64,
    /// Master seed.
    pub seed: u64,
    /// Measure wall-clock times into the JSON (breaks byte-stability
    /// across runs; stdout always shows measured rates).
    pub include_timing: bool,
}

impl ScenarioBenchConfig {
    /// The full tracked sweep: 4 scenarios × 4 placements. Same workload
    /// shape as [`tiny`](Self::tiny) — 4 tables per GPU keeps the
    /// user/content mix lumpy enough per GPU that a drift storm visibly
    /// skews the gather load — but a 5x longer trajectory.
    pub fn full() -> Self {
        Self {
            tables: 16,
            gpus: 4,
            iterations: 2_000,
            batch_size: 32,
            profile_samples: 800,
            arrival_interval_ms: 0.01,
            serve_queries: 2_000,
            serve_warmup: 500,
            serve_interval_us: 50.0,
            seed: 0xA5F0,
            include_timing: false,
        }
    }

    /// A seconds-scale sweep for tests and CI smoke runs.
    // recshard-lint: allow(test-only-pub) -- the reduced run the golden tests
    // under tests/ pin, which cannot reach a #[cfg(test)] item.
    pub fn tiny() -> Self {
        Self {
            tables: 16,
            gpus: 4,
            iterations: 400,
            batch_size: 32,
            profile_samples: 800,
            arrival_interval_ms: 0.01,
            serve_queries: 400,
            serve_warmup: 100,
            serve_interval_us: 50.0,
            seed: 0xA5F0,
            include_timing: false,
        }
    }

    /// The DES run's virtual span in seconds (open-loop arrivals pace the
    /// timeline; scenario time constants are fractions of this).
    fn des_span_s(&self) -> f64 {
        self.iterations as f64 * self.arrival_interval_ms / 1e3
    }

    /// The serve run's virtual span in seconds.
    fn serve_span_s(&self) -> f64 {
        (self.serve_warmup + self.serve_queries) as f64 * self.serve_interval_us / 1e6
    }

    fn cluster_config(&self) -> ClusterConfig {
        ClusterConfig {
            batch_size: self.batch_size,
            iterations: self.iterations,
            seed: self.seed,
            arrival: ArrivalProcess::FixedRate {
                interval_ms: self.arrival_interval_ms,
            },
            // Zero per-table launch overhead keeps per-GPU busy time
            // proportional to gather work, so a drift storm that moves
            // pooling factors between feature classes is visible to the
            // controller's imbalance signal.
            kernel_overhead_us_per_table: 0.0,
            scale_to_batch: None,
            ..ClusterConfig::default()
        }
    }

    fn serve_config(&self) -> ServeConfig {
        ServeConfig {
            queries: self.serve_queries,
            warmup: self.serve_warmup,
            batch_size: self.batch_size.min(8),
            seed: self.seed,
            arrival: ArrivalModel::FixedRate {
                interval_us: self.serve_interval_us,
            },
            policy: PolicyKind::StatGuided,
            ..ServeConfig::default()
        }
    }

    fn reshard_policy(&self) -> ReshardPolicy {
        ReshardPolicy {
            check_every_iterations: (self.iterations / 10).max(1),
            // With launch overhead zeroed the busy signal is all gather
            // work, which the greedy placements only balance to within
            // ~1.5x on this workload; the threshold sits above that
            // standing imbalance so only a genuine distribution shift (the
            // drift storm roughly doubles it) trips a re-shard.
            imbalance_threshold: 1.8,
            ..ReshardPolicy::default()
        }
    }
}

/// The scenario workload: an even user/content class split whose pooling
/// factors *both* respond to [`ShiftKind::DriftStorm`](recshard_data::ShiftKind)
/// rescaling (no one-hot tables — those are immune to mean scaling), so
/// drift storms skew the per-GPU gather load whichever way a placement
/// grouped the classes.
pub fn scenario_model(tables: usize) -> ModelSpec {
    let features = (0..tables)
        .map(|i| {
            let hash_size = 1u64 << (10 + (i % 6));
            FeatureSpec {
                id: FeatureId(i as u32),
                name: format!("scenario_{i}"),
                class: if i % 2 == 0 {
                    FeatureClass::User
                } else {
                    FeatureClass::Content
                },
                cardinality: hash_size * 4,
                hash_size,
                zipf_exponent: 1.05 + 0.5 * (i as f64 / tables.max(1) as f64),
                pooling: if i % 2 == 0 {
                    PoolingSpec::Constant(4)
                } else {
                    PoolingSpec::LongTail { mean: 8.0, max: 32 }
                },
                coverage: match i % 3 {
                    0 => 1.0,
                    1 => 0.7,
                    _ => 0.4,
                },
                embedding_dim: 64,
                bytes_per_element: 4,
                hash_seed: 0xD1CE ^ i as u64,
            }
        })
        .collect();
    ModelSpec::new("scenario-mix", RmKind::Custom, features, 256)
}

/// The scenario names in sweep order.
pub const SCENARIOS: [&str; 4] = ["stationary", "diurnal", "flash_crowd", "drift_storm"];

/// Builds the named scenario with time constants scaled to a `span_s`-second
/// virtual run, so the same shape exercises both simulators' timelines.
///
/// # Panics
///
/// Panics on an unknown name.
pub fn scenario_spec(name: &str, span_s: f64) -> ScenarioSpec {
    match name {
        "stationary" => ScenarioSpec::stationary(),
        // Two full periods, ±50% around the base rate.
        "diurnal" => ScenarioSpec::diurnal(span_s / 2.0, 0.5),
        // A 16x spike over 10% of the span, starting at 20% — deep enough
        // past saturation that every placement queues; the implied hot-key
        // shift rides the spike's leading edge.
        "flash_crowd" => ScenarioSpec::flash_crowd(0.2 * span_s, 0.1 * span_s, 16.0),
        // Three waves of user/content pooling drift from 10% of the span,
        // then a table-growth event.
        "drift_storm" => ScenarioSpec::drift_storm(0.1 * span_s, 0.15 * span_s, 3),
        other => panic!("unknown scenario {other}"),
    }
}

/// One sweep point: one scenario × one placement, run through both layers.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioBenchPoint {
    /// Scenario name (see [`SCENARIOS`]).
    pub scenario: String,
    /// Placement strategy label.
    pub placement: String,
    /// GPUs simulated.
    pub gpus: usize,
    /// DES iterations simulated.
    pub iterations: u64,
    /// Total DES events processed.
    pub events: u64,
    /// Plan swaps performed by the online re-sharding controller.
    pub reshards: u32,
    /// DES virtual-time makespan, ms.
    pub makespan_ms: f64,
    /// Median DES iteration sojourn time, ms.
    pub p50_ms: f64,
    /// 99th-percentile DES iteration sojourn time, ms.
    pub p99_ms: f64,
    /// Order-sensitive FNV-1a hash of the DES run's event log.
    pub fingerprint: u64,
    /// Measured serve queries.
    pub serve_queries: u32,
    /// Median serve latency, ms.
    pub serve_p50_ms: f64,
    /// 99th-percentile serve latency, ms.
    pub serve_p99_ms: f64,
    /// Serve cache hit rate over measured queries.
    pub serve_hit_rate: f64,
    /// The serve report's event fingerprint.
    pub serve_fingerprint: u64,
    /// Best-of-N ([`best_of`]) DES wall-clock time (ms), or `-1` when untimed.
    pub wall_ms: f64,
    /// DES events per wall-clock second (best repetition), or `-1`.
    pub events_per_sec: f64,
}

impl ScenarioBenchPoint {
    /// The point's `points` row.
    pub fn row(&self) -> Row {
        row![
            scenario: Str(self.scenario.clone()), placement: Str(self.placement.clone()),
            gpus: Int(self.gpus as u64), iterations: Int(self.iterations), events: Int(self.events),
            reshards: Int(u64::from(self.reshards)), makespan_ms: Float(self.makespan_ms),
            p50_ms: Float(self.p50_ms), p99_ms: Float(self.p99_ms),
            fingerprint: Fingerprint(self.fingerprint),
            serve_queries: Int(u64::from(self.serve_queries)),
            serve_p50_ms: Float(self.serve_p50_ms), serve_p99_ms: Float(self.serve_p99_ms),
            serve_hit_rate: Float(self.serve_hit_rate),
            serve_fingerprint: Fingerprint(self.serve_fingerprint), wall_ms: Timing(self.wall_ms),
            events_per_sec: Timing(self.events_per_sec),
        ]
    }
}

/// The full sweep result.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioBenchReport {
    /// Seed the sweep ran under.
    pub seed: u64,
    /// Whether timing fields hold measurements.
    pub timed: bool,
    /// Per-point results (scenario outer, placements in
    /// [`Strategy::all`] order).
    pub points: Vec<ScenarioBenchPoint>,
}

impl ScenarioBenchReport {
    /// The `BENCH_scenarios.json` artifact.
    pub fn artifact(&self) -> Artifact {
        let rows = self.points.iter().map(ScenarioBenchPoint::row).collect();
        Artifact::new(&SPEC, self.seed, self.timed, vec![rows])
    }
}

/// A controller re-solving with the same strategy that placed the initial
/// plan, so a re-shard is a genuine "this placement, re-planned for the
/// drifted workload" decision.
fn controller_for(cfg: &ScenarioBenchConfig, strategy: Strategy) -> ReshardController {
    let solver =
        move |model: &ModelSpec,
              profile: &DatasetProfile,
              system: &SystemSpec,
              _prev: Option<&ShardingPlan>| { Some(strategy.plan(model, profile, system)) };
    ReshardController::new(cfg.reshard_policy(), Box::new(solver))
}

/// Runs the sweep.
///
/// # Panics
///
/// Panics if an acceptance criterion fails: the flash crowd must strictly
/// inflate every placement's DES p99 over its stationary run, the drift
/// storm must trigger at least one controller re-shard across the sweep,
/// and stationary traffic must trigger none.
pub fn run_sweep(cfg: &ScenarioBenchConfig) -> ScenarioBenchReport {
    let model = scenario_model(cfg.tables);
    let profile = DatasetProfiler::profile_model(&model, cfg.profile_samples, cfg.seed);
    let system = bench_system(model.total_bytes(), cfg.gpus);
    let serve_cfg = cfg.serve_config();
    let mut points = Vec::new();
    for scenario in SCENARIOS {
        let des_spec = scenario_spec(scenario, cfg.des_span_s());
        let serve_spec = scenario_spec(scenario, cfg.serve_span_s());
        for strategy in Strategy::all() {
            let plan = strategy.plan(&model, &profile, &system);
            let (summary, wall_ms) = best_of(cfg.include_timing, || {
                ClusterSimulator::new(&model, &plan, &profile, &system, cfg.cluster_config())
                    .with_scenario(des_spec.clone())
                    .with_controller(controller_for(cfg, strategy))
                    .run()
            });
            let serve = InferenceServer::run_scenario(
                &model,
                &plan,
                &profile,
                &system,
                serve_cfg,
                &serve_spec,
            );
            let events_per_sec = summary.events as f64 / (wall_ms / 1e3).max(1e-12);
            println!(
                "scenario_bench: {scenario}/{}: {} events, {} reshard(s), DES p50/p99 \
                 {:.3}/{:.3} ms (fp {:#018x}), serve p50/p99 {:.3}/{:.3} ms hit {:.3} \
                 (fp {:#018x}), {wall_ms:.1} ms wall",
                strategy.label(),
                summary.events,
                summary.reshards,
                summary.p50_ms,
                summary.p99_ms,
                summary.fingerprint,
                serve.p50_ms,
                serve.p99_ms,
                serve.hit_rate,
                serve.fingerprint,
            );
            points.push(ScenarioBenchPoint {
                scenario: scenario.to_string(),
                placement: strategy.label().to_string(),
                gpus: cfg.gpus,
                iterations: summary.completed,
                events: summary.events,
                reshards: summary.reshards,
                makespan_ms: summary.makespan_ms,
                p50_ms: summary.p50_ms,
                p99_ms: summary.p99_ms,
                fingerprint: summary.fingerprint,
                serve_queries: serve.queries,
                serve_p50_ms: serve.p50_ms,
                serve_p99_ms: serve.p99_ms,
                serve_hit_rate: serve.hit_rate,
                serve_fingerprint: serve.fingerprint,
                wall_ms: recorded(cfg.include_timing, wall_ms),
                events_per_sec: recorded(cfg.include_timing, events_per_sec),
            });
        }
    }
    // Acceptance criteria, asserted on every run of the sweep.
    let find = |scenario: &str, placement: &str| {
        points
            .iter()
            .find(|p| p.scenario == scenario && p.placement == placement)
            .unwrap_or_else(|| panic!("missing point {scenario}/{placement}"))
    };
    for strategy in Strategy::all() {
        let stationary = find("stationary", strategy.label());
        let flash = find("flash_crowd", strategy.label());
        assert!(
            flash.p99_ms > stationary.p99_ms,
            "{}: flash-crowd DES p99 ({}) must exceed stationary ({})",
            strategy.label(),
            flash.p99_ms,
            stationary.p99_ms,
        );
        assert_eq!(
            stationary.reshards,
            0,
            "{}: stationary traffic must not trigger re-shards",
            strategy.label(),
        );
    }
    assert!(
        points
            .iter()
            .any(|p| p.scenario == "drift_storm" && p.reshards >= 1),
        "the drift storm must trigger at least one controller re-shard",
    );
    ScenarioBenchReport {
        seed: cfg.seed,
        timed: cfg.include_timing,
        points,
    }
}

/// Runs the flash-crowd RecShard point once with a [`Collector`] attached:
/// the seeded smoke run whose JSONL/Chrome-trace/metrics artifacts CI
/// exports. The trace carries the scenario's `scenario_phase` events
/// (asserted), and the summary replays the sweep's point exactly.
pub fn traced_smoke(cfg: &ScenarioBenchConfig) -> (RunSummary, ObsBundle) {
    let model = scenario_model(cfg.tables);
    let profile = DatasetProfiler::profile_model(&model, cfg.profile_samples, cfg.seed);
    let system = bench_system(model.total_bytes(), cfg.gpus);
    let plan = Strategy::RecShard.plan(&model, &profile, &system);
    let spec = scenario_spec("flash_crowd", cfg.des_span_s());
    let mut collector = Collector::new();
    let summary = ClusterSimulator::new(&model, &plan, &profile, &system, cfg.cluster_config())
        .with_scenario(spec)
        .with_controller(controller_for(cfg, Strategy::RecShard))
        .with_obs(&mut collector)
        .run();
    let bundle = collector.finish();
    assert!(
        bundle
            .trace
            .records()
            .iter()
            .any(|r| r.event.name() == "scenario_phase"),
        "the traced flash-crowd run must emit scenario phase events"
    );
    (summary, bundle)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::TIMING_DISABLED;

    #[test]
    fn tiny_sweep_is_deterministic_and_locks_the_acceptance_criteria() {
        let cfg = ScenarioBenchConfig::tiny();
        let a = run_sweep(&cfg);
        let b = run_sweep(&cfg);
        assert_eq!(a, b, "same seed must reproduce the same sweep");
        assert_eq!(a.artifact().to_json(), b.artifact().to_json());
        assert_eq!(a.points.len(), SCENARIOS.len() * Strategy::all().len());
        for p in &a.points {
            assert_eq!(p.iterations, cfg.iterations);
            assert_eq!(p.serve_queries, cfg.serve_queries);
            assert!(p.p50_ms > 0.0 && p.p50_ms <= p.p99_ms);
            assert!(p.serve_p50_ms > 0.0 && p.serve_p50_ms <= p.serve_p99_ms);
            assert!((0.0..=1.0).contains(&p.serve_hit_rate));
            assert_eq!(p.wall_ms, TIMING_DISABLED);
            assert_eq!(p.events_per_sec, TIMING_DISABLED);
        }
        // run_sweep itself asserts the acceptance criteria.
    }

    #[test]
    fn timing_mode_changes_json_but_not_fingerprint() {
        let mut cfg = ScenarioBenchConfig::tiny();
        cfg.iterations = 150;
        cfg.serve_queries = 150;
        cfg.serve_warmup = 50;
        let untimed = run_sweep(&cfg);
        cfg.include_timing = true;
        let timed = run_sweep(&cfg);
        let (u, t) = (untimed.artifact(), timed.artifact());
        assert_ne!(u.to_json(), t.to_json());
        assert_eq!(u.fingerprint(), t.fingerprint());
        assert!(timed.points[0].wall_ms >= 0.0);
        assert!(timed.points[0].events_per_sec > 0.0);
    }

    #[test]
    fn traced_smoke_matches_untraced_run_and_emits_phase_events() {
        let mut cfg = ScenarioBenchConfig::tiny();
        cfg.iterations = 150;
        cfg.serve_queries = 150;
        cfg.serve_warmup = 50;
        let (summary, bundle) = traced_smoke(&cfg);
        let sweep = run_sweep(&cfg);
        let point = sweep
            .points
            .iter()
            .find(|p| p.scenario == "flash_crowd" && p.placement == Strategy::RecShard.label())
            .expect("flash-crowd RecShard point must exist");
        assert_eq!(
            summary.fingerprint, point.fingerprint,
            "the traced smoke run must replay the sweep point exactly"
        );
        let jsonl = bundle.trace.to_jsonl();
        assert_eq!(jsonl.lines().count(), bundle.trace.len());
        assert!(jsonl.contains("scenario_phase"));
        let chrome = bundle.trace.to_chrome();
        assert!(chrome.starts_with("{\"traceEvents\":["));
    }
}
