//! The `des_bench` sweep: the repo's tracked DES-throughput trajectory
//! artifact (`BENCH_des.json`).
//!
//! Replays the RecShard plan for the canonical skewed workload through
//! `recshard-des` at 4 and 16 GPUs, once flat and once with the two-level
//! node topology of [`bench_topology`], all under identical seeds and an
//! identical open-loop arrival pace. Every point records the run's
//! event-log fingerprint, event count, virtual-time makespan/throughput
//! and sojourn tails — all pure functions of the seed — plus wall-clock
//! milliseconds, simulated iterations per wall second (the headline rate)
//! and simulator events per wall second (secondary: it rises with the GPU
//! count and with any change that adds events, even when the work per
//! iteration stays flat). Those three are only written into the JSON under
//! `RECSHARD_BENCH_TIMING=1` (otherwise the timing sentinel keeps the
//! artifact byte-stable; see [`crate::artifact`]).
//!
//! A `contention` sweep rides along: the uniform flat plan and an incast
//! plan (all tables concentrated on non-receiving nodes), each run under
//! both [`ContentionMode`]s at the smallest GPU count. Its points carry
//! wall milliseconds and simulated iterations per wall second under the
//! same timing rule, so the shared-rate engine has a timed baseline too,
//! and the sweep asserts the shared-rate acceptance criterion in-line:
//! incast p99 under processor sharing strictly exceeds the old
//! split-bandwidth FIFO model's. Both sections record `events_per_iter`,
//! a pure function of the seed.
//!
//! [`SPEC`] gates the artifact on event-log fingerprint drift (both
//! sections) and on a 25% floor on wall iterations/sec (both sections).

use crate::artifact::{best_of, recorded, row, Artifact, Better, PerfGate, Row, Spec};
use crate::solver_bench::{bench_system, bench_topology};
use crate::{skewed_model, Strategy};
use recshard::{HierarchicalSolver, RecShardConfig};
use recshard_des::{ArrivalProcess, ClusterConfig, ClusterSimulator, ContentionMode, RunSummary};
use recshard_obs::{Collector, ObsBundle};
use recshard_sharding::{NodeTopology, ShardingPlan, TablePlacement};
use recshard_stats::{DatasetProfile, DatasetProfiler};

/// The `BENCH_des.json` artifact. The iterations/sec floor is generous
/// because wall rates on shared runners are noisy: it catches
/// instrumentation-scale slowdowns, not scheduler jitter. Events/sec is
/// reported but not gated, so a change that drops events cannot read as a
/// regression.
pub static SPEC: Spec = Spec {
    // The artifact's historical key, kept so committed baselines still
    // compare; no binary of that name remains.
    bench: "des_throughput",
    file: "BENCH_des.json",
    sections: &[
        ("points", &["gpus", "nodes", "iterations"]),
        (
            "contention",
            &["scenario", "mode", "gpus", "nodes", "iterations"],
        ),
    ],
    timing: &["wall_ms", "iters_per_sec", "events_per_sec"],
    drift_gated: true,
    perf: &[PerfGate {
        metric: "iters_per_sec",
        better: Better::Higher,
        tolerance: 0.25,
    }],
};

/// Sweep configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct DesBenchConfig {
    /// Tables in the skewed workload.
    pub tables: usize,
    /// GPU counts swept (each runs flat and hierarchical).
    pub gpu_counts: Vec<usize>,
    /// Training iterations simulated per point.
    pub iterations: u64,
    /// Traced samples per batch.
    pub batch_size: usize,
    /// Synthetic samples profiled before sharding.
    pub profile_samples: usize,
    /// Open-loop arrival interval, ms (identical across points).
    pub arrival_interval_ms: f64,
    /// Iterations per point of the `contention` sweep (shorter than the
    /// main sweep — four scenario × mode runs ride along).
    pub contention_iterations: u64,
    /// Master seed.
    pub seed: u64,
    /// Measure wall-clock times and rates into the JSON (breaks
    /// byte-stability across runs; stdout always shows measured rates).
    pub include_timing: bool,
}

impl DesBenchConfig {
    /// The full tracked sweep: 4- and 16-GPU points, flat + hierarchical.
    pub fn full() -> Self {
        Self {
            tables: 48,
            gpu_counts: vec![4, 16],
            iterations: 10_000,
            batch_size: 32,
            profile_samples: 3_000,
            arrival_interval_ms: 2.0,
            contention_iterations: 2_000,
            seed: 0xA5F0,
            include_timing: false,
        }
    }

    /// A seconds-scale sweep for tests and CI smoke runs.
    // recshard-lint: allow(test-only-pub) -- the reduced run the golden tests
    // under tests/ pin, which cannot reach a #[cfg(test)] item.
    pub fn tiny() -> Self {
        Self {
            tables: 24,
            gpu_counts: vec![4],
            iterations: 300,
            batch_size: 16,
            profile_samples: 800,
            arrival_interval_ms: 2.0,
            contention_iterations: 150,
            seed: 0xA5F0,
            include_timing: false,
        }
    }

    fn cluster_config(&self) -> ClusterConfig {
        ClusterConfig {
            batch_size: self.batch_size,
            iterations: self.iterations,
            seed: self.seed,
            arrival: ArrivalProcess::FixedRate {
                interval_ms: self.arrival_interval_ms,
            },
            kernel_overhead_us_per_table: 8.0,
            scale_to_batch: None,
            ..ClusterConfig::default()
        }
    }
}

/// One sweep point: one seeded DES run of one plan shape.
#[derive(Debug, Clone, PartialEq)]
pub struct DesBenchPoint {
    /// GPUs simulated.
    pub gpus: usize,
    /// Nodes of the plan's topology (1 = flat).
    pub nodes: usize,
    /// Iterations simulated.
    pub iterations: u64,
    /// Total simulator events processed.
    pub events: u64,
    /// Simulator events per simulated iteration.
    pub events_per_iter: f64,
    /// Plan swaps performed by the re-sharding controller.
    pub reshards: u32,
    /// Virtual-time makespan, ms.
    pub makespan_ms: f64,
    /// Sustained throughput in *virtual* time (iterations per virtual
    /// second) — deterministic, unlike the wall-clock rate below.
    pub virtual_iters_per_s: f64,
    /// Median iteration sojourn time, ms.
    pub p50_ms: f64,
    /// 99th-percentile iteration sojourn time, ms.
    pub p99_ms: f64,
    /// Order-sensitive FNV-1a hash of the run's entire event log.
    pub fingerprint: u64,
    /// Best-of-N ([`best_of`]) wall-clock time (ms), or `-1` when untimed.
    pub wall_ms: f64,
    /// Simulated iterations per wall-clock second (best repetition), or
    /// `-1`: the headline rate.
    pub iters_per_sec: f64,
    /// Simulator events per wall-clock second (best repetition), or `-1`.
    pub events_per_sec: f64,
}

impl DesBenchPoint {
    /// The point's `points` row.
    pub fn row(&self) -> Row {
        row![
            gpus: Int(self.gpus as u64), nodes: Int(self.nodes as u64),
            iterations: Int(self.iterations), events: Int(self.events),
            events_per_iter: Float(self.events_per_iter),
            reshards: Int(u64::from(self.reshards)), makespan_ms: Float(self.makespan_ms),
            virtual_iters_per_s: Float(self.virtual_iters_per_s), p50_ms: Float(self.p50_ms),
            p99_ms: Float(self.p99_ms), fingerprint: Fingerprint(self.fingerprint),
            wall_ms: Timing(self.wall_ms), iters_per_sec: Timing(self.iters_per_sec),
            events_per_sec: Timing(self.events_per_sec),
        ]
    }
}

/// One `contention`-sweep point: one seeded DES run of one scenario under
/// one [`ContentionMode`]. Everything but the wall-clock fields is a pure
/// function of the seed, and those hold the sentinel when untimed, so the
/// section is byte-stable and its fingerprints are drift-gated like the
/// main sweep's.
#[derive(Debug, Clone, PartialEq)]
pub struct ContentionPoint {
    /// Exchange traffic shape: `"uniform"` (the flat RecShard plan) or
    /// `"incast"` (every table concentrated on the non-receiving nodes'
    /// GPUs of a two-level topology).
    pub scenario: String,
    /// `"fifo"` or `"shared_rate"`.
    pub mode: String,
    /// GPUs simulated.
    pub gpus: usize,
    /// Nodes of the plan's topology (1 = flat).
    pub nodes: usize,
    /// Iterations simulated.
    pub iterations: u64,
    /// Total simulator events processed.
    pub events: u64,
    /// Simulator events per simulated iteration.
    pub events_per_iter: f64,
    /// Virtual-time makespan, ms.
    pub makespan_ms: f64,
    /// Median iteration sojourn time, ms.
    pub p50_ms: f64,
    /// 99th-percentile iteration sojourn time, ms.
    pub p99_ms: f64,
    /// Order-sensitive FNV-1a hash of the run's entire event log.
    pub fingerprint: u64,
    /// Best-of-N ([`best_of`]) wall-clock time (ms), or `-1` when untimed.
    pub wall_ms: f64,
    /// Simulated iterations per wall-clock second (best repetition), or
    /// `-1`.
    pub iters_per_sec: f64,
}

impl ContentionPoint {
    /// The point's `contention` row.
    pub fn row(&self) -> Row {
        row![
            scenario: Str(self.scenario.clone()), mode: Str(self.mode.clone()),
            gpus: Int(self.gpus as u64), nodes: Int(self.nodes as u64),
            iterations: Int(self.iterations), events: Int(self.events),
            events_per_iter: Float(self.events_per_iter),
            makespan_ms: Float(self.makespan_ms), p50_ms: Float(self.p50_ms),
            p99_ms: Float(self.p99_ms), fingerprint: Fingerprint(self.fingerprint),
            wall_ms: Timing(self.wall_ms), iters_per_sec: Timing(self.iters_per_sec),
        ]
    }
}

/// The full sweep result.
#[derive(Debug, Clone, PartialEq)]
pub struct DesBenchReport {
    /// Seed the sweep ran under.
    pub seed: u64,
    /// Whether timing fields hold measurements.
    pub timed: bool,
    /// Per-point results, sweep order (gpus outer; flat before
    /// hierarchical).
    pub points: Vec<DesBenchPoint>,
    /// Contention-sweep results (scenario outer, FIFO before shared-rate).
    pub contention: Vec<ContentionPoint>,
}

impl DesBenchReport {
    /// The `BENCH_des.json` artifact.
    pub fn artifact(&self) -> Artifact {
        let rows = vec![
            self.points.iter().map(DesBenchPoint::row).collect(),
            self.contention.iter().map(ContentionPoint::row).collect(),
        ];
        Artifact::new(&SPEC, self.seed, self.timed, rows)
    }
}

/// The flat and hierarchical plans of one sweep GPU count.
fn sweep_plans(
    cfg: &DesBenchConfig,
    profile: &DatasetProfile,
    gpus: usize,
) -> Vec<(usize, ShardingPlan)> {
    let model = skewed_model(cfg.tables);
    let system = bench_system(model.total_bytes(), gpus);
    let flat = Strategy::RecShard.plan(&model, profile, &system);
    let topology = bench_topology(gpus);
    let hier = HierarchicalSolver::new(RecShardConfig::default(), topology)
        .solve(&model, profile, &system)
        .expect("hierarchical solve failed");
    vec![(1, flat), (topology.num_nodes, hier)]
}

/// The incast plan of the contention sweep: every table lives (all-HBM) on
/// a GPU of nodes `1..`, so the inter-node phase converges all sender flows
/// onto each receiving node's fabric port at once.
fn incast_plan(cfg: &DesBenchConfig, topology: NodeTopology) -> ShardingPlan {
    let model = skewed_model(cfg.tables);
    let gpus = topology.num_gpus();
    let senders = gpus - topology.gpus_per_node;
    let placements: Vec<TablePlacement> = model
        .features()
        .iter()
        .map(|f| TablePlacement {
            table: f.id,
            gpu: topology.gpus_per_node + f.id.index() % senders,
            hbm_rows: f.hash_size,
            total_rows: f.hash_size,
            row_bytes: f.row_bytes(),
        })
        .collect();
    ShardingPlan::new("incast", gpus, placements).with_topology(topology)
}

/// Runs the `contention` sweep: the uniform flat plan and the incast plan,
/// each once per [`ContentionMode`], at the smallest sweep GPU count.
///
/// # Panics
///
/// Panics if the incast scenario's shared-rate p99 does not strictly exceed
/// its FIFO p99 — the acceptance criterion of the shared-rate contention
/// model (the old split-bandwidth exchange cannot see incast queueing).
fn run_contention_sweep(cfg: &DesBenchConfig, profile: &DatasetProfile) -> Vec<ContentionPoint> {
    let gpus = *cfg.gpu_counts.first().expect("sweep needs a GPU count");
    let model = skewed_model(cfg.tables);
    let system = bench_system(model.total_bytes(), gpus);
    let uniform = Strategy::RecShard.plan(&model, profile, &system);
    let incast = incast_plan(cfg, bench_topology(gpus));
    let mut points = Vec::new();
    for (scenario, plan) in [("uniform", &uniform), ("incast", &incast)] {
        let mut p99_by_mode = Vec::new();
        for (mode, contention) in [
            ("fifo", ContentionMode::Fifo),
            ("shared_rate", ContentionMode::SharedRate),
        ] {
            let config = ClusterConfig {
                iterations: cfg.contention_iterations,
                contention,
                ..cfg.cluster_config()
            };
            let (summary, wall_ms) = best_of(cfg.include_timing, || {
                ClusterSimulator::new(&model, plan, profile, &system, config).run()
            });
            let iters_per_sec = summary.completed as f64 / (wall_ms / 1e3).max(1e-12);
            println!(
                "des_bench contention: {scenario}/{mode} on {gpus} GPUs x {} node(s): \
                 {} events in {wall_ms:.1} ms ({iters_per_sec:.0} iters/s wall), \
                 sojourn p50/p99 {:.3}/{:.3} ms, fingerprint {:#018x}",
                plan.effective_topology().num_nodes,
                summary.events,
                summary.p50_ms,
                summary.p99_ms,
                summary.fingerprint,
            );
            p99_by_mode.push(summary.p99_ms);
            points.push(ContentionPoint {
                scenario: scenario.to_string(),
                mode: mode.to_string(),
                gpus,
                nodes: plan.effective_topology().num_nodes,
                iterations: summary.completed,
                events: summary.events,
                events_per_iter: events_per_iter(&summary),
                makespan_ms: summary.makespan_ms,
                p50_ms: summary.p50_ms,
                p99_ms: summary.p99_ms,
                fingerprint: summary.fingerprint,
                wall_ms: recorded(cfg.include_timing, wall_ms),
                iters_per_sec: recorded(cfg.include_timing, iters_per_sec),
            });
        }
        if scenario == "incast" {
            assert!(
                p99_by_mode[1] > p99_by_mode[0],
                "incast shared-rate p99 ({}) must exceed the FIFO model's ({})",
                p99_by_mode[1],
                p99_by_mode[0],
            );
        }
    }
    points
}

/// Simulator events per completed iteration of one run.
fn events_per_iter(summary: &RunSummary) -> f64 {
    summary.events as f64 / summary.completed.max(1) as f64
}

/// Runs the sweep.
pub fn run_sweep(cfg: &DesBenchConfig) -> DesBenchReport {
    let model = skewed_model(cfg.tables);
    let profile = DatasetProfiler::profile_model(&model, cfg.profile_samples, cfg.seed);
    let mut points = Vec::new();
    for &gpus in &cfg.gpu_counts {
        let system = bench_system(model.total_bytes(), gpus);
        for (nodes, plan) in sweep_plans(cfg, &profile, gpus) {
            let (summary, wall_ms) = best_of(cfg.include_timing, || {
                ClusterSimulator::new(&model, &plan, &profile, &system, cfg.cluster_config()).run()
            });
            let wall_s = (wall_ms / 1e3).max(1e-12);
            let iters_per_sec = summary.completed as f64 / wall_s;
            let events_per_sec = summary.events as f64 / wall_s;
            println!(
                "des_bench: {gpus} GPUs x {nodes} node(s): {} events in {wall_ms:.1} ms \
                 ({iters_per_sec:.0} iters/s, {events_per_sec:.0} events/s wall), \
                 virtual {:.1} iters/s, \
                 sojourn p50/p99 {:.3}/{:.3} ms, fingerprint {:#018x}",
                summary.events,
                summary.throughput_iters_per_s,
                summary.p50_ms,
                summary.p99_ms,
                summary.fingerprint,
            );
            points.push(DesBenchPoint {
                gpus,
                nodes,
                iterations: summary.completed,
                events: summary.events,
                events_per_iter: events_per_iter(&summary),
                reshards: summary.reshards,
                makespan_ms: summary.makespan_ms,
                virtual_iters_per_s: summary.throughput_iters_per_s,
                p50_ms: summary.p50_ms,
                p99_ms: summary.p99_ms,
                fingerprint: summary.fingerprint,
                wall_ms: recorded(cfg.include_timing, wall_ms),
                iters_per_sec: recorded(cfg.include_timing, iters_per_sec),
                events_per_sec: recorded(cfg.include_timing, events_per_sec),
            });
        }
    }
    let contention = run_contention_sweep(cfg, &profile);
    DesBenchReport {
        seed: cfg.seed,
        timed: cfg.include_timing,
        points,
        contention,
    }
}

/// Runs the sweep's smallest flat point once with a [`Collector`] attached:
/// the seeded smoke run whose JSONL/Chrome-trace/metrics artifacts CI
/// exports, and the subject of the observability determinism tests.
///
/// # Panics
///
/// Panics if the configuration sweeps no GPU counts.
pub fn traced_smoke(cfg: &DesBenchConfig) -> (RunSummary, ObsBundle) {
    let gpus = *cfg.gpu_counts.first().expect("sweep needs a GPU count");
    let model = skewed_model(cfg.tables);
    let profile = DatasetProfiler::profile_model(&model, cfg.profile_samples, cfg.seed);
    let system = bench_system(model.total_bytes(), gpus);
    let plan = Strategy::RecShard.plan(&model, &profile, &system);
    let mut collector = Collector::new();
    let summary = ClusterSimulator::new(&model, &plan, &profile, &system, cfg.cluster_config())
        .with_obs(&mut collector)
        .run();
    (summary, collector.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::TIMING_DISABLED;

    #[test]
    fn tiny_sweep_is_deterministic_and_sound() {
        let cfg = DesBenchConfig::tiny();
        let a = run_sweep(&cfg);
        let b = run_sweep(&cfg);
        assert_eq!(a, b, "same seed must reproduce the same sweep");
        assert_eq!(a.artifact().to_json(), b.artifact().to_json());
        assert_eq!(a.points.len(), 2, "flat + hierarchical at one GPU count");
        assert_eq!(a.points[0].nodes, 1, "flat point first");
        assert!(a.points[1].nodes > 1, "hierarchical point second");
        for p in &a.points {
            assert_eq!(p.iterations, cfg.iterations);
            assert!(p.events > p.iterations, "every iteration takes >1 event");
            assert!(p.p50_ms > 0.0 && p.p50_ms <= p.p99_ms);
            assert!(p.virtual_iters_per_s > 0.0);
            assert_eq!(p.wall_ms, TIMING_DISABLED);
            assert_eq!(p.iters_per_sec, TIMING_DISABLED);
            assert_eq!(p.events_per_sec, TIMING_DISABLED);
        }
        assert_eq!(
            a.contention.len(),
            4,
            "uniform + incast, each under both contention modes"
        );
        for p in &a.contention {
            assert_eq!(p.iterations, cfg.contention_iterations);
            assert!(p.p50_ms > 0.0 && p.p50_ms <= p.p99_ms);
            assert_eq!(p.events_per_iter, p.events as f64 / p.iterations as f64);
            assert_eq!(p.wall_ms, TIMING_DISABLED);
            assert_eq!(p.iters_per_sec, TIMING_DISABLED);
        }
        let find = |scenario: &str, mode: &str| {
            a.contention
                .iter()
                .find(|p| p.scenario == scenario && p.mode == mode)
                .unwrap_or_else(|| panic!("missing contention point {scenario}/{mode}"))
        };
        // The sweep itself asserts this, but pin the acceptance criterion
        // here too: incast queueing is visible only to the shared-rate model.
        assert!(find("incast", "shared_rate").p99_ms > find("incast", "fifo").p99_ms);
        assert!(find("incast", "fifo").nodes > 1);
        assert_eq!(find("uniform", "fifo").nodes, 1);
    }

    #[test]
    fn timing_mode_changes_json_but_not_fingerprint() {
        let mut cfg = DesBenchConfig::tiny();
        cfg.iterations = 60;
        let untimed = run_sweep(&cfg);
        cfg.include_timing = true;
        let timed = run_sweep(&cfg);
        let (u, t) = (untimed.artifact(), timed.artifact());
        assert_ne!(u.to_json(), t.to_json());
        assert_eq!(u.fingerprint(), t.fingerprint());
        let point = &timed.points[0];
        assert!(point.wall_ms >= 0.0);
        assert!(point.iters_per_sec > 0.0 && point.events_per_sec > point.iters_per_sec);
        let ratio = point.events_per_sec / point.iters_per_sec;
        assert!((ratio - point.events_per_iter).abs() < 1e-9 * point.events_per_iter);
        for p in &timed.contention {
            assert!(p.wall_ms >= 0.0 && p.iters_per_sec > 0.0);
        }
    }

    #[test]
    fn traced_smoke_matches_untraced_run_and_bundles_everything() {
        let mut cfg = DesBenchConfig::tiny();
        cfg.iterations = 40;
        let (summary, bundle) = traced_smoke(&cfg);
        let plain = run_sweep(&cfg);
        assert_eq!(
            summary.fingerprint, plain.points[0].fingerprint,
            "the traced smoke run must replay the flat sweep point exactly"
        );
        assert!(
            !bundle.trace.is_empty(),
            "the smoke run must record a trace"
        );
        let jsonl = bundle.trace.to_jsonl();
        assert_eq!(jsonl.lines().count(), bundle.trace.len());
        let chrome = bundle.trace.to_chrome();
        assert!(chrome.starts_with("{\"traceEvents\":["));
        assert!(chrome.trim_end().ends_with("]}"));
    }
}
