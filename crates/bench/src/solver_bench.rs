//! The `solver_scaling` sweep: the repo's first tracked perf-trajectory
//! artifact.
//!
//! Sweeps table count × GPU count under identical seeds, running four
//! placement paths per point — size-lookup greedy, the default unbucketed
//! [`StructuredSolver`], the same solver bucketed ([`ScalableSolver`]), and
//! the two-level [`HierarchicalSolver`] — and scores every plan with the
//! *same* exact cost model (max per-GPU coverage-weighted milliseconds). The
//! result serialises to a canonical `BENCH_solver.json`.
//!
//! Determinism contract: everything in the JSON is a pure function of the
//! sweep configuration and seed, **except** wall-clock timings, which are
//! only measured into the file when
//! [`SolverBenchConfig::include_timing`] is set (`RECSHARD_BENCH_TIMING=1`);
//! otherwise the timing fields hold the documented `-1.0` sentinel so two
//! runs with the same seed emit byte-identical files. Measured wall times
//! are always printed to stdout. The scaled-down sweep is regression-locked
//! by `tests/golden_fingerprints.rs`.

use crate::artifact::{
    best_of, fnv_fold, recorded, row, Artifact, Better, PerfGate, Row, Spec, FNV_OFFSET,
};
use crate::{skewed_model, Strategy};
use recshard::{HierarchicalSolver, RecShardConfig, ScalableSolver, StructuredSolver};
use recshard_memsim::AnalyticalEstimator;
use recshard_sharding::{ClusterSpec, DeviceClass, NodeTopology, ShardingPlan, SystemSpec};
use recshard_stats::{DatasetProfile, DatasetProfiler};

/// The `BENCH_solver.json` artifact. It gates on plan cost, not on
/// fingerprint drift: a plan may legitimately change, but neither the
/// bucketed nor the default (unbucketed) solver's cost may regress (CI
/// byte-checks the file separately).
pub static SPEC: Spec = Spec {
    bench: "solver_scaling",
    file: "BENCH_solver.json",
    sections: &[
        ("points", &["tables", "gpus"]),
        ("hetero_points", &["tables", "gpus"]),
    ],
    timing: &[
        "wall_greedy_ms",
        "wall_structured_ms",
        "wall_scalable_ms",
        "wall_hierarchical_ms",
    ],
    drift_gated: false,
    perf: &[
        PerfGate {
            metric: "scalable_cost_ms",
            better: Better::Lower,
            tolerance: 0.02,
        },
        PerfGate {
            metric: "structured_cost_ms",
            better: Better::Lower,
            tolerance: 0.02,
        },
    ],
};

/// Sweep configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SolverBenchConfig {
    /// Table counts swept.
    pub table_counts: Vec<usize>,
    /// GPU counts swept.
    pub gpu_counts: Vec<usize>,
    /// Synthetic samples profiled per point.
    pub profile_samples: usize,
    /// Master seed.
    pub seed: u64,
    /// Measure wall-clock times into the report (breaks byte-stability of
    /// the JSON across runs; stdout always shows measured times).
    pub include_timing: bool,
}

impl SolverBenchConfig {
    /// The full production-scale sweep (100 → 5,000 tables × up to 16 GPUs).
    pub fn full() -> Self {
        Self {
            table_counts: vec![100, 500, 1_000, 2_500, 5_000],
            gpu_counts: vec![4, 8, 16],
            profile_samples: 1_200,
            seed: 0x5CA1E,
            include_timing: false,
        }
    }

    /// A seconds-scale sweep for tests and CI smoke runs.
    // recshard-lint: allow(test-only-pub) -- the reduced run the golden tests
    // under tests/ pin, which cannot reach a #[cfg(test)] item.
    pub fn tiny() -> Self {
        Self {
            table_counts: vec![24, 60],
            gpu_counts: vec![4],
            profile_samples: 600,
            seed: 0x5CA1E,
            include_timing: false,
        }
    }
}

/// One sweep point's results.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// Tables in the model.
    pub tables: usize,
    /// GPUs in the system.
    pub gpus: usize,
    /// Nodes of the hierarchical path's topology.
    pub nodes: usize,
    /// Max per-GPU cost (ms) of the greedy size-lookup baseline plan.
    pub greedy_cost_ms: f64,
    /// Max per-GPU cost (ms) of the default unbucketed solver plan.
    pub structured_cost_ms: f64,
    /// Max per-GPU cost (ms) of the bucketed solver plan.
    pub scalable_cost_ms: f64,
    /// Max per-GPU cost (ms) of the two-level hierarchical plan.
    pub hierarchical_cost_ms: f64,
    /// `scalable_cost_ms / greedy_cost_ms` (≤ 1: never worse than greedy).
    pub scalable_vs_greedy: f64,
    /// `scalable_cost_ms / structured_cost_ms` (≤ 1.01: bucketing costs at
    /// most 1% over the unbucketed solve).
    pub scalable_vs_structured: f64,
    /// Buckets the preprocessor collapsed the tables into.
    pub buckets: usize,
    /// `tables / buckets`.
    pub compression_ratio: f64,
    /// Expected inter-node bytes per iteration of the hierarchical plan.
    pub internode_bytes_per_iter: f64,
    /// FNV-1a fingerprint of the scalable plan's placements.
    pub scalable_plan_fingerprint: u64,
    /// Greedy wall time (ms), or the `-1` sentinel when untimed.
    pub wall_greedy_ms: f64,
    /// Structured solve wall time (ms), or the `-1` sentinel when untimed.
    pub wall_structured_ms: f64,
    /// Scalable solve wall time (ms), or the `-1` sentinel when untimed.
    pub wall_scalable_ms: f64,
    /// Hierarchical solve wall time (ms), or the `-1` sentinel when untimed.
    pub wall_hierarchical_ms: f64,
}

impl SweepPoint {
    /// The point's `points` row.
    pub fn row(&self) -> Row {
        row![
            tables: Int(self.tables as u64), gpus: Int(self.gpus as u64),
            nodes: Int(self.nodes as u64), greedy_cost_ms: Float(self.greedy_cost_ms),
            structured_cost_ms: Float(self.structured_cost_ms),
            scalable_cost_ms: Float(self.scalable_cost_ms),
            hierarchical_cost_ms: Float(self.hierarchical_cost_ms),
            scalable_vs_greedy: Float(self.scalable_vs_greedy),
            scalable_vs_structured: Float(self.scalable_vs_structured),
            buckets: Int(self.buckets as u64), compression_ratio: Float(self.compression_ratio),
            internode_bytes_per_iter: Float(self.internode_bytes_per_iter),
            scalable_plan_fingerprint: Fingerprint(self.scalable_plan_fingerprint),
            wall_greedy_ms: Timing(self.wall_greedy_ms),
            wall_structured_ms: Timing(self.wall_structured_ms),
            wall_scalable_ms: Timing(self.wall_scalable_ms),
            wall_hierarchical_ms: Timing(self.wall_hierarchical_ms),
        ]
    }
}

/// One `hetero_scaling` point: the same skewed workload placed on a mixed
/// two-class cluster (half fast/large-HBM devices, half slow/small-HBM), the
/// class-aware scalable solver against the class-blind greedy baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct HeteroPoint {
    /// Tables in the model.
    pub tables: usize,
    /// Total GPUs (evenly split between the two classes).
    pub gpus: usize,
    /// GPUs of the fast/large class.
    pub big_gpus: usize,
    /// GPUs of the slow/small class.
    pub small_gpus: usize,
    /// Max per-GPU cost (ms) of the class-blind greedy size-lookup plan.
    pub greedy_cost_ms: f64,
    /// Max per-GPU cost (ms) of the class-aware scalable plan.
    pub scalable_cost_ms: f64,
    /// `scalable_cost_ms / greedy_cost_ms` — asserted *strictly* below 1 on
    /// skewed-capacity clusters (the class-aware solver must win).
    pub scalable_vs_greedy: f64,
    /// FNV-1a fingerprint of the scalable plan's placements.
    pub scalable_plan_fingerprint: u64,
}

impl HeteroPoint {
    /// The point's `hetero_points` row.
    pub fn row(&self) -> Row {
        row![
            tables: Int(self.tables as u64), gpus: Int(self.gpus as u64),
            big_gpus: Int(self.big_gpus as u64), small_gpus: Int(self.small_gpus as u64),
            greedy_cost_ms: Float(self.greedy_cost_ms),
            scalable_cost_ms: Float(self.scalable_cost_ms),
            scalable_vs_greedy: Float(self.scalable_vs_greedy),
            scalable_plan_fingerprint: Fingerprint(self.scalable_plan_fingerprint),
        ]
    }
}

/// The full sweep result.
#[derive(Debug, Clone, PartialEq)]
pub struct SolverBenchReport {
    /// Seed the sweep ran under.
    pub seed: u64,
    /// Whether timing fields hold measurements.
    pub timed: bool,
    /// Per-point results, sweep order (tables outer, gpus inner).
    pub points: Vec<SweepPoint>,
    /// Heterogeneous-cluster results, one per table count.
    pub hetero: Vec<HeteroPoint>,
}

impl SolverBenchReport {
    /// The `BENCH_solver.json` artifact.
    pub fn artifact(&self) -> Artifact {
        let rows = vec![
            self.points.iter().map(SweepPoint::row).collect(),
            self.hetero.iter().map(HeteroPoint::row).collect(),
        ];
        Artifact::new(&SPEC, self.seed, self.timed, rows)
    }
}

/// Node grid used by the hierarchical path at a given GPU count.
pub fn bench_topology(gpus: usize) -> NodeTopology {
    if gpus >= 16 && gpus.is_multiple_of(4) {
        NodeTopology::new(4, gpus / 4)
    } else if gpus >= 4 && gpus.is_multiple_of(2) {
        NodeTopology::new(2, gpus / 2)
    } else {
        NodeTopology::single(gpus)
    }
}

/// The evaluation system at a sweep point: per-GPU HBM holds about a third
/// of the model's fair share (the paper's capacity-pressure regime), DRAM
/// holds everything.
pub fn bench_system(model_bytes: u64, gpus: usize) -> SystemSpec {
    SystemSpec::uniform(
        gpus,
        (model_bytes / (3 * gpus as u64)).max(1),
        model_bytes,
        1555.0,
        16.0,
    )
}

/// The mixed two-class evaluation cluster of the `hetero_scaling` points:
/// the *aggregate* HBM equals [`bench_system`]'s (same overall capacity
/// pressure) but it is skewed 3:1 between a fast H100-like class and a slow
/// A100-like class, each holding half the GPUs. A class-blind cost model
/// balances load evenly across GPUs and starves on the small/slow half; the
/// class-aware solvers shift hot splits toward the big/fast half.
pub fn hetero_bench_system(model_bytes: u64, gpus: usize) -> ClusterSpec {
    assert!(
        gpus >= 2 && gpus.is_multiple_of(2),
        "hetero points need an even GPU count"
    );
    let fair = (model_bytes / (3 * gpus as u64)).max(2);
    let big = DeviceClass::new("h100-like", fair / 2 * 3, model_bytes, 3350.0, 50.0);
    let small = DeviceClass::new("a100-like", fair / 2, model_bytes, 1555.0, 16.0);
    ClusterSpec::mixed(&[(big, gpus / 2), (small, gpus / 2)])
}

fn max_cost(
    solver: &StructuredSolver,
    model: &recshard_data::ModelSpec,
    profile: &DatasetProfile,
    system: &SystemSpec,
    plan: &ShardingPlan,
) -> f64 {
    // Grid-free exact objective: every plan is charged at its actual row
    // counts, including bucketed plans carrying representative-grid ones.
    solver
        .gpu_costs_exact(model, profile, system, plan)
        .into_iter()
        .fold(0.0f64, f64::max)
}

/// Order-sensitive FNV-1a hash over every placement's GPU, HBM rows,
/// total rows and row bytes: the plan fingerprint `BENCH_solver.json`
/// locks.
pub fn plan_fingerprint(plan: &ShardingPlan) -> u64 {
    let mut hash = FNV_OFFSET;
    for p in plan.placements() {
        for word in [p.gpu as u64, p.hbm_rows, p.total_rows, p.row_bytes] {
            fnv_fold(&mut hash, word);
        }
    }
    hash
}

/// Runs the sweep.
///
/// # Panics
///
/// Panics if a scalable plan costs more than greedy or more than 1% over
/// the structured solver's, or if a class-aware hetero plan fails to beat
/// class-blind greedy strictly.
pub fn run_sweep(cfg: &SolverBenchConfig) -> SolverBenchReport {
    let eval_config = RecShardConfig::default();
    let evaluator = StructuredSolver::new(eval_config);
    let mut points = Vec::new();

    for &tables in &cfg.table_counts {
        let model = skewed_model(tables);
        let profile = DatasetProfiler::profile_model(&model, cfg.profile_samples, cfg.seed);
        for &gpus in &cfg.gpu_counts {
            let system = bench_system(model.total_bytes(), gpus);
            let topology = bench_topology(gpus);

            let timed = cfg.include_timing;
            let (greedy_plan, wall_greedy) = best_of(timed, || {
                Strategy::SizeLookupBased.plan(&model, &profile, &system)
            });
            let (structured_plan, wall_structured) = best_of(timed, || {
                evaluator
                    .solve(&model, &profile, &system)
                    .expect("structured solve failed")
            });
            let ((scalable_plan, buckets, compression_ratio), wall_scalable) =
                best_of(timed, || {
                    let report = ScalableSolver::new(eval_config)
                        .solve_report(&model, &profile, &system)
                        .expect("scalable solve failed");
                    (report.plan, report.buckets, report.compression_ratio)
                });
            let (hier_plan, wall_hier) = best_of(timed, || {
                HierarchicalSolver::new(eval_config, topology)
                    .solve(&model, &profile, &system)
                    .expect("hierarchical solve failed")
            });

            let greedy_cost = max_cost(&evaluator, &model, &profile, &system, &greedy_plan);
            let structured_cost = max_cost(&evaluator, &model, &profile, &system, &structured_plan);
            let scalable_cost = max_cost(&evaluator, &model, &profile, &system, &scalable_plan);
            let hier_cost = max_cost(&evaluator, &model, &profile, &system, &hier_plan);
            let internode_bytes = AnalyticalEstimator::new(&profile, &system, model.batch_size())
                .internode_bytes_per_iteration(&hier_plan);
            let vs_greedy = scalable_cost / greedy_cost.max(1e-12);
            let vs_structured = scalable_cost / structured_cost.max(1e-12);
            assert!(
                vs_greedy <= 1.0 + 1e-9 && vs_structured <= 1.01 + 1e-9,
                "{tables} tables x {gpus} GPUs: the scalable plan must cost no more than greedy \
                 and stay within 1% of the structured solver (ratios {vs_greedy}, {vs_structured})"
            );

            points.push(SweepPoint {
                tables,
                gpus,
                nodes: topology.num_nodes,
                greedy_cost_ms: greedy_cost,
                structured_cost_ms: structured_cost,
                scalable_cost_ms: scalable_cost,
                hierarchical_cost_ms: hier_cost,
                scalable_vs_greedy: vs_greedy,
                scalable_vs_structured: vs_structured,
                buckets,
                compression_ratio,
                internode_bytes_per_iter: internode_bytes,
                scalable_plan_fingerprint: plan_fingerprint(&scalable_plan),
                wall_greedy_ms: recorded(timed, wall_greedy),
                wall_structured_ms: recorded(timed, wall_structured),
                wall_scalable_ms: recorded(timed, wall_scalable),
                wall_hierarchical_ms: recorded(timed, wall_hier),
            });
            println!(
                "solver_scaling: {tables} tables x {gpus} GPUs ({} nodes): \
                 greedy {wall_greedy:.1} ms, structured {wall_structured:.1} ms, \
                 scalable {wall_scalable:.1} ms ({} buckets, {:.2}x), \
                 hierarchical {wall_hier:.1} ms | cost vs greedy {vs_greedy:.3}, \
                 vs structured {vs_structured:.4}",
                topology.num_nodes, buckets, compression_ratio,
            );
        }
    }

    // ---- hetero_scaling: mixed two-class cluster, one point per table
    // count at the sweep's largest even GPU count ----
    let mut hetero = Vec::new();
    let hetero_gpus = cfg.gpu_counts.iter().copied().filter(|g| g % 2 == 0).max();
    if let Some(gpus) = hetero_gpus {
        for &tables in &cfg.table_counts {
            let model = skewed_model(tables);
            let profile = DatasetProfiler::profile_model(&model, cfg.profile_samples, cfg.seed);
            let system = hetero_bench_system(model.total_bytes(), gpus);
            let greedy_plan = Strategy::SizeLookupBased.plan(&model, &profile, &system);
            let scalable_plan = ScalableSolver::new(eval_config)
                .solve(&model, &profile, &system)
                .expect("hetero scalable solve failed");
            let greedy_cost = max_cost(&evaluator, &model, &profile, &system, &greedy_plan);
            let scalable_cost = max_cost(&evaluator, &model, &profile, &system, &scalable_plan);
            let ratio = scalable_cost / greedy_cost.max(1e-12);
            assert!(
                ratio < 1.0,
                "{tables} tables x {gpus} GPUs mixed cluster: the class-aware solver must beat \
                 class-blind greedy strictly (ratio {ratio})"
            );
            println!(
                "hetero_scaling: {tables} tables x {gpus} GPUs ({}+{} mixed): class-aware vs class-blind greedy cost ratio {ratio:.3}",
                gpus / 2,
                gpus / 2,
            );
            hetero.push(HeteroPoint {
                tables,
                gpus,
                big_gpus: gpus / 2,
                small_gpus: gpus / 2,
                greedy_cost_ms: greedy_cost,
                scalable_cost_ms: scalable_cost,
                scalable_vs_greedy: ratio,
                scalable_plan_fingerprint: plan_fingerprint(&scalable_plan),
            });
        }
    }

    SolverBenchReport {
        seed: cfg.seed,
        timed: cfg.include_timing,
        points,
        hetero,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::TIMING_DISABLED;

    #[test]
    fn tiny_sweep_is_deterministic_and_sound() {
        let cfg = SolverBenchConfig::tiny();
        let a = run_sweep(&cfg);
        let b = run_sweep(&cfg);
        assert_eq!(a, b, "same seed must reproduce the same sweep");
        assert_eq!(a.artifact().to_json(), b.artifact().to_json());
        assert_eq!(a.points.len(), 2);
        // run_sweep asserts the cost bounds in-line.
        for p in &a.points {
            assert!(p.compression_ratio >= 1.0);
            assert_eq!(p.wall_scalable_ms, TIMING_DISABLED);
        }
    }

    #[test]
    fn hetero_points_class_aware_strictly_beats_class_blind_greedy() {
        let report = run_sweep(&SolverBenchConfig::tiny());
        assert_eq!(report.hetero.len(), 2, "one hetero point per table count");
        for h in &report.hetero {
            assert_eq!(h.big_gpus + h.small_gpus, h.gpus);
        }
        // run_sweep asserts the strict win on every hetero point in-line.
    }

    #[test]
    fn hetero_system_preserves_aggregate_pressure() {
        let model = skewed_model(24);
        let uniform = bench_system(model.total_bytes(), 4);
        let mixed = hetero_bench_system(model.total_bytes(), 4);
        assert_eq!(mixed.num_classes(), 2);
        // Same aggregate HBM (up to the /2*3 rounding), skewed 3:1 per GPU.
        let tol = 4 * 2; // one rounding unit per GPU
        assert!(
            mixed
                .total_hbm_capacity()
                .abs_diff(uniform.total_hbm_capacity())
                <= tol,
            "aggregate HBM must match the uniform bench system ({} vs {})",
            mixed.total_hbm_capacity(),
            uniform.total_hbm_capacity()
        );
        assert_eq!(mixed.hbm_capacity(0), 3 * mixed.hbm_capacity(3));
    }

    #[test]
    fn timing_mode_changes_json_but_not_fingerprint() {
        let mut cfg = SolverBenchConfig::tiny();
        cfg.table_counts = vec![24];
        let untimed = run_sweep(&cfg);
        cfg.include_timing = true;
        let timed = run_sweep(&cfg);
        let (u, t) = (untimed.artifact(), timed.artifact());
        assert_ne!(u.to_json(), t.to_json());
        assert_eq!(u.fingerprint(), t.fingerprint());
        assert!(timed.points[0].wall_scalable_ms >= 0.0);
    }
}
