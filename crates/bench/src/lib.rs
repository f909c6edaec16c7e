//! # recshard-bench
//!
//! The experiment harness that regenerates every table and figure of the
//! RecShard paper's evaluation (Section 6), plus the Criterion benchmarks.
//!
//! Each `src/bin/*.rs` binary reproduces one table or figure; this library
//! holds the shared machinery: scaled-down reference models (RM1/RM2/RM3 and
//! the 16-GPU system, both divided by the same factor so capacity *pressure*
//! matches the paper), the four sharding strategies under comparison, and the
//! simulation driver that measures iteration times and per-tier access
//! counts.
//!
//! Absolute milliseconds differ from the paper's A100 testbed (the substrate
//! here is a simulator); the comparisons the paper draws — which strategy
//! wins, by what factor, how access counts shift between HBM and UVM — are
//! reproduced by these harnesses.

// The harness renders its human-readable report tables on stdout by design;
// machine-readable output goes to the BENCH_*.json artifacts instead.
#![allow(clippy::print_stdout)]

pub mod artifact;
pub mod des_bench;
pub mod report;
pub mod scenario_bench;
pub mod serve_bench;
pub mod solver_bench;

use recshard::{RecShard, RecShardConfig};
use recshard_data::{FeatureClass, FeatureId, FeatureSpec, ModelSpec, PoolingSpec, RmKind};
use recshard_des::{ArrivalProcess, ClusterConfig, ClusterSimulator, RunSummary};
use recshard_memsim::{AnalyticalEstimator, EmbeddingOpSimulator, RunReport, SimConfig};
use recshard_sharding::{
    GreedySharder, LookupCost, ShardingPlan, SizeCost, SizeLookupCost, SystemSpec,
};
use recshard_stats::{DatasetProfile, DatasetProfiler};

/// Configuration shared by the experiment binaries.
#[derive(Debug, Clone, Copy)]
pub struct ExperimentConfig {
    /// Factor by which production row counts and memory capacities are divided.
    pub scale: u64,
    /// Number of GPUs (the paper evaluates on 16).
    pub gpus: usize,
    /// Synthetic training samples profiled before sharding.
    pub profile_samples: usize,
    /// Simulated training iterations per measurement.
    pub sim_iterations: usize,
    /// Samples traced per simulated iteration (scaled up to the paper's
    /// 16,384 batch for reporting).
    pub sim_batch: usize,
    /// Base RNG seed.
    pub seed: u64,
}

impl ExperimentConfig {
    /// A configuration that runs every experiment in seconds on a laptop
    /// while preserving the paper's capacity pressure.
    pub fn fast() -> Self {
        Self {
            scale: 2048,
            gpus: 16,
            profile_samples: 4_000,
            sim_iterations: 3,
            sim_batch: 256,
            seed: 0xA5F0,
        }
    }

    /// A smaller configuration for tests.
    // recshard-lint: allow(test-only-pub) -- the reduced run the golden tests
    // under tests/ pin, which cannot reach a #[cfg(test)] item.
    pub fn tiny() -> Self {
        Self {
            scale: 16_384,
            gpus: 4,
            profile_samples: 800,
            sim_iterations: 2,
            sim_batch: 64,
            seed: 7,
        }
    }

    /// The scaled reference model for one of the paper's RMs.
    pub fn model(&self, kind: RmKind) -> ModelSpec {
        ModelSpec::reference(kind).scaled(self.scale)
    }

    /// The scaled evaluation system with this configuration's GPU count.
    pub fn system(&self) -> SystemSpec {
        SystemSpec::paper_with_gpus(self.gpus).scaled(self.scale)
    }

    /// The simulation configuration (results reported at the paper's batch
    /// size of 16,384).
    pub fn sim_config(&self) -> SimConfig {
        SimConfig {
            kernel_overhead_us_per_table: 8.0,
            scale_to_batch: Some(recshard_data::model::PAPER_BATCH_SIZE),
        }
    }

    /// Builds the model, system and profile every experiment binary starts
    /// from — the shared first step of Figures 5/6/12/13 and Tables 3–6.
    pub fn setup(&self, kind: RmKind) -> ExperimentSetup {
        let model = self.model(kind);
        let system = self.system();
        let profile = DatasetProfiler::profile_model(&model, self.profile_samples, self.seed);
        ExperimentSetup {
            kind,
            model,
            system,
            profile,
        }
    }

    /// The discrete-event cluster configuration matching this experiment
    /// scale: same traced batch and batch scaling as
    /// [`sim_config`](Self::sim_config), `iterations` simulated arrivals at
    /// `arrival`.
    pub fn des_config(&self, iterations: u64, arrival: ArrivalProcess) -> ClusterConfig {
        ClusterConfig {
            batch_size: self.sim_batch,
            iterations,
            seed: self.seed ^ 0xDE5,
            arrival,
            kernel_overhead_us_per_table: 8.0,
            scale_to_batch: Some(recshard_data::model::PAPER_BATCH_SIZE),
            ..ClusterConfig::default()
        }
    }
}

/// The profiled starting point shared by the experiment binaries: one
/// reference model, the evaluation system, and the dataset profile every
/// strategy consumes.
#[derive(Debug, Clone)]
pub struct ExperimentSetup {
    /// Which reference model this setup describes.
    pub kind: RmKind,
    /// The scaled reference model.
    pub model: ModelSpec,
    /// The scaled evaluation system.
    pub system: SystemSpec,
    /// The profile every strategy shards from.
    pub profile: DatasetProfile,
}

impl ExperimentSetup {
    /// Produces `strategy`'s plan for this setup.
    pub fn plan(&self, strategy: Strategy) -> ShardingPlan {
        strategy.plan(&self.model, &self.profile, &self.system)
    }

    /// Replays a plan through the discrete-event cluster simulator. Solve the
    /// plan once with [`plan`](Self::plan) and reuse it across calls —
    /// RecShard's solve is the expensive phase.
    pub fn des_summary(&self, plan: &ShardingPlan, config: ClusterConfig) -> RunSummary {
        ClusterSimulator::new(&self.model, plan, &self.profile, &self.system, config).run()
    }

    /// An arrival interval at which `plan` is lightly loaded: `headroom` ×
    /// the analytical iteration-time estimate of the plan (use `headroom > 1`
    /// for a stable queue, larger values for unloaded runs).
    pub fn arrival_interval_ms(&self, plan: &ShardingPlan, headroom: f64) -> f64 {
        let batch = recshard_data::model::PAPER_BATCH_SIZE;
        AnalyticalEstimator::new(&self.profile, &self.system, batch).iteration_time_ms(plan)
            * headroom
    }
}

/// A deliberately skewed multi-hot Zipf feature universe: every table
/// power-law distributed (exponents 1.05–1.6), table sizes spanning two
/// orders of magnitude, mixed pooling and coverage. This is the canonical
/// "skewed workload" shared by the `des_bench`, `serve_qps` and
/// `solver_scaling` sweeps and the DES integration tests, where hot-row
/// placement decides how much traffic crosses the UVM link.
pub fn skewed_model(tables: usize) -> ModelSpec {
    let features = (0..tables)
        .map(|i| {
            let hash_size = 1u64 << (10 + (i % 8));
            FeatureSpec {
                id: FeatureId(i as u32),
                name: format!("skewed_{i}"),
                class: if i % 3 == 0 {
                    FeatureClass::User
                } else {
                    FeatureClass::Content
                },
                cardinality: hash_size * 4,
                hash_size,
                zipf_exponent: 1.05 + 0.55 * (i as f64 / tables.max(1) as f64),
                pooling: match i % 3 {
                    0 => PoolingSpec::OneHot,
                    1 => PoolingSpec::Constant(2),
                    _ => PoolingSpec::LongTail { mean: 8.0, max: 32 },
                },
                coverage: match i % 4 {
                    0 => 1.0,
                    1 => 0.8,
                    2 => 0.5,
                    _ => 0.2,
                },
                embedding_dim: 64,
                bytes_per_element: 4,
                hash_seed: 0xBEEF ^ i as u64,
            }
        })
        .collect();
    ModelSpec::new("skewed-zipf", RmKind::Custom, features, 512)
}

/// The four sharding strategies compared throughout Section 6.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// Size-based greedy baseline (SB).
    SizeBased,
    /// Lookup-based greedy baseline (LB).
    LookupBased,
    /// Size-and-Lookup greedy baseline (SBL).
    SizeLookupBased,
    /// RecShard (the paper's contribution).
    RecShard,
}

impl Strategy {
    /// All strategies in the order the paper's tables list them.
    pub fn all() -> [Strategy; 4] {
        [
            Strategy::SizeBased,
            Strategy::LookupBased,
            Strategy::SizeLookupBased,
            Strategy::RecShard,
        ]
    }

    /// Human-readable label.
    pub fn label(&self) -> &'static str {
        match self {
            Strategy::SizeBased => "Size-Based",
            Strategy::LookupBased => "Lookup-Based",
            Strategy::SizeLookupBased => "Size-Based-Lookup",
            Strategy::RecShard => "RecShard",
        }
    }

    /// Produces this strategy's plan.
    ///
    /// # Panics
    ///
    /// Panics if the strategy cannot place the model on the system (the
    /// experiment configurations are chosen so it always can).
    pub fn plan(
        &self,
        model: &ModelSpec,
        profile: &DatasetProfile,
        system: &SystemSpec,
    ) -> ShardingPlan {
        match self {
            Strategy::SizeBased => GreedySharder::new(SizeCost)
                .shard(model, profile, system)
                .expect("size-based sharding failed"),
            Strategy::LookupBased => GreedySharder::new(LookupCost)
                .shard(model, profile, system)
                .expect("lookup-based sharding failed"),
            Strategy::SizeLookupBased => GreedySharder::new(SizeLookupCost)
                .shard(model, profile, system)
                .expect("size-lookup sharding failed"),
            Strategy::RecShard => RecShard::new(RecShardConfig::default())
                .plan(model, profile, system)
                .expect("recshard sharding failed"),
        }
    }
}

/// The profile, plans and simulated run reports of one model under all four
/// strategies.
#[derive(Debug, Clone)]
pub struct StrategyComparison {
    /// Which reference model was evaluated.
    pub kind: RmKind,
    /// The profile used by every strategy.
    pub profile: DatasetProfile,
    /// `(strategy, plan, simulated run report)` for each strategy.
    pub results: Vec<(Strategy, ShardingPlan, RunReport)>,
}

impl StrategyComparison {
    /// The result entry of one strategy.
    pub fn result(&self, strategy: Strategy) -> &(Strategy, ShardingPlan, RunReport) {
        self.results
            .iter()
            .find(|(s, _, _)| *s == strategy)
            .expect("strategy present")
    }
}

/// Profiles a reference model and runs the full strategy comparison
/// (Tables 3–5, Figures 11–13 all consume this).
pub fn compare_strategies(kind: RmKind, cfg: &ExperimentConfig) -> StrategyComparison {
    let setup = cfg.setup(kind);
    let results = Strategy::all()
        .into_iter()
        .map(|strategy| {
            let plan = setup.plan(strategy);
            let mut sim = EmbeddingOpSimulator::new(
                &setup.model,
                &plan,
                &setup.profile,
                &setup.system,
                cfg.sim_config(),
            );
            let report = sim.run(cfg.sim_iterations, cfg.sim_batch, cfg.seed ^ 0x5EED);
            (strategy, plan, report)
        })
        .collect();
    StrategyComparison {
        kind,
        profile: setup.profile,
        results,
    }
}

/// Formats a number with thousands separators for table output.
pub fn fmt_count(value: f64) -> String {
    let v = value.round() as i128;
    let s = v.abs().to_string();
    let mut out = String::new();
    for (i, c) in s.chars().enumerate() {
        if i > 0 && (s.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(c);
    }
    if v < 0 {
        format!("-{out}")
    } else {
        out
    }
}

/// Prints a Markdown-style table row.
pub fn print_row(cells: &[String]) {
    println!("| {} |", cells.join(" | "));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_count_inserts_separators() {
        assert_eq!(fmt_count(1234567.0), "1,234,567");
        assert_eq!(fmt_count(12.4), "12");
        assert_eq!(fmt_count(0.0), "0");
    }

    #[test]
    fn tiny_experiment_runs_all_strategies() {
        let cfg = ExperimentConfig::tiny();
        let cmp = compare_strategies(RmKind::Rm1, &cfg);
        assert_eq!(cmp.results.len(), 4);
        for (_, plan, report) in &cmp.results {
            assert_eq!(plan.num_gpus(), cfg.gpus);
            assert!(report.iteration_time_ms() > 0.0);
        }
        // RecShard never loses to the worst baseline on iteration time.
        let worst_baseline = cmp
            .results
            .iter()
            .filter(|(s, _, _)| *s != Strategy::RecShard)
            .map(|(_, _, r)| r.iteration_time_ms())
            .fold(0.0f64, f64::max);
        let recshard = cmp.result(Strategy::RecShard).2.iteration_time_ms();
        assert!(recshard <= worst_baseline * 1.2);
    }

    #[test]
    fn setup_and_des_helpers_are_consistent() {
        let cfg = ExperimentConfig::tiny();
        let setup = cfg.setup(RmKind::Rm1);
        assert_eq!(setup.model.num_features(), setup.profile.num_features());
        assert_eq!(setup.system.num_gpus(), cfg.gpus);
        let plan = setup.plan(Strategy::RecShard);
        let interval = setup.arrival_interval_ms(&plan, 2.0);
        assert!(interval > 0.0);
        let summary = setup.des_summary(
            &plan,
            cfg.des_config(
                20,
                recshard_des::ArrivalProcess::FixedRate {
                    interval_ms: interval,
                },
            ),
        );
        assert_eq!(summary.completed, 20);
        assert_eq!(summary.num_gpus, cfg.gpus);
        assert_eq!(summary.strategy, "recshard");
    }

    #[test]
    fn strategy_labels_are_unique() {
        let labels: std::collections::HashSet<_> =
            Strategy::all().iter().map(|s| s.label()).collect();
        assert_eq!(labels.len(), 4);
    }
}
