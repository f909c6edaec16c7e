//! Trace-driven embedding-operator simulation.
//!
//! Simulates single iterations in isolation: each run draws fresh multi-hot
//! batches from an [`IterationWorkload`], which routes every lookup through
//! the plan's HBM rows (via the fused per-table [`TableSampler`]s), and
//! charges the bandwidth-bound timing model. For time-extended behaviour —
//! queueing between iterations, the all-to-all barrier, p99 tails, drift
//! and online re-sharding — use the discrete-event cluster simulator in
//! `recshard-des`, which replays the same workload and reuses this crate's
//! timing model for its station service times.

use crate::counters::AccessCounters;
use crate::sampler::TableSampler;
use crate::timing::embedding_kernel_time_ms;
use crate::workload::IterationWorkload;
use rand::{Rng, SeedableRng};
use recshard_data::ModelSpec;
use recshard_sharding::{MemoryTier, ShardingPlan, SystemSpec};
use recshard_stats::{DatasetProfile, Summary};

/// Configuration of the embedding-operator simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    /// Fixed overhead charged per table kernel per iteration, in microseconds
    /// (models kernel launch + pooling arithmetic).
    pub kernel_overhead_us_per_table: f64,
    /// When set, counters and times are scaled from the simulated batch size
    /// up to this target batch size. This lets large-batch experiments run a
    /// representative sub-batch (e.g. simulate 1024 samples, report as if
    /// 16384) without changing which strategy wins or by how much.
    pub scale_to_batch: Option<u32>,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            kernel_overhead_us_per_table: 8.0,
            scale_to_batch: None,
        }
    }
}

/// Per-GPU results of one simulated training iteration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuIterationStats {
    /// The GPU these statistics describe.
    pub gpu: usize,
    /// Row-access and byte counters for the iteration.
    pub counters: AccessCounters,
    /// Embedding-operator time for the iteration, in milliseconds.
    pub time_ms: f64,
}

/// Results of one simulated training iteration across all GPUs.
#[derive(Debug, Clone, PartialEq)]
pub struct IterationReport {
    per_gpu: Vec<GpuIterationStats>,
}

impl IterationReport {
    /// Per-GPU statistics, indexed by GPU id.
    pub fn per_gpu(&self) -> &[GpuIterationStats] {
        &self.per_gpu
    }

    /// The iteration time: training is synchronous, so it is the slowest GPU's
    /// embedding time.
    pub fn iteration_time_ms(&self) -> f64 {
        self.per_gpu.iter().map(|g| g.time_ms).fold(0.0, f64::max)
    }
}

/// Aggregated results of a multi-iteration simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    strategy: String,
    /// Mean embedding time per iteration for each GPU.
    per_gpu_mean_time_ms: Vec<f64>,
    /// Mean per-iteration counters for each GPU.
    per_gpu_mean_counters: Vec<AccessCounters>,
}

impl RunReport {
    /// The sharding strategy that produced the simulated plan.
    pub fn strategy(&self) -> &str {
        &self.strategy
    }

    /// Min/max/mean/std of the per-GPU mean iteration times — the exact
    /// format of Table 3 in the paper. Training throughput is bound by the
    /// max; load balance is captured by the standard deviation.
    pub fn time_summary(&self) -> Summary {
        Summary::of(&self.per_gpu_mean_time_ms)
    }

    /// The effective EMB training iteration time (slowest GPU's mean).
    pub fn iteration_time_ms(&self) -> f64 {
        self.time_summary().max
    }

    /// Mean HBM accesses per GPU per iteration (Table 5).
    pub fn mean_hbm_accesses_per_gpu(&self) -> f64 {
        let n = self.per_gpu_mean_counters.len().max(1);
        self.per_gpu_mean_counters
            .iter()
            .map(|c| c.hbm_accesses as f64)
            .sum::<f64>()
            / n as f64
    }

    /// Mean UVM accesses per GPU per iteration (Table 5).
    pub fn mean_uvm_accesses_per_gpu(&self) -> f64 {
        let n = self.per_gpu_mean_counters.len().max(1);
        self.per_gpu_mean_counters
            .iter()
            .map(|c| c.uvm_accesses as f64)
            .sum::<f64>()
            / n as f64
    }

    /// Fraction of all embedding accesses served from UVM.
    pub fn uvm_access_fraction(&self) -> f64 {
        let mut total = AccessCounters::new();
        for c in &self.per_gpu_mean_counters {
            total.merge(c);
        }
        total.uvm_access_fraction()
    }
}

/// Trace-driven simulator of the model-parallel embedding operator: the
/// bandwidth-bound timing model charged over one [`IterationWorkload`].
///
/// One simulator instance can run any number of iterations over freshly
/// generated multi-hot batches.
#[derive(Debug, Clone)]
pub struct EmbeddingOpSimulator {
    workload: IterationWorkload,
    strategy: String,
    system: SystemSpec,
    config: SimConfig,
}

impl EmbeddingOpSimulator {
    /// Builds a simulator for a plan, selecting each table's HBM rows from
    /// the profile's hottest-first row ranking (Section 4.3).
    ///
    /// # Panics
    ///
    /// Panics if the plan, profile and model disagree on the feature count.
    pub fn new(
        model: &ModelSpec,
        plan: &ShardingPlan,
        profile: &DatasetProfile,
        system: &SystemSpec,
        config: SimConfig,
    ) -> Self {
        Self {
            workload: IterationWorkload::new(model, plan, profile),
            strategy: plan.strategy().to_string(),
            system: system.clone(),
            config,
        }
    }

    /// Simulates one iteration over a freshly drawn batch of
    /// `simulated_batch` samples using the given RNG.
    pub fn run_iteration<R: Rng + ?Sized>(
        &self,
        simulated_batch: usize,
        rng: &mut R,
    ) -> IterationReport {
        let counters = self.workload.sample_iteration(simulated_batch, rng);
        let tables_per_gpu = self.workload.tables_per_gpu();

        // Scale a sub-sampled batch up to the configured full batch size.
        let scale = self
            .config
            .scale_to_batch
            .map(|b| b as f64 / simulated_batch as f64)
            .unwrap_or(1.0)
            .max(1.0);

        let per_gpu = counters
            .into_iter()
            .enumerate()
            .map(|(gpu, c)| {
                let scaled = c.scaled(scale);
                let time_ms = embedding_kernel_time_ms(
                    &scaled,
                    &self.system,
                    gpu,
                    tables_per_gpu[gpu],
                    self.config.kernel_overhead_us_per_table,
                );
                GpuIterationStats {
                    gpu,
                    counters: scaled,
                    time_ms,
                }
            })
            .collect();
        IterationReport { per_gpu }
    }

    /// Simulates `iterations` iterations of `simulated_batch` samples each and
    /// aggregates the per-GPU means.
    pub fn run(&mut self, iterations: usize, simulated_batch: usize, seed: u64) -> RunReport {
        assert!(iterations > 0, "must simulate at least one iteration");
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let num_gpus = self.workload.num_gpus();
        let mut time_sums = vec![0.0f64; num_gpus];
        let mut counter_sums = vec![AccessCounters::new(); num_gpus];
        for _ in 0..iterations {
            let report = self.run_iteration(simulated_batch, &mut rng);
            for g in report.per_gpu() {
                time_sums[g.gpu] += g.time_ms;
                counter_sums[g.gpu].merge(&g.counters);
            }
        }
        let per_gpu_mean_time_ms = time_sums.iter().map(|t| t / iterations as f64).collect();
        let per_gpu_mean_counters = counter_sums
            .iter()
            .map(|c| c.scaled(1.0 / iterations as f64))
            .collect();
        RunReport {
            strategy: self.strategy.clone(),
            per_gpu_mean_time_ms,
            per_gpu_mean_counters,
        }
    }
}

/// Draws one batch of `simulated_batch` multi-hot samples and returns the
/// per-GPU tier access counters its lookups induce: for each feature, a
/// coverage draw, a pooling draw, then `pool` lookups through that
/// feature's [`TableSampler`] (a Zipf value, hashed, routed through the
/// placement's HBM rows), accumulated on `gpu_of[feature]`.
///
/// This is *the* trace-sampling kernel shared by the single-iteration
/// simulator here and the discrete-event cluster simulator in
/// `recshard-des`, so the two backends stay draw-for-draw comparable. It
/// allocates the result; [`sample_batch_accesses_into`] fills a
/// caller-owned buffer with the same counters from the same draws.
///
/// # Panics
///
/// Panics if `simulated_batch` is zero or the slices disagree with the
/// model's feature count.
pub fn sample_batch_accesses<R: Rng + ?Sized>(
    model: &ModelSpec,
    samplers: &[TableSampler],
    gpu_of: &[usize],
    num_gpus: usize,
    simulated_batch: usize,
    rng: &mut R,
) -> Vec<AccessCounters> {
    let mut counters = vec![AccessCounters::new(); num_gpus];
    sample_batch_accesses_into(model, samplers, gpu_of, simulated_batch, rng, &mut counters);
    counters
}

/// [`sample_batch_accesses`] into `out`, one entry per GPU: zeroes `out`,
/// then accumulates the batch's counters into it without allocating.
///
/// # Panics
///
/// Panics if `simulated_batch` is zero, the slices disagree with the
/// model's feature count, or a table's GPU is out of range of `out`.
pub fn sample_batch_accesses_into<R: Rng + ?Sized>(
    model: &ModelSpec,
    samplers: &[TableSampler],
    gpu_of: &[usize],
    simulated_batch: usize,
    rng: &mut R,
    out: &mut [AccessCounters],
) {
    assert!(
        simulated_batch > 0,
        "batch must contain at least one sample"
    );
    assert_eq!(
        samplers.len(),
        model.num_features(),
        "samplers/model mismatch"
    );
    assert_eq!(gpu_of.len(), model.num_features(), "gpu map/model mismatch");
    out.fill(AccessCounters::new());
    for ((spec, sampler), &gpu) in model.features().iter().zip(samplers).zip(gpu_of) {
        let mut hbm_rows = 0u64;
        let mut uvm_rows = 0u64;
        for _ in 0..simulated_batch {
            if rng.gen::<f64>() >= spec.coverage {
                continue;
            }
            let pool = sampler.sample_pooling(rng);
            for _ in 0..pool {
                match sampler.sample_tier(rng) {
                    MemoryTier::Hbm => hbm_rows += 1,
                    MemoryTier::Uvm => uvm_rows += 1,
                }
            }
        }
        let row_bytes = spec.row_bytes();
        out[gpu].record_hbm(hbm_rows, row_bytes);
        out[gpu].record_uvm(uvm_rows, row_bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use recshard_data::ModelSpec;
    use recshard_sharding::{GreedySharder, LookupCost, SizeCost, TablePlacement};
    use recshard_stats::DatasetProfiler;

    /// Accesses summed over every GPU of one iteration.
    fn total_counters(report: &IterationReport) -> AccessCounters {
        let mut total = AccessCounters::new();
        for g in report.per_gpu() {
            total.merge(&g.counters);
        }
        total
    }

    fn setup(n: usize) -> (ModelSpec, DatasetProfile, SystemSpec) {
        let model = ModelSpec::small(n, 5);
        let profile = DatasetProfiler::profile_model(&model, 2_000, 3);
        let system = SystemSpec::uniform(2, u64::MAX / 4, u64::MAX / 4, 1555.0, 16.0);
        (model, profile, system)
    }

    #[test]
    fn accesses_are_conserved_across_tiers() {
        let (model, profile, system) = setup(6);
        let plan = GreedySharder::new(SizeCost)
            .shard(&model, &profile, &system)
            .unwrap();
        let sim = EmbeddingOpSimulator::new(&model, &plan, &profile, &system, SimConfig::default());
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let report = sim.run_iteration(128, &mut rng);
        let total = total_counters(&report);
        // With everything in HBM, no UVM accesses may appear.
        assert_eq!(total.uvm_accesses, 0);
        assert!(total.hbm_accesses > 0);
        assert_eq!(report.per_gpu().len(), 2);
    }

    #[test]
    fn full_uvm_plan_sources_everything_from_uvm() {
        let (model, profile, system) = setup(4);
        let placements = model
            .features()
            .iter()
            .map(|f| TablePlacement {
                table: f.id,
                gpu: 0,
                hbm_rows: 0,
                total_rows: f.hash_size,
                row_bytes: f.row_bytes(),
            })
            .collect();
        let plan = ShardingPlan::new("all-uvm", 2, placements);
        let sim = EmbeddingOpSimulator::new(&model, &plan, &profile, &system, SimConfig::default());
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let report = sim.run_iteration(64, &mut rng);
        assert_eq!(total_counters(&report).hbm_accesses, 0);
        assert!(total_counters(&report).uvm_accesses > 0);
    }

    #[test]
    fn uvm_heavy_plan_is_slower_than_hbm_plan() {
        let (model, profile, system) = setup(6);
        let hbm_plan = GreedySharder::new(SizeCost)
            .shard(&model, &profile, &system)
            .unwrap();
        let uvm_placements = model
            .features()
            .iter()
            .map(|f| TablePlacement {
                table: f.id,
                gpu: f.id.index() % 2,
                hbm_rows: 0,
                total_rows: f.hash_size,
                row_bytes: f.row_bytes(),
            })
            .collect();
        let uvm_plan = ShardingPlan::new("all-uvm", 2, uvm_placements);
        let mut sim_hbm =
            EmbeddingOpSimulator::new(&model, &hbm_plan, &profile, &system, SimConfig::default());
        let mut sim_uvm =
            EmbeddingOpSimulator::new(&model, &uvm_plan, &profile, &system, SimConfig::default());
        let t_hbm = sim_hbm.run(3, 128, 7).iteration_time_ms();
        let t_uvm = sim_uvm.run(3, 128, 7).iteration_time_ms();
        assert!(
            t_uvm > t_hbm,
            "UVM-resident embeddings must be slower ({t_uvm} vs {t_hbm})"
        );
    }

    #[test]
    fn batch_scaling_multiplies_counts() {
        let (model, profile, system) = setup(4);
        let plan = GreedySharder::new(LookupCost)
            .shard(&model, &profile, &system)
            .unwrap();
        let base = SimConfig {
            kernel_overhead_us_per_table: 0.0,
            scale_to_batch: None,
        };
        let scaled = SimConfig {
            kernel_overhead_us_per_table: 0.0,
            scale_to_batch: Some(1024),
        };
        let sim_a = EmbeddingOpSimulator::new(&model, &plan, &profile, &system, base);
        let sim_b = EmbeddingOpSimulator::new(&model, &plan, &profile, &system, scaled);
        let mut rng_a = rand::rngs::StdRng::seed_from_u64(3);
        let mut rng_b = rand::rngs::StdRng::seed_from_u64(3);
        let a = total_counters(&sim_a.run_iteration(128, &mut rng_a));
        let b = total_counters(&sim_b.run_iteration(128, &mut rng_b));
        let ratio = b.hbm_accesses as f64 / a.hbm_accesses.max(1) as f64;
        assert!(
            (ratio - 8.0).abs() < 0.01,
            "1024/128 = 8x scaling, got {ratio}"
        );
    }

    #[test]
    fn run_report_summary_shapes() {
        let (model, profile, system) = setup(5);
        let plan = GreedySharder::new(SizeCost)
            .shard(&model, &profile, &system)
            .unwrap();
        let mut sim =
            EmbeddingOpSimulator::new(&model, &plan, &profile, &system, SimConfig::default());
        let report = sim.run(4, 64, 11);
        let summary = report.time_summary();
        assert_eq!(summary.count, 2);
        assert!(summary.max >= summary.mean && summary.mean >= summary.min);
        assert!(report.iteration_time_ms() >= summary.mean);
        assert_eq!(report.strategy(), "size");
    }

    #[test]
    fn deterministic_given_seed() {
        let (model, profile, system) = setup(4);
        let plan = GreedySharder::new(SizeCost)
            .shard(&model, &profile, &system)
            .unwrap();
        let mut a =
            EmbeddingOpSimulator::new(&model, &plan, &profile, &system, SimConfig::default());
        let mut b =
            EmbeddingOpSimulator::new(&model, &plan, &profile, &system, SimConfig::default());
        assert_eq!(a.run(2, 64, 99), b.run(2, 64, 99));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The `_into` kernel overwrites whatever `out` held with exactly
        /// the allocating form's counters, from the same RNG words (both
        /// RNGs end in the same state).
        #[test]
        fn sample_into_equals_the_allocating_kernel(
            seed in any::<u64>(),
            batch in 1usize..48,
            hbm_rows in 0u64..64,
            gpus in 1usize..4,
            garbage in any::<u64>(),
        ) {
            let (model, profile, _) = setup(5);
            let placements = model
                .features()
                .iter()
                .map(|f| TablePlacement {
                    table: f.id,
                    gpu: f.id.index() % gpus,
                    hbm_rows: hbm_rows.min(f.hash_size),
                    total_rows: f.hash_size,
                    row_bytes: f.row_bytes(),
                })
                .collect();
            let plan = ShardingPlan::new("mixed", gpus, placements);
            let samplers = TableSampler::for_plan(&model, &plan, &profile);
            let gpu_of = plan.gpu_assignments();
            let mut a = rand::rngs::StdRng::seed_from_u64(seed);
            let mut b = rand::rngs::StdRng::seed_from_u64(seed);
            let expected = sample_batch_accesses(&model, &samplers, &gpu_of, gpus, batch, &mut a);
            let stale = AccessCounters {
                hbm_accesses: garbage,
                uvm_accesses: garbage >> 1,
                hbm_bytes: garbage >> 2,
                uvm_bytes: garbage >> 3,
            };
            let mut out = vec![stale; gpus];
            sample_batch_accesses_into(&model, &samplers, &gpu_of, batch, &mut b, &mut out);
            prop_assert_eq!(&out, &expected);
            prop_assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }
}
