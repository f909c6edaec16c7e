//! The trace-driven iteration workload shared by both trace simulators.
//!
//! [`IterationWorkload`] turns one batch into per-GPU tier access counts
//! by drawing *actual multi-hot lookups* — the per-feature
//! coverage/pooling/Zipf draws `recshard-data` uses everywhere else — and
//! routing them through the active plan's HBM rows, via one
//! [`TableSampler`] per table and the [`sample_batch_accesses`] kernel. The
//! single-iteration [`EmbeddingOpSimulator`](crate::EmbeddingOpSimulator)
//! charges its timing model over one, and the `recshard-des` cluster
//! simulator replays one through its event-driven cluster, installing
//! drifted models and re-solved plans as the run goes.
//!
//! [`IterationWorkload::sample_iteration`] draws from a caller's RNG, so
//! iterations drawn from one shared stream must be drawn in order, one
//! after another. [`IterationWorkload::sample_iteration_keyed`] draws one
//! iteration from its own stream, keyed through
//! [`recshard_data::stream_seed`]; the cluster simulator keys iteration `i`
//! by `(seed, i)` and draws iterations ahead on worker threads.

use crate::counters::AccessCounters;
use crate::engine::{sample_batch_accesses, sample_batch_accesses_into};
use crate::sampler::TableSampler;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use recshard_data::{stream_seed, ModelSpec};
use recshard_sharding::ShardingPlan;
use recshard_stats::DatasetProfile;

/// Trace-driven generator of per-GPU tier accesses for one iteration under
/// the active sharding plan.
#[derive(Debug, Clone)]
pub struct IterationWorkload {
    model: ModelSpec,
    samplers: Vec<TableSampler>,
    gpu_of_table: Vec<usize>,
    num_gpus: usize,
}

impl IterationWorkload {
    /// Builds the workload for a model under `plan`, selecting each
    /// table's HBM rows from the profile's hottest-first ranking.
    ///
    /// # Panics
    ///
    /// Panics if model, plan and profile disagree on the feature count.
    pub fn new(model: &ModelSpec, plan: &ShardingPlan, profile: &DatasetProfile) -> Self {
        Self {
            model: model.clone(),
            samplers: TableSampler::for_plan(model, plan, profile),
            gpu_of_table: plan.gpu_assignments(),
            num_gpus: plan.num_gpus(),
        }
    }

    /// The active model.
    pub fn model(&self) -> &ModelSpec {
        &self.model
    }

    /// Number of GPUs the active plan shards across.
    pub fn num_gpus(&self) -> usize {
        self.num_gpus
    }

    /// Number of tables owned by each GPU under the active plan.
    pub fn tables_per_gpu(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.num_gpus];
        for &g in &self.gpu_of_table {
            counts[g] += 1;
        }
        counts
    }

    /// Swaps in a new plan (online re-sharding), rebuilding each table's
    /// HBM rows and tier cells (the value guides stay).
    ///
    /// # Panics
    ///
    /// Panics if the plan or profile disagree with the model's feature count.
    pub fn install_plan(&mut self, plan: &ShardingPlan, profile: &DatasetProfile) {
        assert_eq!(
            plan.placements().len(),
            self.model.num_features(),
            "plan/model mismatch"
        );
        assert_eq!(
            profile.num_features(),
            self.model.num_features(),
            "profile/model mismatch"
        );
        for ((sampler, placement), prof) in self
            .samplers
            .iter_mut()
            .zip(plan.placements())
            .zip(profile.profiles())
        {
            sampler.install_placement(placement, &prof.ranked_rows);
        }
        self.gpu_of_table = plan.gpu_assignments();
        self.num_gpus = plan.num_gpus();
    }

    /// Swaps in a drifted model (same feature universe, shifted pooling
    /// statistics), keeping the current plan's HBM rows. A table's value
    /// guide is rebuilt only if its cardinality or exponent changed, and its
    /// tier cells only if that guide or its hash size or seed did.
    ///
    /// # Panics
    ///
    /// Panics if the drifted model changes the feature count.
    pub fn install_model(&mut self, model: &ModelSpec) {
        assert_eq!(
            model.num_features(),
            self.model.num_features(),
            "drift changed feature count"
        );
        for (sampler, spec) in self.samplers.iter_mut().zip(model.features()) {
            sampler.install_feature(spec);
        }
        self.model = model.clone();
    }

    /// Draws one iteration of `batch` samples and returns the per-GPU tier
    /// access counters its lookups induce under the active plan.
    ///
    /// Both trace simulators draw through here, so they stay draw-for-draw
    /// comparable.
    pub fn sample_iteration<R: Rng + ?Sized>(
        &self,
        batch: usize,
        rng: &mut R,
    ) -> Vec<AccessCounters> {
        sample_batch_accesses(
            &self.model,
            &self.samplers,
            &self.gpu_of_table,
            self.num_gpus,
            batch,
            rng,
        )
    }

    /// Draws one iteration of `batch` samples from the stream keyed by
    /// `key` into `out`, one entry per GPU, without allocating: the kernel
    /// of [`sample_iteration`](Self::sample_iteration) fed by
    /// `StdRng::seed_from_u64(stream_seed(key))`.
    ///
    /// How many RNG words a lookup consumes does not depend on the
    /// placement, so the lookups drawn are a function of `key` and the
    /// model alone, and `out` of those lookups routed through the active
    /// plan. Keys can be drawn in any order, on any thread.
    ///
    /// # Panics
    ///
    /// Panics if `batch` is zero or `out` has fewer entries than GPUs.
    pub fn sample_iteration_keyed(&self, batch: usize, key: &[u64], out: &mut [AccessCounters]) {
        let mut rng = StdRng::seed_from_u64(stream_seed(key));
        sample_batch_accesses_into(
            &self.model,
            &self.samplers,
            &self.gpu_of_table,
            batch,
            &mut rng,
            out,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recshard_sharding::{GreedySharder, SizeCost, SystemSpec};
    use recshard_stats::DatasetProfiler;

    fn setup() -> (ModelSpec, DatasetProfile, ShardingPlan) {
        let model = ModelSpec::small(6, 3);
        let profile = DatasetProfiler::profile_model(&model, 1_000, 1);
        let system = SystemSpec::uniform(2, u64::MAX / 4, u64::MAX / 4, 1555.0, 16.0);
        let plan = GreedySharder::new(SizeCost)
            .shard(&model, &profile, &system)
            .unwrap();
        (model, profile, plan)
    }

    #[test]
    fn sampled_accesses_land_on_owning_gpus() {
        let (model, profile, plan) = setup();
        let w = IterationWorkload::new(&model, &plan, &profile);
        let mut rng = StdRng::seed_from_u64(3);
        let counters = w.sample_iteration(64, &mut rng);
        assert_eq!(counters.len(), plan.num_gpus());
        let total: u64 = counters.iter().map(|c| c.total_accesses()).sum();
        assert!(total > 0, "a 64-sample batch must induce lookups");
        // The plan fits entirely in HBM, so no UVM accesses may appear.
        assert_eq!(counters.iter().map(|c| c.uvm_accesses).sum::<u64>(), 0);
    }

    #[test]
    fn deterministic_for_seed() {
        let (model, profile, plan) = setup();
        let w = IterationWorkload::new(&model, &plan, &profile);
        let mut a = StdRng::seed_from_u64(9);
        let mut b = StdRng::seed_from_u64(9);
        assert_eq!(
            w.sample_iteration(32, &mut a),
            w.sample_iteration(32, &mut b)
        );
    }

    #[test]
    fn install_model_draws_like_a_fresh_workload() {
        let (model, profile, plan) = setup();
        let mut w = IterationWorkload::new(&model, &plan, &profile);
        // Re-seeded hashes, a grown table and a flattened exponent.
        let mut features = model.features().to_vec();
        features[0].hash_seed ^= 0x5EED;
        features[1].cardinality *= 3;
        features[2].zipf_exponent *= 0.5;
        let drifted = ModelSpec::new("drifted", model.kind(), features, model.batch_size());
        w.install_model(&drifted);
        let fresh = IterationWorkload::new(&drifted, &plan, &profile);
        let mut a = StdRng::seed_from_u64(21);
        let mut b = StdRng::seed_from_u64(21);
        for _ in 0..20 {
            assert_eq!(
                w.sample_iteration(64, &mut a),
                fresh.sample_iteration(64, &mut b)
            );
        }
    }

    #[test]
    fn install_plan_reroutes_accesses() {
        let (model, profile, plan) = setup();
        let mut w = IterationWorkload::new(&model, &plan, &profile);
        // All-UVM single-GPU plan: every access must flip to UVM on GPU 0.
        let placements = model
            .features()
            .iter()
            .map(|f| recshard_sharding::TablePlacement {
                table: f.id,
                gpu: 0,
                hbm_rows: 0,
                total_rows: f.hash_size,
                row_bytes: f.row_bytes(),
            })
            .collect();
        let uvm_plan = ShardingPlan::new("all-uvm", 2, placements);
        w.install_plan(&uvm_plan, &profile);
        let mut rng = StdRng::seed_from_u64(4);
        let counters = w.sample_iteration(32, &mut rng);
        assert_eq!(counters[0].hbm_accesses, 0);
        assert!(counters[0].uvm_accesses > 0);
        assert_eq!(counters[1].total_accesses(), 0);
        assert_eq!(w.tables_per_gpu(), vec![6, 0]);
    }

    #[test]
    fn keyed_draws_match_a_fresh_inline_draw_in_any_order() {
        let (model, profile, plan) = setup();
        let w = IterationWorkload::new(&model, &plan, &profile);
        let draw = |iter: u64| {
            // Stale contents must not leak into the draw.
            let mut out = vec![
                AccessCounters {
                    hbm_accesses: 7,
                    ..AccessCounters::new()
                };
                2
            ];
            w.sample_iteration_keyed(24, &[11, iter], &mut out);
            out
        };
        let forward: Vec<_> = (0..40).map(draw).collect();
        for iter in (0..40).rev().chain((0..40).step_by(7)) {
            assert_eq!(draw(iter), forward[iter as usize], "iteration {iter}");
        }
        for (iter, expected) in (0..).zip(&forward) {
            let mut rng = StdRng::seed_from_u64(stream_seed(&[11, iter]));
            assert_eq!(&w.sample_iteration(24, &mut rng), expected);
        }
        assert!(forward.windows(2).all(|pair| pair[0] != pair[1]));
    }
}
