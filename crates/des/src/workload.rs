//! Batch arrival processes and the trace-driven iteration workload.
//!
//! Arrivals model the training input pipeline handing batches to the
//! trainers: either a fixed-rate conveyor (a well-tuned, reader-bound
//! pipeline) or a Poisson process (a bursty, shared ingestion tier). The
//! workload generator turns each arriving batch into per-GPU tier access
//! counts by drawing *actual multi-hot lookups* — the same per-feature
//! coverage/pooling/Zipf draws `recshard-data` uses everywhere else — and
//! routing them through the active plan's remapping tables.
//!
//! The draws go through `recshard_memsim`'s per-table
//! [`TableSampler`]s, whose guide tables answer most lookups with one RNG
//! word and one byte load. They are bit-identical to drawing, hashing and
//! remapping each lookup; the `recshard_data::zipf` module doc gives the
//! exactness argument.

use crate::error::DesError;
use crate::time::SimTime;
use rand::rngs::StdRng;
use rand::Rng;
use recshard_data::ModelSpec;
use recshard_memsim::{sample_batch_accesses, AccessCounters, TableSampler};
use recshard_sharding::ShardingPlan;
use recshard_stats::DatasetProfile;
use serde::{Deserialize, Serialize};

/// How training batches arrive at the cluster.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ArrivalProcess {
    /// One batch every `interval_ms` milliseconds, exactly.
    FixedRate {
        /// Gap between consecutive batch arrivals.
        interval_ms: f64,
    },
    /// Poisson arrivals with exponentially distributed gaps.
    Poisson {
        /// Mean gap between consecutive batch arrivals.
        mean_interval_ms: f64,
    },
}

impl ArrivalProcess {
    /// Rejects intervals that cannot drive an open-loop schedule: negative
    /// or non-finite means/intervals. (A zero interval is legal — it models
    /// all batches available at time zero — and cannot hang the run because
    /// the simulator schedules exactly `iterations` arrivals, never an
    /// unbounded stream.)
    ///
    /// [`ClusterSimulator::try_new`](crate::ClusterSimulator::try_new) calls
    /// this up front so a poisoned rate surfaces as
    /// [`DesError::InvalidArrival`] instead of degenerate gap draws.
    pub fn validate(&self) -> Result<(), DesError> {
        let (name, value) = match *self {
            ArrivalProcess::FixedRate { interval_ms } => ("interval_ms", interval_ms),
            ArrivalProcess::Poisson { mean_interval_ms } => ("mean_interval_ms", mean_interval_ms),
        };
        if value.is_finite() && value >= 0.0 {
            Ok(())
        } else {
            Err(DesError::InvalidArrival { name, value })
        }
    }

    /// Draws the gap to the next arrival, in nanoseconds.
    ///
    /// Defensive even for configs that skipped [`ArrivalProcess::validate`]:
    /// negative or NaN intervals clamp to a zero gap, and an astronomically
    /// large mean (or an exponential draw deep in its tail) saturates at
    /// `u64::MAX` ns instead of wrapping — the draw can never panic or hang.
    pub fn next_gap_ns(&self, rng: &mut StdRng) -> u64 {
        match *self {
            ArrivalProcess::FixedRate { interval_ms } => {
                SimTime::saturating_ns_from_ms(interval_ms.max(0.0))
            }
            ArrivalProcess::Poisson { mean_interval_ms } => {
                // `u ∈ [0, 1)` so `ln(1 - u)` is finite and ≤ 0; the draw
                // is consumed even for degenerate means so a clamped run
                // replays the same RNG stream as a healthy one.
                let u: f64 = rng.gen();
                let gap_ms = -mean_interval_ms.max(0.0) * (1.0 - u).ln();
                SimTime::saturating_ns_from_ms(gap_ms)
            }
        }
    }

    /// The mean arrival interval in milliseconds.
    pub fn mean_interval_ms(&self) -> f64 {
        match *self {
            ArrivalProcess::FixedRate { interval_ms } => interval_ms,
            ArrivalProcess::Poisson { mean_interval_ms } => mean_interval_ms,
        }
    }
}

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
    /// Delegates to `recshard_memsim`'s shared trace-sampling kernel so the
    /// DES and the single-iteration simulator stay draw-for-draw comparable.
    pub fn sample_iteration(&self, batch: usize, rng: &mut StdRng) -> Vec<AccessCounters> {
        sample_batch_accesses(
            &self.model,
            &self.samplers,
            &self.gpu_of_table,
            self.num_gpus,
            batch,
            rng,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
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
    fn fixed_rate_gaps_are_constant() {
        let mut rng = StdRng::seed_from_u64(1);
        let a = ArrivalProcess::FixedRate { interval_ms: 2.5 };
        assert_eq!(a.next_gap_ns(&mut rng), 2_500_000);
        assert_eq!(a.next_gap_ns(&mut rng), 2_500_000);
    }

    #[test]
    fn degenerate_rates_clamp_instead_of_panicking() {
        let mut rng = StdRng::seed_from_u64(7);
        for arrival in [
            ArrivalProcess::FixedRate { interval_ms: -4.0 },
            ArrivalProcess::FixedRate {
                interval_ms: f64::NAN,
            },
            ArrivalProcess::Poisson {
                mean_interval_ms: -1.0,
            },
            ArrivalProcess::Poisson {
                mean_interval_ms: f64::NAN,
            },
        ] {
            assert!(arrival.validate().is_err());
            assert_eq!(arrival.next_gap_ns(&mut rng), 0);
        }
        // An absurd but finite mean saturates rather than wrapping.
        let huge = ArrivalProcess::FixedRate { interval_ms: 1e300 };
        assert!(huge.validate().is_ok());
        assert_eq!(huge.next_gap_ns(&mut rng), u64::MAX);
        let inf = ArrivalProcess::Poisson {
            mean_interval_ms: f64::INFINITY,
        };
        assert!(inf.validate().is_err());
    }

    #[test]
    fn clamped_poisson_consumes_the_same_rng_stream() {
        // A degenerate mean must not desynchronise replay: the draw is
        // consumed either way, so downstream randomness is unaffected.
        let healthy = ArrivalProcess::Poisson {
            mean_interval_ms: 2.0,
        };
        let degenerate = ArrivalProcess::Poisson {
            mean_interval_ms: -2.0,
        };
        let mut a = StdRng::seed_from_u64(11);
        let mut b = StdRng::seed_from_u64(11);
        let _ = healthy.next_gap_ns(&mut a);
        let _ = degenerate.next_gap_ns(&mut b);
        assert_eq!(a.gen::<u64>(), b.gen::<u64>());
    }

    #[test]
    fn poisson_gaps_average_the_mean() {
        let mut rng = StdRng::seed_from_u64(2);
        let a = ArrivalProcess::Poisson {
            mean_interval_ms: 4.0,
        };
        let n = 20_000;
        let total: u64 = (0..n).map(|_| a.next_gap_ns(&mut rng)).sum();
        let mean_ms = total as f64 / n as f64 / 1e6;
        assert!(
            (mean_ms - 4.0).abs() < 0.2,
            "Poisson mean gap {mean_ms} far from 4.0"
        );
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
}
