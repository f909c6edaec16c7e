//! Closed-form (expectation-based) estimates of per-GPU access counts and
//! embedding time for a sharding plan.
//!
//! The trace-driven simulator in [`engine`](crate::engine) measures where
//! accesses land; this estimator predicts the same quantities analytically
//! from the profile's CDFs — exactly the estimate RecShard's MILP optimises.
//! Comparing the two validates that the MILP's objective is a faithful proxy
//! for the simulated (and, in the paper, measured) iteration time.
//!
//! Both views are static: one iteration in isolation. The discrete-event
//! simulator in `recshard-des` consumes these per-iteration costs as station
//! service times to answer the dynamic questions (queueing, tails, drift);
//! see the crate-level docs for when to use which.

use recshard_sharding::{ShardingPlan, SystemSpec};
use recshard_stats::DatasetProfile;

/// Analytical per-GPU estimate.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct GpuEstimate {
    /// Expected embedding rows read from HBM per iteration.
    pub hbm_accesses: f64,
    /// Expected embedding rows read from UVM per iteration.
    pub uvm_accesses: f64,
    /// Expected embedding-operator time per iteration, in milliseconds.
    pub time_ms: f64,
}

/// Expectation-based estimator of a plan's behaviour.
#[derive(Debug, Clone)]
pub struct AnalyticalEstimator<'a> {
    profile: &'a DatasetProfile,
    system: &'a SystemSpec,
    batch_size: u32,
}

impl<'a> AnalyticalEstimator<'a> {
    /// Creates an estimator for the given profile, system and batch size.
    pub fn new(profile: &'a DatasetProfile, system: &'a SystemSpec, batch_size: u32) -> Self {
        assert!(batch_size > 0, "batch size must be non-zero");
        Self {
            profile,
            system,
            batch_size,
        }
    }

    /// Per-GPU expected access counts and times for a plan.
    pub fn estimate(&self, plan: &ShardingPlan) -> Vec<GpuEstimate> {
        let mut per_gpu = vec![GpuEstimate::default(); plan.num_gpus()];
        for (t, placement) in plan.placements().iter().enumerate() {
            let prof = &self.profile.profiles()[t];
            // Expected rows touched per iteration for this table.
            let expected_rows = self.batch_size as f64 * prof.coverage * prof.avg_pooling;
            let pct_hbm = prof.cdf.access_fraction(placement.hbm_rows);
            let hbm_rows = expected_rows * pct_hbm;
            let uvm_rows = expected_rows * (1.0 - pct_hbm);
            let row_bytes = prof.row_bytes() as f64;
            let est = &mut per_gpu[placement.gpu];
            est.hbm_accesses += hbm_rows;
            est.uvm_accesses += uvm_rows;
            est.time_ms += (hbm_rows * row_bytes
                / (self.system.hbm_bandwidth_gbps(placement.gpu) * 1e9)
                + uvm_rows * row_bytes / (self.system.uvm_bandwidth_gbps(placement.gpu) * 1e9))
                * 1e3;
        }
        per_gpu
    }

    /// The estimated iteration time of a plan: the slowest GPU's expected time
    /// (the quantity RecShard's MILP minimises).
    pub fn iteration_time_ms(&self, plan: &ShardingPlan) -> f64 {
        self.estimate(plan)
            .iter()
            .map(|e| e.time_ms)
            .fold(0.0, f64::max)
    }

    /// Expected pooled-embedding bytes per iteration that must cross the
    /// inter-node fabric under a two-level plan: each table's pooled output
    /// (one vector per *covered* sample) is produced on its owning node and
    /// consumed by every GPU, so the share of consumers on other nodes
    /// crosses the slow link. Zero for flat single-node plans — the quantity
    /// the hierarchical table→node assignment balances.
    pub fn internode_bytes_per_iteration(&self, plan: &ShardingPlan) -> f64 {
        let topology = plan.effective_topology();
        if topology.num_nodes <= 1 {
            return 0.0;
        }
        let g = topology.num_gpus() as f64;
        let remote_consumers = (topology.num_gpus() - topology.gpus_per_node) as f64 / g;
        plan.placements()
            .iter()
            .enumerate()
            .map(|(t, _)| {
                let prof = &self.profile.profiles()[t];
                self.batch_size as f64 * prof.coverage * prof.row_bytes() as f64
            })
            .sum::<f64>()
            * remote_consumers
    }

    /// The estimated fraction of all accesses served from UVM.
    pub fn uvm_access_fraction(&self, plan: &ShardingPlan) -> f64 {
        let est = self.estimate(plan);
        let uvm: f64 = est.iter().map(|e| e.uvm_accesses).sum();
        let total: f64 = est.iter().map(|e| e.uvm_accesses + e.hbm_accesses).sum();
        if total == 0.0 {
            0.0
        } else {
            uvm / total
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{EmbeddingOpSimulator, SimConfig};
    use recshard_data::ModelSpec;
    use recshard_sharding::{GreedySharder, SizeCost, TablePlacement};
    use recshard_stats::DatasetProfiler;

    fn setup() -> (ModelSpec, DatasetProfile, SystemSpec) {
        // Scale the model down so profiling saturates the categorical space;
        // the analytic estimate assumes the profiled CDF is representative,
        // which only holds once most of the (small) value space has been seen.
        let model = ModelSpec::small(6, 8).scaled(32).with_batch_size(256);
        let profile = DatasetProfiler::profile_model(&model, 8_000, 5);
        let system = SystemSpec::uniform(2, u64::MAX / 4, u64::MAX / 4, 1555.0, 16.0);
        (model, profile, system)
    }

    #[test]
    fn all_hbm_plan_has_zero_uvm_estimate() {
        let (model, profile, system) = setup();
        let plan = GreedySharder::new(SizeCost)
            .shard(&model, &profile, &system)
            .unwrap();
        let est = AnalyticalEstimator::new(&profile, &system, 256);
        assert_eq!(est.uvm_access_fraction(&plan), 0.0);
        assert!(est.iteration_time_ms(&plan) > 0.0);
    }

    #[test]
    fn analytical_tracks_simulation() {
        let (model, profile, system) = setup();
        // A half-split plan: each table keeps its hottest half of *accessed*
        // rows in HBM.
        let placements = model
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
        let plan = ShardingPlan::new("half", 2, placements);
        let est = AnalyticalEstimator::new(&profile, &system, 256);
        let analytic_uvm = est.uvm_access_fraction(&plan);

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
        let report = sim.run(5, 256, 17);
        let simulated_uvm = report.uvm_access_fraction();
        assert!(
            (analytic_uvm - simulated_uvm).abs() < 0.1,
            "analytic {analytic_uvm} vs simulated {simulated_uvm}"
        );
    }

    #[test]
    fn internode_bytes_zero_for_flat_and_positive_for_two_level() {
        use recshard_sharding::NodeTopology;
        let (model, profile, system) = setup();
        let plan = GreedySharder::new(SizeCost)
            .shard(&model, &profile, &system)
            .unwrap();
        let est = AnalyticalEstimator::new(&profile, &system, 256);
        assert_eq!(est.internode_bytes_per_iteration(&plan), 0.0);

        let two_level = plan.with_topology(NodeTopology::new(2, 1));
        assert!(est.internode_bytes_per_iteration(&two_level) > 0.0);
    }

    #[test]
    fn more_hbm_rows_never_hurts_estimated_time() {
        let (model, profile, system) = setup();
        let mk = |frac: f64| {
            let placements = model
                .features()
                .iter()
                .zip(profile.profiles())
                .map(|(f, p)| TablePlacement {
                    table: f.id,
                    gpu: 0,
                    hbm_rows: (p.cdf.full_coverage_rows() as f64 * frac) as u64,
                    total_rows: f.hash_size,
                    row_bytes: f.row_bytes(),
                })
                .collect();
            ShardingPlan::new("x", 2, placements)
        };
        let est = AnalyticalEstimator::new(&profile, &system, 256);
        let mut prev = f64::INFINITY;
        for frac in [0.0, 0.25, 0.5, 0.75, 1.0] {
            let t = est.iteration_time_ms(&mk(frac));
            assert!(
                t <= prev + 1e-9,
                "time must not increase as HBM share grows"
            );
            prev = t;
        }
    }
}
