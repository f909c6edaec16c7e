//! The greedy baseline sharding heuristic (Section 5, Step II).
//!
//! After assigning each table a fixed cost, the production baseline sorts
//! tables by descending cost and assigns each one to the GPU with the lowest
//! accumulated cost so far, placing the *whole* table in that GPU's HBM while
//! it fits; once HBM is saturated the remaining tables are allocated wholly
//! in UVM (host DRAM).

use crate::cost::CostFunction;
use crate::error::ShardingError;
use crate::plan::{ShardingPlan, TablePlacement};
use crate::system::SystemSpec;
use recshard_data::ModelSpec;
use recshard_stats::DatasetProfile;

/// Greedy cost-ordered sharder parameterised by a [`CostFunction`].
#[derive(Debug, Clone, Copy)]
pub struct GreedySharder<C> {
    cost_fn: C,
}

impl<C: CostFunction> GreedySharder<C> {
    /// Creates a sharder with the given cost function.
    pub fn new(cost_fn: C) -> Self {
        Self { cost_fn }
    }

    /// Produces a sharding plan for `model` on `system` using the profiled
    /// statistics in `profile`.
    ///
    /// # Errors
    ///
    /// Returns [`ShardingError::ProfileMismatch`] if the profile does not
    /// cover the model, [`ShardingError::SystemTooSmall`] if the model cannot
    /// fit in the system at all, [`ShardingError::NonFiniteCost`] if a
    /// table's cost is NaN or infinite, and
    /// [`ShardingError::CapacityExceeded`] if a single table cannot be placed
    /// anywhere.
    pub fn shard(
        &self,
        model: &ModelSpec,
        profile: &DatasetProfile,
        system: &SystemSpec,
    ) -> Result<ShardingPlan, ShardingError> {
        if profile.num_features() != model.num_features() {
            return Err(ShardingError::ProfileMismatch(format!(
                "profile covers {} features but the model has {}",
                profile.num_features(),
                model.num_features()
            )));
        }
        if model.total_bytes() > system.total_capacity() {
            return Err(ShardingError::SystemTooSmall {
                required_bytes: model.total_bytes(),
                available_bytes: system.total_capacity(),
            });
        }

        // Step I: fixed per-table costs.
        let mut order: Vec<(usize, f64)> = model
            .features()
            .iter()
            .zip(profile.profiles())
            .map(|(spec, prof)| (spec.id.index(), self.cost_fn.cost(spec, prof)))
            .collect();
        // A NaN cost would break the sort's total order.
        if let Some(&(idx, _)) = order.iter().find(|(_, cost)| !cost.is_finite()) {
            return Err(ShardingError::NonFiniteCost {
                table: model.features()[idx].id,
            });
        }
        // Descending cost, deterministic tie-break on feature id.
        order.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.0.cmp(&b.0))
        });

        // Step II: greedy assignment to the GPU with the lowest accumulated
        // cost that still has room. The accumulated cost is *class-blind*
        // (the production baselines predate heterogeneous fleets and charge
        // the same fixed table cost on every GPU); only the capacity checks
        // read per-GPU limits. The class-aware RecShard solvers exploit
        // exactly this blindness on mixed clusters (`hetero_scaling` bench).
        let m = system.num_gpus();
        let mut gpu_cost = vec![0.0f64; m];
        let mut hbm_free: Vec<u64> = (0..m).map(|g| system.hbm_capacity(g)).collect();
        let mut dram_free: Vec<u64> = (0..m).map(|g| system.dram_capacity(g)).collect();
        let mut placements: Vec<Option<TablePlacement>> = vec![None; model.num_features()];

        for (idx, cost) in order {
            let spec = &model.features()[idx];
            let bytes = spec.table_bytes();

            // GPUs ordered by accumulated cost (cheapest first).
            let mut gpus: Vec<usize> = (0..m).collect();
            gpus.sort_by(|&a, &b| {
                gpu_cost[a]
                    .partial_cmp(&gpu_cost[b])
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(a.cmp(&b))
            });

            // Prefer placing the whole table in HBM on the cheapest GPU with room.
            let hbm_target = gpus.iter().copied().find(|&g| hbm_free[g] >= bytes);
            let placement = if let Some(g) = hbm_target {
                hbm_free[g] -= bytes;
                gpu_cost[g] += cost;
                TablePlacement {
                    table: spec.id,
                    gpu: g,
                    hbm_rows: spec.hash_size,
                    total_rows: spec.hash_size,
                    row_bytes: spec.row_bytes(),
                }
            } else {
                // HBM saturated for this table: allocate it wholly in UVM on
                // the cheapest GPU with DRAM room. UVM accesses are slow, so
                // the accumulated cost is scaled by the bandwidth ratio.
                let uvm_target = gpus.iter().copied().find(|&g| dram_free[g] >= bytes);
                let Some(g) = uvm_target else {
                    return Err(ShardingError::CapacityExceeded {
                        table: spec.id,
                        overflow_bytes: bytes,
                    });
                };
                dram_free[g] -= bytes;
                // Reference-class ratio, not the target GPU's: the baseline
                // stays class-blind in its cost accounting (identical on
                // uniform clusters, where there is only one class).
                gpu_cost[g] += cost * system.reference_class().bandwidth_ratio();
                TablePlacement {
                    table: spec.id,
                    gpu: g,
                    hbm_rows: 0,
                    total_rows: spec.hash_size,
                    row_bytes: spec.row_bytes(),
                }
            };
            placements[idx] = Some(placement);
        }

        let placements = placements
            .into_iter()
            .map(|p| p.expect("every table placed"))
            .collect();
        Ok(ShardingPlan::new(self.cost_fn.name(), m, placements))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{LookupCost, SizeCost, SizeLookupCost};
    use recshard_data::ModelSpec;
    use recshard_stats::DatasetProfiler;

    fn setup(n: usize) -> (ModelSpec, recshard_stats::DatasetProfile) {
        let model = ModelSpec::small(n, 11);
        let profile = DatasetProfiler::profile_model(&model, 1_000, 7);
        (model, profile)
    }

    #[test]
    fn all_in_hbm_when_capacity_ample() {
        let (model, profile) = setup(10);
        let system = SystemSpec::uniform(4, model.total_bytes(), model.total_bytes(), 1555.0, 16.0);
        let plan = GreedySharder::new(SizeCost)
            .shard(&model, &profile, &system)
            .unwrap();
        plan.validate(&model, &system).unwrap();
        assert_eq!(plan.total_uvm_rows(), 0);
        assert_eq!(plan.strategy(), "size");
    }

    #[test]
    fn spills_whole_tables_to_uvm_under_pressure() {
        let (model, profile) = setup(12);
        // HBM only fits about half the model.
        let per_gpu_hbm = model.total_bytes() / 8;
        let system = SystemSpec::uniform(4, per_gpu_hbm, model.total_bytes(), 1555.0, 16.0);
        let plan = GreedySharder::new(LookupCost)
            .shard(&model, &profile, &system)
            .unwrap();
        plan.validate(&model, &system).unwrap();
        assert!(plan.total_uvm_rows() > 0, "some tables must spill");
        // The baseline never splits a table: each table is fully in one tier.
        for p in plan.placements() {
            assert!(p.hbm_rows == 0 || p.hbm_rows == p.total_rows);
        }
    }

    #[test]
    fn load_is_spread_across_gpus() {
        let (model, profile) = setup(16);
        let system = SystemSpec::uniform(4, model.total_bytes(), model.total_bytes(), 1555.0, 16.0);
        let plan = GreedySharder::new(SizeLookupCost)
            .shard(&model, &profile, &system)
            .unwrap();
        let mut counts = vec![0usize; 4];
        for p in plan.placements() {
            counts[p.gpu] += 1;
        }
        assert!(
            counts.iter().all(|&c| c >= 1),
            "every GPU should receive tables: {counts:?}"
        );
    }

    #[test]
    fn rejects_model_larger_than_system() {
        let (model, profile) = setup(6);
        let system = SystemSpec::uniform(2, 64, 64, 1555.0, 16.0);
        match GreedySharder::new(SizeCost).shard(&model, &profile, &system) {
            Err(ShardingError::SystemTooSmall { .. }) => {}
            other => panic!("expected SystemTooSmall, got {other:?}"),
        }
    }

    #[test]
    fn rejects_mismatched_profile() {
        let (model, _) = setup(6);
        let other_profile = DatasetProfiler::profile_model(&ModelSpec::small(3, 1), 100, 1);
        let system = SystemSpec::uniform(2, u64::MAX / 4, u64::MAX / 4, 1555.0, 16.0);
        assert!(matches!(
            GreedySharder::new(SizeCost).shard(&model, &other_profile, &system),
            Err(ShardingError::ProfileMismatch(_))
        ));
    }

    #[test]
    fn deterministic_output() {
        let (model, profile) = setup(10);
        let system = SystemSpec::uniform(
            4,
            model.total_bytes() / 4,
            model.total_bytes(),
            1555.0,
            16.0,
        );
        let a = GreedySharder::new(SizeCost)
            .shard(&model, &profile, &system)
            .unwrap();
        let b = GreedySharder::new(SizeCost)
            .shard(&model, &profile, &system)
            .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn different_cost_functions_can_disagree() {
        let (model, profile) = setup(14);
        let system = SystemSpec::uniform(
            4,
            model.total_bytes() / 6,
            model.total_bytes(),
            1555.0,
            16.0,
        );
        let size = GreedySharder::new(SizeCost)
            .shard(&model, &profile, &system)
            .unwrap();
        let lookup = GreedySharder::new(LookupCost)
            .shard(&model, &profile, &system)
            .unwrap();
        // They may or may not differ on tiny models, but strategies must be labelled.
        assert_eq!(size.strategy(), "size");
        assert_eq!(lookup.strategy(), "lookup");
    }
}
