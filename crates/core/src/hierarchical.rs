//! Hierarchical two-level sharding: tables → nodes → GPUs.
//!
//! Production clusters are grids of multi-GPU hosts, and the inter-node
//! all-to-all is an order of magnitude slower than intra-node NVLink — so
//! the placement problem decomposes naturally:
//!
//! 1. **Tables → nodes** — [`NodeAssigner`] balances the expected pooled
//!    output bytes each node must ship through the inter-node fabric
//!    (capacity-aware LPT over nodes), minimising the bottleneck node's
//!    all-to-all send volume.
//! 2. **Per-node placement → GPUs** — each node's tables become an
//!    independent sub-problem over `gpus_per_node` GPUs, solved with the
//!    exact warm-started MILP when the sub-problem is small enough and the
//!    bucketed [`StructuredSolver`](crate::solver::StructuredSolver) otherwise.
//!
//! The merged [`ShardingPlan`] uses node-major global GPU ids and carries
//! its [`NodeTopology`], which `recshard-des`, `recshard-serve` and
//! `recshard-memsim` route through (inter-node exchange bandwidth, remote
//! fan-in hops, inter-node byte estimates).

use crate::config::RecShardConfig;
use crate::error::RecShardError;
use crate::formulation::MilpFormulation;
use crate::scalable::ScalableSolver;
use recshard_data::{FeatureId, ModelSpec};
use recshard_sharding::{
    NodeAssigner, NodeAssignment, NodeTopology, ShardingPlan, SystemSpec, TablePlacement,
};
use recshard_stats::{DatasetProfile, FeatureProfile};

/// Per-node sub-problems with at most this many tables are solved with the
/// exact warm-started MILP; larger ones use the bucketed solver.
const PER_NODE_EXACT_MAX_TABLES: usize = 4;

/// ICDF step count of the exact per-node MILP (kept small so the
/// formulation stays tractable).
const PER_NODE_EXACT_ICDF_STEPS: usize = 6;

/// The two-level solver.
#[derive(Debug, Clone)]
pub struct HierarchicalSolver {
    config: RecShardConfig,
    topology: NodeTopology,
}

impl HierarchicalSolver {
    /// Creates a solver for the given node grid.
    pub fn new(config: RecShardConfig, topology: NodeTopology) -> Self {
        Self { config, topology }
    }

    /// Level 1 only: the table→node assignment this solver would use.
    ///
    /// # Errors
    ///
    /// See [`NodeAssigner::assign`].
    pub fn assign_nodes(
        &self,
        model: &ModelSpec,
        profile: &DatasetProfile,
        system: &SystemSpec,
    ) -> Result<NodeAssignment, RecShardError> {
        Ok(NodeAssigner.assign(model, profile, system, self.topology)?)
    }

    /// Solves the full two-level placement.
    ///
    /// # Errors
    ///
    /// Returns [`RecShardError::InvalidConfig`] for an invalid solver
    /// configuration and propagates node-assignment and per-node solver
    /// errors (see [`RecShardError`]).
    ///
    /// # Panics
    ///
    /// Panics if the topology and system disagree on the GPU count.
    pub fn solve(
        &self,
        model: &ModelSpec,
        profile: &DatasetProfile,
        system: &SystemSpec,
    ) -> Result<ShardingPlan, RecShardError> {
        self.solve_observed(model, profile, system, &mut recshard_obs::ObsHandle::noop())
    }

    /// Like [`solve`](Self::solve), recording one
    /// [`TraceEvent::NodeSolve`](recshard_obs::TraceEvent::NodeSolve) per
    /// per-node sub-problem (tables, GPUs, exact-vs-bucketed backend) and
    /// forwarding the sub-solver's own events into `obs`. The solve itself
    /// is observation-independent.
    ///
    /// # Errors
    ///
    /// See [`solve`](Self::solve).
    ///
    /// # Panics
    ///
    /// Panics if the topology and system disagree on the GPU count.
    pub fn solve_observed(
        &self,
        model: &ModelSpec,
        profile: &DatasetProfile,
        system: &SystemSpec,
        obs: &mut recshard_obs::ObsHandle<'_>,
    ) -> Result<ShardingPlan, RecShardError> {
        assert_eq!(
            self.topology.num_gpus(),
            system.num_gpus(),
            "topology covers {} GPUs but the system has {}",
            self.topology.num_gpus(),
            system.num_gpus()
        );
        self.config
            .validate()
            .map_err(RecShardError::InvalidConfig)?;
        let assignment = self.assign_nodes(model, profile, system)?;

        let mut placements: Vec<TablePlacement> = Vec::with_capacity(model.num_features());
        for node in 0..self.topology.num_nodes {
            let tables = assignment.tables_on_node(node);
            if tables.is_empty() {
                continue;
            }
            // The per-node sub-cluster keeps each local GPU's actual device
            // class but re-indexes onto the classes actually present on the
            // node (first-appearance order), so the sub-solve's reference
            // class is always a local one — a node made entirely of the
            // slow SKU must not price its phase-1 splits under the fast
            // SKU's bandwidths. A uniform cluster reproduces the historical
            // uniform slice exactly.
            let mut local_of_global: Vec<Option<usize>> = vec![None; system.num_classes()];
            let mut local_classes = Vec::new();
            let local_assignment: Vec<usize> = self
                .topology
                .gpus_of_node(node)
                .map(|g| {
                    let global = system.class_of(g);
                    *local_of_global[global].get_or_insert_with(|| {
                        local_classes.push(system.classes()[global]);
                        local_classes.len() - 1
                    })
                })
                .collect();
            let node_system = SystemSpec::with_classes(local_classes, local_assignment);
            let (sub_model, sub_profile) = subproblem(model, profile, &tables);
            let exact = tables.len() <= PER_NODE_EXACT_MAX_TABLES;
            obs.record(
                node as u64,
                recshard_obs::TraceEvent::NodeSolve {
                    node: node as u32,
                    tables: tables.len() as u64,
                    gpus: self.topology.gpus_per_node as u64,
                    exact,
                },
            );
            let sub_plan = if exact {
                MilpFormulation::new(self.config.with_icdf_steps(PER_NODE_EXACT_ICDF_STEPS))
                    .solve_observed(
                        &sub_model,
                        &sub_profile,
                        &node_system,
                        recshard_milp::SolveOptions::default(),
                        &mut obs.reborrow(),
                    )?
            } else {
                ScalableSolver::new(self.config)
                    .solve_report_observed(
                        &sub_model,
                        &sub_profile,
                        &node_system,
                        &mut obs.reborrow(),
                    )?
                    .plan
            };
            let base_gpu = node * self.topology.gpus_per_node;
            for (local, placement) in sub_plan.placements().iter().enumerate() {
                let global_table = tables[local];
                placements.push(TablePlacement {
                    table: FeatureId(global_table as u32),
                    gpu: base_gpu + placement.gpu,
                    ..*placement
                });
            }
        }
        // The node assignment places every table on exactly one node: back
        // to dense feature order.
        placements.sort_unstable_by_key(|p| p.table.index());
        let plan = ShardingPlan::new("recshard-hierarchical", system.num_gpus(), placements)
            .with_topology(self.topology);
        debug_assert!(plan.validate(model, system).is_ok());
        Ok(plan)
    }
}

/// Builds the reindexed sub-model/sub-profile of one node's tables
/// (`tables` in ascending dense order).
fn subproblem(
    model: &ModelSpec,
    profile: &DatasetProfile,
    tables: &[usize],
) -> (ModelSpec, DatasetProfile) {
    let features = tables
        .iter()
        .enumerate()
        .map(|(local, &t)| {
            let mut spec = model.features()[t].clone();
            spec.id = FeatureId(local as u32);
            spec
        })
        .collect();
    // The solvers read each table's statistics and CDF only: the ranked
    // rows, about half a profile's bytes, build remap tables and are left
    // out.
    let profiles: Vec<FeatureProfile> = tables
        .iter()
        .enumerate()
        .map(|(local, &t)| {
            let p = &profile.profiles()[t];
            FeatureProfile {
                id: FeatureId(local as u32),
                cdf: p.cdf.clone(),
                ranked_rows: Vec::new(),
                ..*p
            }
        })
        .collect();
    let sub_model = ModelSpec::new(
        format!("{}-node-sub", model.name()),
        recshard_data::RmKind::Custom,
        features,
        model.batch_size(),
    );
    let sub_profile = DatasetProfile::new(profiles, profile.samples_profiled());
    (sub_model, sub_profile)
}

#[cfg(test)]
mod tests {
    use super::*;
    use recshard_stats::DatasetProfiler;

    fn setup(n: usize, seed: u64) -> (ModelSpec, DatasetProfile) {
        let model = ModelSpec::small(n, seed);
        let profile = DatasetProfiler::profile_model(&model, 1_500, seed + 1);
        (model, profile)
    }

    #[test]
    fn two_level_plan_is_valid_and_node_annotated() {
        let (model, profile) = setup(12, 5);
        let topology = NodeTopology::new(2, 2);
        let system = SystemSpec::uniform(
            4,
            model.total_bytes() / 8,
            model.total_bytes(),
            1555.0,
            16.0,
        );
        let plan = HierarchicalSolver::new(RecShardConfig::default(), topology)
            .solve(&model, &profile, &system)
            .unwrap();
        plan.validate(&model, &system).unwrap();
        assert_eq!(plan.effective_topology(), topology);
        assert_eq!(plan.strategy(), "recshard-hierarchical");
        // The two nodes' tables partition the model.
        assert_eq!(
            plan.tables_on_node(0).len() + plan.tables_on_node(1).len(),
            model.num_features()
        );
        // Flattening drops the annotation but keeps a valid plan.
        let flat = plan.flatten();
        assert_eq!(flat.effective_topology().num_nodes, 1);
        flat.validate(&model, &system).unwrap();
    }

    #[test]
    fn single_node_topology_matches_flat_solving() {
        let (model, profile) = setup(10, 9);
        let system = SystemSpec::uniform(
            2,
            model.total_bytes() / 6,
            model.total_bytes(),
            1555.0,
            16.0,
        );
        let hier = HierarchicalSolver::new(RecShardConfig::default(), NodeTopology::single(2))
            .solve(&model, &profile, &system)
            .unwrap();
        let flat = ScalableSolver::new(RecShardConfig::default())
            .solve(&model, &profile, &system)
            .unwrap();
        // One node means level 1 is trivial: the per-node solve sees the whole
        // problem, so the placements agree exactly.
        assert_eq!(hier.placements(), flat.placements());
    }

    #[test]
    fn tiny_nodes_use_the_exact_milp() {
        let (model, profile) = setup(6, 13);
        let topology = NodeTopology::new(2, 2);
        let system = SystemSpec::uniform(
            4,
            model.total_bytes() / 6,
            model.total_bytes() * 2,
            1555.0,
            16.0,
        );
        // 6 tables over 2 nodes → ≤4 tables per node (within the exact cap
        // when balanced; either way the plan must be valid and annotated).
        let plan = HierarchicalSolver::new(RecShardConfig::default(), topology)
            .solve(&model, &profile, &system)
            .unwrap();
        plan.validate(&model, &system).unwrap();
        assert_eq!(plan.effective_topology(), topology);
    }
}
