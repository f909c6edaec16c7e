//! Multi-host cluster topology and the table→node assignment stage.
//!
//! Production DLRM deployments shard thousands of embedding tables across
//! *nodes* (hosts) of several GPUs each, not across one flat GPU pool. The
//! two-level RecShard plan first assigns tables to nodes — balancing the
//! pooled-embedding bytes every node must ship through the (much slower)
//! inter-node all-to-all — and then solves an independent per-node placement
//! over that node's GPUs. [`NodeTopology`] describes the grid and
//! [`NodeAssigner`] implements the first level; the per-node second level
//! lives in the `recshard` crate (it needs the cost-model solvers).
//!
//! Global GPU indices are node-major: GPU `g` lives on node
//! `g / gpus_per_node`, so a two-level plan flattens into an ordinary
//! [`ShardingPlan`](crate::ShardingPlan) with no index translation.

use crate::error::ShardingError;
use crate::system::SystemSpec;
use recshard_data::ModelSpec;
use recshard_stats::DatasetProfile;

/// The node grid of a training cluster: `num_nodes` hosts with
/// `gpus_per_node` GPUs each, global GPU ids node-major.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeTopology {
    /// Number of nodes (hosts).
    pub num_nodes: usize,
    /// GPUs per node.
    pub gpus_per_node: usize,
}

impl NodeTopology {
    /// Builds a topology.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(num_nodes: usize, gpus_per_node: usize) -> Self {
        assert!(num_nodes > 0, "topology needs at least one node");
        assert!(
            gpus_per_node > 0,
            "topology needs at least one GPU per node"
        );
        Self {
            num_nodes,
            gpus_per_node,
        }
    }

    /// A single-node topology covering `num_gpus` GPUs (the degenerate case
    /// equivalent to a flat plan).
    pub fn single(num_gpus: usize) -> Self {
        Self::new(1, num_gpus)
    }

    /// Total GPUs in the cluster.
    pub fn num_gpus(&self) -> usize {
        self.num_nodes * self.gpus_per_node
    }

    /// The node owning global GPU `gpu`.
    ///
    /// # Panics
    ///
    /// Panics if `gpu` is out of range.
    pub fn node_of_gpu(&self, gpu: usize) -> usize {
        assert!(gpu < self.num_gpus(), "GPU {gpu} outside the topology");
        gpu / self.gpus_per_node
    }

    /// Global GPU ids of node `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn gpus_of_node(&self, node: usize) -> std::ops::Range<usize> {
        assert!(node < self.num_nodes, "node {node} outside the topology");
        node * self.gpus_per_node..(node + 1) * self.gpus_per_node
    }

    /// Fraction of a GPU's all-to-all peers that live on *other* nodes — the
    /// share of exchange traffic crossing the slow inter-node fabric.
    pub fn remote_peer_fraction(&self) -> f64 {
        let g = self.num_gpus();
        if g <= 1 {
            0.0
        } else {
            (g - self.gpus_per_node) as f64 / (g - 1) as f64
        }
    }
}

/// The first level of a two-level plan: one owning node per table.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeAssignment {
    /// Owning node per table (dense feature order).
    node_of_table: Vec<usize>,
}

impl NodeAssignment {
    /// Tables owned by `node`, in dense feature order.
    pub fn tables_on_node(&self, node: usize) -> Vec<usize> {
        self.node_of_table
            .iter()
            .enumerate()
            .filter(|&(_, &n)| n == node)
            .map(|(t, _)| t)
            .collect()
    }
}

/// Greedy table→node assigner minimising the peak per-node all-to-all send
/// volume.
///
/// Every GPU needs every table's pooled embedding each iteration, so a table
/// placed on node `n` makes `n` ship its pooled output to all *other* nodes:
/// the inter-node bytes a node sends scale with the sum of expected pooled
/// output bytes of the tables it owns. Minimising the maximum per-node send
/// volume (classic LPT makespan greedy, capacity-aware) therefore minimises
/// the bottleneck node's contribution to the inter-node all-to-all.
#[derive(Debug, Clone, Copy, Default)]
pub struct NodeAssigner;

impl NodeAssigner {
    /// Assigns tables to nodes.
    ///
    /// `traffic` per table is `coverage × row_bytes` — the expected pooled
    /// output bytes per sample. Pooling does *not* appear: the embedding
    /// lookups are pooled (summed) on the owning GPU before the all-to-all,
    /// so each table ships exactly one `row_bytes`-wide vector per covered
    /// sample regardless of its pooling factor (the same quantity
    /// `recshard-memsim`'s `internode_bytes_per_iteration` charges). Total
    /// table bytes must fit in each node's aggregate HBM+DRAM capacity.
    ///
    /// # Errors
    ///
    /// [`ShardingError::ProfileMismatch`] when the profile does not cover the
    /// model, [`ShardingError::SystemTooSmall`] when the model cannot fit the
    /// cluster, [`ShardingError::NonFiniteCost`] when some table's traffic is
    /// NaN or infinite, [`ShardingError::CapacityExceeded`] when some table
    /// fits on no node.
    pub fn assign(
        &self,
        model: &ModelSpec,
        profile: &DatasetProfile,
        system: &SystemSpec,
        topology: NodeTopology,
    ) -> Result<NodeAssignment, ShardingError> {
        assert_eq!(
            topology.num_gpus(),
            system.num_gpus(),
            "topology covers {} GPUs but the system has {}",
            topology.num_gpus(),
            system.num_gpus()
        );
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

        // Descending expected pooled-output bytes, deterministic tie-break.
        let mut order: Vec<(usize, f64)> = model
            .features()
            .iter()
            .zip(profile.profiles())
            .map(|(spec, prof)| {
                let traffic = prof.coverage * spec.row_bytes() as f64;
                (spec.id.index(), traffic)
            })
            .collect();
        // A NaN traffic would break the sort's total order.
        if let Some(&(idx, _)) = order.iter().find(|(_, traffic)| !traffic.is_finite()) {
            return Err(ShardingError::NonFiniteCost {
                table: model.features()[idx].id,
            });
        }
        order.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.0.cmp(&b.0))
        });

        // Per-node capacity is the aggregate over that node's GPUs — on a
        // heterogeneous cluster different nodes can carry different device
        // mixes, so each node's budget is summed from its own class mix.
        let mut node_traffic = vec![0.0f64; topology.num_nodes];
        let mut node_free: Vec<u64> = (0..topology.num_nodes)
            .map(|n| {
                topology
                    .gpus_of_node(n)
                    .map(|g| system.hbm_capacity(g) + system.dram_capacity(g))
                    .sum()
            })
            .collect();
        let mut node_of_table = vec![0usize; model.num_features()];

        for (idx, traffic) in order {
            let bytes = model.features()[idx].table_bytes();
            let target = (0..topology.num_nodes)
                .filter(|&n| node_free[n] >= bytes)
                .min_by(|&a, &b| {
                    node_traffic[a]
                        .partial_cmp(&node_traffic[b])
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then(a.cmp(&b))
                });
            let Some(n) = target else {
                return Err(ShardingError::CapacityExceeded {
                    table: model.features()[idx].id,
                    overflow_bytes: bytes,
                });
            };
            node_free[n] -= bytes;
            node_traffic[n] += traffic;
            node_of_table[idx] = n;
        }

        Ok(NodeAssignment { node_of_table })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recshard_stats::DatasetProfiler;

    #[test]
    fn topology_geometry() {
        let t = NodeTopology::new(4, 4);
        assert_eq!(t.num_gpus(), 16);
        assert_eq!(t.node_of_gpu(0), 0);
        assert_eq!(t.node_of_gpu(5), 1);
        assert_eq!(t.node_of_gpu(15), 3);
        assert_eq!(t.gpus_of_node(2), 8..12);
        assert!((t.remote_peer_fraction() - 12.0 / 15.0).abs() < 1e-12);
        assert_eq!(NodeTopology::single(8).remote_peer_fraction(), 0.0);
    }

    #[test]
    #[should_panic(expected = "outside the topology")]
    fn out_of_range_gpu_rejected() {
        let _ = NodeTopology::new(2, 2).node_of_gpu(4);
    }

    #[test]
    fn assignment_covers_every_table_within_capacity() {
        let model = ModelSpec::small(12, 9);
        let profile = DatasetProfiler::profile_model(&model, 500, 3);
        let topology = NodeTopology::new(2, 2);
        let system = SystemSpec::uniform(
            4,
            model.total_bytes() / 8,
            model.total_bytes(),
            1555.0,
            16.0,
        );
        let assignment = NodeAssigner
            .assign(&model, &profile, &system, topology)
            .unwrap();
        let mut counted = 0;
        for node in 0..topology.num_nodes {
            let tables = assignment.tables_on_node(node);
            counted += tables.len();
            let bytes: u64 = tables
                .iter()
                .map(|&t| model.features()[t].table_bytes())
                .sum();
            assert!(
                bytes
                    <= (system.hbm_capacity(0) + system.dram_capacity(0))
                        * topology.gpus_per_node as u64
            );
        }
        assert_eq!(counted, 12);
    }

    #[test]
    fn assignment_balances_traffic() {
        let model = ModelSpec::small(16, 21);
        let profile = DatasetProfiler::profile_model(&model, 1_000, 7);
        let topology = NodeTopology::new(4, 1);
        let system = SystemSpec::uniform(4, model.total_bytes(), model.total_bytes(), 1555.0, 16.0);
        let assignment = NodeAssigner
            .assign(&model, &profile, &system, topology)
            .unwrap();
        // Every node receives at least one table on this ample system.
        for node in 0..4 {
            assert!(
                !assignment.tables_on_node(node).is_empty(),
                "node {node} got no tables"
            );
        }
    }

    #[test]
    fn impossible_model_rejected() {
        let model = ModelSpec::small(4, 2);
        let profile = DatasetProfiler::profile_model(&model, 100, 1);
        let system = SystemSpec::uniform(2, 8, 8, 1555.0, 16.0);
        assert!(matches!(
            NodeAssigner.assign(&model, &profile, &system, NodeTopology::new(2, 1)),
            Err(ShardingError::SystemTooSmall { .. })
        ));
    }
}
