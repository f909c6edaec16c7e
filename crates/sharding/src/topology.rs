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

/// Link-rate parameters of the exchange fabric, shared by every layer that
/// prices a cross-GPU or cross-node byte.
///
/// Three consumers read this one description so their assumptions cannot
/// drift apart:
///
/// * the DES (`recshard-des`) instantiates one shared-rate link per GPU
///   NVLink egress and one per node fabric port and lets in-flight
///   transfers contend for them;
/// * the analytical estimator (`recshard-memsim`) divides aggregate phase
///   bytes by the same rates (its no-queueing lower bound);
/// * the serving simulator (`recshard-serve`) derives its per-hop
///   `internode_hop_ns` charge from the same fabric rate and latency.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FabricSpec {
    /// Per-GPU NVLink egress bandwidth, GB/s. NVLink is switched, so each
    /// GPU's egress is an independent link rather than a shared bus.
    pub nvlink_gbps: f64,
    /// Per-node inter-node port (NIC) bandwidth, GB/s. All flows *into* a
    /// node share this link — the incast bottleneck.
    pub fabric_gbps: f64,
    /// Base all-to-all software/launch latency, µs.
    pub base_latency_us: f64,
}

impl FabricSpec {
    /// Builds a fabric description.
    ///
    /// # Panics
    ///
    /// Panics if a bandwidth is not positive and finite or the latency is
    /// negative or non-finite.
    pub fn new(nvlink_gbps: f64, fabric_gbps: f64, base_latency_us: f64) -> Self {
        assert!(
            nvlink_gbps.is_finite() && nvlink_gbps > 0.0,
            "nvlink_gbps must be positive and finite"
        );
        assert!(
            fabric_gbps.is_finite() && fabric_gbps > 0.0,
            "fabric_gbps must be positive and finite"
        );
        assert!(
            base_latency_us.is_finite() && base_latency_us >= 0.0,
            "base_latency_us must be non-negative and finite"
        );
        Self {
            nvlink_gbps,
            fabric_gbps,
            base_latency_us,
        }
    }

    /// An HGX-class node: 150 GB/s effective NVLink all-to-all egress per
    /// GPU, a 25 GB/s (200 Gb/s RoCE) fabric port per node, 20 µs base
    /// latency — the same figures the DES has always defaulted to.
    pub fn hgx() -> Self {
        Self::new(150.0, 25.0, 20.0)
    }

    /// Solo (uncontended) seconds to move `bytes` over one NVLink egress.
    pub fn nvlink_secs(&self, bytes: f64) -> f64 {
        bytes / (self.nvlink_gbps * 1e9)
    }

    /// Solo (uncontended) seconds to move `bytes` through one node's fabric
    /// port.
    pub fn fabric_secs(&self, bytes: f64) -> f64 {
        bytes / (self.fabric_gbps * 1e9)
    }

    /// Nanoseconds a single `bytes`-sized remote hop costs (base latency
    /// plus solo fabric service) — the per-shard remote charge the serving
    /// simulator applies.
    pub fn hop_ns(&self, bytes: f64) -> u64 {
        let secs = self.base_latency_us * 1e-6 + self.fabric_secs(bytes);
        (secs * 1e9).round() as u64
    }
}

/// The first level of a two-level plan: one owning node per table.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeAssignment {
    topology: NodeTopology,
    node_of_table: Vec<usize>,
}

impl NodeAssignment {
    /// The topology the assignment targets.
    pub fn topology(&self) -> NodeTopology {
        self.topology
    }

    /// Owning node per table (dense feature order).
    pub fn node_of_table(&self) -> &[usize] {
        &self.node_of_table
    }

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
    /// `recshard-memsim`'s `internode_send_bytes_per_node` charges). Total
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

        Ok(NodeAssignment {
            topology,
            node_of_table,
        })
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
    fn fabric_prices_links_consistently() {
        let fabric = FabricSpec::hgx();
        // 150 MB over one 150 GB/s NVLink egress: 1 ms.
        assert!((fabric.nvlink_secs(150e6) - 1e-3).abs() < 1e-12);
        // 25 MB through one 25 GB/s fabric port: 1 ms.
        assert!((fabric.fabric_secs(25e6) - 1e-3).abs() < 1e-12);
        // Hop = 20 µs latency + 40 ns of wire time for 1 KiB.
        assert_eq!(fabric.hop_ns(1024.0), 20_000 + 41);
    }

    #[test]
    #[should_panic(expected = "fabric_gbps must be positive")]
    fn zero_fabric_bandwidth_rejected() {
        let _ = FabricSpec::new(150.0, 0.0, 20.0);
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
        assert_eq!(assignment.node_of_table().len(), 12);
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
