//! Sharding plans: per-table GPU assignment and HBM/UVM row split.

use crate::error::ShardingError;
use crate::system::SystemSpec;
use crate::topology::NodeTopology;
use recshard_data::{FeatureId, ModelSpec};

/// The memory tier a row lives in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemoryTier {
    /// GPU high-bandwidth memory.
    Hbm,
    /// Host DRAM reached through unified virtual memory.
    Uvm,
}

impl std::fmt::Display for MemoryTier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MemoryTier::Hbm => write!(f, "HBM"),
            MemoryTier::Uvm => write!(f, "UVM"),
        }
    }
}

/// Placement decision for one embedding table: the GPU that owns it and how
/// many of its hottest rows are resident in that GPU's HBM (the remaining
/// `total_rows - hbm_rows` rows live in UVM).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TablePlacement {
    /// The table being placed.
    pub table: FeatureId,
    /// Owning GPU (all accesses to the table are issued by this GPU).
    pub gpu: usize,
    /// Number of the table's hottest rows resident in HBM.
    pub hbm_rows: u64,
    /// Total rows of the table (its hash size).
    pub total_rows: u64,
    /// Bytes per row.
    pub row_bytes: u64,
}

impl TablePlacement {
    /// Rows resident in UVM.
    pub fn uvm_rows(&self) -> u64 {
        self.total_rows - self.hbm_rows
    }

    /// Fraction of the table's rows placed in UVM (Figure 12's y-axis).
    pub fn uvm_fraction(&self) -> f64 {
        if self.total_rows == 0 {
            0.0
        } else {
            self.uvm_rows() as f64 / self.total_rows as f64
        }
    }

    /// Bytes of the table resident in HBM.
    pub fn hbm_bytes(&self) -> u64 {
        self.hbm_rows * self.row_bytes
    }

    /// Bytes of the table resident in UVM.
    pub fn uvm_bytes(&self) -> u64 {
        self.uvm_rows() * self.row_bytes
    }
}

/// A complete sharding plan: one [`TablePlacement`] per embedding table,
/// optionally annotated with the node grid it was solved against
/// (two-level plans; see [`ShardingPlan::with_topology`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ShardingPlan {
    strategy: String,
    num_gpus: usize,
    placements: Vec<TablePlacement>,
    topology: Option<NodeTopology>,
}

impl ShardingPlan {
    /// Builds a plan from per-table placements (ordered by dense feature id).
    ///
    /// # Panics
    ///
    /// Panics if the placements are not ordered by dense feature id.
    pub fn new(
        strategy: impl Into<String>,
        num_gpus: usize,
        placements: Vec<TablePlacement>,
    ) -> Self {
        for (i, p) in placements.iter().enumerate() {
            assert_eq!(
                p.table.index(),
                i,
                "placements must be ordered by dense feature id"
            );
        }
        Self {
            strategy: strategy.into(),
            num_gpus,
            placements,
            topology: None,
        }
    }

    /// Annotates the plan with the node grid it targets, turning it into a
    /// two-level (hierarchical) plan. Global GPU ids are node-major: GPU `g`
    /// lives on node `g / gpus_per_node`.
    ///
    /// # Panics
    ///
    /// Panics if the topology's GPU count differs from the plan's.
    pub fn with_topology(mut self, topology: NodeTopology) -> Self {
        assert_eq!(
            topology.num_gpus(),
            self.num_gpus,
            "topology covers {} GPUs but the plan has {}",
            topology.num_gpus(),
            self.num_gpus
        );
        self.topology = Some(topology);
        self
    }

    /// The node grid of a two-level plan, `None` for flat single-host plans.
    pub fn topology(&self) -> Option<NodeTopology> {
        self.topology
    }

    /// The node grid, defaulting to a single node spanning every GPU.
    pub fn effective_topology(&self) -> NodeTopology {
        self.topology
            .unwrap_or_else(|| NodeTopology::single(self.num_gpus))
    }

    /// Tables owned by GPUs of the given node.
    pub fn tables_on_node(&self, node: usize) -> Vec<FeatureId> {
        let topology = self.effective_topology();
        self.placements
            .iter()
            .filter(|p| topology.node_of_gpu(p.gpu) == node)
            .map(|p| p.table)
            .collect()
    }

    /// Strips the node annotation, yielding the equivalent flat single-level
    /// plan (placements are untouched — global GPU ids already encode the
    /// node-major layout).
    pub fn flatten(&self) -> ShardingPlan {
        ShardingPlan {
            strategy: self.strategy.clone(),
            num_gpus: self.num_gpus,
            placements: self.placements.clone(),
            topology: None,
        }
    }

    /// Name of the strategy that produced the plan (e.g. `"size"`,
    /// `"recshard"`).
    pub fn strategy(&self) -> &str {
        &self.strategy
    }

    /// Number of GPUs the plan shards across.
    pub fn num_gpus(&self) -> usize {
        self.num_gpus
    }

    /// Per-table placements, ordered by feature id.
    pub fn placements(&self) -> &[TablePlacement] {
        &self.placements
    }

    /// The placement of a specific table.
    pub fn placement(&self, table: FeatureId) -> &TablePlacement {
        &self.placements[table.index()]
    }

    /// Per-table owning GPU, indexed by dense feature id — the routing table
    /// shared by the trace samplers, the cluster simulator and the online
    /// serving layer.
    pub fn gpu_assignments(&self) -> Vec<usize> {
        self.placements.iter().map(|p| p.gpu).collect()
    }

    /// Tables assigned to the given GPU.
    pub fn tables_on_gpu(&self, gpu: usize) -> Vec<FeatureId> {
        self.placements
            .iter()
            .filter(|p| p.gpu == gpu)
            .map(|p| p.table)
            .collect()
    }

    /// HBM bytes used on each GPU.
    pub fn hbm_bytes_per_gpu(&self) -> Vec<u64> {
        let mut usage = vec![0u64; self.num_gpus];
        for p in &self.placements {
            usage[p.gpu] += p.hbm_bytes();
        }
        usage
    }

    /// UVM (host DRAM) bytes used on behalf of each GPU.
    pub fn uvm_bytes_per_gpu(&self) -> Vec<u64> {
        let mut usage = vec![0u64; self.num_gpus];
        for p in &self.placements {
            usage[p.gpu] += p.uvm_bytes();
        }
        usage
    }

    /// Total rows placed in UVM across all tables.
    pub fn total_uvm_rows(&self) -> u64 {
        self.placements.iter().map(|p| p.uvm_rows()).sum()
    }

    /// Fraction of all rows placed in UVM.
    pub fn uvm_row_fraction(&self) -> f64 {
        let total: u64 = self.placements.iter().map(|p| p.total_rows).sum();
        if total == 0 {
            0.0
        } else {
            self.total_uvm_rows() as f64 / total as f64
        }
    }

    /// Mean over tables of the per-table UVM row fraction (the paper reports
    /// "average % of rows per EMB placed on UVM").
    pub fn mean_table_uvm_fraction(&self) -> f64 {
        if self.placements.is_empty() {
            return 0.0;
        }
        self.placements
            .iter()
            .map(|p| p.uvm_fraction())
            .sum::<f64>()
            / self.placements.len() as f64
    }

    /// Validates the plan against a model and system: every table placed
    /// exactly once on a valid GPU with consistent row counts, and no GPU
    /// exceeding *its own* HBM or DRAM capacity — on a heterogeneous
    /// cluster each GPU is checked against its device class's limits, so a
    /// plan that overflows only the small-GPU class is rejected.
    ///
    /// # Errors
    ///
    /// Returns [`ShardingError::InvalidPlan`] describing the first violation.
    pub fn validate(&self, model: &ModelSpec, system: &SystemSpec) -> Result<(), ShardingError> {
        if self.num_gpus != system.num_gpus() {
            return Err(ShardingError::InvalidPlan(format!(
                "plan is for {} GPUs but the system has {}",
                self.num_gpus,
                system.num_gpus()
            )));
        }
        if self.placements.len() != model.num_features() {
            return Err(ShardingError::InvalidPlan(format!(
                "plan places {} tables but the model has {}",
                self.placements.len(),
                model.num_features()
            )));
        }
        if let Some(topology) = self.topology {
            if topology.num_gpus() != self.num_gpus {
                return Err(ShardingError::InvalidPlan(format!(
                    "topology covers {} GPUs but the plan has {}",
                    topology.num_gpus(),
                    self.num_gpus
                )));
            }
        }
        for p in &self.placements {
            let spec = model.feature(p.table);
            if p.gpu >= self.num_gpus {
                return Err(ShardingError::InvalidPlan(format!(
                    "table {} assigned to out-of-range GPU {}",
                    p.table, p.gpu
                )));
            }
            if p.total_rows != spec.hash_size {
                return Err(ShardingError::InvalidPlan(format!(
                    "table {} has {} rows in the plan but {} in the model",
                    p.table, p.total_rows, spec.hash_size
                )));
            }
            if p.hbm_rows > p.total_rows {
                return Err(ShardingError::InvalidPlan(format!(
                    "table {} places {} rows in HBM but only has {}",
                    p.table, p.hbm_rows, p.total_rows
                )));
            }
            if p.row_bytes != spec.row_bytes() {
                return Err(ShardingError::InvalidPlan(format!(
                    "table {} row width mismatch ({} vs {})",
                    p.table,
                    p.row_bytes,
                    spec.row_bytes()
                )));
            }
        }
        for (gpu, &bytes) in self.hbm_bytes_per_gpu().iter().enumerate() {
            if bytes > system.hbm_capacity(gpu) {
                return Err(ShardingError::InvalidPlan(format!(
                    "GPU {gpu} HBM usage {bytes} exceeds its capacity {}",
                    system.hbm_capacity(gpu)
                )));
            }
        }
        for (gpu, &bytes) in self.uvm_bytes_per_gpu().iter().enumerate() {
            if bytes > system.dram_capacity(gpu) {
                return Err(ShardingError::InvalidPlan(format!(
                    "GPU {gpu} UVM usage {bytes} exceeds its capacity {}",
                    system.dram_capacity(gpu)
                )));
            }
        }
        Ok(())
    }

    /// Compares two plans table-by-table and reports placement disparity as
    /// in Table 4 of the paper: the fraction of rows `other` put in UVM that
    /// `self` puts in HBM, and vice versa.
    ///
    /// Returns `(uvm_to_hbm, hbm_to_uvm)` fractions in `[0, 1]`.
    pub fn placement_disparity(&self, other: &ShardingPlan) -> (f64, f64) {
        let mut other_uvm_rows = 0u64;
        let mut other_uvm_now_hbm = 0u64;
        let mut other_hbm_rows = 0u64;
        let mut other_hbm_now_uvm = 0u64;
        for (a, b) in self.placements.iter().zip(other.placements()) {
            debug_assert_eq!(a.table, b.table);
            // Rows are ranked hottest-first in both plans, so the comparison
            // reduces to comparing split points.
            other_uvm_rows += b.uvm_rows();
            other_hbm_rows += b.hbm_rows;
            if a.hbm_rows > b.hbm_rows {
                other_uvm_now_hbm += a.hbm_rows - b.hbm_rows;
            } else {
                other_hbm_now_uvm += b.hbm_rows - a.hbm_rows;
            }
        }
        let uvm_to_hbm = if other_uvm_rows == 0 {
            0.0
        } else {
            other_uvm_now_hbm as f64 / other_uvm_rows as f64
        };
        let hbm_to_uvm = if other_hbm_rows == 0 {
            0.0
        } else {
            other_hbm_now_uvm as f64 / other_hbm_rows as f64
        };
        (uvm_to_hbm, hbm_to_uvm)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recshard_data::ModelSpec;

    fn full_hbm_plan(model: &ModelSpec, num_gpus: usize) -> ShardingPlan {
        let placements = model
            .features()
            .iter()
            .enumerate()
            .map(|(i, f)| TablePlacement {
                table: f.id,
                gpu: i % num_gpus,
                hbm_rows: f.hash_size,
                total_rows: f.hash_size,
                row_bytes: f.row_bytes(),
            })
            .collect();
        ShardingPlan::new("test", num_gpus, placements)
    }

    #[test]
    fn accessors_and_usage() {
        let model = ModelSpec::small(6, 1);
        let plan = full_hbm_plan(&model, 2);
        assert_eq!(plan.num_gpus(), 2);
        assert_eq!(plan.placements().len(), 6);
        assert_eq!(plan.total_uvm_rows(), 0);
        assert_eq!(plan.uvm_row_fraction(), 0.0);
        let hbm = plan.hbm_bytes_per_gpu();
        assert_eq!(hbm.len(), 2);
        assert_eq!(hbm.iter().sum::<u64>(), model.total_bytes());
        assert_eq!(plan.tables_on_gpu(0).len() + plan.tables_on_gpu(1).len(), 6);
        let gpu_of = plan.gpu_assignments();
        assert_eq!(gpu_of.len(), 6);
        for (i, p) in plan.placements().iter().enumerate() {
            assert_eq!(gpu_of[i], p.gpu);
        }
    }

    #[test]
    fn validation_accepts_good_plan() {
        let model = ModelSpec::small(5, 2);
        let plan = full_hbm_plan(&model, 2);
        let system = SystemSpec::uniform(2, model.total_bytes(), model.total_bytes(), 100.0, 1.0);
        assert!(plan.validate(&model, &system).is_ok());
    }

    #[test]
    fn validation_rejects_capacity_violation() {
        let model = ModelSpec::small(5, 2);
        let plan = full_hbm_plan(&model, 2);
        let tiny = SystemSpec::uniform(2, 16, 16, 100.0, 1.0);
        assert!(matches!(
            plan.validate(&model, &tiny),
            Err(ShardingError::InvalidPlan(_))
        ));
    }

    #[test]
    fn validation_checks_against_owning_gpu_capacity() {
        use crate::system::DeviceClass;
        let model = ModelSpec::small(4, 2);
        // GPU 0 is big enough for everything; GPU 1 holds almost nothing.
        let big = DeviceClass::new("big", model.total_bytes(), model.total_bytes(), 100.0, 1.0);
        let small = DeviceClass::new("small", 16, model.total_bytes(), 100.0, 1.0);
        let system = SystemSpec::with_classes(vec![big, small], vec![0, 1]);

        // A plan keeping every table on GPU 0 is fine...
        let on_big = ShardingPlan::new(
            "big-only",
            2,
            model
                .features()
                .iter()
                .map(|f| TablePlacement {
                    table: f.id,
                    gpu: 0,
                    hbm_rows: f.hash_size,
                    total_rows: f.hash_size,
                    row_bytes: f.row_bytes(),
                })
                .collect(),
        );
        on_big.validate(&model, &system).unwrap();

        // ...but the identical byte load overflows only the small class.
        let on_small = ShardingPlan::new(
            "small-only",
            2,
            model
                .features()
                .iter()
                .map(|f| TablePlacement {
                    table: f.id,
                    gpu: 1,
                    hbm_rows: f.hash_size,
                    total_rows: f.hash_size,
                    row_bytes: f.row_bytes(),
                })
                .collect(),
        );
        match on_small.validate(&model, &system) {
            Err(ShardingError::InvalidPlan(msg)) => {
                assert!(
                    msg.contains("GPU 1"),
                    "violation must name the small GPU: {msg}"
                );
            }
            other => panic!("small-class overflow must be rejected, got {other:?}"),
        }
    }

    #[test]
    fn validation_rejects_row_mismatch() {
        let model = ModelSpec::small(3, 2);
        let mut plan = full_hbm_plan(&model, 2);
        plan.placements[1].total_rows += 5;
        let system = SystemSpec::uniform(2, u64::MAX / 4, u64::MAX / 4, 100.0, 1.0);
        assert!(plan.validate(&model, &system).is_err());
    }

    #[test]
    fn validation_rejects_wrong_gpu_count() {
        let model = ModelSpec::small(3, 2);
        let plan = full_hbm_plan(&model, 2);
        let system = SystemSpec::uniform(4, u64::MAX / 8, u64::MAX / 8, 100.0, 1.0);
        assert!(plan.validate(&model, &system).is_err());
    }

    #[test]
    fn uvm_fraction_math() {
        let p = TablePlacement {
            table: FeatureId(0),
            gpu: 0,
            hbm_rows: 25,
            total_rows: 100,
            row_bytes: 8,
        };
        assert_eq!(p.uvm_rows(), 75);
        assert!((p.uvm_fraction() - 0.75).abs() < 1e-12);
        assert_eq!(p.hbm_bytes(), 200);
        assert_eq!(p.uvm_bytes(), 600);
    }

    #[test]
    fn disparity_between_plans() {
        let model = ModelSpec::small(2, 3);
        let f0 = &model.features()[0];
        let f1 = &model.features()[1];
        let mk = |h0: u64, h1: u64| {
            ShardingPlan::new(
                "x",
                1,
                vec![
                    TablePlacement {
                        table: f0.id,
                        gpu: 0,
                        hbm_rows: h0,
                        total_rows: f0.hash_size,
                        row_bytes: f0.row_bytes(),
                    },
                    TablePlacement {
                        table: f1.id,
                        gpu: 0,
                        hbm_rows: h1,
                        total_rows: f1.hash_size,
                        row_bytes: f1.row_bytes(),
                    },
                ],
            )
        };
        let a = mk(f0.hash_size, 0);
        let b = mk(0, f1.hash_size);
        let (uvm_to_hbm, hbm_to_uvm) = a.placement_disparity(&b);
        // Everything b put in UVM (table 0), a puts in HBM; everything b put
        // in HBM (table 1), a puts in UVM.
        assert!((uvm_to_hbm - 1.0).abs() < 1e-12);
        assert!((hbm_to_uvm - 1.0).abs() < 1e-12);
        let (same_a, same_b) = a.placement_disparity(&a);
        assert_eq!(same_a, 0.0);
        assert_eq!(same_b, 0.0);
    }

    #[test]
    #[should_panic(expected = "placements must be ordered by dense feature id")]
    fn unordered_placements_rejected() {
        let model = ModelSpec::small(2, 3);
        let f0 = &model.features()[0];
        let f1 = &model.features()[1];
        let _ = ShardingPlan::new(
            "bad",
            1,
            vec![
                TablePlacement {
                    table: f1.id,
                    gpu: 0,
                    hbm_rows: 0,
                    total_rows: f1.hash_size,
                    row_bytes: f1.row_bytes(),
                },
                TablePlacement {
                    table: f0.id,
                    gpu: 0,
                    hbm_rows: 0,
                    total_rows: f0.hash_size,
                    row_bytes: f0.row_bytes(),
                },
            ],
        );
    }
}
