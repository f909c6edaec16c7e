//! # recshard-sharding
//!
//! Sharding-plan types, the training-system description, per-table cost
//! functions and the greedy baseline sharders the paper compares RecShard
//! against (Section 5).
//!
//! The state-of-the-art production sharders the paper uses as baselines work
//! in two steps: (I) assign each embedding table a scalar cost — by *size*,
//! by *lookup* volume, or by a combination — and (II) greedily assign tables
//! to GPUs in descending cost order, spilling whole tables to UVM once the
//! GPUs' HBM is full. RecShard instead places *row ranges* of each table, and
//! both kinds of plans are described by the same [`ShardingPlan`] type: each
//! table is assigned one GPU plus the number of its (hottest) rows resident
//! in HBM.
//!
//! ```
//! use recshard_data::ModelSpec;
//! use recshard_stats::DatasetProfiler;
//! use recshard_sharding::{GreedySharder, SizeCost, SystemSpec};
//!
//! let model = ModelSpec::small(8, 3);
//! let profile = DatasetProfiler::profile_model(&model, 1_000, 1);
//! let system = SystemSpec::uniform(2, 1 << 22, 1 << 30, 1555.0, 16.0);
//! let plan = GreedySharder::new(SizeCost).shard(&model, &profile, &system).unwrap();
//! assert!(plan.validate(&model, &system).is_ok());
//! ```
#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod cost;
pub mod error;
pub mod greedy;
pub mod plan;
pub mod remap;
pub mod system;
pub mod topology;

pub use cost::{CostFunction, LookupCost, SizeCost, SizeLookupCost};
pub use error::ShardingError;
pub use greedy::GreedySharder;
pub use plan::{MemoryTier, ShardingPlan, TablePlacement};
pub use remap::{HbmRowSet, RemapTable, RemappedRow};
pub use system::{ClusterSpec, DeviceClass, SystemSpec, GIB};
pub use topology::{NodeAssigner, NodeAssignment, NodeTopology};
