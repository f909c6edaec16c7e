//! # recshard
//!
//! RecShard: statistical feature-based embedding-table (EMB) partitioning and
//! placement across tiered memory, reproducing the ASPLOS 2022 paper
//! *"RecShard: Statistical Feature-Based Memory Optimization for
//! Industry-Scale Neural Recommendation"*.
//!
//! DLRM embedding tables dominate model capacity (>99%) and bandwidth demand,
//! and training systems increasingly pair fast-but-small GPU HBM with
//! large-but-slow host DRAM reached over UVM. RecShard exploits three
//! statistical facts about recommendation training data — per-feature value
//! frequency distributions are skewed, per-feature pooling factors differ by
//! orders of magnitude, and per-feature coverage varies from <1% to 100% — to
//! place the *hot rows* of every table in HBM and relegate cold and unused
//! rows (including the hash-collision slack the birthday paradox leaves
//! behind) to UVM, while load-balancing the resulting per-GPU work.
//!
//! The crate implements the full pipeline of the paper's Figure 10:
//!
//! 1. **Training data profiling** (delegated to `recshard-stats`),
//! 2. **EMB partitioning and placement** — either the exact MILP formulation
//!    of Section 4.2 (solved with `recshard-milp`, for small instances) or
//!    the structured solver that exploits the problem's min-max / knapsack
//!    structure ([`solver`]); one solver core, optionally preceded by
//!    bucketing of near-identical tables ([`bucketing`]) for models with
//!    thousands of tables, and driven per node by the two-level
//!    [`hierarchical`] solver,
//! 3. **Remapping** — materialising per-table remapping tables
//!    (`recshard-sharding`'s [`RemapTable`](recshard_sharding::RemapTable)),
//! 4. **Dynamic validation** — replaying a plan through the discrete-event
//!    cluster simulator (`recshard-des`) for sustained-throughput and
//!    tail-latency numbers, optionally with drift-driven online re-sharding
//!    ([`RecShard::reshard_controller`](pipeline::RecShard::reshard_controller)).
//!
//! ## Quick example
//!
//! ```
//! use recshard::{RecShard, RecShardConfig};
//! use recshard_data::ModelSpec;
//! use recshard_sharding::SystemSpec;
//! use recshard_stats::DatasetProfiler;
//!
//! let model = ModelSpec::small(8, 1);
//! let profile = DatasetProfiler::profile_model(&model, 2_000, 7);
//! // A system so tight that only ~30% of the model fits in HBM.
//! let system = SystemSpec::uniform(2, model.total_bytes() / 6, model.total_bytes(), 1555.0, 16.0);
//! let plan = RecShard::new(RecShardConfig::default())
//!     .plan(&model, &profile, &system)
//!     .unwrap();
//! assert!(plan.validate(&model, &system).is_ok());
//! // Under capacity pressure some rows must live in UVM.
//! assert!(plan.total_uvm_rows() > 0);
//! ```
#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod ablation;
pub mod analysis;
pub mod bucketing;
pub mod config;
pub mod cost;
pub mod error;
pub mod formulation;
pub mod hash_analysis;
pub mod hierarchical;
pub mod pipeline;
pub mod scalable;
pub mod solver;

pub use ablation::AblationVariant;
pub use analysis::{PlanComparison, SpeedupReport};
pub use bucketing::{TableBucket, TableBuckets};
pub use config::{RecShardConfig, SolverKind};
pub use error::RecShardError;
pub use formulation::MilpFormulation;
pub use hash_analysis::{hash_size_sweep, HashSweepPoint};
pub use hierarchical::HierarchicalSolver;
pub use pipeline::{RecShard, RecShardOutput};
pub use scalable::ScalableSolver;
pub use solver::{SolveReport, StructuredSolver};
