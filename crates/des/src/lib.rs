//! # recshard-des
//!
//! A seeded, deterministic **discrete-event cluster simulator** for sharded
//! embedding-table training.
//!
//! The static RecShard pipeline (profile → placement → remap) and the
//! closed-form/trace simulators in `recshard-memsim` answer "how long does
//! one iteration take in isolation?". The paper's headline claims, however,
//! are about *sustained training throughput* on a multi-GPU cluster, where
//! queueing in front of slow GPUs, UVM stalls, kernel launch overheads, the
//! all-to-all barrier and load imbalance interact **over time**. This crate
//! models that dynamic system:
//!
//! * [`EventQueue`] — a binary-heap event queue with a virtual clock and
//!   stable `(time, sequence)` tie-breaking: identical seeds replay identical
//!   event logs, bit for bit.
//! * [`GpuStation`] — per-GPU FIFO service stations whose service time splits
//!   into HBM, UVM and kernel-overhead components (the additive mixed-tier
//!   model of Section 4.2).
//! * [`SharedRateResource`] — processor-sharing links for
//!   [`ContentionMode::SharedRate`]: per-GPU HBM/UVM channels, per-GPU
//!   NVLink egress, and one fabric port per receiving node, all re-estimated
//!   in integer virtual time on every tenancy change so incast and
//!   cross-iteration bandwidth sharing appear in the sojourn tail.
//! * [`ArrivalProcess`] / [`IterationWorkload`] — fixed-rate or Poisson batch
//!   arrivals whose lookups are drawn by the trace workload
//!   `recshard_memsim` defines and its single-iteration simulator shares
//!   (re-exported here): the *same* Zipf/pooling/coverage generators as the
//!   rest of the reproduction (`recshard-data`), routed through the active
//!   plan's HBM rows. Each iteration draws from its own keyed stream, so
//!   [`ClusterSimulator::run`] draws iterations ahead on a worker thread
//!   and the run is identical for any worker count.
//! * an **all-to-all exchange barrier** — synchronous training completes an
//!   iteration only after the slowest GPU's gather plus the interconnect
//!   exchange.
//! * [`ReshardController`] — online re-sharding: a [`ScenarioSpec`]'s shift
//!   events drift the workload mid-run (Figure 9's pooling drift among
//!   them), the controller watches per-GPU busy-time imbalance, and swaps
//!   in a freshly solved [`ShardingPlan`], charging a migration stall.
//! * tail-latency metrics — per-iteration sojourn times go into
//!   `recshard-stats`' [`LogLinearHistogram`], an integer quantile sketch
//!   that depends only on the set of samples, so p50/p95/p99 (within
//!   2^-8 relative) come out of million-iteration runs without buffering.
//!
//! [`ScenarioSpec`]: recshard_data::ScenarioSpec
//! [`ShardingPlan`]: recshard_sharding::ShardingPlan
//! [`LogLinearHistogram`]: recshard_stats::LogLinearHistogram
//!
//! ## When to use which simulator
//!
//! | question | tool |
//! |---|---|
//! | expected per-iteration time of a plan | `recshard_memsim::AnalyticalEstimator` |
//! | where do a batch's accesses land | `recshard_memsim::EmbeddingOpSimulator` |
//! | sustained throughput, p99 tails, drift, re-sharding | [`ClusterSimulator`] |
//!
//! ## Quick example
//!
//! ```
//! use recshard_data::ModelSpec;
//! use recshard_stats::DatasetProfiler;
//! use recshard_sharding::{GreedySharder, SizeCost, SystemSpec};
//! use recshard_des::{ArrivalProcess, ClusterConfig, ClusterSimulator};
//!
//! let model = ModelSpec::small(8, 3);
//! let profile = DatasetProfiler::profile_model(&model, 1_000, 7);
//! let system = SystemSpec::uniform(4, u64::MAX / 8, u64::MAX / 8, 1555.0, 16.0);
//! let plan = GreedySharder::new(SizeCost).shard(&model, &profile, &system).unwrap();
//!
//! let config = ClusterConfig {
//!     iterations: 500,
//!     arrival: ArrivalProcess::Poisson { mean_interval_ms: 2.0 },
//!     ..ClusterConfig::default()
//! };
//! let summary = ClusterSimulator::new(&model, &plan, &profile, &system, config).run();
//! assert_eq!(summary.completed, 500);
//! println!("{summary}");
//! ```
#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod cluster;
pub mod controller;
mod draws;
pub mod engine;
pub mod error;
pub mod resource;
pub mod station;
pub mod time;
pub mod workload;

pub use cluster::{ClusterConfig, ClusterSimulator, ContentionMode, RunSummary};
pub use controller::{CheckOutcome, PlanSolver, ReshardController, ReshardPolicy};
pub use engine::{EventQueue, Scheduled};
pub use error::DesError;
pub use recshard_memsim::IterationWorkload;
pub use resource::{CompletedTransfer, SharedRateResource, WORK_UNITS_PER_NS};
pub use station::{GpuStation, ServiceDemand};
pub use time::SimTime;
pub use workload::ArrivalProcess;
