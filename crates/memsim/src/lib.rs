//! # recshard-memsim
//!
//! Tiered-memory training-system simulator for the RecShard reproduction.
//!
//! The paper measures embedding-operator performance on a real 16× A100
//! server by tracing FBGEMM kernels. Without GPUs, this crate simulates the
//! part of that system the paper's results depend on: it drives *actual
//! multi-hot lookups* (hashed row indices from `recshard-data`) through the
//! HBM rows a sharding plan's remapping selects, counts per-GPU HBM and UVM
//! row accesses, and charges each GPU the same cost model the paper uses —
//! `bytes_from_HBM / BW_HBM + bytes_from_UVM / BW_UVM` plus a per-kernel
//! overhead — with the iteration time being the maximum across GPUs
//! (training is synchronous).
//!
//! The absolute milliseconds differ from the paper's hardware, but the
//! quantities the paper reports (access counts per tier, load balance,
//! relative speedups between sharding strategies) are functions of *where
//! accesses land*, which the simulation computes exactly.
//!
//! The trace workload is one type, [`IterationWorkload`]: a model's
//! per-table samplers under the active plan, drawing one batch into
//! per-GPU [`AccessCounters`]. [`EmbeddingOpSimulator`] charges the timing
//! model over one, and the `recshard-des` cluster simulator replays one
//! (re-exported as `recshard_des::IterationWorkload`), installing drifted
//! models and re-solved plans mid-run.
//!
//! All trace sampling goes through one kernel, [`sample_batch_accesses`],
//! which draws each sample's pooling factor and lookups through a
//! per-table [`TableSampler`]: a pooling guide, and a two-bit tier map over
//! the Zipf sampler whose cells hold the looked-up row's tier, so most
//! lookups cost one RNG word and one byte load. The draws are bit-identical
//! to sampling, hashing and remapping one lookup at a time; the
//! `recshard_data::zipf` module doc gives the exactness argument.
//!
//! ## Analytical model vs. discrete-event model
//!
//! This crate answers **single-iteration, steady-state** questions with two
//! tools that share one timing model ([`embedding_kernel_time_ms`]):
//!
//! * [`AnalyticalEstimator`] — closed-form *expected* per-GPU access counts
//!   and times, straight from the profile's CDFs. This is exactly the
//!   objective RecShard's MILP optimises; use it when you need the number the
//!   solver believes, or a fast estimate without sampling (e.g. to calibrate
//!   an arrival rate).
//! * [`EmbeddingOpSimulator`] — trace-driven: draws actual multi-hot batches
//!   from an [`IterationWorkload`] and counts where every lookup lands. Use
//!   it to validate plans against sampled (rather than expected) traffic,
//!   and for the per-tier access counts of Tables 5–6.
//!
//! Neither models *time-extended* behaviour: batches queueing behind a slow
//! GPU, the all-to-all barrier, tail latency, workload drift, or online
//! re-sharding. Those are the `recshard-des` crate's job — its
//! `ClusterSimulator` replays a plan through an event-driven cluster with
//! per-GPU FIFO stations (service times charged by this crate's
//! [`embedding_kernel_time_ms`] formula) and reports sustained throughput and
//! p50/p95/p99 sojourn times. Rule of thumb: "how expensive is an
//! iteration?" → this crate; "what happens to the training pipeline over a
//! million iterations?" → `recshard-des`.
//!
//! ```
//! use recshard_data::ModelSpec;
//! use recshard_stats::DatasetProfiler;
//! use recshard_sharding::{GreedySharder, SizeCost, SystemSpec};
//! use recshard_memsim::{EmbeddingOpSimulator, SimConfig};
//!
//! let model = ModelSpec::small(6, 3);
//! let profile = DatasetProfiler::profile_model(&model, 500, 1);
//! let system = SystemSpec::uniform(2, u64::MAX / 4, u64::MAX / 4, 1555.0, 16.0);
//! let plan = GreedySharder::new(SizeCost).shard(&model, &profile, &system).unwrap();
//! let mut sim = EmbeddingOpSimulator::new(&model, &plan, &profile, &system, SimConfig::default());
//! let report = sim.run(3, 64, 42);
//! assert!(report.iteration_time_ms() > 0.0);
//! ```
#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod analytical;
pub mod counters;
pub mod engine;
pub mod sampler;
pub mod timing;
pub mod workload;

pub use analytical::AnalyticalEstimator;
pub use counters::AccessCounters;
pub use engine::{
    sample_batch_accesses, sample_batch_accesses_into, EmbeddingOpSimulator, GpuIterationStats,
    IterationReport, RunReport, SimConfig,
};
pub use sampler::TableSampler;
pub use timing::embedding_kernel_time_ms;
pub use workload::IterationWorkload;
