//! # recshard-serve
//!
//! A concurrent **online embedding-inference layer** with statistics-guided
//! HBM caching — the serving-side counterpart of the RecShard training
//! pipeline.
//!
//! Training-time RecShard splits each embedding table *statically*: the
//! profiled CDF decides which rows live in HBM and which in UVM, and remap
//! tables freeze that decision for the whole run. Online inference cannot
//! freeze anything — traffic drifts, capacity is shared, and queries demand
//! tail-latency guarantees — so this crate inverts the mechanism while
//! keeping the insight: every row lives in UVM-backed host memory, each GPU
//! shard's HBM becomes a **managed cache** in front of it, and the *same
//! per-table access CDFs* that drive the training MILP drive the cache's
//! admission and pinning policy.
//!
//! The pieces:
//!
//! * [`ShardedCache`] — one GPU shard's HBM cache: one sequential
//!   structure owned by that shard's worker thread (`Send`, not `Sync`),
//!   byte-budgeted, with pluggable eviction, O(1) per access.
//! * [`PolicyKind`] — `Lru`, `Lfu`, or `StatGuided`: LRU over an unpinned
//!   region plus profile-driven pinning of each table's rows above the
//!   [CDF knee](recshard_stats::AccessCdf::knee_rank) and admission
//!   filtering of never-profiled rows ([`StatGuide`]).
//! * [`RequestStream`] — seeded batched queries drawn with the *same*
//!   coverage/pooling/Zipf draw as training (`recshard-data`), one keyed
//!   stream per (query, table), routed to shards by a
//!   [`ShardingPlan`](recshard_sharding::ShardingPlan).
//! * [`InferenceServer`] — one worker thread per GPU shard, each drawing
//!   its own tables' lookups and owning its shard's cache, FIFO
//!   virtual-time queueing, fan-out/fan-in query completion, and
//!   p50/p95/p99 latency + hit-rate reporting through the integer
//!   quantile sketch
//!   ([`LogLinearHistogram`](recshard_stats::LogLinearHistogram)).
//!
//! Runs are deterministic per seed (reports carry an event fingerprint), so
//! serving results regression-test exactly like the discrete-event trainer.
//!
//! ## Quick example
//!
//! ```
//! use recshard_data::ModelSpec;
//! use recshard_serve::{hash_placement, InferenceServer, PolicyKind, ServeConfig};
//! use recshard_sharding::SystemSpec;
//! use recshard_stats::DatasetProfiler;
//!
//! let model = ModelSpec::small(8, 1);
//! let profile = DatasetProfiler::profile_model(&model, 1_000, 1);
//! let system = SystemSpec::uniform(2, 1 << 14, 1 << 30, 1555.0, 16.0);
//! let plan = hash_placement(&model, 2);
//! let report = InferenceServer::run(
//!     &model,
//!     &plan,
//!     &profile,
//!     &system,
//!     ServeConfig {
//!         queries: 100,
//!         warmup: 20,
//!         policy: PolicyKind::StatGuided,
//!         ..ServeConfig::default()
//!     },
//! );
//! assert!(report.hit_rate > 0.0);
//! ```
#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod cache;
pub mod error;
pub mod placement;
pub mod policy;
pub mod report;
pub mod request;
pub mod server;

pub use cache::{CacheConfig, CacheStats, Lookup, ShardedCache};
pub use error::ServeError;
pub use placement::hash_placement;
pub use policy::{PolicyKind, StatGuide, StatGuidedConfig};
pub use report::ServeReport;
pub use request::{ArrivalModel, PhaseChange, RequestStream, ShardTask};
pub use server::{InferenceServer, ServeConfig};
