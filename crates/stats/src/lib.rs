//! # recshard-stats
//!
//! Streaming statistics and the training-data profiler for the RecShard
//! reproduction (Section 4.1 of the paper).
//!
//! RecShard's sharding decisions are driven by three per-feature statistics
//! estimated from a small (~1%) sample of the training data:
//!
//! 1. the **post-hash value frequency CDF** of each embedding table — which
//!    fraction of accesses the hottest *k* rows cover ([`AccessCdf`]),
//! 2. the **average pooling factor** — a proxy for the table's bandwidth
//!    demand, and
//! 3. the **coverage** — how often the table is touched at all.
//!
//! [`DatasetProfiler`] consumes training samples (from `recshard-data`) and
//! produces a [`DatasetProfile`] holding one [`FeatureProfile`] per table,
//! which downstream crates (the baselines, the MILP formulation and the
//! memory simulator) consume.
//!
//! ```
//! use recshard_data::ModelSpec;
//! use recshard_stats::DatasetProfiler;
//!
//! let model = ModelSpec::small(4, 1);
//! let profile = DatasetProfiler::profile_model(&model, 2_000, 7);
//! assert_eq!(profile.profiles().len(), 4);
//! let p = &profile.profiles()[0];
//! assert!(p.coverage >= 0.0 && p.coverage <= 1.0);
//! ```
#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod cdf;
pub mod freq;
pub mod profile;
pub mod profiler;
pub mod streaming;

pub use cdf::{AccessCdf, Icdf};
pub use freq::RowCounters;
pub use profile::{DatasetProfile, FeatureProfile};
pub use profiler::DatasetProfiler;
pub use streaming::{LogLinearHistogram, Summary};
