//! # recshard-data
//!
//! Synthetic sparse-feature universe and training-data generation for the
//! [RecShard](https://doi.org/10.1145/3503222.3507777) reproduction.
//!
//! The RecShard paper characterises production recommendation training data
//! along three per-feature axes (Section 3 of the paper):
//!
//! * the **categorical value frequency distribution** — most features follow a
//!   power law, so a small set of embedding rows sources most accesses,
//! * the **pooling factor** — how many embedding rows a single training sample
//!   reads from a feature's table, and
//! * the **coverage** — the probability the feature is present in a sample at
//!   all.
//!
//! Production traces are not available, so this crate builds a *synthetic
//! feature universe* whose per-feature statistics span the same ranges the
//! paper reports (hundreds of features, cardinalities from hundreds to
//! hundreds of millions, Zipf exponents from near-uniform to strongly skewed,
//! average pooling factors from 1 to ~200 and coverages from <1% to 100%),
//! together with the multi-hot sample generator, the feature hashing scheme
//! and the temporal drift model the paper's figures depend on.
//!
//! ## Quick example
//!
//! ```
//! use recshard_data::{ModelSpec, SampleGenerator};
//!
//! // A scaled-down RM1-like model (Table 2 of the paper).
//! let model = ModelSpec::rm1().scaled(1024);
//! assert_eq!(model.features().len(), 397);
//!
//! // Generate a small batch of multi-hot training samples.
//! let mut gen = SampleGenerator::new(&model, 42);
//! let batch = gen.batch(8);
//! assert_eq!(batch.len(), 8);
//! ```
#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod drift;
pub mod feature;
pub mod growth;
pub mod hash;
pub mod model;
pub mod pooling;
pub mod sample;
pub mod scenario;
pub mod zipf;

pub use drift::{DriftModel, DriftPoint};
pub use feature::{FeatureClass, FeatureId, FeatureSpec};
pub use growth::{GpuGeneration, GrowthPoint, GrowthTrend, HardwareCatalog};
pub use hash::{fnv1a, FeatureHasher, HashStats, FNV_OFFSET};
pub use model::{ModelSpec, RmKind};
pub use pooling::PoolingSpec;
pub use sample::{
    default_workers, stream_seed, Batch, FeatureSampler, SampleGenerator, SparseSample,
};
pub use scenario::{
    parse_trace_csv, RateCurve, ScenarioError, ScenarioSpec, ShiftEvent, ShiftKind, TracePoint,
};
pub use zipf::{PoolingGuide, Zipf, ZipfGuide};
