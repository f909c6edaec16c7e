//! DLRM model specifications.
//!
//! Table 2 of the paper evaluates three production-scale models that share the
//! same 397 sparse features and differ only in hash size (RM2 doubles and RM3
//! quadruples every table's row count relative to RM1):
//!
//! | Model | # sparse features | total hash size | emb dim | size |
//! |-------|-------------------|-----------------|---------|------|
//! | RM1   | 397               | 1,331,656,544   | 64      | 318 GB |
//! | RM2   | 397               | 2,661,369,917   | 64      | 635 GB |
//! | RM3   | 397               | 5,320,796,628   | 64      | 1270 GB |
//!
//! [`ModelSpec::rm1`]/[`rm2`](ModelSpec::rm2)/[`rm3`](ModelSpec::rm3) build a
//! synthetic feature universe with those aggregate properties and with
//! per-feature statistics (skew, pooling, coverage, cardinality-vs-hash-size)
//! spanning the ranges the paper's characterisation section reports.

use crate::feature::{FeatureClass, FeatureId, FeatureSpec};
use crate::pooling::PoolingSpec;
use rand::{Rng, SeedableRng};

/// The number of sparse features in the paper's evaluation models.
pub const PAPER_NUM_FEATURES: usize = 397;
/// Total hash size (rows) of RM1 in the paper.
pub const RM1_TOTAL_HASH_SIZE: u64 = 1_331_656_544;
/// Embedding dimension used by all three models in the paper.
pub const PAPER_EMBEDDING_DIM: u32 = 64;
/// The batch size used throughout the paper's evaluation.
pub const PAPER_BATCH_SIZE: u32 = 16_384;

/// Which of the paper's reference models a [`ModelSpec`] corresponds to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RmKind {
    /// RM1: fits in aggregate HBM of 16 GPUs.
    Rm1,
    /// RM2: 2x RM1 hash sizes; needs UVM on 16 GPUs.
    Rm2,
    /// RM3: 4x RM1 hash sizes; needs UVM on 16 GPUs.
    Rm3,
    /// Any other synthetic model.
    Custom,
}

impl std::fmt::Display for RmKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RmKind::Rm1 => write!(f, "RM1"),
            RmKind::Rm2 => write!(f, "RM2"),
            RmKind::Rm3 => write!(f, "RM3"),
            RmKind::Custom => write!(f, "custom"),
        }
    }
}

/// A full DLRM sparse-feature specification: the set of embedding tables the
/// sharder must place.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelSpec {
    name: String,
    kind: RmKind,
    features: Vec<FeatureSpec>,
    batch_size: u32,
}

impl ModelSpec {
    /// Builds a model from an explicit list of features.
    ///
    /// # Panics
    ///
    /// Panics if any feature fails validation or if feature ids are not the
    /// dense range `0..n` in order.
    pub fn new(
        name: impl Into<String>,
        kind: RmKind,
        features: Vec<FeatureSpec>,
        batch_size: u32,
    ) -> Self {
        for (i, f) in features.iter().enumerate() {
            assert_eq!(f.id.index(), i, "feature ids must be dense and ordered");
            if let Err(e) = f.validate() {
                panic!("invalid feature spec: {e}");
            }
        }
        Self {
            name: name.into(),
            kind,
            features,
            batch_size,
        }
    }

    /// The paper's RM1 model (Table 2), at production scale.
    pub fn rm1() -> Self {
        Self::reference_model(RmKind::Rm1, RM1_TOTAL_HASH_SIZE, 1)
    }

    /// The paper's RM2 model: every hash size doubled relative to RM1.
    pub fn rm2() -> Self {
        Self::scaled_up_reference(RmKind::Rm2, 2)
    }

    /// The paper's RM3 model: every hash size quadrupled relative to RM1.
    pub fn rm3() -> Self {
        Self::scaled_up_reference(RmKind::Rm3, 4)
    }

    /// RM2/RM3 are RM1 with every table's hash size multiplied (the paper's
    /// "approximate doubling of the hash size for each EMB").
    fn scaled_up_reference(kind: RmKind, hash_multiplier: u64) -> Self {
        let mut model = Self::rm1();
        for f in &mut model.features {
            f.hash_size *= hash_multiplier;
        }
        model.name = kind.to_string();
        model.kind = kind;
        model
    }

    /// Builds one of the paper's reference models by the kind tag.
    pub fn reference(kind: RmKind) -> Self {
        match kind {
            RmKind::Rm1 => Self::rm1(),
            RmKind::Rm2 => Self::rm2(),
            RmKind::Rm3 => Self::rm3(),
            RmKind::Custom => panic!("RmKind::Custom has no reference model"),
        }
    }

    /// A small synthetic model with `n` features, useful in tests and
    /// examples. Total size is on the order of `n * 50_000` rows.
    pub fn small(n: usize, seed: u64) -> Self {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut features = Vec::with_capacity(n);
        for i in 0..n {
            let cardinality = rng.gen_range(1_000..100_000u64);
            let hash_size = (cardinality as f64 * rng.gen_range(0.5..2.0)) as u64;
            features.push(FeatureSpec {
                id: FeatureId(i as u32),
                name: format!("small_feature_{i}"),
                class: if i % 2 == 0 {
                    FeatureClass::User
                } else {
                    FeatureClass::Content
                },
                cardinality,
                hash_size: hash_size.max(10),
                zipf_exponent: rng.gen_range(0.0..1.4),
                pooling: if rng.gen_bool(0.4) {
                    PoolingSpec::OneHot
                } else {
                    PoolingSpec::long_tail(rng.gen_range(2.0..40.0))
                },
                coverage: rng.gen_range(0.05..1.0),
                embedding_dim: 16,
                bytes_per_element: 4,
                hash_seed: seed.wrapping_add(i as u64),
            });
        }
        Self::new(format!("small-{n}"), RmKind::Custom, features, 256)
    }

    /// Synthesises a reference model with the paper's aggregate properties.
    ///
    /// The per-feature cardinalities, skews, pooling factors and coverages are
    /// drawn from meta-distributions chosen to match Figures 4, 5 and 6; the
    /// per-feature hash sizes are then scaled uniformly so the total equals
    /// the Table 2 row count for the requested model.
    fn reference_model(kind: RmKind, total_hash_target: u64, hash_multiplier: u64) -> Self {
        debug_assert_eq!(
            hash_multiplier, 1,
            "RM2/RM3 derive from RM1 via scaled_up_reference"
        );
        // All three RMs share the same underlying feature universe; only hash
        // sizes differ, so we always derive from the same seed.
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x5EC5_4A2D);
        let n = PAPER_NUM_FEATURES;
        let mut features = Vec::with_capacity(n);
        let mut raw_hash_sizes = Vec::with_capacity(n);
        for i in 0..n {
            // Cardinality: log-uniform over [1e2, 2e8] (Figure 4 x-axis range).
            let log_card = rng.gen_range(2.0..8.3f64);
            let cardinality = 10f64.powf(log_card) as u64;
            // Hash size relative to cardinality: mostly below cardinality for
            // huge features, above for small ones (Figure 4 scatter).
            let rel: f64 = if cardinality > 10_000_000 {
                rng.gen_range(0.05..0.8)
            } else {
                rng.gen_range(0.5..4.0)
            };
            let raw_hash = ((cardinality as f64 * rel) as u64).max(100);
            raw_hash_sizes.push(raw_hash);

            // Skew: ~10% near-uniform features, the rest power laws of varying
            // strength (Figure 5: most CDFs bend hard, a handful are straight).
            let zipf_exponent = if rng.gen_bool(0.1) {
                rng.gen_range(0.0..0.2)
            } else {
                rng.gen_range(0.55..1.45)
            };

            // Pooling factor: ~35% one-hot, the rest long-tailed with mean up
            // to ~200 (Figure 6a).
            let pooling = if rng.gen_bool(0.35) {
                PoolingSpec::OneHot
            } else {
                let mean = 10f64.powf(rng.gen_range(0.3..2.3));
                PoolingSpec::long_tail(mean.min(200.0))
            };

            // Coverage: ~20% always present, the rest spread down to <1%
            // (Figure 6b).
            let coverage = if rng.gen_bool(0.2) {
                1.0
            } else {
                let u: f64 = rng.gen_range(0.0..1.0);
                (u * u).clamp(0.005, 1.0)
            };

            let class = if rng.gen_bool(0.5) {
                FeatureClass::User
            } else {
                FeatureClass::Content
            };
            features.push(FeatureSpec {
                id: FeatureId(i as u32),
                name: format!("sparse_{:03}", i),
                class,
                cardinality,
                hash_size: 1, // filled below after normalisation
                zipf_exponent,
                pooling,
                coverage,
                embedding_dim: PAPER_EMBEDDING_DIM,
                bytes_per_element: 4,
                hash_seed: 0x9E3779B9u64.wrapping_mul(i as u64 + 1),
            });
        }
        // Normalise hash sizes so the RM1-equivalent total matches the paper,
        // then apply the per-model multiplier (2x for RM2, 4x for RM3).
        let raw_total: u64 = raw_hash_sizes.iter().sum();
        let rm1_target = total_hash_target / hash_multiplier;
        for (f, raw) in features.iter_mut().zip(&raw_hash_sizes) {
            let normalised =
                ((*raw as u128 * rm1_target as u128) / raw_total as u128).max(100) as u64;
            f.hash_size = normalised * hash_multiplier;
        }
        Self {
            name: kind.to_string(),
            kind,
            features,
            batch_size: PAPER_BATCH_SIZE,
        }
    }

    /// Model name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Which reference model (if any) this spec corresponds to.
    pub fn kind(&self) -> RmKind {
        self.kind
    }

    /// The sparse features (embedding tables), ordered by [`FeatureId`].
    pub fn features(&self) -> &[FeatureSpec] {
        &self.features
    }

    /// Looks up a feature by id.
    pub fn feature(&self, id: FeatureId) -> &FeatureSpec {
        &self.features[id.index()]
    }

    /// Number of sparse features (= number of embedding tables).
    pub fn num_features(&self) -> usize {
        self.features.len()
    }

    /// Training batch size associated with the model.
    pub fn batch_size(&self) -> u32 {
        self.batch_size
    }

    /// Overrides the batch size.
    pub fn with_batch_size(mut self, batch_size: u32) -> Self {
        assert!(batch_size > 0, "batch size must be non-zero");
        self.batch_size = batch_size;
        self
    }

    /// Sum of all tables' row counts (the paper's "Total Hash Size").
    pub fn total_hash_size(&self) -> u64 {
        self.features.iter().map(|f| f.hash_size).sum()
    }

    /// Sum of all tables' sizes in bytes.
    pub fn total_bytes(&self) -> u64 {
        self.features.iter().map(|f| f.table_bytes()).sum()
    }

    /// Expected number of embedding rows read per training sample across all
    /// tables (`sum_j coverage_j * avg_pool_j`).
    pub fn expected_lookups_per_sample(&self) -> f64 {
        self.features
            .iter()
            .map(|f| f.expected_lookups_per_sample())
            .sum()
    }

    /// Returns a copy of the model with every table's cardinality and hash
    /// size divided by `factor`.
    ///
    /// Scaling the model and the memory capacities of the simulated training
    /// system by the same factor preserves the quantities the paper reports —
    /// placement fractions, HBM/UVM access shares, relative speedups — while
    /// keeping simulation state small enough for a laptop. See DESIGN.md.
    pub fn scaled(&self, factor: u64) -> ModelSpec {
        assert!(factor > 0, "scale factor must be non-zero");
        let features = self.features.iter().map(|f| f.scaled(factor)).collect();
        ModelSpec {
            name: format!("{}/{}", self.name, factor),
            kind: self.kind,
            features,
            batch_size: self.batch_size,
        }
    }

    /// Returns a copy of the model restricted to the first `n` features.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or larger than the number of features.
    pub fn truncated(&self, n: usize) -> ModelSpec {
        assert!(
            n > 0 && n <= self.features.len(),
            "invalid truncation length"
        );
        ModelSpec {
            name: format!("{}[0..{}]", self.name, n),
            kind: RmKind::Custom,
            features: self.features[..n].to_vec(),
            batch_size: self.batch_size,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rm1_matches_table2_aggregates() {
        let m = ModelSpec::rm1();
        assert_eq!(m.num_features(), PAPER_NUM_FEATURES);
        let total = m.total_hash_size();
        let err = (total as f64 - RM1_TOTAL_HASH_SIZE as f64).abs() / RM1_TOTAL_HASH_SIZE as f64;
        assert!(err < 0.001, "RM1 total hash size off by {err}: {total}");
        // ~318 GB.
        let gb = m.total_bytes() as f64 / 1e9;
        assert!((gb - 341.0).abs() < 20.0, "RM1 size {gb} GB");
    }

    #[test]
    fn rm2_rm3_are_multiples_of_rm1() {
        let rm1 = ModelSpec::rm1();
        let rm2 = ModelSpec::rm2();
        let rm3 = ModelSpec::rm3();
        for i in 0..rm1.num_features() {
            assert_eq!(rm2.features()[i].hash_size, rm1.features()[i].hash_size * 2);
            assert_eq!(rm3.features()[i].hash_size, rm1.features()[i].hash_size * 4);
            // Everything except hash size is shared.
            assert_eq!(rm2.features()[i].coverage, rm1.features()[i].coverage);
            assert_eq!(
                rm2.features()[i].zipf_exponent,
                rm1.features()[i].zipf_exponent
            );
        }
    }

    #[test]
    fn reference_models_are_deterministic() {
        let a = ModelSpec::rm1();
        let b = ModelSpec::rm1();
        assert_eq!(a, b);
    }

    #[test]
    fn scaling_divides_rows() {
        let m = ModelSpec::rm1();
        let s = m.scaled(1024);
        assert_eq!(s.num_features(), m.num_features());
        assert!(s.total_hash_size() <= m.total_hash_size() / 1000);
        assert_eq!(s.kind(), RmKind::Rm1);
    }

    #[test]
    fn statistics_span_paper_ranges() {
        let m = ModelSpec::rm1();
        let poolings: Vec<f64> = m.features().iter().map(|f| f.avg_pooling()).collect();
        let coverages: Vec<f64> = m.features().iter().map(|f| f.coverage).collect();
        assert!(poolings.contains(&1.0), "some one-hot features");
        assert!(
            poolings.iter().any(|&p| p > 100.0),
            "some very multi-hot features"
        );
        assert!(coverages.contains(&1.0), "some always-present features");
        assert!(coverages.iter().any(|&c| c < 0.05), "some rare features");
        let uniformish = m
            .features()
            .iter()
            .filter(|f| f.zipf_exponent < 0.2)
            .count();
        assert!(uniformish > 0 && uniformish < m.num_features() / 4);
    }

    #[test]
    fn small_model_is_valid() {
        let m = ModelSpec::small(10, 7);
        assert_eq!(m.num_features(), 10);
        for f in m.features() {
            assert!(f.validate().is_ok());
        }
    }

    #[test]
    fn truncation() {
        let m = ModelSpec::small(10, 7).truncated(4);
        assert_eq!(m.num_features(), 4);
        assert_eq!(m.kind(), RmKind::Custom);
    }

    #[test]
    fn batch_size_override() {
        let m = ModelSpec::small(4, 1).with_batch_size(64);
        assert_eq!(m.batch_size(), 64);
    }
}
