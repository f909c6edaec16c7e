//! Sparse feature specifications.
//!
//! A [`FeatureSpec`] fully describes one sparse feature and its embedding
//! table: the raw categorical space (cardinality), the chosen hash size (the
//! embedding table's row count, Figure 4), the value-frequency skew, the
//! pooling-factor distribution (Figure 6a), the coverage (Figure 6b), and the
//! embedding vector geometry (dimension and element width).

use crate::hash::FeatureHasher;
use crate::pooling::PoolingSpec;
use crate::zipf::Zipf;

/// Identifier of a sparse feature (and of its embedding table) within a model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FeatureId(pub u32);

impl FeatureId {
    /// The feature's index, usable to address per-feature arrays.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for FeatureId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "feature-{}", self.0)
    }
}

/// High-level class of a sparse feature (Figure 9 groups features into these
/// two classes, which exhibit different temporal drift).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FeatureClass {
    /// Features describing the user (location, demographics, history, ...).
    User,
    /// Features describing the content item being ranked.
    Content,
}

impl std::fmt::Display for FeatureClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FeatureClass::User => write!(f, "user"),
            FeatureClass::Content => write!(f, "content"),
        }
    }
}

/// Full description of one sparse feature and its embedding table.
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureSpec {
    /// Feature identifier (also indexes the embedding table).
    pub id: FeatureId,
    /// Human-readable name.
    pub name: String,
    /// Whether the feature describes the user or the content.
    pub class: FeatureClass,
    /// Size of the raw categorical value space.
    pub cardinality: u64,
    /// Number of rows in the embedding table (hash output range).
    pub hash_size: u64,
    /// Strength of the value-frequency power law (0 = uniform).
    pub zipf_exponent: f64,
    /// Per-sample pooling-factor distribution.
    pub pooling: PoolingSpec,
    /// Probability the feature is present in a random training sample.
    pub coverage: f64,
    /// Embedding vector length.
    pub embedding_dim: u32,
    /// Bytes per embedding element (4 for `f32`).
    pub bytes_per_element: u32,
    /// Per-table hash seed.
    pub hash_seed: u64,
}

impl FeatureSpec {
    /// Validates internal consistency of the spec.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        if self.cardinality == 0 {
            return Err(format!("{}: cardinality must be non-zero", self.id));
        }
        if self.hash_size == 0 {
            return Err(format!("{}: hash size must be non-zero", self.id));
        }
        if !(0.0..=1.0).contains(&self.coverage) {
            return Err(format!("{}: coverage must be in [0, 1]", self.id));
        }
        if self.zipf_exponent < 0.0 || !self.zipf_exponent.is_finite() {
            return Err(format!(
                "{}: zipf exponent must be finite and >= 0",
                self.id
            ));
        }
        self.pooling
            .validate()
            .map_err(|e| format!("{}: {e}", self.id))?;
        if self.embedding_dim == 0 {
            return Err(format!("{}: embedding dimension must be non-zero", self.id));
        }
        if self.bytes_per_element == 0 {
            return Err(format!("{}: element width must be non-zero", self.id));
        }
        Ok(())
    }

    /// The hasher mapping this feature's raw values to embedding rows.
    pub fn hasher(&self) -> FeatureHasher {
        FeatureHasher::new(self.hash_size, self.hash_seed)
    }

    /// The value sampler for this feature's raw categorical space.
    pub fn value_distribution(&self) -> Zipf {
        Zipf::new(self.cardinality, self.zipf_exponent)
    }

    /// Bytes of one embedding row.
    pub fn row_bytes(&self) -> u64 {
        self.embedding_dim as u64 * self.bytes_per_element as u64
    }

    /// Total bytes of the embedding table (`hash_size * dim * bytes`,
    /// Constraint 8 of the paper's MILP).
    pub fn table_bytes(&self) -> u64 {
        self.hash_size * self.row_bytes()
    }

    /// Average pooling factor of the feature.
    pub fn avg_pooling(&self) -> f64 {
        self.pooling.mean()
    }

    /// Expected embedding rows read per training sample
    /// (`coverage * avg_pooling`), the per-sample bandwidth proxy of
    /// Section 3.2/3.3.
    pub fn expected_lookups_per_sample(&self) -> f64 {
        self.coverage * self.avg_pooling()
    }

    /// Returns a copy with every size-like quantity divided by `factor`
    /// (cardinality and hash size), preserving all distributional shape
    /// parameters. Used to scale production-sized models down to
    /// simulator-friendly sizes; see `ModelSpec::scaled`.
    pub fn scaled(&self, factor: u64) -> FeatureSpec {
        assert!(factor > 0, "scale factor must be non-zero");
        let mut spec = self.clone();
        spec.cardinality = (self.cardinality / factor).max(1);
        spec.hash_size = (self.hash_size / factor).max(1);
        spec
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> FeatureSpec {
        FeatureSpec {
            id: FeatureId(3),
            name: "user_pages_viewed".into(),
            class: FeatureClass::User,
            cardinality: 1_000_000,
            hash_size: 1_500_000,
            zipf_exponent: 1.05,
            pooling: PoolingSpec::long_tail(20.0),
            coverage: 0.8,
            embedding_dim: 64,
            bytes_per_element: 4,
            hash_seed: 3,
        }
    }

    #[test]
    fn geometry_math() {
        let s = spec();
        assert_eq!(s.row_bytes(), 256);
        assert_eq!(s.table_bytes(), 1_500_000 * 256);
        assert!((s.expected_lookups_per_sample() - 16.0).abs() < 1e-9);
    }

    #[test]
    fn validation_catches_errors() {
        let mut s = spec();
        assert!(s.validate().is_ok());
        s.coverage = 1.5;
        assert!(s.validate().is_err());
        let mut s = spec();
        s.hash_size = 0;
        assert!(s.validate().is_err());
        let mut s = spec();
        s.zipf_exponent = f64::NAN;
        assert!(s.validate().is_err());
        let mut s = spec();
        s.embedding_dim = 0;
        assert!(s.validate().is_err());
        // Undrawable long-tail pooling: a non-finite or sub-1 mean, a 0 cap.
        for mean in [f64::NAN, f64::INFINITY, 0.5] {
            let s = FeatureSpec {
                pooling: PoolingSpec::LongTail { mean, max: 8 },
                ..spec()
            };
            assert!(s.validate().unwrap_err().contains("mean"), "{mean}");
        }
        let s = FeatureSpec {
            pooling: PoolingSpec::LongTail { mean: 4.0, max: 0 },
            ..spec()
        };
        assert!(s.validate().unwrap_err().contains("cap"));
        let s = FeatureSpec {
            pooling: PoolingSpec::Constant(0),
            ..spec()
        };
        assert!(s.validate().is_ok());
    }

    #[test]
    fn scaling_preserves_shape() {
        let s = spec();
        let scaled = s.scaled(100);
        assert_eq!(scaled.cardinality, 10_000);
        assert_eq!(scaled.hash_size, 15_000);
        assert_eq!(scaled.zipf_exponent, s.zipf_exponent);
        assert_eq!(scaled.coverage, s.coverage);
        assert_eq!(scaled.embedding_dim, s.embedding_dim);
        // Tiny tables never scale to zero rows.
        assert_eq!(s.scaled(u64::MAX).hash_size, 1);
    }

    #[test]
    fn display_impls() {
        assert_eq!(FeatureId(5).to_string(), "feature-5");
        assert_eq!(FeatureClass::User.to_string(), "user");
        assert_eq!(FeatureClass::Content.to_string(), "content");
    }
}
