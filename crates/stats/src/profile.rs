//! Per-feature and per-dataset profiles.

use crate::cdf::{AccessCdf, Icdf};
use recshard_data::{FeatureId, FeatureSpec};

/// The profiled memory characteristics of one sparse feature / embedding
/// table: everything RecShard's MILP needs (Table 1 of the paper).
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureProfile {
    /// The feature this profile describes.
    pub id: FeatureId,
    /// Row count of the feature's embedding table.
    pub hash_size: u64,
    /// Embedding vector length.
    pub embedding_dim: u32,
    /// Bytes per embedding element.
    pub bytes_per_element: u32,
    /// Number of training samples inspected for this profile.
    pub samples_seen: u64,
    /// Number of inspected samples in which the feature was present.
    pub present_samples: u64,
    /// Total post-hash row accesses recorded.
    pub total_lookups: u64,
    /// Measured average pooling factor (mean list length over *present*
    /// samples; 0 if the feature never appeared).
    pub avg_pooling: f64,
    /// Measured coverage (`present_samples / samples_seen`).
    pub coverage: f64,
    /// Post-hash access frequency CDF over ranked rows.
    pub cdf: AccessCdf,
    /// Row ids ranked hottest-first (aligned with the CDF ranking); used to
    /// materialise remapping tables.
    pub ranked_rows: Vec<u64>,
}

impl FeatureProfile {
    /// Builds an "unprofiled" placeholder for a feature (no data seen).
    pub fn empty(spec: &FeatureSpec) -> Self {
        Self {
            id: spec.id,
            hash_size: spec.hash_size,
            embedding_dim: spec.embedding_dim,
            bytes_per_element: spec.bytes_per_element,
            samples_seen: 0,
            present_samples: 0,
            total_lookups: 0,
            avg_pooling: 0.0,
            coverage: 0.0,
            cdf: AccessCdf::empty(),
            ranked_rows: Vec::new(),
        }
    }

    /// Bytes of one embedding row.
    pub fn row_bytes(&self) -> u64 {
        self.embedding_dim as u64 * self.bytes_per_element as u64
    }

    /// Total bytes of the embedding table.
    pub fn table_bytes(&self) -> u64 {
        self.hash_size * self.row_bytes()
    }

    /// The 100-step piece-wise linear inverse CDF used by the MILP.
    pub fn icdf(&self, steps: usize) -> Icdf {
        self.cdf.icdf(steps)
    }

    /// Expected embedding rows read per training sample
    /// (`coverage * avg_pooling`).
    pub fn expected_lookups_per_sample(&self) -> f64 {
        self.coverage * self.avg_pooling
    }
}

/// Profiles for all features of a model.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetProfile {
    profiles: Vec<FeatureProfile>,
    samples_profiled: u64,
}

impl DatasetProfile {
    /// Builds a dataset profile from per-feature profiles (ordered by
    /// [`FeatureId`]).
    ///
    /// # Panics
    ///
    /// Panics if profiles are not ordered by dense feature id.
    pub fn new(profiles: Vec<FeatureProfile>, samples_profiled: u64) -> Self {
        for (i, p) in profiles.iter().enumerate() {
            assert_eq!(
                p.id.index(),
                i,
                "profiles must be ordered by dense feature id"
            );
        }
        Self {
            profiles,
            samples_profiled,
        }
    }

    /// Per-feature profiles, ordered by feature id.
    pub fn profiles(&self) -> &[FeatureProfile] {
        &self.profiles
    }

    /// Number of training samples that contributed to the profile.
    pub fn samples_profiled(&self) -> u64 {
        self.samples_profiled
    }

    /// Number of features profiled.
    pub fn num_features(&self) -> usize {
        self.profiles.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recshard_data::ModelSpec;

    #[test]
    fn empty_profile_defaults() {
        let model = ModelSpec::small(3, 1);
        let p = FeatureProfile::empty(&model.features()[0]);
        assert_eq!(p.total_lookups, 0);
        assert_eq!(p.coverage, 0.0);
        assert_eq!(p.cdf.full_coverage_rows(), 0);
        assert_eq!(p.expected_lookups_per_sample(), 0.0);
    }

    #[test]
    fn dataset_profile_ordering_enforced() {
        let model = ModelSpec::small(2, 1);
        let p0 = FeatureProfile::empty(&model.features()[0]);
        let p1 = FeatureProfile::empty(&model.features()[1]);
        let ds = DatasetProfile::new(vec![p0.clone(), p1.clone()], 10);
        assert_eq!(ds.num_features(), 2);
        assert_eq!(ds.profiles()[1].id, FeatureId(1));
        let result = std::panic::catch_unwind(|| DatasetProfile::new(vec![p1, p0], 10));
        assert!(result.is_err());
    }

    #[test]
    fn table_geometry() {
        let model = ModelSpec::small(1, 5);
        let spec = &model.features()[0];
        let p = FeatureProfile::empty(spec);
        assert_eq!(p.row_bytes(), spec.row_bytes());
        assert_eq!(p.table_bytes(), spec.table_bytes());
    }
}
