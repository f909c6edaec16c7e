//! CDF-similarity table bucketing: the formulation-shrinking preprocessor.
//!
//! Production models carry thousands of embedding tables, but the tables are
//! far from unique: many share the same geometry (row bytes, hash size) and
//! near-identical access statistics (coverage, pooling, frequency CDF shape).
//! For the placement problem two such tables are interchangeable — any
//! optimal plan can swap them without changing the objective — so the solver
//! only needs to *decide a split once per equivalence class* and apply it to
//! every member.
//!
//! [`TableBuckets::build`] groups tables whose geometry matches exactly and
//! whose statistics agree within a relative tolerance of a bucket
//! *representative* (the first member seen). Anchoring the comparison at the
//! representative keeps the clustering deterministic and transitive, and —
//! unlike quantisation onto a fixed grid — robust to sampling noise sitting
//! on a grid boundary. The CDF is compared through its *tail mass*
//! `1 - cdf(rows)` at geometrically spaced head fractions, because the tail
//! is what multiplies the ~100× slower UVM bandwidth in the cost model: a
//! small absolute floor on the comparison reflects that tails below ~1% of
//! accesses cannot move the cost at the 1% level regardless.
//!
//! Bucketing is an optional preprocessing step of the one placement solver
//! ([`StructuredSolver`](crate::solver::StructuredSolver)): bucketed, it
//! builds one [`TableCostModel`](crate::cost::TableCostModel) per bucket
//! representative and runs split selection over buckets weighted by member
//! count, collapsing the dominant `O(tables × icdf_steps)` term of
//! formulation time by the bucketing compression ratio (reported by the
//! `solver_scaling` bench). Unbucketed, it builds no buckets and treats
//! every table as a bucket of its own.

use recshard_data::ModelSpec;
use recshard_stats::DatasetProfile;
use std::collections::HashMap;

// Tuning, calibrated on the solver_scaling sweep: keeps the final plan cost
// within 0.5% of the unbucketed structured solver while collapsing skewed
// production-shaped models by ~1.4–1.8x (looser tolerances compress more
// but leak past the 1% plan-cost bound).

/// Relative tolerance for treating two tables' statistics as equal.
const TOLERANCE: f64 = 0.02;
/// Number of CDF probe points (geometrically spaced head fractions
/// `1/2, 1/4, …, 1/2^PROBE_POINTS`).
const PROBE_POINTS: usize = 6;
/// Absolute floor of the tail-mass comparison: tail differences below
/// `TOLERANCE × TAIL_FLOOR` never separate tables (sub-percent tails are
/// cost noise).
const TAIL_FLOOR: f64 = 0.005;

/// One equivalence class of near-identical tables.
#[derive(Debug, Clone, PartialEq)]
pub struct TableBucket {
    /// The member whose cost model stands in for the whole bucket (the
    /// first member in dense feature order).
    pub representative: usize,
    /// Dense feature indices of every member (ascending; includes the
    /// representative).
    pub members: Vec<usize>,
}

/// The statistics a table is compared on.
#[derive(Debug, Clone)]
struct Signature {
    coverage: f64,
    pooling: f64,
    tails: Vec<f64>,
}

/// The bucketing of a model's tables.
#[derive(Debug, Clone, PartialEq)]
pub struct TableBuckets {
    buckets: Vec<TableBucket>,
    bucket_of_table: Vec<usize>,
}

impl TableBuckets {
    /// Groups `model`'s tables by geometry and statistic similarity.
    ///
    /// # Panics
    ///
    /// Panics if the profile does not cover the model.
    pub fn build(model: &ModelSpec, profile: &DatasetProfile) -> Self {
        Self::build_tuned(model, profile, TOLERANCE, PROBE_POINTS, TAIL_FLOOR)
    }

    /// [`build`](Self::build) with explicit tuning: a positive `tolerance`
    /// and `probe_points` in `1..=63` (the head fractions `1/2^k` must be
    /// representable).
    fn build_tuned(
        model: &ModelSpec,
        profile: &DatasetProfile,
        tolerance: f64,
        probe_points: usize,
        tail_floor: f64,
    ) -> Self {
        assert_eq!(
            profile.num_features(),
            model.num_features(),
            "profile must cover the model"
        );

        // Two quantities are "close" when they differ by at most
        // `tolerance × max(|a|, |b|, floor)`.
        let close = |a: f64, b: f64, floor: f64| -> bool {
            (a - b).abs() <= tolerance * a.abs().max(b.abs()).max(floor)
        };

        let mut buckets: Vec<TableBucket> = Vec::new();
        let mut signatures: Vec<Signature> = Vec::new();
        let mut bucket_of_table = vec![0usize; model.num_features()];
        // Exact-geometry strata → bucket lists kept sorted by the finest
        // (most discriminating) tail probe, so candidate matches reduce to a
        // binary-searched range instead of a scan over every bucket in the
        // stratum.
        let mut strata: HashMap<(u64, u64), Vec<(f64, usize)>> = HashMap::new();

        for (t, (spec, prof)) in model.features().iter().zip(profile.profiles()).enumerate() {
            // Access share outside the hottest `1/2^k` of the rows.
            let tail = |k: usize| {
                let rows = ((spec.hash_size as f64 / (1u64 << k) as f64).ceil() as u64).max(1);
                1.0 - prof.cdf.access_fraction(rows)
            };
            let sig = Signature {
                coverage: prof.coverage,
                pooling: prof.avg_pooling.max(0.0),
                tails: (1..=probe_points).map(tail).collect(),
            };
            let stratum = strata
                .entry((spec.row_bytes(), spec.hash_size))
                .or_default();
            // The key probe is the finest one. Conservative superset of the
            // key-probe values close() can accept (the exact check still
            // runs per candidate).
            let a = tail(probe_points);
            let (lo_key, hi_key) = if tolerance < 1.0 {
                (
                    a * (1.0 - tolerance) - tolerance * tail_floor - 1e-12,
                    (a + tolerance * tail_floor) / (1.0 - tolerance) + 1e-12,
                )
            } else {
                (f64::NEG_INFINITY, f64::INFINITY)
            };
            let start = stratum.partition_point(|&(key, _)| key < lo_key);
            let found = stratum[start..]
                .iter()
                .take_while(|&&(key, _)| key <= hi_key)
                .map(|&(_, b)| b)
                .find(|&b| {
                    let rep = &signatures[b];
                    close(sig.coverage, rep.coverage, 1e-3)
                        && close(sig.pooling, rep.pooling, 1e-3)
                        && sig
                            .tails
                            .iter()
                            .zip(&rep.tails)
                            .all(|(&a, &b)| close(a, b, tail_floor))
                });
            let bucket = match found {
                Some(b) => b,
                None => {
                    buckets.push(TableBucket {
                        representative: t,
                        members: Vec::new(),
                    });
                    let idx = buckets.len() - 1;
                    let at = stratum.partition_point(|&(key, _)| key <= a);
                    stratum.insert(at, (a, idx));
                    signatures.push(sig);
                    idx
                }
            };
            buckets[bucket].members.push(t);
            bucket_of_table[t] = bucket;
        }

        Self {
            buckets,
            bucket_of_table,
        }
    }

    /// The equivalence classes, in order of first appearance.
    pub fn buckets(&self) -> &[TableBucket] {
        &self.buckets
    }

    /// Bucket index per table (dense feature order).
    pub fn bucket_of_table(&self) -> &[usize] {
        &self.bucket_of_table
    }

    /// Number of buckets.
    pub fn num_buckets(&self) -> usize {
        self.buckets.len()
    }

    /// Number of tables.
    pub fn num_tables(&self) -> usize {
        self.bucket_of_table.len()
    }

    /// `tables / buckets` — how much the preprocessor shrank the
    /// formulation (1.0 = no compression).
    pub fn compression_ratio(&self) -> f64 {
        if self.buckets.is_empty() {
            1.0
        } else {
            self.num_tables() as f64 / self.num_buckets() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recshard_data::ModelSpec;
    use recshard_stats::DatasetProfiler;

    #[test]
    fn buckets_partition_the_tables() {
        let model = ModelSpec::small(10, 3);
        let profile = DatasetProfiler::profile_model(&model, 800, 5);
        let buckets = TableBuckets::build(&model, &profile);
        assert_eq!(buckets.num_tables(), 10);
        let mut seen = [false; 10];
        for (b, bucket) in buckets.buckets().iter().enumerate() {
            assert_eq!(bucket.members[0], bucket.representative);
            for &t in &bucket.members {
                assert!(!seen[t], "table {t} in two buckets");
                seen[t] = true;
                assert_eq!(buckets.bucket_of_table()[t], b);
            }
            assert!(bucket.members.windows(2).all(|w| w[0] < w[1]));
        }
        assert!(seen.iter().all(|&s| s));
        assert!(buckets.compression_ratio() >= 1.0);
    }

    #[test]
    fn identical_tables_collapse_into_one_bucket() {
        // A model whose features repeat the same spec shape: the profiles
        // differ only by sampling noise. The default tolerance is tuned for
        // plan-cost fidelity (sub-1% solver deviation) and keeps noisy
        // near-duplicates apart; a compression-oriented tolerance must
        // collapse them aggressively.
        let model = recshard_bucketing_test_model(24);
        let profile = DatasetProfiler::profile_model(&model, 20_000, 11);
        let buckets = TableBuckets::build_tuned(&model, &profile, 0.1, 6, 0.02);
        assert!(
            buckets.compression_ratio() > 4.0,
            "repeating features must compress (got {:.2}: {} buckets for {} tables)",
            buckets.compression_ratio(),
            buckets.num_buckets(),
            buckets.num_tables()
        );
        // The fidelity-first default still finds some of the duplicates.
        let default = TableBuckets::build(&model, &profile);
        assert!(default.compression_ratio() > 1.2);
        assert!(default.num_buckets() >= buckets.num_buckets());
    }

    #[test]
    fn different_geometry_never_merges() {
        let model = ModelSpec::small(8, 17);
        let profile = DatasetProfiler::profile_model(&model, 500, 2);
        // A tolerance of 100 merges everything stat-wise.
        let buckets = TableBuckets::build_tuned(&model, &profile, 100.0, PROBE_POINTS, TAIL_FLOOR);
        for bucket in buckets.buckets() {
            let rep = &model.features()[bucket.representative];
            for &t in &bucket.members {
                assert_eq!(model.features()[t].hash_size, rep.hash_size);
                assert_eq!(model.features()[t].row_bytes(), rep.row_bytes());
            }
        }
    }

    #[test]
    fn tighter_tolerance_never_compresses_more() {
        let model = recshard_bucketing_test_model(16);
        let profile = DatasetProfiler::profile_model(&model, 1_000, 2);
        let tight = TableBuckets::build_tuned(&model, &profile, 1e-9, 8, 1e-9);
        let loose = TableBuckets::build(&model, &profile);
        assert!(tight.num_buckets() >= loose.num_buckets());
    }

    /// A model of `n` tables all sharing one spec shape.
    fn recshard_bucketing_test_model(n: usize) -> ModelSpec {
        use recshard_data::{FeatureClass, FeatureId, FeatureSpec, PoolingSpec, RmKind};
        let features = (0..n)
            .map(|i| FeatureSpec {
                id: FeatureId(i as u32),
                name: format!("rep_{i}"),
                class: FeatureClass::Content,
                cardinality: 4096,
                hash_size: 1024,
                zipf_exponent: 1.2,
                pooling: PoolingSpec::Constant(2),
                coverage: 1.0,
                embedding_dim: 32,
                bytes_per_element: 4,
                hash_seed: 0xBEEF ^ i as u64,
            })
            .collect();
        ModelSpec::new("bucketing-test", RmKind::Custom, features, 128)
    }
}
