//! Feature hashing.
//!
//! Industry-scale DLRMs do not build a one-to-one mapping from raw categorical
//! values to embedding rows; instead, raw values are pushed through a random
//! hash function whose output range equals the embedding table's row count
//! (the *hash size*, Section 3.4 of the paper). Hashing bounds the table size
//! and handles unseen values, at the cost of collisions — the birthday paradox
//! means that even a hash size equal to the number of unique values leaves
//! roughly `1/e` of the table unused.
//!
//! The hasher here is a deterministic 64-bit finalizer (SplitMix64-style),
//! which is statistically indistinguishable from the "random hash" the paper
//! assumes for collision-analysis purposes.
//!
//! [`fnv1a`] is the FNV-1a fold behind every fingerprint in the workspace:
//! event logs, reports, traces, metrics snapshots and bench artifacts.

/// A deterministic feature hasher mapping raw categorical values to embedding
/// rows in `[0, hash_size)`.
///
/// Each embedding table gets its own hasher, keyed by a per-table seed so that
/// the same raw value maps to uncorrelated rows in different tables.
///
/// ```
/// use recshard_data::FeatureHasher;
///
/// let h = FeatureHasher::new(100, 7);
/// let row = h.hash(123_456);
/// assert!(row < 100);
/// // Deterministic.
/// assert_eq!(row, h.hash(123_456));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FeatureHasher {
    hash_size: u64,
    seed: u64,
}

impl FeatureHasher {
    /// Creates a hasher with the given output range (`hash_size` rows) and seed.
    ///
    /// # Panics
    ///
    /// Panics if `hash_size` is zero.
    pub fn new(hash_size: u64, seed: u64) -> Self {
        assert!(hash_size > 0, "hash size must be non-zero");
        Self { hash_size, seed }
    }

    /// Mixes a raw 64-bit value into a uniformly distributed 64-bit value.
    ///
    /// This is the SplitMix64 finalizer, a standard high-quality mixer.
    #[inline]
    pub fn mix(&self, value: u64) -> u64 {
        let mut z = value
            .wrapping_add(self.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Hashes a raw categorical value to an embedding row index in
    /// `[0, hash_size)`: the mixed value modulo `hash_size`, taken with a
    /// mask when `hash_size` is a power of two (the same row, without the
    /// division).
    #[inline]
    pub fn hash(&self, value: u64) -> u64 {
        let mixed = self.mix(value);
        let low_bits = self.hash_size - 1;
        if self.hash_size & low_bits == 0 {
            mixed & low_bits
        } else {
            mixed % self.hash_size
        }
    }

    /// Measures collision statistics for a set of distinct raw values
    /// (Figure 7 / Figure 8 of the paper).
    ///
    /// The input is assumed to contain *distinct* raw categorical values; the
    /// output reports how many hash buckets they occupy, how many collide and
    /// how much of the hash space is left unused.
    pub fn collision_stats(&self, distinct_values: &[u64]) -> HashStats {
        let mut seen = std::collections::HashSet::with_capacity(distinct_values.len());
        for &v in distinct_values {
            seen.insert(self.hash(v));
        }
        HashStats::new(
            distinct_values.len() as u64,
            seen.len() as u64,
            self.hash_size,
        )
    }
}

/// Collision/utilization statistics of hashing `n` distinct values into a
/// table of `hash_size` rows.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HashStats {
    /// Number of distinct raw input values hashed.
    pub distinct_inputs: u64,
    /// Number of distinct hash buckets (embedding rows) occupied.
    pub occupied_rows: u64,
    /// Size of the hash space (number of embedding rows).
    pub hash_size: u64,
}

impl HashStats {
    /// Builds the statistics from raw counts.
    pub fn new(distinct_inputs: u64, occupied_rows: u64, hash_size: u64) -> Self {
        Self {
            distinct_inputs,
            occupied_rows,
            hash_size,
        }
    }

    /// Fraction of the hash space that is used by at least one input value
    /// ("Hash Usage" in Figure 8).
    pub fn usage(&self) -> f64 {
        self.occupied_rows as f64 / self.hash_size as f64
    }

    /// Fraction of input values that collided with an earlier value
    /// ("Percent Collisions" in Figure 8).
    pub fn collision_fraction(&self) -> f64 {
        if self.distinct_inputs == 0 {
            return 0.0;
        }
        (self.distinct_inputs.saturating_sub(self.occupied_rows)) as f64
            / self.distinct_inputs as f64
    }

    /// Fraction of the hash space left unused ("Sparsity" in Figure 8).
    pub fn sparsity(&self) -> f64 {
        1.0 - self.usage()
    }
}

/// Analytic expectation of the occupied fraction of a hash table when `n`
/// distinct values are hashed uniformly into `h` buckets:
/// `E[occupied]/h = 1 - (1 - 1/h)^n ≈ 1 - exp(-n/h)`.
///
/// This is the birthday-paradox curve Figure 8 plots; at `n == h` the expected
/// unused fraction is approximately `1/e`.
pub fn expected_usage(distinct_inputs: u64, hash_size: u64) -> f64 {
    if hash_size == 0 {
        return 0.0;
    }
    let ratio = distinct_inputs as f64 / hash_size as f64;
    1.0 - (-ratio).exp()
}

/// Analytic expectation of the fraction of input values that collide when `n`
/// distinct values are hashed uniformly into `h` buckets.
pub fn expected_collision_fraction(distinct_inputs: u64, hash_size: u64) -> f64 {
    if distinct_inputs == 0 {
        return 0.0;
    }
    let occupied = expected_usage(distinct_inputs, hash_size) * hash_size as f64;
    ((distinct_inputs as f64) - occupied).max(0.0) / distinct_inputs as f64
}

/// FNV-1a offset basis: the hash of nothing, where every fingerprint in
/// the workspace starts.
pub const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// Folds one word into an FNV-1a hash. Byte-wise FNV-1a folds each byte
/// as a word, so `bytes.fold(FNV_OFFSET, |h, b| fnv1a(h, b.into()))` is
/// the textbook hash; fingerprints of structured records fold whole
/// `u64` words instead.
pub fn fnv1a(hash: u64, word: u64) -> u64 {
    (hash ^ word).wrapping_mul(0x0000_0100_0000_01B3)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_in_range_and_deterministic() {
        let h = FeatureHasher::new(1000, 3);
        for v in 0..10_000u64 {
            let r = h.hash(v);
            assert!(r < 1000);
            assert_eq!(r, h.hash(v));
        }
    }

    #[test]
    fn different_seeds_decorrelate() {
        let a = FeatureHasher::new(1 << 20, 1);
        let b = FeatureHasher::new(1 << 20, 2);
        let same = (0..10_000u64).filter(|&v| a.hash(v) == b.hash(v)).count();
        // Collision by chance only: expect ~10_000 / 2^20 ≈ 0.01 matches.
        assert!(
            same < 50,
            "seeds should decorrelate hashes, got {same} matches"
        );
    }

    #[test]
    fn birthday_paradox_at_equal_size() {
        let n = 100_000u64;
        let h = FeatureHasher::new(n, 99);
        let values: Vec<u64> = (0..n).map(|i| i.wrapping_mul(2_654_435_761)).collect();
        let stats = h.collision_stats(&values);
        // Expect ~1/e of the space unused.
        let unused = stats.sparsity();
        assert!(
            (unused - (1.0f64 / std::f64::consts::E)).abs() < 0.02,
            "unused = {unused}"
        );
        // Analytic curve agrees with measurement.
        assert!((stats.usage() - expected_usage(n, n)).abs() < 0.02);
    }

    #[test]
    fn usage_grows_with_smaller_hash() {
        let values: Vec<u64> = (0..50_000u64).collect();
        let small = FeatureHasher::new(10_000, 5).collision_stats(&values);
        let large = FeatureHasher::new(500_000, 5).collision_stats(&values);
        assert!(small.usage() > large.usage());
        assert!(small.collision_fraction() > large.collision_fraction());
        assert!(large.sparsity() > small.sparsity());
    }

    #[test]
    fn analytic_collision_fraction_monotone_in_n() {
        let h = 100_000u64;
        let mut prev = 0.0;
        for n in [1_000u64, 10_000, 50_000, 100_000, 500_000] {
            let c = expected_collision_fraction(n, h);
            assert!(c >= prev);
            prev = c;
        }
    }

    #[test]
    #[should_panic(expected = "hash size must be non-zero")]
    fn zero_hash_size_panics() {
        let _ = FeatureHasher::new(0, 0);
    }

    #[test]
    fn hash_stats_edge_cases() {
        let s = HashStats::new(0, 0, 100);
        assert_eq!(s.collision_fraction(), 0.0);
        assert_eq!(s.usage(), 0.0);
        assert_eq!(s.sparsity(), 1.0);
    }
}
