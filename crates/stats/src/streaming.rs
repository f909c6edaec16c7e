//! Order-free summary statistics: [`LogLinearHistogram`], a mergeable
//! quantile sketch over integer samples, and [`Summary`], the moments it
//! and [`Summary::of`] report.
//!
//! The discrete-event trainer, the serving layer and the metrics registry
//! quote p50/p95/p99 tails of millions of samples, so none of them keeps
//! every sample. The histogram keeps counts instead. Values below 2^7 each
//! have a bucket of their own, and every power of two from 2^7 up is cut
//! into 2^7 equal sub-buckets (so `[2^7, 2^8)` is exact too): a bucket is
//! never wider than 2^-7 of its lowest value. A quantile is the midpoint
//! of the bucket holding the nearest-rank sample, clamped to the exact
//! extrema, so its relative error is at most 2^-8. Counts, extrema, sum
//! and sum of squares are integers: pushing the same samples in any
//! order, or merging histograms by adding their counts, gives the same
//! bits. DDSketch (Masson, Rim & Lee, VLDB 2019) makes the same trade on a
//! purely logarithmic grid.

/// Sub-buckets per power of two, as a power of two.
const SUB_BITS: u32 = 7;

/// Sub-buckets per power of two.
const SUB: u64 = 1 << SUB_BITS;

/// The bucket holding `value`. Below 2^8 every value has its own bucket;
/// above, the bucket keeps the top `SUB_BITS + 1` significant bits.
fn bucket_of(value: u64) -> usize {
    let shift = (u64::BITS - value.leading_zeros()).saturating_sub(SUB_BITS + 1);
    (u64::from(shift) * SUB + (value >> shift)) as usize
}

/// `(lowest value, width)` of bucket `idx`.
fn bucket_bounds(idx: usize) -> (u64, u64) {
    let idx = idx as u64;
    let shift = (idx >> SUB_BITS).saturating_sub(1);
    ((idx - shift * SUB) << shift, 1 << shift)
}

/// An integer log-linear histogram: a quantile sketch whose state depends
/// only on the multiset of samples pushed (see the module doc).
///
/// Its count vector grows only as far as the largest bucket seen: a
/// million nanoseconds needs about 1,800 buckets, `u64::MAX` 7,424. The
/// mean and standard deviation are exact functions of the integer sum and
/// sum of squares while `count · Σx²` fits in a `u128` (for example up to
/// 2^44 samples below 2^20, or 2^24 below 2^40); past that the standard
/// deviation takes the same identity in floating point. A sum that would
/// overflow a `u128` saturates, and the moments it feeds are meaningless.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogLinearHistogram {
    counts: Vec<u64>,
    count: u64,
    min: u64,
    max: u64,
    sum: u128,
    sum_sq: u128,
}

impl Default for LogLinearHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LogLinearHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            counts: Vec::new(),
            count: 0,
            min: u64::MAX,
            max: 0,
            sum: 0,
            sum_sq: 0,
        }
    }

    /// Adds one sample. No floating-point math.
    pub fn push(&mut self, value: u64) {
        let idx = bucket_of(value);
        if idx >= self.counts.len() {
            self.counts.resize(idx + 1, 0);
        }
        self.counts[idx] += 1;
        self.count += 1;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        let wide = u128::from(value);
        self.sum = self.sum.saturating_add(wide);
        self.sum_sq = self.sum_sq.saturating_add(wide * wide);
    }

    /// Adds every sample of `other`: the result equals pushing both
    /// histograms' samples into one.
    pub fn merge(&mut self, other: &Self) {
        if other.counts.len() > self.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.sum = self.sum.saturating_add(other.sum);
        self.sum_sq = self.sum_sq.saturating_add(other.sum_sq);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The nearest-rank `q`-quantile, `q` in `[0, 1]`: the midpoint of the
    /// bucket holding the ⌈q·n⌉-th smallest sample, clamped to the
    /// extrema. Within 2^-8 of that sample, relatively; 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let (lowest, width) = bucket_bounds(idx);
                return (lowest + width / 2).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Count, extrema, mean and population standard deviation of the
    /// samples, each divided by `scale` (recorded units per reported unit,
    /// e.g. `1e6` to report nanoseconds in milliseconds). All zero when
    /// empty.
    pub fn summary(&self, scale: f64) -> Summary {
        if self.count == 0 {
            return Summary::default();
        }
        let n = u128::from(self.count);
        // n·Σx² − (Σx)² = n²·variance, exact in integers while it fits.
        let spread = match n.checked_mul(self.sum_sq) {
            Some(n_sum_sq) => (n_sum_sq - self.sum * self.sum) as f64,
            None => (self.sum_sq as f64 * n as f64 - (self.sum as f64).powi(2)).max(0.0),
        };
        let n = self.count as f64;
        Summary {
            count: self.count,
            min: self.min as f64 / scale,
            max: self.max as f64 / scale,
            mean: self.sum as f64 / n / scale,
            std_dev: spread.sqrt() / n / scale,
        }
    }
}

/// Min / max / mean / standard deviation of a set of observations — the
/// format Table 3 of the paper reports per-GPU iteration times in.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Summary {
    /// Number of observations.
    pub count: u64,
    /// Minimum observation.
    pub min: f64,
    /// Maximum observation.
    pub max: f64,
    /// Mean observation.
    pub mean: f64,
    /// Population standard deviation.
    pub std_dev: f64,
}

impl Summary {
    /// Computes a summary from a slice of observations in two passes: the
    /// mean, then the squared deviations from it. All zero when empty.
    pub fn of(values: &[f64]) -> Self {
        if values.is_empty() {
            return Self::default();
        }
        let n = values.len() as f64;
        let mean = values.iter().sum::<f64>() / n;
        let variance = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n;
        Self {
            count: values.len() as u64,
            min: values.iter().copied().fold(f64::INFINITY, f64::min),
            max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            mean,
            std_dev: variance.sqrt(),
        }
    }
}

impl std::fmt::Display for Summary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:.2}/{:.2}/{:.2}/{:.2}",
            self.min, self.max, self.mean, self.std_dev
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn histogram(values: &[u64]) -> LogLinearHistogram {
        let mut h = LogLinearHistogram::new();
        values.iter().for_each(|&v| h.push(v));
        h
    }

    #[test]
    fn mean_and_variance_match_direct_computation() {
        let values = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let s = Summary::of(&values);
        assert!((s.mean - 5.0).abs() < 1e-12);
        assert!((s.std_dev - 2.0).abs() < 1e-12);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 9.0);
        assert_eq!(s.count, 8);
        let h = histogram(&[2, 4, 4, 4, 5, 5, 7, 9]);
        assert_eq!(h.summary(1.0), s, "integer moments are exact");
    }

    #[test]
    fn empty_accumulator_is_safe() {
        assert_eq!(Summary::of(&[]), Summary::default());
        let h = LogLinearHistogram::new();
        assert_eq!(h.summary(1e6), Summary::default());
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.count(), 0);
    }

    #[test]
    fn merge_equals_sequential() {
        let values: Vec<u64> = (0..1_000u64).map(|i| (i * 7_919) % 100_003 * i).collect();
        let mut a = histogram(&values[..370]);
        a.merge(&histogram(&values[370..]));
        assert_eq!(a, histogram(&values));
    }

    #[test]
    fn merge_with_empty_sides() {
        let a = histogram(&[1, 1_000, 1_000_000]);
        let mut b = a.clone();
        b.merge(&LogLinearHistogram::new());
        assert_eq!(b, a);
        let mut c = LogLinearHistogram::new();
        c.merge(&a);
        assert_eq!(c, a);
    }

    #[test]
    fn display_is_paper_format() {
        let s = Summary::of(&[1.0, 2.0, 3.0]);
        assert_eq!(format!("{s}"), "1.00/3.00/2.00/0.82");
    }

    #[test]
    fn buckets_tile_the_integers_without_gaps() {
        let mut next = 0u64;
        for idx in 0..bucket_of(u64::MAX) + 1 {
            let (lowest, width) = bucket_bounds(idx);
            assert_eq!(lowest, next, "bucket {idx} starts where the last one ended");
            assert_eq!(bucket_of(lowest), idx);
            assert_eq!(bucket_of(lowest + (width - 1)), idx);
            assert!(
                width == 1 || width <= lowest >> SUB_BITS,
                "bucket {idx} too wide"
            );
            next = lowest.wrapping_add(width);
        }
        assert_eq!(next, 0, "the last bucket ends at u64::MAX");
    }

    /// Asserts each quantile is within 2^-8 of the exact nearest-rank
    /// sample, and the summary's extrema are exact.
    fn assert_within_bound(values: &[u64]) {
        let h = histogram(values);
        let mut sorted = values.to_vec();
        sorted.sort_unstable();
        for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
            let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
            let want = sorted[rank - 1] as f64;
            let got = h.quantile(q) as f64;
            assert!(
                (got - want).abs() <= want / 256.0,
                "n={} q={q}: {got} vs exact {want}",
                values.len()
            );
        }
        let s = h.summary(1.0);
        assert_eq!(s.min, sorted[0] as f64);
        assert_eq!(s.max, sorted[sorted.len() - 1] as f64);
    }

    #[test]
    fn tracks_uniform_quantiles() {
        // A stride permutation of 0..100,000, scaled to microseconds.
        let values: Vec<u64> = (0..100_000u64)
            .map(|i| (i * 7_919) % 100_000 * 1_000)
            .collect();
        assert_within_bound(&values);
    }

    #[test]
    fn tracks_heavy_tailed_quantiles() {
        // Pareto (alpha = 1.2) inverse CDF on a stride permutation of the
        // uniform grid: a tail five decades above the median.
        let n = 20_000u64;
        let values: Vec<u64> = (0..n)
            .map(|i| {
                let u = ((i * 7_919) % n) as f64 + 0.5;
                (1_000.0 * (n as f64 / u).powf(1.0 / 1.2)) as u64
            })
            .collect();
        assert_within_bound(&values);
    }

    #[test]
    fn short_streams_keep_the_bound_and_exact_extrema() {
        let values: Vec<u64> = (1..=64u64).map(|i| (i * i * 977) % 65_537 + 300).collect();
        for len in 1..=values.len() {
            assert_within_bound(&values[..len]);
        }
    }

    #[test]
    fn small_values_are_exact() {
        let h = histogram(&(0..200).collect::<Vec<_>>());
        assert_eq!(h.quantile(0.5), 99);
        assert_eq!(h.quantile(0.99), 197);
        assert_eq!(h.quantile(0.0), 0);
        assert_eq!(h.quantile(1.0), 199);
    }

    #[test]
    fn exact_quantiles_of_equal_observations_are_that_value() {
        let h = histogram(&[1_000_001; 39]);
        for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(h.quantile(q), 1_000_001);
        }
        let s = h.summary(1e6);
        assert_eq!(
            [s.min, s.max, s.mean, s.std_dev],
            [1.000001, 1.000001, 1.000001, 0.0]
        );
    }

    #[test]
    fn huge_values_keep_their_bound() {
        let values = [u64::MAX - 5, u64::MAX / 3, 1 << 40];
        let h = histogram(&values);
        for (q, want) in [(1.0, values[0]), (0.5, values[1]), (0.0, values[2])] {
            let got = h.quantile(q) as f64;
            assert!(
                (got / want as f64 - 1.0).abs() <= 1.0 / 256.0,
                "q={q}: {got}"
            );
        }
        assert_eq!(h.summary(1.0).max, u64::MAX as f64);
    }
}
