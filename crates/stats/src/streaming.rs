//! Streaming summary statistics: mean / variance / extrema
//! ([`WelfordAccumulator`]) and constant-space quantile estimation
//! ([`P2Quantile`], [`StreamingCdf`]).
//!
//! The discrete-event cluster simulator (`recshard-des`) replays millions of
//! training iterations and reports tail latency, so it cannot buffer every
//! iteration time. [`StreamingCdf`] tracks an arbitrary set of percentiles in
//! O(1) space per percentile with the deterministic P² algorithm (Jain &
//! Chlamtac, CACM 1985), alongside exact mean/min/max from Welford's method.

use serde::{Deserialize, Serialize};

/// Welford's online algorithm for mean and variance, plus extrema.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct WelfordAccumulator {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl WelfordAccumulator {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    pub fn push(&mut self, value: f64) {
        self.count += 1;
        let delta = value - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (value - self.mean);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of the observations (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance of the observations (0 when fewer than two).
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Minimum observation (`None` when empty).
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Maximum observation (`None` when empty).
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Merges another accumulator into this one (parallel Welford merge).
    pub fn merge(&mut self, other: &WelfordAccumulator) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let total = self.count + other.count;
        let delta = other.mean - self.mean;
        let new_mean = self.mean + delta * other.count as f64 / total as f64;
        self.m2 +=
            other.m2 + delta * delta * (self.count as f64 * other.count as f64) / total as f64;
        self.mean = new_mean;
        self.count = total;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Snapshot of the accumulated statistics.
    pub fn summary(&self) -> Summary {
        Summary {
            count: self.count,
            min: self.min().unwrap_or(0.0),
            max: self.max().unwrap_or(0.0),
            mean: self.mean(),
            std_dev: self.std_dev(),
        }
    }
}

/// Min / max / mean / standard deviation of a set of observations — the
/// format Table 3 of the paper reports per-GPU iteration times in.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
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
    /// Computes a summary from a slice of observations.
    pub fn of(values: &[f64]) -> Self {
        let mut acc = WelfordAccumulator::new();
        for &v in values {
            acc.push(v);
        }
        acc.summary()
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

/// Constant-space streaming estimator of a single quantile using the P²
/// (piecewise-parabolic) algorithm.
///
/// The estimator keeps five markers that track the minimum, the target
/// quantile, the quantiles halfway to each extreme, and the maximum; marker
/// heights are adjusted with a parabolic prediction as observations arrive.
/// It is deterministic (no sampling), exact for the first five observations,
/// and typically within a fraction of a percent of the true quantile for
/// unimodal distributions.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct P2Quantile {
    q: f64,
    /// Marker heights (estimates of the tracked quantiles).
    heights: [f64; 5],
    /// Actual marker positions (1-based observation ranks).
    positions: [f64; 5],
    /// Desired marker positions.
    desired: [f64; 5],
    /// Desired-position increments applied per observation.
    increments: [f64; 5],
    count: u64,
}

impl P2Quantile {
    /// Creates an estimator for quantile `q`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < q < 1`.
    pub fn new(q: f64) -> Self {
        assert!(
            q > 0.0 && q < 1.0,
            "quantile must be strictly inside (0, 1)"
        );
        Self {
            q,
            heights: [0.0; 5],
            positions: [1.0, 2.0, 3.0, 4.0, 5.0],
            desired: [1.0, 1.0 + 2.0 * q, 1.0 + 4.0 * q, 3.0 + 2.0 * q, 5.0],
            increments: [0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0],
            count: 0,
        }
    }

    /// The quantile this estimator tracks.
    pub fn quantile(&self) -> f64 {
        self.q
    }

    /// Number of observations consumed.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Adds one observation.
    pub fn push(&mut self, value: f64) {
        if self.count < 5 {
            self.heights[self.count as usize] = value;
            self.count += 1;
            if self.count == 5 {
                self.heights.sort_by(f64::total_cmp);
            }
            return;
        }
        self.count += 1;

        // Find the cell the observation falls into, widening an extreme
        // marker if it lands outside the current range.
        let k = if value < self.heights[0] {
            self.heights[0] = value;
            0
        } else if value >= self.heights[4] {
            self.heights[4] = value;
            3
        } else {
            // heights[k] <= value < heights[k + 1]
            (1..4).rfind(|&i| self.heights[i] <= value).unwrap_or(0)
        };

        for i in (k + 1)..5 {
            self.positions[i] += 1.0;
        }
        for i in 0..5 {
            self.desired[i] += self.increments[i];
        }

        // Nudge the three interior markers toward their desired positions.
        for i in 1..4 {
            let d = self.desired[i] - self.positions[i];
            let right_gap = self.positions[i + 1] - self.positions[i];
            let left_gap = self.positions[i - 1] - self.positions[i];
            if (d >= 1.0 && right_gap > 1.0) || (d <= -1.0 && left_gap < -1.0) {
                let d = d.signum();
                let parabolic = self.parabolic(i, d);
                let new_height =
                    if self.heights[i - 1] < parabolic && parabolic < self.heights[i + 1] {
                        parabolic
                    } else {
                        self.linear(i, d)
                    };
                self.heights[i] = new_height;
                self.positions[i] += d;
            }
        }
    }

    fn parabolic(&self, i: usize, d: f64) -> f64 {
        let (h, n) = (&self.heights, &self.positions);
        h[i] + d / (n[i + 1] - n[i - 1])
            * ((n[i] - n[i - 1] + d) * (h[i + 1] - h[i]) / (n[i + 1] - n[i])
                + (n[i + 1] - n[i] - d) * (h[i] - h[i - 1]) / (n[i] - n[i - 1]))
    }

    fn linear(&self, i: usize, d: f64) -> f64 {
        let j = if d > 0.0 { i + 1 } else { i - 1 };
        self.heights[i]
            + d * (self.heights[j] - self.heights[i]) / (self.positions[j] - self.positions[i])
    }

    /// The current estimate of the tracked quantile (`None` when empty).
    pub fn estimate(&self) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        if self.count <= 5 {
            // Exact: interpolate the sorted prefix.
            let mut sorted = self.heights;
            let n = self.count as usize;
            sorted[..n].sort_by(f64::total_cmp);
            let rank = self.q * (n - 1) as f64;
            let lo = rank.floor() as usize;
            let hi = rank.ceil() as usize;
            let frac = rank - lo as f64;
            return Some(sorted[lo] * (1.0 - frac) + sorted[hi.min(n - 1)] * frac);
        }
        Some(self.heights[2])
    }
}

/// Streaming CDF summary of a latency-like metric: a set of [`P2Quantile`]
/// markers plus exact [`WelfordAccumulator`] moments, all in constant space.
///
/// This is the sink the discrete-event simulator streams per-iteration times
/// into; [`StreamingCdf::p50`]/[`p95`](StreamingCdf::p95)/[`p99`](StreamingCdf::p99)
/// are the numbers its reports quote.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StreamingCdf {
    quantiles: Vec<P2Quantile>,
    moments: WelfordAccumulator,
    /// Exact buffer of the first observations: short streams get exact
    /// quantiles, and the independent P² markers (which can invert on tiny
    /// samples) only take over once they have data to stabilise on.
    head: Vec<f64>,
}

/// Observations buffered exactly before [`StreamingCdf`] switches to its P²
/// estimates.
const STREAMING_CDF_EXACT_HEAD: usize = 64;

impl StreamingCdf {
    /// Creates a CDF tracking the given quantiles (each strictly in `(0,1)`),
    /// sorted ascending.
    pub fn new(quantiles: &[f64]) -> Self {
        let mut qs: Vec<f64> = quantiles.to_vec();
        qs.sort_by(f64::total_cmp);
        Self {
            quantiles: qs.iter().map(|&q| P2Quantile::new(q)).collect(),
            moments: WelfordAccumulator::new(),
            head: Vec::new(),
        }
    }

    /// The conventional latency summary: p50, p95 and p99.
    pub fn latency_defaults() -> Self {
        Self::new(&[0.50, 0.95, 0.99])
    }

    /// Adds one observation to every tracked quantile and the moments.
    pub fn push(&mut self, value: f64) {
        for q in &mut self.quantiles {
            q.push(value);
        }
        self.moments.push(value);
        if self.head.len() < STREAMING_CDF_EXACT_HEAD {
            self.head.push(value);
        }
    }

    /// Number of observations consumed.
    pub fn count(&self) -> u64 {
        self.moments.count()
    }

    /// The estimate for the tracked quantile `q`.
    ///
    /// Exact while at most `STREAMING_CDF_EXACT_HEAD` (64) observations have
    /// been pushed; afterwards the P² estimate, monotone-repaired so that a
    /// higher tracked quantile never reports a smaller value than a lower
    /// one.
    ///
    /// # Panics
    ///
    /// Panics if `q` is not tracked or no observations were pushed.
    pub fn quantile(&self, q: f64) -> f64 {
        let idx = self
            .quantiles
            .iter()
            .position(|m| (m.q - q).abs() < 1e-9)
            .unwrap_or_else(|| panic!("quantile {q} is not tracked"));
        assert!(self.count() > 0, "no observations pushed");
        if self.count() <= self.head.len() as u64 {
            let mut sorted = self.head.clone();
            sorted.sort_by(f64::total_cmp);
            let rank = q * (sorted.len() - 1) as f64;
            let lo = rank.floor() as usize;
            let frac = rank - lo as f64;
            let hi = (lo + 1).min(sorted.len() - 1);
            // `a + (b - a) * frac`, not `a * (1 - frac) + b * frac`: the
            // latter can land an ulp below `a` between equal neighbours,
            // so a higher quantile could read lower than a lower one.
            return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
        }
        // Monotone repair: running max over markers up to and including q.
        self.quantiles[..=idx]
            .iter()
            .filter_map(|m| m.estimate())
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Median estimate.
    pub fn p50(&self) -> f64 {
        self.quantile(0.50)
    }

    /// 95th-percentile estimate.
    pub fn p95(&self) -> f64 {
        self.quantile(0.95)
    }

    /// 99th-percentile estimate.
    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }

    /// Exact mean/min/max/std of everything pushed.
    pub fn summary(&self) -> Summary {
        self.moments.summary()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_variance_match_direct_computation() {
        let values = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let s = Summary::of(&values);
        assert!((s.mean - 5.0).abs() < 1e-12);
        assert!((s.std_dev - 2.0).abs() < 1e-12);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 9.0);
        assert_eq!(s.count, 8);
    }

    #[test]
    fn empty_accumulator_is_safe() {
        let acc = WelfordAccumulator::new();
        assert_eq!(acc.mean(), 0.0);
        assert_eq!(acc.variance(), 0.0);
        assert_eq!(acc.min(), None);
        assert_eq!(acc.max(), None);
        assert_eq!(acc.summary().count, 0);
    }

    #[test]
    fn merge_equals_sequential() {
        let values: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut all = WelfordAccumulator::new();
        for &v in &values {
            all.push(v);
        }
        let mut a = WelfordAccumulator::new();
        let mut b = WelfordAccumulator::new();
        for &v in &values[..37] {
            a.push(v);
        }
        for &v in &values[37..] {
            b.push(v);
        }
        a.merge(&b);
        assert!((a.mean() - all.mean()).abs() < 1e-9);
        assert!((a.variance() - all.variance()).abs() < 1e-9);
        assert_eq!(a.count(), all.count());
    }

    #[test]
    fn merge_with_empty_sides() {
        let mut a = WelfordAccumulator::new();
        a.push(1.0);
        let empty = WelfordAccumulator::new();
        let mut b = a;
        b.merge(&empty);
        assert_eq!(b, a);
        let mut c = WelfordAccumulator::new();
        c.merge(&a);
        assert_eq!(c, a);
    }

    #[test]
    fn display_is_paper_format() {
        let s = Summary::of(&[1.0, 2.0, 3.0]);
        assert_eq!(format!("{s}"), "1.00/3.00/2.00/0.82");
    }

    /// Deterministic pseudo-random stream (no rand dependency in this crate's
    /// tests) — SplitMix64 mapped to [0, 1).
    fn uniform_stream(seed: u64, n: usize) -> Vec<f64> {
        let mut state = seed;
        (0..n)
            .map(|_| {
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                (z ^ (z >> 31)) as f64 / u64::MAX as f64
            })
            .collect()
    }

    fn exact_quantile(values: &[f64], q: f64) -> f64 {
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        sorted[((sorted.len() - 1) as f64 * q).round() as usize]
    }

    #[test]
    fn p2_exact_for_small_streams() {
        let mut est = P2Quantile::new(0.5);
        assert_eq!(est.estimate(), None);
        est.push(3.0);
        assert_eq!(est.estimate(), Some(3.0));
        est.push(1.0);
        est.push(2.0);
        // Median of {1, 2, 3}.
        assert_eq!(est.estimate(), Some(2.0));
    }

    #[test]
    fn p2_tracks_uniform_quantiles() {
        let values = uniform_stream(42, 50_000);
        for q in [0.5, 0.95, 0.99] {
            let mut est = P2Quantile::new(q);
            for &v in &values {
                est.push(v);
            }
            let got = est.estimate().unwrap();
            let want = exact_quantile(&values, q);
            assert!(
                (got - want).abs() < 0.01,
                "P2 estimate {got} for q={q} too far from exact {want}"
            );
        }
    }

    #[test]
    fn p2_tracks_heavy_tailed_quantiles() {
        // Pareto-ish: x = (1 - u)^(-1) spans orders of magnitude, the shape
        // of queueing-delay tails the DES reports.
        let values: Vec<f64> = uniform_stream(7, 50_000)
            .iter()
            .map(|u| (1.0 - u).powi(-1))
            .collect();
        for q in [0.5, 0.95] {
            let mut est = P2Quantile::new(q);
            for &v in &values {
                est.push(v);
            }
            let got = est.estimate().unwrap();
            let want = exact_quantile(&values, q);
            assert!(
                (got / want - 1.0).abs() < 0.05,
                "P2 estimate {got} for q={q} more than 5% from exact {want}"
            );
        }
    }

    #[test]
    fn p2_is_deterministic() {
        let values = uniform_stream(9, 10_000);
        let run = || {
            let mut est = P2Quantile::new(0.99);
            for &v in &values {
                est.push(v);
            }
            est.estimate().unwrap()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn streaming_cdf_percentiles_are_ordered() {
        let mut cdf = StreamingCdf::latency_defaults();
        for v in uniform_stream(11, 20_000) {
            cdf.push(v * 10.0);
        }
        assert_eq!(cdf.count(), 20_000);
        assert!(cdf.p50() <= cdf.p95());
        assert!(cdf.p95() <= cdf.p99());
        let s = cdf.summary();
        assert!(s.min <= cdf.p50() && cdf.p99() <= s.max);
    }

    #[test]
    fn streaming_cdf_exact_for_short_streams() {
        let mut cdf = StreamingCdf::latency_defaults();
        for v in [5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0, 4.0, 6.0] {
            cdf.push(v);
        }
        // Exact sample median of 1..=9.
        assert!((cdf.p50() - 5.0).abs() < 1e-12);
        assert!(cdf.p50() <= cdf.p95() && cdf.p95() <= cdf.p99());
        assert!(cdf.p99() <= 9.0);
    }

    #[test]
    fn streaming_cdf_monotone_after_head() {
        let mut cdf = StreamingCdf::latency_defaults();
        for v in uniform_stream(23, 500) {
            cdf.push(v);
        }
        assert!(cdf.p50() <= cdf.p95() && cdf.p95() <= cdf.p99());
    }

    #[test]
    #[should_panic(expected = "not tracked")]
    fn streaming_cdf_rejects_untracked_quantile() {
        let mut cdf = StreamingCdf::new(&[0.5]);
        cdf.push(1.0);
        let _ = cdf.quantile(0.9);
    }

    #[test]
    #[should_panic(expected = "strictly inside")]
    fn p2_rejects_degenerate_quantile() {
        let _ = P2Quantile::new(1.0);
    }

    #[test]
    fn exact_quantiles_of_equal_observations_are_that_value() {
        // 0.95 * 38 leaves a fraction of 0.1: `a * 0.9 + a * 0.1` rounds to
        // 0.04400799999999999 here, which would put p95 below p50.
        let mut cdf = StreamingCdf::latency_defaults();
        for _ in 0..39 {
            cdf.push(0.044008);
        }
        assert_eq!([cdf.p50(), cdf.p95(), cdf.p99()], [0.044008; 3]);
    }
}
