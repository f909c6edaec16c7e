//! Pooling-factor distributions.
//!
//! A sparse feature's *pooling factor* is the number of embedding rows a
//! single training sample reads from the feature's table (Section 3.2). The
//! paper reports per-feature average pooling factors ranging from 1 to ~200,
//! with skewed, long-tailed per-sample distributions that are not well
//! described by a single family — the paper therefore summarises each feature
//! by the *mean* pooling factor (which deliberately over-estimates demand).
//!
//! [`PoolingSpec`] models the per-sample pooling distribution as a truncated
//! geometric-like distribution around a target mean, which produces the same
//! long-tailed, integer-valued behaviour.

use crate::zipf::unit_f64;
use rand::Rng;

/// Per-feature distribution of the number of activated categories per sample.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum PoolingSpec {
    /// Every present sample activates exactly `1` category (one-hot features,
    /// e.g. "country of the user").
    #[default]
    OneHot,
    /// Every present sample activates exactly `n` categories.
    Constant(u32),
    /// Long-tailed distribution with the given mean and maximum
    /// (a truncated shifted-geometric distribution: `1 + Geometric(p)` capped
    /// at `max`), modelling multi-hot history features ("pages recently
    /// viewed").
    LongTail {
        /// Target mean pooling factor (must be `>= 1`).
        mean: f64,
        /// Hard cap on the per-sample pooling factor (e.g. a history-length
        /// truncation applied by the feature pipeline).
        max: u32,
    },
}

impl PoolingSpec {
    /// Builds a long-tail spec with the conventional cap of `4 * mean`.
    pub fn long_tail(mean: f64) -> Self {
        assert!(
            mean >= 1.0 && mean.is_finite(),
            "mean pooling factor must be >= 1"
        );
        PoolingSpec::LongTail {
            mean,
            max: (mean * 4.0).ceil().max(2.0) as u32,
        }
    }

    /// The average pooling factor of this distribution.
    ///
    /// For [`PoolingSpec::LongTail`] this is the configured mean (truncation
    /// bias is small for the default cap and is intentionally ignored, mirroring
    /// the paper's preference for slight over-estimation).
    pub fn mean(&self) -> f64 {
        match *self {
            PoolingSpec::OneHot => 1.0,
            PoolingSpec::Constant(n) => n as f64,
            PoolingSpec::LongTail { mean, .. } => mean,
        }
    }

    /// Maximum possible per-sample pooling factor.
    pub fn max(&self) -> u32 {
        match *self {
            PoolingSpec::OneHot => 1,
            PoolingSpec::Constant(n) => n,
            PoolingSpec::LongTail { max, .. } => max,
        }
    }

    /// Draws the pooling factor for one present sample (always `>= 1`).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u32 {
        match *self {
            PoolingSpec::OneHot => 1,
            PoolingSpec::Constant(n) => n.max(1),
            PoolingSpec::LongTail { mean, max } => long_tail_factor(mean, max, rng.gen()),
        }
    }

    /// Rejects a [`PoolingSpec::LongTail`] whose mean is not finite or
    /// below 1, or whose cap is 0. (`OneHot` and `Constant` are always
    /// drawable: `Constant(0)` floors to 1.)
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        match *self {
            PoolingSpec::LongTail { mean, .. } if !(mean.is_finite() && mean >= 1.0) => Err(
                format!("long-tail pooling mean must be finite and >= 1, got {mean}"),
            ),
            PoolingSpec::LongTail { max: 0, .. } => {
                Err("long-tail pooling cap must be >= 1".to_string())
            }
            _ => Ok(()),
        }
    }

    /// Returns a copy of this spec with the mean scaled by `factor`
    /// (used by the temporal drift model, Figure 9).
    pub fn with_mean_scaled(&self, factor: f64) -> Self {
        match *self {
            PoolingSpec::OneHot => PoolingSpec::OneHot,
            PoolingSpec::Constant(n) => {
                PoolingSpec::Constant(((n as f64 * factor).round().max(1.0)) as u32)
            }
            PoolingSpec::LongTail { mean, max } => PoolingSpec::LongTail {
                mean: (mean * factor).max(1.0),
                max: ((max as f64 * factor).ceil().max(2.0)) as u32,
            },
        }
    }
}

/// `ln q` of a long-tail draw with mean `mean`: the factor is
/// `1 + floor(ln u / ln q)`, capped, with `q = 1 − p`.
#[inline]
pub(crate) fn long_tail_ln_q(mean: f64) -> f64 {
    // 1 + Geometric(p) has mean 1 + (1-p)/p = 1/p, so p = 1/mean.
    let p = (1.0 / mean).clamp(1e-6, 1.0);
    (1.0 - p).ln()
}

/// The long-tail pooling factor [`PoolingSpec::sample`] draws from its one
/// RNG word `word`.
#[inline]
pub(crate) fn long_tail_factor(mean: f64, max: u32, word: u64) -> u32 {
    let u = unit_f64(word).max(f64::MIN_POSITIVE);
    let g = (u.ln() / long_tail_ln_q(mean)).floor() as u64;
    ((1 + g).min(u64::from(max))).max(1) as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn seeded() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(77)
    }

    #[test]
    fn one_hot_always_one() {
        let mut rng = seeded();
        for _ in 0..100 {
            assert_eq!(PoolingSpec::OneHot.sample(&mut rng), 1);
        }
        assert_eq!(PoolingSpec::OneHot.mean(), 1.0);
    }

    #[test]
    fn constant_is_constant() {
        let mut rng = seeded();
        let spec = PoolingSpec::Constant(7);
        for _ in 0..100 {
            assert_eq!(spec.sample(&mut rng), 7);
        }
    }

    #[test]
    fn long_tail_mean_close_to_target() {
        let mut rng = seeded();
        for target in [2.0, 10.0, 50.0, 150.0] {
            let spec = PoolingSpec::long_tail(target);
            let n = 50_000;
            let total: u64 = (0..n).map(|_| spec.sample(&mut rng) as u64).sum();
            let got = total as f64 / n as f64;
            assert!(
                (got - target).abs() / target < 0.12,
                "target mean {target}, got {got}"
            );
        }
    }

    #[test]
    fn long_tail_respects_bounds() {
        let mut rng = seeded();
        let spec = PoolingSpec::LongTail {
            mean: 20.0,
            max: 64,
        };
        for _ in 0..20_000 {
            let v = spec.sample(&mut rng);
            assert!((1..=64).contains(&v));
        }
    }

    #[test]
    fn long_tail_with_zero_cap_still_draws_one() {
        let mut rng = seeded();
        let spec = PoolingSpec::LongTail { mean: 5.0, max: 0 };
        for _ in 0..1_000 {
            assert_eq!(spec.sample(&mut rng), 1);
        }
    }

    #[test]
    fn drift_scaling_changes_mean() {
        let spec = PoolingSpec::long_tail(40.0);
        let scaled = spec.with_mean_scaled(1.1);
        assert!((scaled.mean() - 44.0).abs() < 1e-9);
        let down = spec.with_mean_scaled(0.5);
        assert!((down.mean() - 20.0).abs() < 1e-9);
        // Never drops below 1.
        assert!(PoolingSpec::long_tail(1.0).with_mean_scaled(0.1).mean() >= 1.0);
    }

    #[test]
    #[should_panic(expected = "mean pooling factor must be >= 1")]
    fn long_tail_rejects_sub_one_mean() {
        let _ = PoolingSpec::long_tail(0.5);
    }
}
