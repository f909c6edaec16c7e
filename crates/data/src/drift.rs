//! Temporal drift of sparse-feature statistics.
//!
//! Section 3.5 / Figure 9 of the paper shows that the average pooling factor
//! of both user and content features drifts over a 20-month window — user
//! features grow by up to ~10% while content features oscillate — which is
//! why re-sharding has to be re-evaluated as training data evolves.
//!
//! [`DriftModel`] reproduces that behaviour: it maps a month index to a
//! multiplicative adjustment of every feature's mean pooling factor, with the
//! two feature classes following different trajectories.

use crate::feature::FeatureClass;

/// One point of the drift trajectory.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftPoint {
    /// Month index (0-based).
    pub month: u32,
    /// Percent change of the average pooling factor of user features
    /// relative to month 0.
    pub user_pct_change: f64,
    /// Percent change of the average pooling factor of content features
    /// relative to month 0.
    pub content_pct_change: f64,
}

/// Deterministic model of how per-class average pooling factors evolve over a
/// multi-month training window (Figure 9).
#[derive(Debug, Clone, PartialEq)]
pub struct DriftModel {
    months: u32,
    user_growth_per_month: f64,
    content_amplitude: f64,
    content_period_months: f64,
}

impl Default for DriftModel {
    fn default() -> Self {
        Self::paper_like()
    }
}

impl DriftModel {
    /// A drift model shaped like Figure 9: user features grow roughly
    /// linearly to ~+10% over 20 months, content features oscillate within
    /// about ±5%.
    pub fn paper_like() -> Self {
        Self {
            months: 20,
            user_growth_per_month: 0.005,
            content_amplitude: 0.05,
            content_period_months: 9.0,
        }
    }

    /// A custom drift model.
    ///
    /// # Panics
    ///
    /// Panics if `months == 0` or `content_period_months <= 0`.
    pub fn new(
        months: u32,
        user_growth_per_month: f64,
        content_amplitude: f64,
        content_period_months: f64,
    ) -> Self {
        assert!(months > 0, "drift window must cover at least one month");
        assert!(
            content_period_months > 0.0,
            "oscillation period must be positive"
        );
        Self {
            months,
            user_growth_per_month,
            content_amplitude,
            content_period_months,
        }
    }

    /// Number of months covered by the model.
    pub fn months(&self) -> u32 {
        self.months
    }

    /// Multiplicative factor applied to the mean pooling of the given feature
    /// class at the given month (month 0 ⇒ 1.0).
    pub fn factor(&self, class: FeatureClass, month: u32) -> f64 {
        let m = month as f64;
        match class {
            FeatureClass::User => 1.0 + self.user_growth_per_month * m,
            FeatureClass::Content => {
                1.0 + self.content_amplitude
                    * (2.0 * std::f64::consts::PI * m / self.content_period_months).sin()
            }
        }
    }

    /// Percent change relative to month 0 for the given class and month.
    pub fn pct_change(&self, class: FeatureClass, month: u32) -> f64 {
        (self.factor(class, month) - 1.0) * 100.0
    }

    /// The full drift trajectory, one point per month (Figure 9's series).
    pub fn trajectory(&self) -> Vec<DriftPoint> {
        (0..=self.months)
            .map(|month| DriftPoint {
                month,
                user_pct_change: self.pct_change(FeatureClass::User, month),
                content_pct_change: self.pct_change(FeatureClass::Content, month),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn month_zero_is_identity() {
        let d = DriftModel::paper_like();
        assert_eq!(d.factor(FeatureClass::User, 0), 1.0);
        assert_eq!(d.factor(FeatureClass::Content, 0), 1.0);
    }

    #[test]
    fn user_features_grow_monotonically() {
        let d = DriftModel::paper_like();
        let mut prev = 0.0;
        for m in 0..=20 {
            let pct = d.pct_change(FeatureClass::User, m);
            assert!(pct >= prev);
            prev = pct;
        }
        // Roughly +10% at month 20, as in Figure 9.
        assert!((d.pct_change(FeatureClass::User, 20) - 10.0).abs() < 1.0);
    }

    #[test]
    fn content_features_oscillate_within_amplitude() {
        let d = DriftModel::paper_like();
        let mut saw_negative = false;
        for m in 0..=20 {
            let pct = d.pct_change(FeatureClass::Content, m);
            assert!(pct.abs() <= 5.0 + 1e-9);
            if pct < -0.5 {
                saw_negative = true;
            }
        }
        assert!(
            saw_negative,
            "content drift should dip below zero at some month"
        );
    }

    #[test]
    fn trajectory_has_one_point_per_month() {
        let d = DriftModel::paper_like();
        let t = d.trajectory();
        assert_eq!(t.len(), 21);
        assert_eq!(t[0].month, 0);
        assert_eq!(t[20].month, 20);
    }

    #[test]
    #[should_panic(expected = "drift window must cover at least one month")]
    fn zero_month_window_rejected() {
        let _ = DriftModel::new(0, 0.01, 0.05, 9.0);
    }
}
