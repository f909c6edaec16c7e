//! Ablation variants of the RecShard formulation (Section 6.5 / Table 6).
//!
//! The paper measures how much each per-table statistic contributes by
//! disabling the average pooling factor and/or the coverage in the MILP's
//! cost model (setting them to 1) while always keeping the value-frequency
//! CDF. The same switches exist in [`RecShardConfig`]; this module names the
//! four variants and produces the corresponding configurations.

use crate::config::RecShardConfig;

/// The four RecShard formulations evaluated in Table 6.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AblationVariant {
    /// Only the value-frequency CDF is used; pooling and coverage are set to 1.
    CdfOnly,
    /// CDF plus per-table coverage.
    CdfCoverage,
    /// CDF plus per-table average pooling factor.
    CdfPooling,
    /// The full formulation: CDF, pooling and coverage.
    Full,
}

impl AblationVariant {
    /// All variants in the order Table 6 lists them (Full first).
    pub fn all() -> [AblationVariant; 4] {
        [
            AblationVariant::Full,
            AblationVariant::CdfPooling,
            AblationVariant::CdfCoverage,
            AblationVariant::CdfOnly,
        ]
    }

    /// The configuration implementing this variant, derived from `base`.
    pub fn config(self, base: RecShardConfig) -> RecShardConfig {
        let mut c = base;
        match self {
            AblationVariant::CdfOnly => {
                c.use_pooling = false;
                c.use_coverage = false;
            }
            AblationVariant::CdfCoverage => {
                c.use_pooling = false;
                c.use_coverage = true;
            }
            AblationVariant::CdfPooling => {
                c.use_pooling = true;
                c.use_coverage = false;
            }
            AblationVariant::Full => {
                c.use_pooling = true;
                c.use_coverage = true;
            }
        }
        c
    }

    /// Human-readable label matching the paper's Table 6 rows.
    pub fn label(self) -> &'static str {
        match self {
            AblationVariant::CdfOnly => "CDF Only",
            AblationVariant::CdfCoverage => "CDF + Coverage",
            AblationVariant::CdfPooling => "CDF + Pooling",
            AblationVariant::Full => "RecShard (Full)",
        }
    }
}

impl std::fmt::Display for AblationVariant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variants_toggle_the_right_switches() {
        let base = RecShardConfig::default();
        let full = AblationVariant::Full.config(base);
        assert!(full.use_pooling && full.use_coverage);
        let cdf = AblationVariant::CdfOnly.config(base);
        assert!(!cdf.use_pooling && !cdf.use_coverage);
        let cov = AblationVariant::CdfCoverage.config(base);
        assert!(!cov.use_pooling && cov.use_coverage);
        let pool = AblationVariant::CdfPooling.config(base);
        assert!(pool.use_pooling && !pool.use_coverage);
    }

    #[test]
    fn all_lists_four_distinct_variants() {
        let all = AblationVariant::all();
        assert_eq!(all.len(), 4);
        let set: std::collections::HashSet<_> = all.iter().collect();
        assert_eq!(set.len(), 4);
        assert_eq!(all[0], AblationVariant::Full);
    }

    #[test]
    fn labels_match_paper() {
        assert_eq!(AblationVariant::Full.label(), "RecShard (Full)");
        assert_eq!(AblationVariant::CdfOnly.to_string(), "CDF Only");
    }
}
