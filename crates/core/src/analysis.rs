//! Plan comparison and speedup reporting helpers (Tables 3, 4 and Figure 11/13).

use recshard_sharding::ShardingPlan;
use recshard_stats::Summary;

/// Pairwise comparison of two plans over the same model (Table 4).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanComparison {
    /// Fraction of rows the baseline placed in UVM that the subject plan
    /// promotes to HBM ("UVM->HBM" in Table 4).
    pub uvm_to_hbm: f64,
    /// Fraction of rows the baseline placed in HBM that the subject plan
    /// demotes to UVM ("HBM->UVM" in Table 4).
    pub hbm_to_uvm: f64,
}

impl PlanComparison {
    /// Compares `subject` (typically RecShard) against `baseline`.
    pub fn between(subject: &ShardingPlan, baseline: &ShardingPlan) -> Self {
        let (uvm_to_hbm, hbm_to_uvm) = subject.placement_disparity(baseline);
        Self {
            uvm_to_hbm,
            hbm_to_uvm,
        }
    }
}

/// Per-strategy timing results and the derived speedups (Figure 11 / Table 3).
#[derive(Debug, Clone, PartialEq)]
pub struct SpeedupReport {
    entries: Vec<(String, Summary)>,
}

impl SpeedupReport {
    /// Builds a report from `(strategy name, per-GPU iteration-time summary)`
    /// pairs.
    pub fn new(entries: Vec<(String, Summary)>) -> Self {
        assert!(
            !entries.is_empty(),
            "a speedup report needs at least one strategy"
        );
        Self { entries }
    }

    /// Iteration time of a strategy (the max across GPUs — training is bound
    /// by the slowest trainer).
    pub fn iteration_time(&self, strategy: &str) -> Option<f64> {
        self.entries
            .iter()
            .find(|(s, _)| s == strategy)
            .map(|(_, t)| t.max)
    }

    /// The slowest strategy's iteration time (the normalisation denominator
    /// Figure 11 uses).
    pub fn slowest_time(&self) -> f64 {
        self.entries
            .iter()
            .map(|(_, t)| t.max)
            .fold(f64::MIN, f64::max)
    }

    /// Speedup of each strategy relative to the slowest strategy in the group
    /// (exactly Figure 11's y-axis).
    pub fn speedups_vs_slowest(&self) -> Vec<(String, f64)> {
        let slowest = self.slowest_time();
        self.entries
            .iter()
            .map(|(s, t)| (s.clone(), slowest / t.max))
            .collect()
    }

    /// Speedup of `subject` relative to the *fastest of the other strategies*
    /// (the "next fastest" comparison the paper quotes: 2.58x/5.26x/7.41x).
    pub fn speedup_vs_next_fastest(&self, subject: &str) -> Option<f64> {
        let subject_time = self.iteration_time(subject)?;
        let next_fastest = self
            .entries
            .iter()
            .filter(|(s, _)| s != subject)
            .map(|(_, t)| t.max)
            .fold(f64::INFINITY, f64::min);
        if next_fastest.is_infinite() {
            return None;
        }
        Some(next_fastest / subject_time)
    }

    /// Load-balance improvement of `subject` over the best (smallest) other
    /// strategy's standard deviation, as quoted in the abstract (>12x).
    pub fn load_balance_improvement(&self, subject: &str) -> Option<f64> {
        let subject_std = self
            .entries
            .iter()
            .find(|(s, _)| s == subject)
            .map(|(_, t)| t.std_dev)?;
        let best_other = self
            .entries
            .iter()
            .filter(|(s, _)| s != subject)
            .map(|(_, t)| t.std_dev)
            .fold(f64::INFINITY, f64::min);
        if best_other.is_infinite() || subject_std == 0.0 {
            return None;
        }
        Some(best_other / subject_std)
    }
}

/// Amdahl's-law end-to-end speedup estimate (Section 6.4): with fraction `p`
/// of total execution time spent in critical-path embedding operations and an
/// embedding speedup of `s`, the end-to-end speedup is `1 / ((1-p) + p/s)`.
pub fn amdahl_end_to_end_speedup(embedding_fraction: f64, embedding_speedup: f64) -> f64 {
    assert!(
        (0.0..=1.0).contains(&embedding_fraction),
        "embedding fraction must be in [0, 1]"
    );
    assert!(embedding_speedup > 0.0, "speedup must be positive");
    1.0 / ((1.0 - embedding_fraction) + embedding_fraction / embedding_speedup)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary(max: f64, std: f64) -> Summary {
        Summary {
            count: 16,
            min: max / 2.0,
            max,
            mean: max * 0.75,
            std_dev: std,
        }
    }

    #[test]
    fn speedups_normalised_to_slowest() {
        let report = SpeedupReport::new(vec![
            ("size".into(), summary(20.0, 5.0)),
            ("lookup".into(), summary(40.0, 9.0)),
            ("recshard".into(), summary(8.0, 0.5)),
        ]);
        let speedups: std::collections::HashMap<_, _> =
            report.speedups_vs_slowest().into_iter().collect();
        assert!((speedups["lookup"] - 1.0).abs() < 1e-12);
        assert!((speedups["size"] - 2.0).abs() < 1e-12);
        assert!((speedups["recshard"] - 5.0).abs() < 1e-12);
    }

    #[test]
    fn next_fastest_comparison() {
        let report = SpeedupReport::new(vec![
            ("size".into(), summary(20.0, 5.0)),
            ("lookup".into(), summary(40.0, 9.0)),
            ("recshard".into(), summary(8.0, 0.5)),
        ]);
        // Next fastest after recshard is size at 20ms → 2.5x.
        assert!((report.speedup_vs_next_fastest("recshard").unwrap() - 2.5).abs() < 1e-12);
        assert!((report.load_balance_improvement("recshard").unwrap() - 10.0).abs() < 1e-12);
        assert_eq!(report.iteration_time("nope"), None);
    }

    #[test]
    fn amdahl_matches_paper_range() {
        // Paper: 35–75% embedding share at 2.5x embedding speedup → 1.27–1.82x.
        let low = amdahl_end_to_end_speedup(0.35, 2.5);
        let high = amdahl_end_to_end_speedup(0.75, 2.5);
        assert!((low - 1.27).abs() < 0.01, "got {low}");
        assert!((high - 1.82).abs() < 0.01, "got {high}");
        // Degenerate cases.
        assert_eq!(amdahl_end_to_end_speedup(0.0, 10.0), 1.0);
        assert!((amdahl_end_to_end_speedup(1.0, 10.0) - 10.0).abs() < 1e-12);
        // Measured iteration times give the same number: with baseline and
        // RecShard embedding times e_b, e_r and dense time d, the wall-clock
        // speedup (e_b + d) / (e_r + d) is Amdahl's at share e_b / (e_b + d)
        // and embedding speedup e_b / e_r.
        for (e_b, e_r, d) in [
            (3.0, 1.2, 2.0),
            (0.5, 0.5, 9.5),
            (7.5, 3.0, 2.5),
            (40.0, 1.0, 0.1),
        ] {
            let measured = (e_b + d) / (e_r + d);
            let amdahl = amdahl_end_to_end_speedup(e_b / (e_b + d), e_b / e_r);
            assert!((measured - amdahl).abs() < 1e-12, "{measured} vs {amdahl}");
        }
    }

    #[test]
    fn plan_comparison_wraps_disparity() {
        use recshard_data::ModelSpec;
        use recshard_sharding::TablePlacement;
        let model = ModelSpec::small(2, 3);
        let mk = |rows: &[u64]| {
            let placements = model
                .features()
                .iter()
                .zip(rows)
                .map(|(f, &h)| TablePlacement {
                    table: f.id,
                    gpu: 0,
                    hbm_rows: h.min(f.hash_size),
                    total_rows: f.hash_size,
                    row_bytes: f.row_bytes(),
                })
                .collect();
            ShardingPlan::new("x", 1, placements)
        };
        let a = mk(&[u64::MAX, u64::MAX]);
        let b = mk(&[0, 0]);
        let cmp = PlanComparison::between(&a, &b);
        assert!((cmp.uvm_to_hbm - 1.0).abs() < 1e-12);
        assert_eq!(cmp.hbm_to_uvm, 0.0);
    }

    #[test]
    #[should_panic(expected = "a speedup report needs at least one strategy")]
    fn empty_report_rejected() {
        let _ = SpeedupReport::new(vec![]);
    }
}
