//! RecShard configuration.

/// Which placement solver to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SolverKind {
    /// The structured solver, unbucketed: split selection by marginal-cost
    /// sweep over every table, then min-max assignment with local search and
    /// HBM backfill. The default.
    Structured,
    /// The exact MILP formulation of Section 4.2, solved with the
    /// branch-and-bound solver in `recshard-milp`. Only practical for small
    /// instances (a handful of tables and GPUs); used as ground truth in
    /// tests and available for experimentation.
    ExactMilp,
    /// The same structured solver with bucketing of near-identical tables
    /// before split selection: plans within 1% of `Structured`'s cost at a
    /// fraction of the split-selection work on models with thousands of
    /// tables. The only kind [`RecShard::plan_seeded`](crate::RecShard::plan_seeded)
    /// *warm-starts* from a previous plan — the online re-sharding
    /// controller seeds each re-solve with the outgoing assignment so drift
    /// events migrate as few bytes as possible.
    Scalable,
}

/// Configuration of the RecShard partitioning and placement stage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecShardConfig {
    /// Number of uniform steps used for the piece-wise linear ICDF
    /// approximation (the paper uses 100).
    pub icdf_steps: usize,
    /// Whether the per-table average pooling factor participates in the cost
    /// model (disabled in the "CDF only" and "CDF + Coverage" ablations).
    pub use_pooling: bool,
    /// Whether the per-table coverage participates in the cost model
    /// (disabled in the "CDF only" and "CDF + Pooling" ablations).
    pub use_coverage: bool,
    /// Fraction of aggregate HBM deliberately left free during split
    /// selection so the per-GPU assignment has packing slack.
    pub hbm_slack: f64,
    /// Which solver implementation to use.
    pub solver: SolverKind,
}

impl Default for RecShardConfig {
    fn default() -> Self {
        Self {
            icdf_steps: 100,
            use_pooling: true,
            use_coverage: true,
            hbm_slack: 0.02,
            solver: SolverKind::Structured,
        }
    }
}

impl RecShardConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if self.icdf_steps == 0 {
            return Err("icdf_steps must be at least 1".into());
        }
        if !(0.0..1.0).contains(&self.hbm_slack) {
            return Err("hbm_slack must be in [0, 1)".into());
        }
        Ok(())
    }

    /// Returns a copy using the exact MILP solver.
    pub fn with_exact_milp(mut self) -> Self {
        self.solver = SolverKind::ExactMilp;
        self
    }

    /// Returns a copy with a different ICDF step count.
    pub fn with_icdf_steps(mut self, steps: usize) -> Self {
        self.icdf_steps = steps;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper() {
        let c = RecShardConfig::default();
        assert_eq!(c.icdf_steps, 100);
        assert!(c.use_pooling && c.use_coverage);
        assert_eq!(c.solver, SolverKind::Structured);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn validation_rejects_bad_values() {
        let c = RecShardConfig {
            icdf_steps: 0,
            ..RecShardConfig::default()
        };
        assert!(c.validate().is_err());
        let c = RecShardConfig {
            hbm_slack: 1.5,
            ..RecShardConfig::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn builder_style_overrides() {
        let c = RecShardConfig::default()
            .with_exact_milp()
            .with_icdf_steps(10);
        assert_eq!(c.solver, SolverKind::ExactMilp);
        assert_eq!(c.icdf_steps, 10);
    }
}
