//! The per-table cost model shared by the MILP formulation and the
//! structured solver (constraints 11 and 12 of the paper).
//!
//! A [`TableCostModel`] is a table's menu of split options, one per ICDF
//! step. The MILP formulation builds every table's menu. The structured
//! solver builds a menu only when a solve needs a step below the table's
//! top one, and until then prices the top step with
//! [`TableCostModel::top_option`], which equals the menu's last option bit
//! for bit.
//!
//! A split's cost is a table's `TableRate` (bytes per iteration and
//! coverage, the same under every device class) priced at one class's
//! `Bandwidths` and the fraction of accesses the split serves from HBM.

use crate::config::RecShardConfig;
use recshard_sharding::DeviceClass;
use recshard_stats::FeatureProfile;

/// One candidate split of a table: keep the `hbm_rows` hottest rows in HBM.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SplitOption {
    /// ICDF step index this option corresponds to (0..=steps).
    pub step: usize,
    /// Number of the table's hottest rows kept in HBM.
    pub hbm_rows: u64,
    /// HBM bytes consumed by the option.
    pub hbm_bytes: u64,
    /// UVM bytes consumed by the option (the remainder of the table).
    pub uvm_bytes: u64,
    /// Fraction of the table's accesses expected to be served from HBM.
    pub hbm_access_fraction: f64,
    /// The per-iteration cost of the table under this option, already
    /// weighted by coverage (the `coverage_j * c_j` term of constraint 12).
    pub weighted_cost: f64,
}

/// The full menu of split options for one table.
#[derive(Debug, Clone, PartialEq)]
pub struct TableCostModel {
    /// Dense table index.
    pub table: usize,
    /// Total rows of the table.
    pub total_rows: u64,
    /// Bytes per row.
    pub row_bytes: u64,
    /// Candidate splits, indexed by ICDF step (monotonically non-decreasing
    /// HBM rows and non-increasing cost).
    pub options: Vec<SplitOption>,
}

impl TableCostModel {
    /// Builds the cost menu for one table from its profile.
    ///
    /// The cost of a split follows constraint 11 of the paper: the table's
    /// expected per-iteration bytes (`avg_pool * dim * bytes * B`) split
    /// between HBM and UVM according to the fraction of accesses the chosen
    /// hot-row set covers, each scaled by the corresponding bandwidth. The
    /// result is multiplied by coverage (constraint 12). The ablation switches
    /// in [`RecShardConfig`] replace pooling and/or coverage with 1.
    ///
    /// Costs are built against one [`DeviceClass`]'s bandwidths: on a
    /// heterogeneous cluster the same split has a different cost per class,
    /// so solvers build (or evaluate) one menu per class. The menu's
    /// *geometry* — row counts and bytes per step — depends only on the
    /// profile and is identical across classes.
    ///
    /// The ICDF's `icdf_steps + 1` points come from one forward pass over
    /// the table's CDF ([`AccessCdf::icdf`](recshard_stats::AccessCdf::icdf)).
    pub fn build(
        table: usize,
        profile: &FeatureProfile,
        device: &DeviceClass,
        batch_size: u32,
        config: &RecShardConfig,
    ) -> Self {
        let (rate, bandwidths) = (
            TableRate::new(profile, batch_size, config),
            Bandwidths::of(device),
        );
        let icdf = profile.icdf(config.icdf_steps);
        let options = (0..=config.icdf_steps)
            .map(|step| rate.option(&bandwidths, profile, step, icdf.rows_at_step(step)))
            .collect();
        Self {
            table,
            total_rows: profile.hash_size,
            row_bytes: profile.row_bytes(),
            options,
        }
    }

    /// The last (most HBM-hungry, cheapest) option of the menu
    /// [`build`](Self::build) makes, equal to it bit for bit, computed
    /// directly: every profiled row in HBM. It reads the CDF's stored
    /// [full-coverage row count](recshard_stats::AccessCdf::full_coverage_rows)
    /// and no cumulative count, so a solver can price a table at its top
    /// step in `O(1)` without building the menu.
    pub fn top_option(
        profile: &FeatureProfile,
        device: &DeviceClass,
        batch_size: u32,
        config: &RecShardConfig,
    ) -> SplitOption {
        TableRate::new(profile, batch_size, config).top_option(
            &Bandwidths::of(device),
            profile,
            config.icdf_steps,
        )
    }

    /// The coverage-weighted per-iteration cost (milliseconds) of keeping the
    /// `hbm_rows` hottest rows of `profile`'s table in HBM — the single-point
    /// version of [`build`](Self::build), `O(1)` thanks to the indexed CDF.
    /// The scalable solver uses this to score every *member* of a bucket
    /// exactly while only the step menus are shared, and the per-GPU cost
    /// evaluators use it with the *owning GPU's* device class so a
    /// heterogeneous cluster charges every table the bandwidths of the GPU
    /// it actually lives on.
    pub fn weighted_cost_at(
        profile: &FeatureProfile,
        device: &DeviceClass,
        batch_size: u32,
        config: &RecShardConfig,
        hbm_rows: u64,
    ) -> f64 {
        TableRate::new(profile, batch_size, config).cost_ms(
            &Bandwidths::of(device),
            profile.cdf.access_fraction(hbm_rows.min(profile.hash_size)),
        )
    }
}

/// One device class's bandwidths in bytes per second: everything in a
/// split's cost that depends on the class.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Bandwidths {
    hbm: f64,
    uvm: f64,
}

impl Bandwidths {
    pub(crate) fn of(device: &DeviceClass) -> Self {
        Self {
            hbm: device.hbm_bandwidth_gbps * 1e9,
            uvm: device.uvm_bandwidth_gbps * 1e9,
        }
    }

    /// Whether `self` and `other` are the same bits, so that every split
    /// costs the same bits under both.
    pub(crate) fn prices_like(&self, other: &Self) -> bool {
        self.hbm.to_bits() == other.hbm.to_bits() && self.uvm.to_bits() == other.uvm.to_bits()
    }
}

/// One table's pricing under any device class: everything in a split's
/// cost except the class's bandwidths and the fraction of accesses the
/// split serves from HBM.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TableRate {
    /// Expected bytes the table moves per iteration (before tier split).
    per_iter_bytes: f64,
    coverage: f64,
}

impl TableRate {
    pub(crate) fn new(profile: &FeatureProfile, batch_size: u32, config: &RecShardConfig) -> Self {
        let pooling = if config.use_pooling {
            profile.avg_pooling.max(0.0)
        } else {
            1.0
        };
        Self {
            per_iter_bytes: pooling * profile.row_bytes() as f64 * batch_size as f64,
            coverage: if config.use_coverage {
                profile.coverage
            } else {
                1.0
            },
        }
    }

    /// Coverage-weighted cost in milliseconds under `bandwidths` when a
    /// fraction `pct` of the table's accesses is served from HBM.
    pub(crate) fn cost_ms(&self, bandwidths: &Bandwidths, pct: f64) -> f64 {
        let cost_seconds =
            self.per_iter_bytes * (pct / bandwidths.hbm + (1.0 - pct) / bandwidths.uvm);
        self.coverage * cost_seconds * 1e3
    }

    /// The split at ICDF step `step` keeping `rows` hot rows (clamped to
    /// the table) in HBM.
    fn option(
        &self,
        bandwidths: &Bandwidths,
        profile: &FeatureProfile,
        step: usize,
        rows: u64,
    ) -> SplitOption {
        let hbm_rows = rows.min(profile.hash_size);
        let row_bytes = profile.row_bytes();
        // Use the *actual* CDF value at the chosen row count rather than
        // the nominal step fraction: identical row counts then yield
        // identical costs, keeping the option list monotone.
        let pct = profile.cdf.access_fraction(hbm_rows);
        SplitOption {
            step,
            hbm_rows,
            hbm_bytes: hbm_rows * row_bytes,
            uvm_bytes: (profile.hash_size - hbm_rows) * row_bytes,
            hbm_access_fraction: pct,
            weighted_cost: self.cost_ms(bandwidths, pct),
        }
    }

    /// [`TableCostModel::top_option`] of `profile`, whose rate this is.
    pub(crate) fn top_option(
        &self,
        bandwidths: &Bandwidths,
        profile: &FeatureProfile,
        icdf_steps: usize,
    ) -> SplitOption {
        self.option(
            bandwidths,
            profile,
            icdf_steps,
            profile.cdf.full_coverage_rows(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recshard_data::ModelSpec;
    use recshard_stats::DatasetProfiler;

    fn build_one() -> TableCostModel {
        let model = ModelSpec::small(3, 6);
        let profile = DatasetProfiler::profile_model(&model, 3_000, 2);
        let device = DeviceClass::new("gpu", 1 << 30, 1 << 34, 1555.0, 16.0);
        TableCostModel::build(
            0,
            &profile.profiles()[0],
            &device,
            256,
            &RecShardConfig::default(),
        )
    }

    #[test]
    fn options_are_monotone() {
        let m = build_one();
        for w in m.options.windows(2) {
            assert!(w[1].hbm_rows >= w[0].hbm_rows);
            assert!(w[1].hbm_bytes >= w[0].hbm_bytes);
            assert!(w[1].weighted_cost <= w[0].weighted_cost + 1e-12);
            assert!(w[1].hbm_access_fraction >= w[0].hbm_access_fraction - 1e-12);
        }
    }

    #[test]
    fn step_zero_uses_no_hbm() {
        let m = build_one();
        assert_eq!(m.options[0].hbm_rows, 0);
        assert_eq!(m.options[0].hbm_bytes, 0);
        assert_eq!(m.options[0].hbm_access_fraction, 0.0);
    }

    #[test]
    fn hbm_plus_uvm_bytes_cover_the_table() {
        let m = build_one();
        for o in &m.options {
            assert_eq!(o.hbm_bytes + o.uvm_bytes, m.total_rows * m.row_bytes);
        }
    }

    #[test]
    fn ablation_switches_change_costs() {
        let model = ModelSpec::small(3, 6);
        let profile = DatasetProfiler::profile_model(&model, 3_000, 2);
        let device = DeviceClass::new("gpu", 1 << 30, 1 << 34, 1555.0, 16.0);
        let p = &profile.profiles()[0];
        let full = TableCostModel::build(0, p, &device, 256, &RecShardConfig::default());
        let no_pool = RecShardConfig {
            use_pooling: false,
            ..RecShardConfig::default()
        };
        let ablated = TableCostModel::build(0, p, &device, 256, &no_pool);
        if p.avg_pooling > 1.5 {
            assert!(ablated.options[0].weighted_cost < full.options[0].weighted_cost);
        }
    }
}
