//! DLRM requirement growth trends and the training-hardware catalog.
//!
//! Figure 1 of the paper motivates RecShard by showing that between 2017 and
//! 2021 DLRM memory capacity requirements grew by ~16x and per-sample
//! bandwidth demand by ~30x, while GPU HBM capacity improved by less than 6x
//! and interconnect bandwidth by ~2x. This module encodes those trends and a
//! small catalog of the accelerator generations the figure references so the
//! figure can be regenerated.

/// A GPU generation relevant to DLRM training (Figure 1's annotations).
#[derive(Debug, Clone, PartialEq)]
pub struct GpuGeneration {
    /// Marketing name, e.g. "A100 (40GB)".
    pub name: String,
    /// Year of introduction.
    pub year: u32,
    /// HBM capacity in GiB.
    pub hbm_capacity_gib: f64,
    /// HBM bandwidth in GB/s.
    pub hbm_bandwidth_gbps: f64,
    /// Interconnect (NVLink) bandwidth in GB/s available to the device.
    pub interconnect_bandwidth_gbps: f64,
}

/// Catalog of training accelerators across the 2017–2021 window.
#[derive(Debug, Clone, PartialEq)]
pub struct HardwareCatalog {
    generations: Vec<GpuGeneration>,
}

impl Default for HardwareCatalog {
    fn default() -> Self {
        Self::paper_window()
    }
}

impl HardwareCatalog {
    /// The accelerators annotated in Figure 1 (public datasheet numbers).
    pub fn paper_window() -> Self {
        let generations = vec![
            GpuGeneration {
                name: "P100".into(),
                year: 2017,
                hbm_capacity_gib: 16.0,
                hbm_bandwidth_gbps: 732.0,
                interconnect_bandwidth_gbps: 160.0,
            },
            GpuGeneration {
                name: "V100".into(),
                year: 2018,
                hbm_capacity_gib: 32.0,
                hbm_bandwidth_gbps: 900.0,
                interconnect_bandwidth_gbps: 300.0,
            },
            GpuGeneration {
                name: "A100 (40GB)".into(),
                year: 2020,
                hbm_capacity_gib: 40.0,
                hbm_bandwidth_gbps: 1555.0,
                interconnect_bandwidth_gbps: 600.0,
            },
            GpuGeneration {
                name: "A100 (80GB)".into(),
                year: 2021,
                hbm_capacity_gib: 80.0,
                hbm_bandwidth_gbps: 2039.0,
                interconnect_bandwidth_gbps: 600.0,
            },
        ];
        Self { generations }
    }

    /// All catalogued generations, ordered by year.
    pub fn generations(&self) -> &[GpuGeneration] {
        &self.generations
    }

    /// First and last catalogued generations. Every constructor installs the
    /// hardcoded non-empty series, so both endpoints always exist.
    fn endpoints(&self) -> (&GpuGeneration, &GpuGeneration) {
        // recshard-lint: allow(unwrap) -- the catalog is only built from the
        // hardcoded non-empty series above.
        let first = self.generations.first().expect("catalog not empty");
        // recshard-lint: allow(unwrap) -- same invariant.
        let last = self.generations.last().expect("catalog not empty");
        (first, last)
    }

    /// Growth multiple of HBM capacity between the first and last generation.
    pub fn hbm_capacity_growth(&self) -> f64 {
        let (first, last) = self.endpoints();
        last.hbm_capacity_gib / first.hbm_capacity_gib
    }

    /// Growth multiple of interconnect bandwidth between the first and last
    /// generation.
    pub fn interconnect_growth(&self) -> f64 {
        let (first, last) = self.endpoints();
        last.interconnect_bandwidth_gbps / first.interconnect_bandwidth_gbps
    }

    /// Growth multiple of HBM bandwidth between the first and last generation.
    pub fn hbm_bandwidth_growth(&self) -> f64 {
        let (first, last) = self.endpoints();
        last.hbm_bandwidth_gbps / first.hbm_bandwidth_gbps
    }
}

/// One year of the DLRM requirement growth trend (Figure 1a/1b series).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GrowthPoint {
    /// Calendar year.
    pub year: u32,
    /// DLRM total model capacity, normalised to the 2017 model (=1.0).
    pub model_capacity_growth: f64,
    /// DLRM total embedding rows, normalised to 2017.
    pub emb_rows_growth: f64,
    /// Per-sample bandwidth demand (EMB rows accessed per sample),
    /// normalised to 2017.
    pub bandwidth_demand_growth: f64,
}

/// The DLRM requirement growth trend the paper reports for 2017–2021:
/// capacity ×16, rows ×12, bandwidth ×28.35 — both growing super-linearly.
#[derive(Debug, Clone, PartialEq)]
pub struct GrowthTrend {
    points: Vec<GrowthPoint>,
}

impl Default for GrowthTrend {
    fn default() -> Self {
        Self::paper_window()
    }
}

impl GrowthTrend {
    /// The 2017–2021 growth series Figure 1 plots (super-linear growth ending
    /// at the multiples the paper quotes: 16x capacity, ~28x bandwidth).
    pub fn paper_window() -> Self {
        // Super-linear (roughly geometric) interpolation hitting the reported
        // end-points: capacity 16x over 4 steps (2.0x/yr), bandwidth 28.35x
        // (~2.3x/yr), rows ~12x (1.86x/yr).
        let years = [2017u32, 2018, 2019, 2020, 2021];
        let cap_rate = 16f64.powf(0.25);
        let row_rate = 12f64.powf(0.25);
        let bw_rate = 28.35f64.powf(0.25);
        let points = years
            .iter()
            .enumerate()
            .map(|(i, &year)| GrowthPoint {
                year,
                model_capacity_growth: cap_rate.powi(i as i32),
                emb_rows_growth: row_rate.powi(i as i32),
                bandwidth_demand_growth: bw_rate.powi(i as i32),
            })
            .collect();
        Self { points }
    }

    /// The yearly series.
    pub fn points(&self) -> &[GrowthPoint] {
        &self.points
    }

    /// First and last points of the series. The trend is only built from the
    /// hardcoded five-year window, so both endpoints always exist.
    fn endpoints(&self) -> (&GrowthPoint, &GrowthPoint) {
        // recshard-lint: allow(unwrap) -- the series is only built from the
        // hardcoded non-empty paper window above.
        let first = self.points.first().expect("non-empty");
        // recshard-lint: allow(unwrap) -- same invariant.
        let last = self.points.last().expect("non-empty");
        (first, last)
    }

    /// Final-over-first growth multiple of model capacity.
    pub fn capacity_growth(&self) -> f64 {
        let (first, last) = self.endpoints();
        last.model_capacity_growth / first.model_capacity_growth
    }

    /// Final-over-first growth multiple of bandwidth demand.
    pub fn bandwidth_growth(&self) -> f64 {
        let (first, last) = self.endpoints();
        last.bandwidth_demand_growth / first.bandwidth_demand_growth
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_matches_paper_claims() {
        let c = HardwareCatalog::paper_window();
        // "memory capacity on GPU accelerators has improved by less than 6x"
        assert!(c.hbm_capacity_growth() < 6.0);
        assert!(c.hbm_capacity_growth() > 4.0);
        // HBM bandwidth grew by ~2.8x, interconnect well under 4x.
        assert!(c.hbm_bandwidth_growth() < 3.0);
        assert!(c.interconnect_growth() < 4.0);
        assert_eq!(c.generations().len(), 4);
    }

    #[test]
    fn growth_trend_matches_paper_multiples() {
        let t = GrowthTrend::paper_window();
        assert!((t.capacity_growth() - 16.0).abs() < 0.5);
        assert!((t.bandwidth_growth() - 28.35).abs() < 0.5);
        assert_eq!(t.points().len(), 5);
    }

    #[test]
    fn growth_is_monotone_and_super_linear() {
        let t = GrowthTrend::paper_window();
        let pts = t.points();
        for w in pts.windows(2) {
            assert!(w[1].model_capacity_growth > w[0].model_capacity_growth);
            assert!(w[1].bandwidth_demand_growth > w[0].bandwidth_demand_growth);
        }
        // Super-linear: later yearly increments are larger than earlier ones.
        let first_step = pts[1].model_capacity_growth - pts[0].model_capacity_growth;
        let last_step = pts[4].model_capacity_growth - pts[3].model_capacity_growth;
        assert!(last_step > first_step);
    }

    #[test]
    fn demand_outpaces_hardware() {
        // The core motivation of Figure 1: demand growth exceeds hardware growth.
        let t = GrowthTrend::paper_window();
        let c = HardwareCatalog::paper_window();
        assert!(t.capacity_growth() > c.hbm_capacity_growth());
        assert!(t.bandwidth_growth() > c.hbm_bandwidth_growth());
        assert!(t.bandwidth_growth() > c.interconnect_growth());
    }
}
