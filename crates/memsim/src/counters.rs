//! Per-GPU access counters.

/// Counts of embedding-row accesses served by each memory tier, plus the
/// bytes they moved.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AccessCounters {
    /// Embedding rows read from HBM.
    pub hbm_accesses: u64,
    /// Embedding rows read from UVM (host DRAM over the interconnect).
    pub uvm_accesses: u64,
    /// Bytes read from HBM.
    pub hbm_bytes: u64,
    /// Bytes read from UVM.
    pub uvm_bytes: u64,
}

impl AccessCounters {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `rows` row reads of `row_bytes` bytes each from HBM.
    #[inline]
    pub fn record_hbm(&mut self, rows: u64, row_bytes: u64) {
        self.hbm_accesses += rows;
        self.hbm_bytes += rows * row_bytes;
    }

    /// Records `rows` row reads of `row_bytes` bytes each from UVM.
    #[inline]
    pub fn record_uvm(&mut self, rows: u64, row_bytes: u64) {
        self.uvm_accesses += rows;
        self.uvm_bytes += rows * row_bytes;
    }

    /// Total row accesses across both tiers.
    pub fn total_accesses(&self) -> u64 {
        self.hbm_accesses + self.uvm_accesses
    }

    /// Fraction of accesses served from UVM (0 when there were none).
    pub fn uvm_access_fraction(&self) -> f64 {
        let total = self.total_accesses();
        if total == 0 {
            0.0
        } else {
            self.uvm_accesses as f64 / total as f64
        }
    }

    /// Adds another counter's contents into this one.
    pub fn merge(&mut self, other: &AccessCounters) {
        self.hbm_accesses += other.hbm_accesses;
        self.uvm_accesses += other.uvm_accesses;
        self.hbm_bytes += other.hbm_bytes;
        self.uvm_bytes += other.uvm_bytes;
    }

    /// Returns a copy with every count multiplied by `factor` (used to scale
    /// a sub-sampled batch up to the full batch size).
    pub fn scaled(&self, factor: f64) -> AccessCounters {
        AccessCounters {
            hbm_accesses: (self.hbm_accesses as f64 * factor).round() as u64,
            uvm_accesses: (self.uvm_accesses as f64 * factor).round() as u64,
            hbm_bytes: (self.hbm_bytes as f64 * factor).round() as u64,
            uvm_bytes: (self.uvm_bytes as f64 * factor).round() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_totals() {
        let mut c = AccessCounters::new();
        c.record_hbm(10, 256);
        c.record_uvm(5, 256);
        assert_eq!(c.total_accesses(), 15);
        assert_eq!(c.hbm_bytes, 2560);
        assert_eq!(c.uvm_bytes, 1280);
        assert!((c.uvm_access_fraction() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn merge_adds() {
        let mut a = AccessCounters::new();
        a.record_hbm(1, 64);
        let mut b = AccessCounters::new();
        b.record_uvm(2, 64);
        a.merge(&b);
        assert_eq!(a.hbm_accesses, 1);
        assert_eq!(a.uvm_accesses, 2);
        assert_eq!(a.uvm_bytes, 128);
    }

    #[test]
    fn scaling_multiplies_counts() {
        let mut c = AccessCounters::new();
        c.record_hbm(10, 100);
        c.record_uvm(4, 100);
        let s = c.scaled(2.5);
        assert_eq!(s.hbm_accesses, 25);
        assert_eq!(s.uvm_accesses, 10);
        assert_eq!(s.hbm_bytes, 2500);
    }

    #[test]
    fn empty_counters_fraction_is_zero() {
        assert_eq!(AccessCounters::new().uvm_access_fraction(), 0.0);
    }
}
