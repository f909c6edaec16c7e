//! Remapping tables (Section 4.3 of the paper).
//!
//! A placement that keeps only a table's *hottest* rows in HBM selects rows
//! scattered throughout the table, but embedding tables are stored
//! contiguously and indexed by hashed id. The remapping layer translates each
//! original row index into `(tier, slot)` — a compact index into either the
//! HBM partition or the UVM partition of the table. The paper stores this as
//! 4 bytes per row, using the sign to encode the tier; [`RemapTable`] uses the
//! same trick.

use crate::plan::{MemoryTier, TablePlacement};

/// The remapped location of one embedding row.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RemappedRow {
    /// Which tier the row lives in.
    pub tier: MemoryTier,
    /// Index within that tier's partition of the table.
    pub slot: u64,
}

/// Per-table remapping from original row index to `(tier, slot)`.
///
/// Encoded exactly as the paper describes: one 32-bit signed entry per row
/// whose sign selects the partition (non-negative = HBM, negative = UVM) and
/// whose magnitude is the slot within that partition.
#[derive(Debug, Clone, PartialEq)]
pub struct RemapTable {
    entries: Vec<i32>,
    hbm_rows: u64,
}

impl RemapTable {
    /// Builds the remapping table for one placement.
    ///
    /// `ranked_rows` lists row indices hottest-first (from the profile); the
    /// first `placement.hbm_rows` of them are mapped to HBM slots `0..`. If
    /// the HBM budget exceeds the number of ranked (observed) rows, the
    /// remaining budget is filled with unobserved rows in ascending index
    /// order — so a whole-table HBM placement keeps every row in HBM even if
    /// profiling never touched some of them. All remaining rows are mapped to
    /// UVM slots in ascending row order.
    ///
    /// # Panics
    ///
    /// Panics if the placement's total rows exceed `i32::MAX` (the paper's
    /// 4-byte encoding has the same limit) or if a ranked row is out of range.
    pub fn build(placement: &TablePlacement, ranked_rows: &[u64]) -> Self {
        let total = placement.total_rows;
        assert!(
            total <= i32::MAX as u64,
            "table too large for 32-bit remap encoding"
        );
        let budget = placement.hbm_rows.min(total);
        let mut entries = vec![i32::MIN; total as usize];

        // Hot rows → HBM slots, in rank order.
        let mut hbm_rows: u64 = 0;
        for &row in ranked_rows.iter().take(budget as usize) {
            assert!(
                row < total,
                "ranked row {row} out of range for table of {total} rows"
            );
            entries[row as usize] = hbm_rows as i32;
            hbm_rows += 1;
        }
        // Remaining HBM budget → coldest (unobserved) rows in ascending order.
        if hbm_rows < budget {
            for row in 0..total as usize {
                if hbm_rows >= budget {
                    break;
                }
                if entries[row] == i32::MIN {
                    entries[row] = hbm_rows as i32;
                    hbm_rows += 1;
                }
            }
        }
        // Everything else → UVM slots, in ascending row order.
        let mut uvm_slot: i64 = 0;
        for e in entries.iter_mut() {
            if *e == i32::MIN {
                // Negative encoding: slot s stored as -(s + 1) so slot 0 is representable.
                *e = -(uvm_slot as i32 + 1);
                uvm_slot += 1;
            }
        }
        Self { entries, hbm_rows }
    }

    /// Number of rows mapped to UVM.
    pub fn uvm_rows(&self) -> u64 {
        self.entries.len() as u64 - self.hbm_rows
    }

    /// Total rows covered by the table.
    pub fn total_rows(&self) -> u64 {
        self.entries.len() as u64
    }

    /// Storage overhead of the remap table itself, in bytes (4 bytes per row,
    /// as in Section 6.6).
    pub fn storage_bytes(&self) -> u64 {
        self.entries.len() as u64 * 4
    }

    /// Looks up the remapped location of a row.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range.
    #[inline]
    pub fn lookup(&self, row: u64) -> RemappedRow {
        let e = self.entries[row as usize];
        if e >= 0 {
            RemappedRow {
                tier: MemoryTier::Hbm,
                slot: e as u64,
            }
        } else {
            RemappedRow {
                tier: MemoryTier::Uvm,
                slot: (-(e as i64) - 1) as u64,
            }
        }
    }

    /// The tier a row is mapped to.
    #[inline]
    pub fn tier_of(&self, row: u64) -> MemoryTier {
        if self.entries[row as usize] >= 0 {
            MemoryTier::Hbm
        } else {
            MemoryTier::Uvm
        }
    }
}

/// The set of a table's rows a placement keeps in HBM, as a bitset: the
/// membership half of a [`RemapTable`] (which adds the slots), at one bit
/// per row instead of four bytes.
///
/// It holds exactly the rows [`RemapTable::build`] maps to HBM: the first
/// `placement.hbm_rows` profiled rows hottest-first, topped up with the
/// lowest-index unprofiled rows when the profile observed fewer rows than
/// the HBM budget. (`RemapTable::build` keeps its own single-pass loop,
/// which is faster than deriving the slots from this set.)
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HbmRowSet {
    words: Vec<u64>,
}

impl HbmRowSet {
    /// Selects the HBM rows of one placement from the profile's
    /// hottest-first ranking.
    ///
    /// # Panics
    ///
    /// Panics if a ranked row inside the HBM budget is out of range.
    pub fn build(placement: &TablePlacement, ranked_rows: &[u64]) -> Self {
        let total = placement.total_rows;
        let budget = placement.hbm_rows.min(total);
        let mut set = Self {
            words: vec![0; total.div_ceil(64) as usize],
        };
        // Counts like `RemapTable::build` does: one per ranked row taken.
        let mut taken = 0;
        for &row in ranked_rows.iter().take(budget as usize) {
            assert!(
                row < total,
                "ranked row {row} out of range for table of {total} rows"
            );
            set.insert(row);
            taken += 1;
        }
        let mut row = 0;
        while taken < budget && row < total {
            if !set.contains(row) {
                set.insert(row);
                taken += 1;
            }
            row += 1;
        }
        set
    }

    fn insert(&mut self, row: u64) {
        self.words[(row >> 6) as usize] |= 1 << (row & 63);
    }

    /// Whether `row` is kept in HBM.
    ///
    /// # Panics
    ///
    /// Panics if `row` lies beyond the table's last 64-row word.
    #[inline]
    pub fn contains(&self, row: u64) -> bool {
        self.words[(row >> 6) as usize] >> (row & 63) & 1 == 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recshard_data::FeatureId;

    fn placement(hbm_rows: u64, total_rows: u64) -> TablePlacement {
        TablePlacement {
            table: FeatureId(0),
            gpu: 0,
            hbm_rows,
            total_rows,
            row_bytes: 64,
        }
    }

    #[test]
    fn hot_rows_go_to_hbm() {
        let ranked = vec![7, 3, 9, 1, 0];
        let remap = RemapTable::build(&placement(3, 10), &ranked);
        assert_eq!(remap.uvm_rows(), 7);
        assert_eq!(
            remap.lookup(7),
            RemappedRow {
                tier: MemoryTier::Hbm,
                slot: 0
            }
        );
        assert_eq!(
            remap.lookup(3),
            RemappedRow {
                tier: MemoryTier::Hbm,
                slot: 1
            }
        );
        assert_eq!(
            remap.lookup(9),
            RemappedRow {
                tier: MemoryTier::Hbm,
                slot: 2
            }
        );
        assert_eq!(remap.tier_of(1), MemoryTier::Uvm);
        assert_eq!(remap.tier_of(0), MemoryTier::Uvm);
    }

    #[test]
    fn slots_are_dense_and_unique_per_tier() {
        let ranked = vec![5, 2, 8, 0, 6];
        let remap = RemapTable::build(&placement(2, 9), &ranked);
        let mut hbm_slots = Vec::new();
        let mut uvm_slots = Vec::new();
        for row in 0..9 {
            let r = remap.lookup(row);
            match r.tier {
                MemoryTier::Hbm => hbm_slots.push(r.slot),
                MemoryTier::Uvm => uvm_slots.push(r.slot),
            }
        }
        hbm_slots.sort_unstable();
        uvm_slots.sort_unstable();
        assert_eq!(hbm_slots, vec![0, 1]);
        assert_eq!(uvm_slots, (0..7).collect::<Vec<u64>>());
    }

    #[test]
    fn fewer_ranked_rows_than_hbm_budget() {
        // Only 2 rows were ever observed, but the plan budgets 5 HBM rows:
        // the observed rows get the first HBM slots and the budget is topped
        // up with the lowest-index unobserved rows.
        let remap = RemapTable::build(&placement(5, 10), &[4, 1]);
        assert_eq!(remap.uvm_rows(), 5);
        assert_eq!(remap.tier_of(4), MemoryTier::Hbm);
        assert_eq!(remap.tier_of(1), MemoryTier::Hbm);
        assert_eq!(remap.tier_of(0), MemoryTier::Hbm);
        assert_eq!(remap.tier_of(9), MemoryTier::Uvm);
    }

    #[test]
    fn storage_matches_paper_four_bytes_per_row() {
        let remap = RemapTable::build(&placement(0, 1000), &[]);
        assert_eq!(remap.storage_bytes(), 4000);
        assert_eq!(remap.total_rows(), 1000);
    }

    #[test]
    fn hbm_row_set_matches_remap_tiers() {
        let ranked = [17, 3, 64, 65, 0, 99, 42];
        for (hbm_rows, total) in [
            (0, 100),
            (3, 100),
            (7, 100),
            (20, 100),
            (200, 130),
            (100, 100),
        ] {
            let p = placement(hbm_rows, total);
            let remap = RemapTable::build(&p, &ranked);
            let set = HbmRowSet::build(&p, &ranked);
            for row in 0..total {
                assert_eq!(
                    set.contains(row),
                    remap.tier_of(row) == MemoryTier::Hbm,
                    "row {row} of ({hbm_rows}, {total})"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn ranked_row_out_of_range_panics() {
        let _ = RemapTable::build(&placement(1, 5), &[9]);
    }
}
