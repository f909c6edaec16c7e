//! Per-row access counting for many tables at once.
//!
//! Profiling records one access per embedding lookup (13.6M of them for a
//! 5,000-table model at 1,200 samples), so [`RowCounters::record`] is kept
//! close to a plain store: it appends the row to its table's unsorted
//! `pending` buffer. Once that buffer is at least as long as the table's
//! distinct-row list (and at least `COMPACT_MIN` rows), it is sorted,
//! run-length encoded and merged into `runs`, the table's distinct rows in
//! ascending order with their counts. Each compaction sorts `p >= r` pending
//! rows and walks `r` runs, so a record costs an amortised share of a
//! cache-friendly sort instead of a pointer-chasing tree insert.
//!
//! Rows and counts are narrowed to `u32` wherever that is exact: a pending
//! row takes 4 bytes, and a run packs `row << 32 | count` into one `u64`, so
//! ascending runs are ascending keys. Every compaction merges into one
//! buffer that all tables share and copies the result back, rather than
//! allocating a fresh vector. A table whose row does not fit 32 bits, or
//! whose lookups pass `u32::MAX` (so that a count might not), moves its
//! counts into a `BTreeMap` and counts there from then on.
//!
//! [`RowCounters::into_ranked`] ranks each table with one sort of packed
//! `(!count << 32) | row` keys, hottest first with ties broken by ascending
//! row id, so the ranking is the same whichever order the rows arrived in.

use crate::cdf::AccessCdf;
use std::collections::BTreeMap;

/// Fewest pending rows that trigger a compaction, so tiny tables do not
/// sort a handful of rows at a time.
const COMPACT_MIN: usize = 256;

/// The low 32 bits of a packed run or ranking key.
const LOW: u64 = 0xFFFF_FFFF;

/// Access counts per embedding row (post-hash) of each of a fixed number of
/// tables.
///
/// Only rows that were actually accessed are stored; the (typically large)
/// remainder of each hash space implicitly has count zero, which is exactly
/// the under-utilisation RecShard exploits (Section 3.4).
#[derive(Debug, Clone)]
pub struct RowCounters {
    tables: Vec<TableRows>,
    /// The merge buffer of every table's compactions.
    scratch: Vec<u64>,
}

/// One table's counts.
#[derive(Debug, Clone, Default)]
struct TableRows {
    /// Distinct rows in ascending order, each packed as `row << 32 | count`.
    runs: Vec<u64>,
    /// Rows recorded since the last compaction: unsorted, one per access.
    pending: Vec<u32>,
    /// Recorded accesses.
    total: u64,
    /// Every count, once a row or the total outgrew 32 bits; `runs` and
    /// `pending` are empty from then on.
    wide: Option<BTreeMap<u64, u64>>,
}

impl RowCounters {
    /// Counters for `tables` tables, all empty.
    pub fn new(tables: usize) -> Self {
        Self {
            tables: vec![TableRows::default(); tables],
            scratch: Vec::new(),
        }
    }

    /// Records one access to `row` of `table`.
    ///
    /// # Panics
    ///
    /// Panics if `table` is out of range.
    #[inline]
    pub fn record(&mut self, table: usize, row: u64) {
        let rows = &mut self.tables[table];
        rows.total += 1;
        match u32::try_from(row) {
            Ok(narrow) if rows.wide.is_none() => {
                rows.pending.push(narrow);
                if rows.pending.len() >= rows.runs.len().max(COMPACT_MIN) {
                    rows.compact(&mut self.scratch);
                }
            }
            _ => *rows.widen().entry(row).or_insert(0) += 1,
        }
    }

    /// Total accesses recorded for `table`.
    ///
    /// # Panics
    ///
    /// Panics if `table` is out of range.
    pub fn total_accesses(&self, table: usize) -> u64 {
        self.tables[table].total
    }

    /// Consumes the counters into each table's rows, ranked hottest first
    /// (ties broken by ascending row id), and the access CDF of their
    /// counts, table by table.
    pub fn into_ranked(self) -> impl Iterator<Item = (Vec<u64>, AccessCdf)> {
        self.into_ranked_on(0)
    }

    /// [`into_ranked`](Self::into_ranked), with the last compaction and the
    /// ranking sort of about half the rows on one scoped thread when
    /// `helpers > 0`. That thread allocates nothing: this thread sizes every
    /// buffer it writes beforehand.
    pub(crate) fn into_ranked_on(
        mut self,
        helpers: usize,
    ) -> impl Iterator<Item = (Vec<u64>, AccessCdf)> {
        let mut need = 0;
        let mut work = 0;
        for rows in &mut self.tables {
            need = need.max(rows.reserve_for_ranking());
            work += rows.runs.len() + rows.pending.len();
        }
        let mut scratch = [std::mem::take(&mut self.scratch), Vec::new()];
        let [mine, theirs] = &mut scratch;
        if helpers == 0 {
            self.tables.iter_mut().for_each(|rows| rows.sort_keys(mine));
        } else {
            // The first tables holding half the rows stay on this thread.
            let mut seen = 0;
            let half = self
                .tables
                .iter()
                .take_while(|rows| {
                    seen += rows.runs.len() + rows.pending.len();
                    2 * seen <= work
                })
                .count();
            let (first, rest) = self.tables.split_at_mut(half);
            for buffer in [&mut *mine, &mut *theirs] {
                buffer.resize(need.max(buffer.len()), 0);
            }
            std::thread::scope(|scope| {
                // recshard-lint: allow(thread-fanin) -- each thread sorts its
                // own tables in place; nothing is merged.
                scope.spawn(|| rest.iter_mut().for_each(|rows| rows.sort_keys(theirs)));
                first.iter_mut().for_each(|rows| rows.sort_keys(mine));
            });
        }
        self.tables.into_iter().map(TableRows::into_ranked)
    }
}

impl TableRows {
    /// Sorts the pending rows and merges them into the runs, through
    /// `scratch`; or moves every count into the wide map once the total no
    /// longer guarantees that counts fit 32 bits.
    fn compact(&mut self, scratch: &mut Vec<u64>) {
        if self.pending.is_empty() {
            return;
        }
        if self.total > LOW {
            self.widen();
            return;
        }
        self.merge_pending(scratch);
        // Size the buffer for the next compaction once, rather than letting
        // doubling overshoot it.
        self.pending.reserve_exact(self.runs.len().max(COMPACT_MIN));
    }

    /// Sorts the pending rows and merges them into the runs through
    /// `scratch`, leaving the pending buffer empty. Allocates nothing when
    /// `scratch` and the runs have room for the merge.
    fn merge_pending(&mut self, scratch: &mut Vec<u64>) {
        self.pending.sort_unstable();
        let len = merge_runs(&self.runs, &self.pending, scratch);
        self.runs.clear();
        self.runs.extend_from_slice(&scratch[..len]);
        self.pending.clear();
    }

    /// The wide map, after moving the runs and pending rows into it if this
    /// is the first call.
    fn widen(&mut self) -> &mut BTreeMap<u64, u64> {
        if self.wide.is_none() {
            let mut wide: BTreeMap<u64, u64> = self
                .runs
                .iter()
                .map(|&run| (run >> 32, run & LOW))
                .collect();
            for &row in &self.pending {
                *wide.entry(u64::from(row)).or_insert(0) += 1;
            }
            self.runs = Vec::new();
            self.pending = Vec::new();
            self.wide = Some(wide);
        }
        self.wide.get_or_insert_with(BTreeMap::new)
    }

    /// Readies the table for [`sort_keys`](Self::sort_keys): moves it to
    /// the wide map if its counts may not fit 32 bits, and makes room in the
    /// runs for every pending row. Returns the merge buffer length its last
    /// compaction needs.
    fn reserve_for_ranking(&mut self) -> usize {
        if self.total > LOW {
            self.widen();
        }
        if self.wide.is_some() {
            return 0;
        }
        self.runs.reserve_exact(self.pending.len());
        self.runs.len() + 2 * self.pending.len()
    }

    /// Merges the pending rows in and turns the runs into ranking keys
    /// sorted ascending: `!count << 32 | row`, that is descending count,
    /// then ascending row. Allocates nothing after
    /// [`reserve_for_ranking`](Self::reserve_for_ranking), given a
    /// `scratch` of the length it returned.
    fn sort_keys(&mut self, scratch: &mut Vec<u64>) {
        if self.wide.is_some() {
            return;
        }
        if !self.pending.is_empty() {
            self.merge_pending(scratch);
        }
        for key in &mut self.runs {
            *key = (!*key & LOW) << 32 | *key >> 32;
        }
        self.runs.sort_unstable();
    }

    /// The ranked rows and their CDF, from the keys
    /// [`sort_keys`](Self::sort_keys) sorted: one pass strips each key to
    /// its row id in place and hands its count to the CDF's runs, so no
    /// per-row count is stored.
    fn into_ranked(self) -> (Vec<u64>, AccessCdf) {
        if let Some(wide) = self.wide {
            let mut runs: Vec<(u64, u64)> = wide.into_iter().collect();
            runs.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
            let cdf = AccessCdf::from_ranked_counts(runs.iter().map(|&(_, count)| count));
            return (runs.into_iter().map(|(row, _)| row).collect(), cdf);
        }
        let mut keys = self.runs;
        let cdf = AccessCdf::from_ranked_counts(keys.iter_mut().map(|key| {
            let count = !(*key >> 32) & LOW;
            *key &= LOW;
            count
        }));
        keys.shrink_to_fit();
        (keys, cdf)
    }
}

/// Merges the ascending packed `runs` with the sorted `pending` rows,
/// adding each pending row's multiplicity to its run or starting a run for
/// it, into the front of `scratch`; returns the merged length. The loops
/// carry no data-dependent branch.
fn merge_runs(runs: &[u64], pending: &[u32], scratch: &mut Vec<u64>) -> usize {
    let (r, p) = (runs.len(), pending.len());
    // The merged runs, at most `r + p`, then the pending rows' runs. Every
    // slot read below was written first, so only growth needs filling.
    if scratch.len() < r + 2 * p {
        scratch.resize(r + 2 * p, 0);
    }
    let (merged, encoded) = scratch.split_at_mut(r + p);
    let encoded_len = run_length_encode(pending, encoded);
    let encoded = &encoded[..encoded_len];
    let (mut i, mut j, mut len) = (0, 0, 0);
    while i < r && j < encoded.len() {
        let (a, b) = (runs[i], encoded[j]);
        let (row_a, row_b) = (a >> 32, b >> 32);
        // The lower row's run, or both runs' counts added on one row.
        merged[len] = if row_a == row_b {
            a + (b & LOW)
        } else {
            a.min(b)
        };
        i += usize::from(row_a <= row_b);
        j += usize::from(row_b <= row_a);
        len += 1;
    }
    for tail in [&runs[i..], &encoded[j..]] {
        merged[len..len + tail.len()].copy_from_slice(tail);
        len += tail.len();
    }
    len
}

/// Writes the packed runs of the sorted `rows` to the front of `out` (at
/// least `rows.len()` long) and returns how many there are.
fn run_length_encode(rows: &[u32], out: &mut [u64]) -> usize {
    let Some(&first) = rows.first() else {
        return 0;
    };
    // The open run, counted from 0: the first row adds its first access.
    let mut run = u64::from(first) << 32;
    let mut len = 0;
    for &row in rows {
        let key = u64::from(row) << 32;
        let same = key == run & !LOW;
        // Written at every row, but only kept once a new row closes it.
        out[len] = run;
        len += usize::from(!same);
        run = if same { run + 1 } else { key | 1 };
    }
    out[len] = run;
    len + 1
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Each rank's count, read back from the CDF's cumulative counts.
    fn counts(cdf: &AccessCdf) -> Vec<u64> {
        let mut before = 0;
        cdf.cumulative()
            .map(|covered| covered - std::mem::replace(&mut before, covered))
            .collect()
    }

    fn ranked(counters: RowCounters) -> Vec<(Vec<u64>, Vec<u64>)> {
        let tables = counters.into_ranked();
        tables.map(|(rows, cdf)| (rows, counts(&cdf))).collect()
    }

    #[test]
    fn record_and_count() {
        let mut c = RowCounters::new(1);
        for row in [3, 3, 7] {
            c.record(0, row);
        }
        assert_eq!(c.total_accesses(0), 3);
        assert_eq!(ranked(c), vec![(vec![3, 7], vec![2, 1])]);
    }

    #[test]
    fn ranked_rows_descending_with_deterministic_ties() {
        let mut c = RowCounters::new(2);
        for row in [10, 20, 30, 30, 40, 10, 20, 30] {
            c.record(1, row);
        }
        assert_eq!(c.total_accesses(0), 0);
        assert_eq!(c.total_accesses(1), 8);
        assert_eq!(
            ranked(c),
            vec![(vec![], vec![]), (vec![30, 10, 20, 40], vec![3, 2, 2, 1])]
        );
    }

    #[test]
    fn compaction_keeps_counts_and_into_ranked_sorts_once() {
        // Enough accesses for several compactions per table, interleaved so
        // the shared merge buffer passes between tables of different sizes.
        let mut c = RowCounters::new(3);
        for i in 0..20_000u64 {
            c.record(0, (i * 7_919) % 1_000);
            if i % 3 == 0 {
                c.record(1, i % 5);
            }
            if i % 7 == 0 {
                c.record(2, (i * 31) % 3_000);
            }
        }
        assert_eq!(c.total_accesses(0), 20_000);
        let tables = ranked(c);
        let (rows, counts) = &tables[0];
        assert_eq!(rows.len(), 1_000);
        assert!(counts.iter().all(|&n| n == 20));
        assert!(rows.windows(2).all(|w| w[0] < w[1]));
        // Rows 3i mod 5 cycle 0, 3, 1, 4, 2; 6,667 accesses give the first
        // two one more than the rest.
        assert_eq!(tables[1].0, vec![0, 3, 1, 2, 4]);
        assert_eq!(tables[1].1, vec![1_334, 1_334, 1_333, 1_333, 1_333]);
        assert_eq!(tables[2].1.iter().sum::<u64>(), 2_858);
    }

    #[test]
    fn wide_rows_move_the_table_to_the_wide_map() {
        let mut c = RowCounters::new(2);
        for i in 0..600u64 {
            c.record(0, i % 7);
            c.record(1, i % 3);
        }
        // A row above `u32::MAX` after two compactions' worth of rows.
        c.record(0, 1 << 40);
        c.record(0, 1 << 40);
        c.record(0, 6);
        let tables = ranked(c);
        let mut expected: Vec<(u64, u64)> =
            (0..7).map(|r| (r, if r < 5 { 86 } else { 85 })).collect();
        expected[6].1 += 1;
        expected.push((1 << 40, 2));
        expected.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        let (rows, counts): (Vec<u64>, Vec<u64>) = expected.into_iter().unzip();
        assert_eq!(tables[0], (rows, counts));
        assert_eq!(tables[1], (vec![0, 1, 2], vec![200; 3]));
    }

    #[test]
    fn counts_past_u32_max_are_exact() {
        // A count at the edge of 32 bits, as if recorded one by one: the
        // compaction that would pass `u32::MAX` widens instead of wrapping.
        let mut rows = TableRows {
            runs: vec![5 << 32 | (LOW - 1), 9 << 32 | 1],
            total: LOW,
            ..TableRows::default()
        };
        let mut scratch = Vec::new();
        for row in [5, 5, 7] {
            rows.total += 1;
            rows.pending.push(row);
        }
        rows.compact(&mut scratch);
        assert!(rows.wide.is_some() && rows.runs.is_empty());
        assert_eq!(rows.reserve_for_ranking(), 0);
        rows.sort_keys(&mut scratch);
        let (ranked_rows, cdf) = rows.into_ranked();
        assert_eq!(
            (ranked_rows, counts(&cdf)),
            (vec![5, 7, 9], vec![LOW + 1, 1, 1])
        );
    }
}
