//! Per-row access frequency accumulation.
//!
//! Profiling records one access per embedding lookup (13.6M of them for a
//! 5,000-table model at 1,200 samples), so [`FrequencyMap::record`] is kept
//! close to a plain store: it appends the row to an unsorted `pending`
//! buffer. Once that buffer is at least as long as the table's distinct-row
//! list (and at least `COMPACT_MIN` rows), it is sorted, run-length encoded
//! and merged into `runs`, a `(row, count)` vector in ascending row order.
//! Each compaction sorts `p >= r` pending rows and walks `r` runs, so a
//! record costs an amortised share of a cache-friendly sort instead of a
//! pointer-chasing tree insert.
//!
//! Iteration stays in ascending row order without a `BTreeMap`: `runs` is
//! sorted by construction, and every read-only query sees a compacted view,
//! `runs` itself when nothing is pending and otherwise `runs` merged with the
//! sorted pending rows. Frequency maps feed table fingerprints and CDF
//! construction, so an ordered walk keeps those paths bit-deterministic
//! without a sort-before-emit at every call site.

use std::borrow::Cow;
use std::cmp::Ordering;
use std::iter::Peekable;

/// Fewest pending rows that trigger a compaction, so tiny tables do not
/// sort a handful of rows at a time.
const COMPACT_MIN: usize = 256;

/// Access counts per embedding row (post-hash), for one table.
///
/// Only rows that were actually accessed are stored; the (typically large)
/// remainder of the hash space implicitly has count zero, which is exactly
/// the under-utilisation RecShard exploits (Section 3.4). Two maps are equal
/// when they hold the same counts, whatever order they were recorded in.
#[derive(Debug, Clone, Default)]
pub struct FrequencyMap {
    /// Distinct rows in ascending order, with their access counts.
    runs: Vec<(u64, u64)>,
    /// Rows recorded since the last compaction: unsorted, one per access.
    pending: Vec<u64>,
    total: u64,
}

impl FrequencyMap {
    /// Creates an empty frequency map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one access to `row`.
    #[inline]
    pub fn record(&mut self, row: u64) {
        self.pending.push(row);
        self.total += 1;
        if self.pending.len() >= self.runs.len().max(COMPACT_MIN) {
            self.compact();
        }
    }

    /// Records `n` accesses to `row`. A row not seen before is inserted into
    /// the sorted runs, which moves every later run: prefer
    /// [`record`](Self::record) for long streams of single accesses.
    pub fn record_n(&mut self, row: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.compact();
        match self.runs.binary_search_by_key(&row, |&(r, _)| r) {
            Ok(i) => self.runs[i].1 += n,
            Err(i) => self.runs.insert(i, (row, n)),
        }
        self.total += n;
    }

    /// Total number of recorded accesses.
    pub fn total_accesses(&self) -> u64 {
        self.total
    }

    /// Number of distinct rows accessed at least once.
    pub fn distinct_rows(&self) -> u64 {
        self.view().len() as u64
    }

    /// Access count of a specific row (zero when never accessed).
    pub fn count(&self, row: u64) -> u64 {
        let compacted = self
            .runs
            .binary_search_by_key(&row, |&(r, _)| r)
            .map_or(0, |i| self.runs[i].1);
        compacted + self.pending.iter().filter(|&&r| r == row).count() as u64
    }

    /// Iterates over `(row, count)` pairs in ascending row order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        let view = self.view();
        (0..view.len()).map(move |i| view[i])
    }

    /// Merges another frequency map into this one.
    pub fn merge(&mut self, other: &FrequencyMap) {
        self.compact();
        self.runs = merge_runs(&self.runs, other.view().iter().copied());
        self.total += other.total;
    }

    /// Returns rows sorted by descending access count (ties broken by row id
    /// for determinism). The hottest row comes first.
    pub fn ranked_rows(&self) -> Vec<u64> {
        let mut runs = self.view().into_owned();
        runs.sort_unstable_by(rank_order);
        runs.into_iter().map(|(r, _)| r).collect()
    }

    /// Returns access counts sorted descending (aligned with
    /// [`ranked_rows`](Self::ranked_rows)).
    pub fn ranked_counts(&self) -> Vec<u64> {
        let mut counts: Vec<u64> = self.view().iter().map(|&(_, c)| c).collect();
        counts.sort_unstable_by(|a, b| b.cmp(a));
        counts
    }

    /// Consumes the map into [`ranked_rows`](Self::ranked_rows) and
    /// [`ranked_counts`](Self::ranked_counts) with one sort and no copy of
    /// the counts.
    pub(crate) fn into_ranked(mut self) -> (Vec<u64>, Vec<u64>) {
        self.compact();
        let mut runs = self.runs;
        runs.sort_unstable_by(rank_order);
        runs.into_iter().unzip()
    }

    /// True when no accesses have been recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Sorts the pending rows and merges them into the runs.
    fn compact(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        self.pending.sort_unstable();
        self.runs = merge_runs(&self.runs, row_runs(&self.pending));
        self.pending.clear();
        // Size the buffer for the next compaction once, rather than letting
        // doubling overshoot it.
        self.pending.reserve_exact(self.runs.len().max(COMPACT_MIN));
    }

    /// The runs with any pending rows merged in, in ascending row order.
    fn view(&self) -> Cow<'_, [(u64, u64)]> {
        if self.pending.is_empty() {
            return Cow::Borrowed(&self.runs);
        }
        let mut pending = self.pending.clone();
        pending.sort_unstable();
        Cow::Owned(merge_runs(&self.runs, row_runs(&pending)))
    }
}

impl PartialEq for FrequencyMap {
    fn eq(&self, other: &Self) -> bool {
        self.total == other.total && self.view() == other.view()
    }
}

/// Hottest first; ties broken by ascending row id. The order is total, so
/// the ranking is the same whichever order the runs arrive in.
fn rank_order(a: &(u64, u64), b: &(u64, u64)) -> Ordering {
    b.1.cmp(&a.1).then(a.0.cmp(&b.0))
}

/// Run-length encodes sorted rows into ascending `(row, count)` runs.
fn row_runs(sorted: &[u64]) -> impl Iterator<Item = (u64, u64)> + Clone + '_ {
    sorted
        .chunk_by(|a, b| a == b)
        .map(|rows| (rows[0], rows.len() as u64))
}

/// Merges ascending, duplicate-free runs, summing the counts of rows in
/// both, into a vector allocated at its exact size.
fn merge_runs<I>(runs: &[(u64, u64)], other: I) -> Vec<(u64, u64)>
where
    I: Iterator<Item = (u64, u64)> + Clone,
{
    let len = MergeRuns::new(runs.iter().copied(), other.clone()).count();
    let mut merged = Vec::with_capacity(len);
    merged.extend(MergeRuns::new(runs.iter().copied(), other));
    merged
}

/// Sorted-merge of two ascending, duplicate-free run lists.
struct MergeRuns<A: Iterator, B: Iterator> {
    a: Peekable<A>,
    b: Peekable<B>,
}

impl<A, B> MergeRuns<A, B>
where
    A: Iterator<Item = (u64, u64)>,
    B: Iterator<Item = (u64, u64)>,
{
    fn new(a: A, b: B) -> Self {
        Self {
            a: a.peekable(),
            b: b.peekable(),
        }
    }
}

impl<A, B> Iterator for MergeRuns<A, B>
where
    A: Iterator<Item = (u64, u64)>,
    B: Iterator<Item = (u64, u64)>,
{
    type Item = (u64, u64);

    fn next(&mut self) -> Option<(u64, u64)> {
        match (self.a.peek(), self.b.peek()) {
            (Some(&(ra, ca)), Some(&(rb, cb))) => match ra.cmp(&rb) {
                Ordering::Less => self.a.next(),
                Ordering::Greater => self.b.next(),
                Ordering::Equal => {
                    self.a.next();
                    self.b.next();
                    Some((ra, ca + cb))
                }
            },
            (Some(_), None) => self.a.next(),
            (None, _) => self.b.next(),
        }
    }
}

impl FromIterator<u64> for FrequencyMap {
    fn from_iter<I: IntoIterator<Item = u64>>(iter: I) -> Self {
        let mut map = FrequencyMap::new();
        for row in iter {
            map.record(row);
        }
        map
    }
}

impl Extend<u64> for FrequencyMap {
    fn extend<I: IntoIterator<Item = u64>>(&mut self, iter: I) {
        for row in iter {
            self.record(row);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_count() {
        let mut m = FrequencyMap::new();
        m.record(3);
        m.record(3);
        m.record(7);
        assert_eq!(m.count(3), 2);
        assert_eq!(m.count(7), 1);
        assert_eq!(m.count(99), 0);
        assert_eq!(m.total_accesses(), 3);
        assert_eq!(m.distinct_rows(), 2);
    }

    #[test]
    fn ranked_rows_descending_with_deterministic_ties() {
        let mut m = FrequencyMap::new();
        m.record_n(10, 5);
        m.record_n(20, 5);
        m.record_n(30, 9);
        m.record_n(40, 1);
        assert_eq!(m.ranked_rows(), vec![30, 10, 20, 40]);
        assert_eq!(m.ranked_counts(), vec![9, 5, 5, 1]);
    }

    #[test]
    fn merge_adds_counts() {
        let mut a: FrequencyMap = [1u64, 2, 2].into_iter().collect();
        let b: FrequencyMap = [2u64, 3].into_iter().collect();
        a.merge(&b);
        assert_eq!(a.count(2), 3);
        assert_eq!(a.count(3), 1);
        assert_eq!(a.total_accesses(), 5);
    }

    #[test]
    fn extend_and_from_iterator() {
        let mut m: FrequencyMap = (0u64..10).collect();
        m.extend(0u64..5);
        assert_eq!(m.total_accesses(), 15);
        assert_eq!(m.distinct_rows(), 10);
    }

    #[test]
    fn compaction_keeps_counts_and_into_ranked_sorts_once() {
        // Enough accesses to compact several times, interleaved with
        // record_n on rows both new and already counted.
        let mut m = FrequencyMap::new();
        for i in 0..5_000u64 {
            m.record((i * 7_919) % 1_000);
            if i % 997 == 0 {
                m.record_n(i, 3);
            }
        }
        assert_eq!(m.total_accesses(), 5_000 + 6 * 3);
        assert_eq!(m.count(0), 5 + 3);
        assert_eq!(m.count(1_994), 3);
        assert!(m.iter().zip(m.iter().skip(1)).all(|(a, b)| a.0 < b.0));
        let (rows, counts) = m.clone().into_ranked();
        assert_eq!(rows, m.ranked_rows());
        assert_eq!(counts, m.ranked_counts());
        assert_eq!(counts.iter().sum::<u64>(), m.total_accesses());
    }

    #[test]
    fn record_n_zero_is_noop() {
        let mut m = FrequencyMap::new();
        m.record_n(1, 0);
        assert!(m.is_empty());
        assert_eq!(m.distinct_rows(), 0);
    }
}
