//! Property-based tests for the statistics stack: row counters, access
//! CDFs and their piece-wise linear inverses, and the quantile sketch.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use recshard_stats::{AccessCdf, LogLinearHistogram, RowCounters};
use std::collections::BTreeMap;

/// One table's counters that recorded `rows`.
fn counters_of(rows: &[u64]) -> RowCounters {
    let mut counters = RowCounters::new(1);
    for &row in rows {
        counters.record(0, row);
    }
    counters
}

/// Each rank's count, read back from the CDF's cumulative counts.
fn counts_of(cdf: &AccessCdf) -> Vec<u64> {
    let mut before = 0;
    cdf.cumulative()
        .map(|covered| covered - std::mem::replace(&mut before, covered))
        .collect()
}

/// Every table's ranked rows and counts.
fn ranked_tables(counters: RowCounters) -> Vec<(Vec<u64>, Vec<u64>)> {
    let tables = counters.into_ranked();
    tables.map(|(rows, cdf)| (rows, counts_of(&cdf))).collect()
}

/// The ranked rows and counts of one table that recorded `rows`.
fn ranked(rows: &[u64]) -> (Vec<u64>, Vec<u64>) {
    ranked_tables(counters_of(rows)).remove(0)
}

/// The access CDF of one table that recorded `rows`.
fn cdf_of(rows: &[u64]) -> AccessCdf {
    let (_, cdf) = counters_of(rows).into_ranked().next().unwrap();
    cdf
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Total accesses and distinct-row counts are conserved by construction.
    #[test]
    fn row_counters_conserve_counts(rows in prop::collection::vec(0u64..500, 1..400)) {
        let counters = counters_of(&rows);
        prop_assert_eq!(counters.total_accesses(0), rows.len() as u64);
        let (ranked, counts) = ranked_tables(counters).remove(0);
        let distinct: std::collections::HashSet<_> = rows.iter().collect();
        prop_assert_eq!(ranked.len(), distinct.len());
        prop_assert_eq!(counts.iter().sum::<u64>(), rows.len() as u64);
    }

    /// The ranked-row ordering is a permutation of the accessed rows with
    /// non-increasing counts, each the row's number of accesses.
    #[test]
    fn ranked_rows_are_sorted_by_count(rows in prop::collection::vec(0u64..100, 1..300)) {
        let (ranked, counts) = ranked(&rows);
        let mut sorted = ranked.clone();
        sorted.sort_unstable();
        sorted.dedup();
        prop_assert_eq!(sorted.len(), ranked.len());
        for (row, &count) in ranked.iter().zip(&counts) {
            prop_assert_eq!(rows.iter().filter(|&r| r == row).count() as u64, count);
        }
        prop_assert!(counts.windows(2).all(|w| w[0] >= w[1]));
    }

    /// The CDF is monotone, bounded by [0, 1], and reaches exactly 1 at the
    /// number of ranked rows.
    #[test]
    fn cdf_is_monotone_and_normalised(rows in prop::collection::vec(0u64..200, 1..500)) {
        let cdf = cdf_of(&rows);
        let mut prev = 0.0;
        for k in 0..=cdf.full_coverage_rows() {
            let f = cdf.access_fraction(k);
            prop_assert!(f >= prev - 1e-12);
            prop_assert!((0.0..=1.0 + 1e-12).contains(&f));
            prev = f;
        }
        prop_assert!((cdf.access_fraction(cdf.full_coverage_rows()) - 1.0).abs() < 1e-12);
    }

    /// The ICDF inverts the CDF: the rows it reports for a fraction always
    /// cover at least that fraction, and one fewer row never does.
    #[test]
    fn icdf_inverts_cdf(
        rows in prop::collection::vec(0u64..200, 1..500),
        pct in 0.0f64..1.0,
    ) {
        let cdf = cdf_of(&rows);
        let needed = cdf.rows_for_access_fraction(pct);
        prop_assert!(cdf.access_fraction(needed) + 1e-12 >= pct);
        if needed > 0 {
            prop_assert!(cdf.access_fraction(needed - 1) < pct + 1e-12);
        }
    }

    /// The 100-step ICDF is monotone in the step index and tops out at the
    /// number of accessed rows.
    #[test]
    fn icdf_steps_monotone(rows in prop::collection::vec(0u64..300, 1..400)) {
        let cdf = cdf_of(&rows);
        let icdf = cdf.icdf(100);
        let mut prev = 0;
        for i in 0..=100 {
            let r = icdf.rows_at_step(i);
            prop_assert!(r >= prev);
            prev = r;
        }
        prop_assert_eq!(icdf.max_rows(), cdf.full_coverage_rows());
    }

    /// The ICDF's single forward pass finds, at every step count, the same
    /// points as one `rows_for_access_fraction` search per step: for
    /// descending counts with zero tails, one row or none, and totals large
    /// enough (up to about 2^60) that the `f64` targets round.
    #[test]
    fn icdf_walk_equals_per_step_searches(
        counts in prop::collection::vec(0u64..1_000, 0..400),
        zeros in 0usize..50,
        shift in 0u32..42,
    ) {
        let mut counts: Vec<u64> = counts.into_iter().map(|c| c << shift).collect();
        counts.extend(std::iter::repeat_n(0, zeros));
        counts.sort_unstable_by(|a, b| b.cmp(a));
        assert_icdf_matches_searches(&counts);
    }

    /// The O(1) full-coverage row count equals the search for 100% of the
    /// accesses, and the CDF at or past it equals the cumulative-count
    /// formula bit for bit, with zero tails and large shifted totals.
    #[test]
    fn full_coverage_rows_equal_the_full_search(
        counts in prop::collection::vec(0u64..1_000, 0..400),
        zeros in 0usize..50,
        shift in 0u32..42,
    ) {
        let mut counts: Vec<u64> = counts.into_iter().map(|c| c << shift).collect();
        counts.extend(std::iter::repeat_n(0, zeros));
        counts.sort_unstable_by(|a, b| b.cmp(a));
        assert_full_coverage_matches_search(&counts);
    }
}

/// Checks `full_coverage_rows` against `rows_for_access_fraction(1.0)` and
/// `access_fraction` from it to two past the end against
/// `cumulative[min(rows, len) - 1] / total` (0 everywhere without accesses).
fn assert_full_coverage_matches_search(counts: &[u64]) {
    let cdf = AccessCdf::from_ranked_counts(counts.to_vec());
    let rows = cdf.full_coverage_rows();
    prop_assert_eq!(
        rows,
        cdf.rows_for_access_fraction(1.0),
        "counts {:?}",
        counts
    );
    prop_assert_eq!(rows, counts.iter().filter(|&&c| c > 0).count() as u64);
    if cdf.total_accesses() == 0 {
        prop_assert_eq!(cdf.access_fraction(counts.len() as u64 + 1), 0.0);
        return;
    }
    let cumulative: Vec<u64> = counts
        .iter()
        .scan(0, |running, &c| {
            *running += c;
            Some(*running)
        })
        .collect();
    let len = cumulative.len() as u64;
    for k in rows..=len + 2 {
        let expected = cumulative[(k.min(len) - 1) as usize] as f64 / cdf.total_accesses() as f64;
        prop_assert_eq!(
            cdf.access_fraction(k).to_bits(),
            expected.to_bits(),
            "rows {}",
            k
        );
    }
}

#[test]
fn full_coverage_rows_equal_the_full_search_on_edge_cases() {
    for counts in [
        &[][..],
        &[0],
        &[7],
        &[5, 3, 0, 0],
        &[5, 3, 2, 1],
        &[u64::MAX / 4, 3, 0],
        &[(1 << 53) + 1, 1, 1, 0, 0],
    ] {
        assert_full_coverage_matches_search(counts);
    }
    assert_eq!(
        AccessCdf::from_ranked_counts(vec![5, 3, 0, 0]).full_coverage_rows(),
        2
    );
    assert_eq!(AccessCdf::empty().full_coverage_rows(), 0);
}

/// Checks `icdf` against per-step `rows_for_access_fraction` at 1, 5, 100
/// and 1,000 steps.
fn assert_icdf_matches_searches(counts: &[u64]) {
    let cdf = AccessCdf::from_ranked_counts(counts.to_vec());
    for steps in [1usize, 5, 100, 1_000] {
        let icdf = cdf.icdf(steps);
        prop_assert_eq!(icdf.steps(), steps);
        for i in 0..=steps {
            prop_assert_eq!(
                icdf.rows_at_step(i),
                cdf.rows_for_access_fraction(i as f64 / steps as f64),
                "step {} of {} over {} counts",
                i,
                steps,
                counts.len()
            );
        }
    }
}

#[test]
fn icdf_walk_equals_per_step_searches_on_edge_cases() {
    let huge = u64::MAX / 4;
    for counts in [
        &[][..],
        &[0],
        &[0, 0, 0],
        &[1],
        &[9, 0, 0],
        &[huge],
        &[huge, huge - 1, 3, 0],
        &[(1 << 53) + 1, 1, 1],
    ] {
        assert_icdf_matches_searches(counts);
    }
}

/// The per-row reference `AccessCdf` is held to: one cumulative count per
/// ranked row, read the way the CDF read them before it kept runs.
struct PerRowCdf {
    /// `cumulative[i]`: accesses covered by the `i + 1` hottest rows.
    cumulative: Vec<u64>,
    total: u64,
    covering_rows: u64,
}

impl PerRowCdf {
    fn new(counts: &[u64]) -> Self {
        let cumulative: Vec<u64> = counts
            .iter()
            .scan(0, |running, &c| {
                *running += c;
                Some(*running)
            })
            .collect();
        let total = cumulative.last().copied().unwrap_or(0);
        let covering_rows = if total == 0 {
            0
        } else {
            (cumulative.partition_point(|&c| c < total) + 1).min(cumulative.len()) as u64
        };
        Self {
            cumulative,
            total,
            covering_rows,
        }
    }

    fn access_fraction(&self, rows: u64) -> f64 {
        if self.total == 0 || rows == 0 {
            return 0.0;
        }
        if rows >= self.covering_rows {
            return 1.0;
        }
        let idx = (rows.min(self.cumulative.len() as u64) - 1) as usize;
        self.cumulative[idx] as f64 / self.total as f64
    }

    fn rows_for_access_fraction(&self, fraction: f64) -> u64 {
        if self.total == 0 || fraction.is_nan() || fraction <= 0.0 {
            return 0;
        }
        let target = ((fraction.min(1.0) * self.total as f64).ceil() as u64).min(self.total);
        let first = self.cumulative.partition_point(|&c| c < target);
        (first as u64 + 1).min(self.cumulative.len() as u64)
    }

    fn knee_rank(&self) -> u64 {
        if self.cumulative.is_empty() || self.total == 0 {
            return 0;
        }
        let n = self.cumulative.len() as f64;
        let total = self.total as f64;
        let mut best = 0usize;
        let mut best_gap = f64::NEG_INFINITY;
        for (i, &c) in self.cumulative.iter().enumerate() {
            let gap = c as f64 / total - (i + 1) as f64 / n;
            if gap > best_gap {
                best_gap = gap;
                best = i;
            }
        }
        (best + 1) as u64
    }

    fn top_percent_share(&self, percent: f64) -> f64 {
        if self.cumulative.is_empty() {
            return 0.0;
        }
        let rows = ((self.cumulative.len() as f64) * percent / 100.0)
            .ceil()
            .max(1.0) as u64;
        self.access_fraction(rows)
    }
}

/// Checks every accessor of the CDF of the descending `counts` against the
/// per-row reference, bit for bit.
fn assert_matches_per_row_reference(counts: &[u64]) {
    let cdf = AccessCdf::from_ranked_counts(counts.iter().copied());
    let reference = PerRowCdf::new(counts);
    let len = counts.len() as u64;
    prop_assert_eq!(cdf.cumulative().len(), counts.len());
    prop_assert!(cdf.cumulative().eq(reference.cumulative.iter().copied()));
    prop_assert_eq!(cdf.total_accesses(), reference.total);
    prop_assert_eq!(cdf.full_coverage_rows(), reference.covering_rows);
    for k in 0..=len + 2 {
        prop_assert_eq!(
            cdf.access_fraction(k).to_bits(),
            reference.access_fraction(k).to_bits(),
            "access_fraction({}) over {:?}",
            k,
            counts
        );
    }
    // Every fraction a row count reaches exactly (each exact k / total on a
    // small total, each cumulative count and its neighbours on a large
    // one), a grid, and the clamped and NaN fractions.
    let total = reference.total;
    let exact: Vec<u64> = if total <= 4_096 {
        (0..=total).collect()
    } else {
        let near = |&c: &u64| [c.saturating_sub(1), c, (c + 1).min(total)];
        reference.cumulative.iter().flat_map(near).collect()
    };
    let fractions = exact
        .iter()
        .map(|&k| k as f64 / total.max(1) as f64)
        .chain((0..=1_000).map(|i| f64::from(i) / 1_000.0))
        .chain([-0.5, 1.5, f64::NAN, f64::MIN_POSITIVE, 1.0 - f64::EPSILON]);
    for fraction in fractions {
        prop_assert_eq!(
            cdf.rows_for_access_fraction(fraction),
            reference.rows_for_access_fraction(fraction),
            "rows_for_access_fraction({}) over {:?}",
            fraction,
            counts
        );
    }
    for steps in [1usize, 5, 100, 1_000] {
        let icdf = cdf.icdf(steps);
        for i in 0..=steps {
            let rows = reference.rows_for_access_fraction(i as f64 / steps as f64);
            prop_assert_eq!(
                icdf.rows_at_step(i),
                rows,
                "icdf step {} of {} over {:?}",
                i,
                steps,
                counts
            );
            prop_assert_eq!(
                icdf.access_fraction_at_step(i).to_bits(),
                reference.access_fraction(rows).to_bits(),
                "icdf fraction at step {} of {} over {:?}",
                i,
                steps,
                counts
            );
        }
    }
    prop_assert_eq!(cdf.knee_rank(), reference.knee_rank());
    for percent in [0.0, 0.5, 1.0, 5.0, 10.0, 25.0, 50.0, 99.9, 100.0, 150.0] {
        prop_assert_eq!(
            cdf.top_percent_share(percent).to_bits(),
            reference.top_percent_share(percent).to_bits(),
            "top_percent_share({})",
            percent
        );
    }
}

/// `counts` sorted descending, each shifted left by `shift` bits, or by as
/// many as keep the total below 2^63.
fn descending_shifted(mut counts: Vec<u64>, shift: u32) -> Vec<u64> {
    let total: u64 = counts.iter().sum();
    let shift = shift.min(total.leading_zeros().saturating_sub(1));
    counts.iter_mut().for_each(|c| *c <<= shift);
    counts.sort_unstable_by(|a, b| b.cmp(a));
    counts
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Tie-heavy counts: many rows of counts below 4, a few values repeated
    /// in long runs, a zero tail, and counts shifted toward 2^60 so that
    /// the `f64` fractions round.
    #[test]
    fn access_cdf_matches_the_per_row_reference(
        small in prop::collection::vec(0u64..4, 0..400),
        long in prop::collection::vec((0u64..1_000, 1usize..2_000), 0..5),
        zeros in 0usize..50,
        shift in 0u32..60,
    ) {
        let mut counts = small;
        for (count, rows) in long {
            counts.extend(std::iter::repeat_n(count, rows));
        }
        counts.extend(std::iter::repeat_n(0, zeros));
        assert_matches_per_row_reference(&descending_shifted(counts, shift));
    }

    /// One run of equal counts (all zeros when the count is 0), with or
    /// without a zero tail.
    #[test]
    fn one_run_matches_the_per_row_reference(
        count in 0u64..5,
        rows in 1usize..3_000,
        zeros in 0usize..3,
        shift in 0u32..60,
    ) {
        let mut counts = vec![count; rows];
        counts.extend(std::iter::repeat_n(0, zeros));
        assert_matches_per_row_reference(&descending_shifted(counts, shift));
    }
}

#[test]
fn access_cdf_matches_the_per_row_reference_on_edge_cases() {
    let huge = u64::MAX / 4;
    for counts in [
        &[][..],
        &[0],
        &[0, 0, 0],
        &[1],
        &[7; 9],
        &[9, 0, 0],
        &[5, 3, 3, 3, 1, 0],
        &[huge],
        &[huge, huge - 1, 3, 0],
        &[(1 << 53) + 1, 1, 1],
        &[1 << 60, 1 << 60, 1, 1, 0],
    ] {
        assert_matches_per_row_reference(counts);
    }
}

/// Checks the ranking of every table of `counters` against its `BTreeMap`
/// reference: hottest first, ties broken by ascending row id.
fn assert_matches_reference(counters: &RowCounters, reference: &[BTreeMap<u64, u64>]) {
    let tables = ranked_tables(counters.clone());
    prop_assert_eq!(tables.len(), reference.len());
    for (t, ((rows, counts), expected)) in tables.iter().zip(reference).enumerate() {
        prop_assert_eq!(counters.total_accesses(t), expected.values().sum::<u64>());
        let mut ranked: Vec<(u64, u64)> = expected.iter().map(|(&r, &c)| (r, c)).collect();
        ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        prop_assert_eq!(rows, &ranked.iter().map(|&(r, _)| r).collect::<Vec<_>>());
        prop_assert_eq!(counts, &ranked.iter().map(|&(_, c)| c).collect::<Vec<_>>());
    }
}

/// Row ids drawn by the interleaving test: few enough that bursts repeat
/// rows, many enough that the distinct-row list outgrows the compaction
/// threshold.
const ROWS: u64 = 1_500;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The counters agree with a `BTreeMap` reference per table after every
    /// step of a random interleaving of bursts of records, spread over three
    /// tables that share one merge buffer, some bursts with rows past
    /// `u32::MAX` (which move a table to its wide map), and the same
    /// accesses in reverse rank identically.
    #[test]
    fn row_counters_match_a_btreemap_reference(
        steps in prop::collection::vec(
            (0usize..3, 0u64..8, prop::collection::vec(0u64..ROWS, 0..700)),
            1..10,
        ),
    ) {
        let mut counters = RowCounters::new(3);
        let mut reference = vec![BTreeMap::new(); 3];
        let mut accesses = Vec::new();
        for (table, wide, burst) in steps {
            for &r in &burst {
                // One burst in eight lands past 32 bits.
                let row = if wide == 0 { r << 32 | r } else { r };
                counters.record(table, row);
                *reference[table].entry(row).or_insert(0) += 1;
                accesses.push((table, row));
            }
            assert_matches_reference(&counters, &reference);
        }

        let mut reversed = RowCounters::new(3);
        for &(table, row) in accesses.iter().rev() {
            reversed.record(table, row);
        }
        assert_matches_reference(&reversed, &reference);
    }
}

/// Edge cases of the CDF knee used by the serving cache's stat-guided
/// pinning: single-row tables, uniform CDFs with no knee, and degenerate
/// all-zero / never-accessed profiles.
mod knee_rank_edge_cases {
    use recshard_stats::AccessCdf;

    #[test]
    fn single_row_table_knees_at_its_only_row() {
        let knee = AccessCdf::from_ranked_counts(vec![1]).knee_rank();
        assert_eq!(knee, 1, "the only accessed row is the whole head");

        // Heavier traffic on the same single row changes nothing.
        assert_eq!(
            AccessCdf::from_ranked_counts(vec![1_000_000]).knee_rank(),
            1
        );
    }

    #[test]
    fn uniform_cdf_has_no_knee_and_pins_almost_nothing() {
        for rows in [2usize, 10, 1_000] {
            let cdf = AccessCdf::from_ranked_counts(vec![7; rows]);
            let knee = cdf.knee_rank();
            // A perfectly uniform curve sits on the diagonal: the degenerate
            // maximum lands on the first rank, so a stat-guided cache pins
            // (at most) one row.
            assert!(
                knee <= 1,
                "uniform CDF over {rows} rows produced knee {knee}"
            );
        }
    }

    #[test]
    fn all_zero_and_empty_profiles_knee_at_zero() {
        assert_eq!(AccessCdf::empty().knee_rank(), 0);
        // A table that recorded nothing behaves like empty.
        assert_eq!(super::cdf_of(&[]).knee_rank(), 0);
        // Ranked counts that are all zero carry zero total accesses.
        let cdf = AccessCdf::from_ranked_counts(vec![0, 0, 0]);
        assert_eq!(cdf.total_accesses(), 0);
        assert_eq!(cdf.knee_rank(), 0);
    }

    #[test]
    fn knee_is_within_ranked_rows_and_covers_the_head() {
        // A two-tier distribution: the knee must sit at the head/tail
        // boundary and cover the head's share of accesses.
        let mut counts = vec![100; 10];
        counts.extend([1; 990]);
        let cdf = AccessCdf::from_ranked_counts(counts);
        let knee = cdf.knee_rank();
        assert!(knee >= 1 && knee <= cdf.full_coverage_rows());
        assert_eq!(knee, 10, "knee must sit exactly at the head/tail boundary");
        assert!(cdf.access_fraction(knee) > 0.5);
    }
}

/// A histogram of `values`, pushed in order.
fn sketch_of(values: &[u64]) -> LogLinearHistogram {
    let mut sketch = LogLinearHistogram::new();
    values.iter().for_each(|&v| sketch.push(v));
    sketch
}

/// `values` in a seeded Fisher-Yates order.
fn permuted(values: &[u64], seed: u64) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = values.to_vec();
    for i in (1..out.len()).rev() {
        out.swap(i, rng.gen_range(0..i + 1));
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The sketch depends on the multiset of samples only: any order of
    /// the same samples gives the same bits, so the same quantiles and
    /// moments. Ties are common (values drawn from a small range, then
    /// scaled into wide buckets).
    #[test]
    fn sketch_is_independent_of_sample_order(
        small in prop::collection::vec(0u64..64, 1..300),
        scale in 1u64..100_000,
        seed in any::<u64>(),
    ) {
        let values: Vec<u64> = small.iter().map(|&v| v * scale + v % 3).collect();
        let a = sketch_of(&values);
        let b = sketch_of(&permuted(&values, seed));
        let mut sorted = values.clone();
        sorted.sort_unstable_by(|x, y| y.cmp(x));
        let c = sketch_of(&sorted);
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(&a, &c);
        for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
            prop_assert_eq!(a.quantile(q), b.quantile(q));
        }
        prop_assert_eq!(a.summary(1e6), b.summary(1e6));
    }

    /// `merge(a, b)` equals pushing both inputs into one sketch.
    #[test]
    fn sketch_merge_equals_pushing_both(
        left in prop::collection::vec(any::<u64>(), 0..100),
        right in prop::collection::vec(0u64..1_000_000_000, 0..100),
    ) {
        let left: Vec<u64> = left.iter().map(|v| v >> 24).collect();
        let mut merged = sketch_of(&left);
        merged.merge(&sketch_of(&right));
        let both: Vec<u64> = left.iter().chain(&right).copied().collect();
        prop_assert_eq!(&merged, &sketch_of(&both));
        prop_assert_eq!(merged.quantile(0.99), sketch_of(&both).quantile(0.99));
    }
}
