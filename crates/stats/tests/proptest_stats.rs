//! Property-based tests for the statistics stack: frequency maps, access
//! CDFs and their piece-wise linear inverses.

use proptest::prelude::*;
use recshard_stats::{AccessCdf, FrequencyMap};
use std::collections::BTreeMap;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Total accesses and distinct-row counts are conserved by construction.
    #[test]
    fn frequency_map_conserves_counts(rows in prop::collection::vec(0u64..500, 1..400)) {
        let map: FrequencyMap = rows.iter().copied().collect();
        prop_assert_eq!(map.total_accesses(), rows.len() as u64);
        let distinct: std::collections::HashSet<_> = rows.iter().collect();
        prop_assert_eq!(map.distinct_rows(), distinct.len() as u64);
        let summed: u64 = map.iter().map(|(_, c)| c).sum();
        prop_assert_eq!(summed, rows.len() as u64);
    }

    /// The ranked-row ordering is a permutation of the accessed rows with
    /// non-increasing counts.
    #[test]
    fn ranked_rows_are_sorted_by_count(rows in prop::collection::vec(0u64..100, 1..300)) {
        let map: FrequencyMap = rows.iter().copied().collect();
        let ranked = map.ranked_rows();
        prop_assert_eq!(ranked.len() as u64, map.distinct_rows());
        for w in ranked.windows(2) {
            prop_assert!(map.count(w[0]) >= map.count(w[1]));
        }
    }

    /// The CDF is monotone, bounded by [0, 1], and reaches exactly 1 at the
    /// number of ranked rows.
    #[test]
    fn cdf_is_monotone_and_normalised(rows in prop::collection::vec(0u64..200, 1..500)) {
        let map: FrequencyMap = rows.iter().copied().collect();
        let cdf = AccessCdf::from_frequency(&map);
        let mut prev = 0.0;
        for k in 0..=cdf.rows_ranked() {
            let f = cdf.access_fraction(k);
            prop_assert!(f >= prev - 1e-12);
            prop_assert!((0.0..=1.0 + 1e-12).contains(&f));
            prev = f;
        }
        prop_assert!((cdf.access_fraction(cdf.rows_ranked()) - 1.0).abs() < 1e-12);
    }

    /// The ICDF inverts the CDF: the rows it reports for a fraction always
    /// cover at least that fraction, and one fewer row never does.
    #[test]
    fn icdf_inverts_cdf(
        rows in prop::collection::vec(0u64..200, 1..500),
        pct in 0.0f64..1.0,
    ) {
        let map: FrequencyMap = rows.iter().copied().collect();
        let cdf = AccessCdf::from_frequency(&map);
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
        let map: FrequencyMap = rows.iter().copied().collect();
        let cdf = AccessCdf::from_frequency(&map);
        let icdf = cdf.icdf(100);
        let mut prev = 0;
        for i in 0..=100 {
            let r = icdf.rows_at_step(i);
            prop_assert!(r >= prev);
            prev = r;
        }
        prop_assert_eq!(icdf.max_rows(), cdf.rows_ranked());
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
    let cdf = AccessCdf::from_ranked_counts(counts);
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
    let cumulative = cdf.cumulative_counts();
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
        AccessCdf::from_ranked_counts(&[5, 3, 0, 0]).full_coverage_rows(),
        2
    );
    assert_eq!(AccessCdf::empty().full_coverage_rows(), 0);
}

/// Checks `icdf` against per-step `rows_for_access_fraction` at 1, 5, 100
/// and 1,000 steps.
fn assert_icdf_matches_searches(counts: &[u64]) {
    let cdf = AccessCdf::from_ranked_counts(counts);
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

/// Checks every read-only query of `map` against the `BTreeMap` reference.
fn assert_matches_reference(map: &FrequencyMap, reference: &BTreeMap<u64, u64>) {
    let expected: Vec<(u64, u64)> = reference.iter().map(|(&r, &c)| (r, c)).collect();
    prop_assert_eq!(map.iter().collect::<Vec<_>>(), expected.clone());
    prop_assert_eq!(map.distinct_rows(), reference.len() as u64);
    prop_assert_eq!(map.total_accesses(), reference.values().sum::<u64>());
    for row in (0..ROWS + 3).step_by(13) {
        prop_assert_eq!(map.count(row), reference.get(&row).copied().unwrap_or(0));
    }
    let mut ranked = expected;
    ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    prop_assert_eq!(
        map.ranked_rows(),
        ranked.iter().map(|&(r, _)| r).collect::<Vec<_>>()
    );
    prop_assert_eq!(
        map.ranked_counts(),
        ranked.iter().map(|&(_, c)| c).collect::<Vec<_>>()
    );
}

/// Row ids drawn by the interleaving test: few enough that bursts repeat
/// rows, many enough that the distinct-row list outgrows the compaction
/// threshold.
const ROWS: u64 = 1_500;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The sorted-run map agrees with a `BTreeMap` reference after every
    /// step of a random interleaving of `record` bursts, `record_n` (n may
    /// be 0) and `merge`, and equal maps compare equal whatever order they
    /// were built in.
    #[test]
    fn frequency_map_matches_a_btreemap_reference(
        steps in prop::collection::vec(
            (0u8..3, 0u64..ROWS, 0u64..4, prop::collection::vec(0u64..ROWS, 0..700)),
            1..10,
        ),
    ) {
        let mut map = FrequencyMap::new();
        let mut reference = BTreeMap::new();
        let mut accesses = Vec::new();
        for (kind, row, n, burst) in steps {
            match kind {
                0 => {
                    for &r in &burst {
                        map.record(r);
                        *reference.entry(r).or_insert(0) += 1;
                    }
                    accesses.extend(burst.iter().map(|&r| (r, 1)));
                }
                1 => {
                    map.record_n(row, n);
                    if n > 0 {
                        *reference.entry(row).or_insert(0) += n;
                    }
                    accesses.push((row, n));
                }
                _ => {
                    let other: FrequencyMap = burst.iter().copied().collect();
                    map.merge(&other);
                    for &r in &burst {
                        *reference.entry(r).or_insert(0) += 1;
                    }
                    accesses.extend(burst.iter().map(|&r| (r, 1)));
                }
            }
            assert_matches_reference(&map, &reference);
        }

        // The same accesses in reverse, and the reference's counts in
        // descending row order, build maps equal to `map`.
        let mut reversed = FrequencyMap::new();
        for &(r, n) in accesses.iter().rev() {
            if n == 1 {
                reversed.record(r);
            } else {
                reversed.record_n(r, n);
            }
        }
        let mut bulk = FrequencyMap::new();
        for (&r, &c) in reference.iter().rev() {
            bulk.record_n(r, c);
        }
        prop_assert!(reversed == map);
        prop_assert!(bulk == map);
        bulk.record(ROWS);
        prop_assert!(bulk != map);
    }
}

/// Edge cases of the CDF knee used by the serving cache's stat-guided
/// pinning: single-row tables, uniform CDFs with no knee, and degenerate
/// all-zero / never-accessed profiles.
mod knee_rank_edge_cases {
    use recshard_stats::{AccessCdf, FrequencyMap};

    #[test]
    fn single_row_table_knees_at_its_only_row() {
        let mut f = FrequencyMap::new();
        f.record_n(0, 1);
        let knee = AccessCdf::from_frequency(&f).knee_rank();
        assert_eq!(knee, 1, "the only accessed row is the whole head");

        // Heavier traffic on the same single row changes nothing.
        let mut f = FrequencyMap::new();
        f.record_n(0, 1_000_000);
        assert_eq!(AccessCdf::from_frequency(&f).knee_rank(), 1);
    }

    #[test]
    fn uniform_cdf_has_no_knee_and_pins_almost_nothing() {
        for rows in [2u64, 10, 1_000] {
            let mut f = FrequencyMap::new();
            for r in 0..rows {
                f.record_n(r, 7);
            }
            let cdf = AccessCdf::from_frequency(&f);
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
        // A frequency map that recorded nothing behaves like empty.
        let f = FrequencyMap::new();
        assert_eq!(AccessCdf::from_frequency(&f).knee_rank(), 0);
        // Ranked counts that are all zero carry zero total accesses.
        let cdf = AccessCdf::from_ranked_counts(&[0, 0, 0]);
        assert_eq!(cdf.total_accesses(), 0);
        assert_eq!(cdf.knee_rank(), 0);
    }

    #[test]
    fn knee_is_within_ranked_rows_and_covers_the_head() {
        // A two-tier distribution: the knee must sit at the head/tail
        // boundary and cover the head's share of accesses.
        let mut f = FrequencyMap::new();
        for r in 0..10u64 {
            f.record_n(r, 100);
        }
        for r in 10..1_000u64 {
            f.record_n(r, 1);
        }
        let cdf = AccessCdf::from_frequency(&f);
        let knee = cdf.knee_rank();
        assert!(knee >= 1 && knee <= cdf.rows_ranked());
        assert_eq!(knee, 10, "knee must sit exactly at the head/tail boundary");
        assert!(cdf.access_fraction(knee) > 0.5);
    }
}
