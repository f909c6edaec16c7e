//! Access-frequency CDFs and their piece-wise linear inverse (ICDF).
//!
//! Figure 5 of the paper plots, per feature, the cumulative fraction of all
//! table accesses covered by the hottest fraction of rows. RecShard's MILP
//! uses the *inverse* of that CDF — "how many rows do I need in HBM to cover
//! X% of accesses" — approximated by 100 uniformly spaced steps
//! (Section 4.2, constraints 4–7).

/// Cumulative distribution of accesses over ranked rows for one table.
///
/// Rows are ranked hottest-first; `cdf.access_fraction(k)` is the fraction of
/// all accesses covered by the `k` hottest rows. Rows never accessed during
/// profiling are not part of the ranking (their cumulative contribution is
/// zero), so `full_coverage_rows() <= hash_size`.
#[derive(Debug, Clone, PartialEq)]
pub struct AccessCdf {
    /// Cumulative access counts: `cumulative[i]` = accesses covered by the
    /// `i + 1` hottest rows.
    cumulative: Vec<u64>,
    total: u64,
    /// Rows covering every access: the index of the first entry of
    /// `cumulative` that reaches `total`, plus one (0 when nothing was
    /// accessed).
    covering_rows: u64,
}

impl AccessCdf {
    /// Builds a CDF from descending per-row access counts, summing them in
    /// place into the cumulative counts.
    ///
    /// # Panics
    ///
    /// Panics if the counts are not sorted in descending order.
    pub fn from_ranked_counts(mut counts: Vec<u64>) -> Self {
        let mut running = 0;
        let mut previous = u64::MAX;
        for count in &mut counts {
            assert!(*count <= previous, "ranked counts must be descending");
            previous = *count;
            running += *count;
            *count = running;
        }
        Self::from_cumulative(counts, running)
    }

    /// A degenerate CDF for a table that was never accessed during profiling.
    pub fn empty() -> Self {
        Self::from_cumulative(Vec::new(), 0)
    }

    fn from_cumulative(cumulative: Vec<u64>, total: u64) -> Self {
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

    /// Total number of profiled accesses.
    pub fn total_accesses(&self) -> u64 {
        self.total
    }

    /// Cumulative access counts: entry `i` is the number of accesses
    /// covered by the `i + 1` hottest rows.
    // recshard-lint: allow(test-only-pub) -- the profile golden pins these exact
    // counts; public paths expose only their ratios.
    pub fn cumulative_counts(&self) -> &[u64] {
        &self.cumulative
    }

    /// Number of hottest rows that cover every access: the rows with a
    /// nonzero count, and equal to
    /// [`rows_for_access_fraction(1.0)`](Self::rows_for_access_fraction),
    /// without its search. 0 when nothing was accessed.
    pub fn full_coverage_rows(&self) -> u64 {
        self.covering_rows
    }

    /// Fraction of accesses covered by the `rows` hottest rows (in `[0, 1]`).
    /// At or past [`full_coverage_rows`](Self::full_coverage_rows) it is
    /// exactly 1 and reads no count.
    pub fn access_fraction(&self, rows: u64) -> f64 {
        if self.total == 0 || rows == 0 {
            return 0.0;
        }
        if rows >= self.covering_rows {
            return 1.0;
        }
        let idx = (rows.min(self.cumulative.len() as u64) - 1) as usize;
        self.cumulative[idx] as f64 / self.total as f64
    }

    /// Minimum number of hottest rows needed to cover at least `fraction` of
    /// all accesses. `fraction` is clamped to `[0, 1]`; a NaN needs no rows.
    // recshard-lint: allow(test-only-pub) -- the reference search that tests hold
    // `icdf` and `full_coverage_rows` to.
    pub fn rows_for_access_fraction(&self, fraction: f64) -> u64 {
        let Some(target) = self.access_target(fraction) else {
            return 0;
        };
        // Binary search for the first cumulative count >= target.
        match self.cumulative.binary_search_by(|&c| {
            if c < target {
                std::cmp::Ordering::Less
            } else {
                std::cmp::Ordering::Greater
            }
        }) {
            Ok(i) | Err(i) => (i as u64 + 1).min(self.cumulative.len() as u64),
        }
    }

    /// The access count `fraction` of all accesses needs (clamped to
    /// `[0, 1]`, and at most the total even where `f64` rounds a large
    /// total up), or `None` when that takes no rows (a fraction of at most
    /// 0, or NaN).
    fn access_target(&self, fraction: f64) -> Option<u64> {
        if self.total == 0 || fraction.is_nan() || fraction <= 0.0 {
            return None;
        }
        let target = (fraction.min(1.0) * self.total as f64).ceil() as u64;
        Some(target.min(self.total))
    }

    /// The piece-wise linear inverse CDF used by the MILP: `steps + 1` points,
    /// where point `i` is the number of rows needed to cover `i / steps` of
    /// all accesses (Section 4.2 uses `steps = 100`).
    ///
    /// Point `i` equals `rows_for_access_fraction(i / steps)`. The targets
    /// never decrease with `i`, so each point's search starts where the
    /// previous one stopped: one forward pass over the cumulative counts.
    pub fn icdf(&self, steps: usize) -> Icdf {
        assert!(steps >= 1, "ICDF needs at least one step");
        let len = self.cumulative.len();
        let mut first = 0; // first index whose count may reach the target
        let rows = (0..=steps)
            .map(|i| {
                let Some(target) = self.access_target(i as f64 / steps as f64) else {
                    return 0;
                };
                // Gallop past `first` (offsets 0, 1, 3, 7, ...) to a count
                // that reaches the target, then search the last gap.
                let rest = &self.cumulative[first..];
                let mut end = 1;
                while end <= rest.len() && rest[end - 1] < target {
                    end *= 2;
                }
                let start = end / 2;
                first += start + rest[start..end.min(rest.len())].partition_point(|&c| c < target);
                (first + 1).min(len) as u64
            })
            .collect();
        Icdf { rows }
    }

    /// Rank of the CDF's *knee*: the number of hottest rows at which the
    /// curve's vertical distance above the uniform diagonal is maximal.
    ///
    /// Geometrically this is the point where adding more rows stops paying
    /// more than proportionally — the natural boundary between the "head"
    /// a serving cache should pin in HBM and the tail it should manage
    /// dynamically. For a perfectly uniform table the distance is ~0
    /// everywhere and the returned rank is the first index attaining the
    /// (degenerate) maximum, so near-uniform tables pin almost nothing.
    ///
    /// Returns 0 for an empty CDF.
    pub fn knee_rank(&self) -> u64 {
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

    /// Gini-style skew indicator: fraction of accesses covered by the top 1%
    /// of *accessed* rows. Close to 0.01 for uniform access, close to 1.0 for
    /// extremely skewed tables.
    pub fn top_percent_share(&self, percent: f64) -> f64 {
        if self.cumulative.is_empty() {
            return 0.0;
        }
        let rows = ((self.cumulative.len() as f64) * percent / 100.0)
            .ceil()
            .max(1.0) as u64;
        self.access_fraction(rows)
    }
}

/// Piece-wise linear inverse CDF: maps an access-percentage step to the
/// number of rows required (the paper's `ICDF_j(i)` in constraint 4).
#[derive(Debug, Clone, PartialEq)]
pub struct Icdf {
    rows: Vec<u64>,
}

impl Icdf {
    /// Number of steps (the paper uses 100, giving 101 points); 0 for an
    /// ICDF without points.
    pub fn steps(&self) -> usize {
        self.rows.len().saturating_sub(1)
    }

    /// Number of rows needed to reach step `i` (access fraction `i / steps`).
    ///
    /// # Panics
    ///
    /// Panics if `i > steps`.
    pub fn rows_at_step(&self, i: usize) -> u64 {
        self.rows[i]
    }

    /// All `(fraction, rows)` points.
    pub fn points(&self) -> impl Iterator<Item = (f64, u64)> + '_ {
        let steps = self.steps();
        self.rows
            .iter()
            .enumerate()
            .map(move |(i, &r)| (i as f64 / steps as f64, r))
    }

    /// Maximum number of rows (the rows needed for 100% access coverage —
    /// i.e. every row that was ever accessed); 0 for an ICDF without points.
    pub fn max_rows(&self) -> u64 {
        self.rows.last().copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Ranked counts of 110 rows: 1000 accesses, then 10 for each of 9
    /// rows, then 1 for each of 100.
    fn skewed_counts() -> Vec<u64> {
        let mut counts = vec![1000];
        counts.extend([10; 9]);
        counts.extend([1; 100]);
        counts
    }

    fn skewed_cdf() -> AccessCdf {
        AccessCdf::from_ranked_counts(skewed_counts())
    }

    #[test]
    fn cdf_monotone_and_normalised() {
        let cdf = skewed_cdf();
        let mut prev = 0.0;
        for rows in 0..=cdf.full_coverage_rows() {
            let f = cdf.access_fraction(rows);
            assert!(f >= prev - 1e-12);
            assert!((0.0..=1.0).contains(&f));
            prev = f;
        }
        assert!((cdf.access_fraction(cdf.full_coverage_rows()) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn skew_concentrates_in_head() {
        let cdf = skewed_cdf();
        // One row out of 110 covers 1000/1190 ≈ 84% of accesses.
        assert!(cdf.access_fraction(1) > 0.8);
        assert!(cdf.top_percent_share(1.0) > 0.8);
    }

    #[test]
    fn rows_for_fraction_inverts_access_fraction() {
        let cdf = skewed_cdf();
        for pct in [0.0, 0.1, 0.5, 0.84, 0.9, 0.99, 1.0] {
            let rows = cdf.rows_for_access_fraction(pct);
            assert!(
                cdf.access_fraction(rows) + 1e-12 >= pct,
                "pct {pct} rows {rows}"
            );
            if rows > 0 {
                assert!(cdf.access_fraction(rows - 1) < pct + 1e-12);
            }
        }
    }

    #[test]
    fn icdf_monotone_and_covers_all_rows_at_last_step() {
        let cdf = skewed_cdf();
        let icdf = cdf.icdf(100);
        assert_eq!(icdf.steps(), 100);
        let rows: Vec<u64> = icdf.points().map(|(_, r)| r).collect();
        assert!(rows.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(icdf.max_rows(), cdf.full_coverage_rows());
        assert_eq!(icdf.rows_at_step(0), 0);
    }

    #[test]
    fn uniform_distribution_needs_proportional_rows() {
        let cdf = AccessCdf::from_ranked_counts(vec![5; 1000]);
        let half = cdf.rows_for_access_fraction(0.5);
        assert!((half as f64 - 500.0).abs() <= 1.0);
        assert!(cdf.top_percent_share(10.0) < 0.12);
    }

    #[test]
    fn knee_separates_head_from_tail_on_skewed_cdf() {
        let cdf = skewed_cdf();
        let knee = cdf.knee_rank();
        // The single 1000-access row dominates; the knee must sit in the
        // small head, and the head it selects must cover most accesses.
        assert!((1..=10).contains(&knee), "knee {knee} outside the head");
        assert!(cdf.access_fraction(knee) > 0.8);
    }

    #[test]
    fn knee_is_small_for_uniform_cdf() {
        let cdf = AccessCdf::from_ranked_counts(vec![3; 500]);
        let knee = cdf.knee_rank();
        // Uniform access has no knee: the degenerate maximum lands on the
        // first rank, so a stat-guided cache pins (almost) nothing.
        assert!(knee <= 1, "uniform CDF produced knee {knee}");
        assert_eq!(AccessCdf::empty().knee_rank(), 0);
    }

    #[test]
    fn empty_cdf_behaves() {
        let cdf = AccessCdf::empty();
        assert_eq!(cdf.access_fraction(10), 0.0);
        assert_eq!(cdf.rows_for_access_fraction(0.9), 0);
        assert_eq!(cdf.icdf(10).max_rows(), 0);
    }

    #[test]
    fn nan_fraction_needs_no_rows() {
        // `f64::clamp` keeps a NaN, and `NaN as u64` is 0: a target of 0
        // would stop the search at the first row.
        let cdf = AccessCdf::from_ranked_counts(vec![5, 3, 2, 1]);
        assert_eq!(cdf.rows_for_access_fraction(f64::NAN), 0);
        assert_eq!(cdf.rows_for_access_fraction(-0.5), 0);
        assert_eq!(cdf.rows_for_access_fraction(1.0), 4);
    }

    #[test]
    fn full_coverage_stops_at_the_last_nonzero_count() {
        let cdf = AccessCdf::from_ranked_counts(vec![5, 3, 0, 0]);
        assert_eq!(cdf.full_coverage_rows(), 2);
        assert_eq!(cdf.rows_for_access_fraction(1.0), 2);
        assert_eq!(cdf.access_fraction(1), 5.0 / 8.0);
        assert_eq!(cdf.access_fraction(2), 1.0);
        assert_eq!(cdf.access_fraction(9), 1.0);
        assert_eq!(
            AccessCdf::from_ranked_counts(vec![0, 0]).full_coverage_rows(),
            0
        );
    }

    #[test]
    fn icdf_without_points_has_no_rows_and_no_steps() {
        // `AccessCdf::icdf` always builds at least two points, but the
        // accessors are total: an ICDF without points has no steps and no
        // rows rather than underflowing.
        let icdf = Icdf { rows: Vec::new() };
        assert_eq!(icdf.steps(), 0);
        assert_eq!(icdf.max_rows(), 0);
        assert_eq!(icdf.points().count(), 0);
    }

    #[test]
    fn from_ranked_counts_matches_frequency_path() {
        // The same accesses recorded one by one, coldest row first, so only
        // the ranking puts the hottest row first.
        let mut counters = crate::freq::RowCounters::new(1);
        for (row, &count) in skewed_counts().iter().enumerate().rev() {
            for _ in 0..count {
                counters.record(0, row as u64);
            }
        }
        let (rows, counts) = counters.into_ranked().next().unwrap();
        assert_eq!(rows, (0..110).collect::<Vec<u64>>());
        assert_eq!(AccessCdf::from_ranked_counts(counts), skewed_cdf());
    }

    #[test]
    #[should_panic(expected = "ranked counts must be descending")]
    fn unsorted_counts_rejected() {
        let _ = AccessCdf::from_ranked_counts(vec![1, 5, 2]);
    }
}
