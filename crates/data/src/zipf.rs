//! Zipf (power-law) sampling over categorical value spaces.
//!
//! Section 3.1 of the paper observes that the vast majority of sparse features
//! have value frequency distributions that follow a power law with a
//! per-feature strength. The [`Zipf`] sampler draws categorical value ranks
//! from a Zipf distribution with configurable exponent and support size using
//! rejection-inversion sampling (Hörmann & Derflinger), which is `O(1)` per
//! sample even for supports in the hundreds of millions.
//!
//! # Guide tables, and why they are exact
//!
//! [`ZipfGuide`] makes most draws cost one RNG word and one table load
//! instead of a `powf`, while returning exactly what [`Zipf::sample`]
//! returns — same ranks, same number of RNG words consumed. It is a guide
//! table (Chen & Asau's indexed search) over the sampler's own first
//! rejection-inversion step, [`Zipf::try_draw`]:
//!
//! 1. A draw maps its RNG word `w` to `r = (w >> 11) · 2⁻⁵³ ∈ [0, 1)`
//!    (vendored rand's `gen::<f64>()`), then `u = H(n + ½) + r·(H(1.5) − 1 −
//!    H(n + ½))` and `x = H⁻¹(u)`. In exact arithmetic `x` is a strictly
//!    decreasing function of `r`.
//! 2. The step returns rank `k` without a second test when `x` lies in
//!    `k`'s *squeeze interval* `[max(k − ½, k − t), k + ½)`, `t` being the
//!    sampler's dense threshold (for `k = n` the clamp extends it to `+∞`).
//!    Mapped through `H`, that interval is an interval of `r`.
//! 3. The top [`ZipfGuide::BITS`] bits of `w` select one of
//!    [`ZipfGuide::CELLS`] equal cells of `r`. A cell that lies inside rank
//!    `k`'s `r`-interval shrunk by a margin `m` on both sides always returns
//!    `k` from its first word, so the guide stores `k` for it. Every other
//!    cell is a *miss*: the draw runs [`Zipf::try_draw`] on the same word and
//!    continues the rejection loop exactly as [`Zipf::sample`] does.
//!
//! The margin covers floating-point error: rounding `u` and `r` contributes
//! a few `2⁻⁵²` in `r`, and each `powf` or the `H` evaluations the build
//! uses, a few `2⁻⁵²` scaled by the conditioning `1/|1 − s|` of
//! `H(x) = (x^(1−s) − 1)/(1 − s)` near `s = 1` (the `ln`/`exp` branch taken
//! within `10⁻⁹` of `s = 1` is well conditioned). With
//! `m = 10⁻⁹ · (1 + 1/|1 − s|)` (`2·10⁻⁹` on the `ln` branch) the margin is
//! about `10⁶` times that error bound. Cell boundaries come from two forward
//! `H` evaluations per head rank; the build stops at the first rank whose
//! interval is narrower than one cell (interval widths fall with the rank),
//! so a build costs microseconds. `s = 0` keeps its integer
//! `gen_range` path and gets no guide.
//!
//! The property tests in this module check the guided draw against
//! [`Zipf::sample`] draw for draw, RNG state included, across supports up to
//! `2³¹` and exponents in `[0, 3]`; the workspace tests check every resolved
//! cell of the benchmark models at both ends of its word range.

use rand::Rng;
use serde::{Deserialize, Serialize};

/// A Zipf distribution over ranks `1..=n` with exponent `s >= 0`.
///
/// `s == 0` degenerates to the uniform distribution over `1..=n`; larger `s`
/// concentrates mass on the low ranks. Sampled ranks are returned 0-based
/// (`0..n`) for convenient use as categorical value identifiers.
///
/// ```
/// use recshard_data::Zipf;
/// use rand::SeedableRng;
///
/// let zipf = Zipf::new(1_000_000, 1.1);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let v = zipf.sample(&mut rng);
/// assert!(v < 1_000_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Zipf {
    n: u64,
    s: f64,
    // Precomputed constants for rejection-inversion sampling.
    h_x1: f64,
    h_n: f64,
    dense_threshold: f64,
}

impl Zipf {
    /// Creates a Zipf distribution over `n` categories with exponent `s`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`, `s < 0` or `s` is not finite.
    pub fn new(n: u64, s: f64) -> Self {
        assert!(n > 0, "support size must be non-zero");
        assert!(
            s >= 0.0 && s.is_finite(),
            "exponent must be finite and non-negative"
        );
        let h_x1 = Self::h_static(1.5, s) - 1.0;
        let h_n = Self::h_static(n as f64 + 0.5, s);
        let dense_threshold =
            2.0 - Self::h_inv_static(Self::h_static(2.5, s) - Self::pow_neg(2.0, s), s);
        Self {
            n,
            s,
            h_x1,
            h_n,
            dense_threshold,
        }
    }

    /// The number of categories in the support.
    pub fn support(&self) -> u64 {
        self.n
    }

    /// The Zipf exponent.
    pub fn exponent(&self) -> f64 {
        self.s
    }

    #[inline]
    fn pow_neg(x: f64, s: f64) -> f64 {
        (-s * x.ln()).exp()
    }

    /// H(x) = ((x)^(1-s) - 1) / (1 - s), with the s->1 limit ln(x).
    #[inline]
    fn h_static(x: f64, s: f64) -> f64 {
        if (s - 1.0).abs() < 1e-9 {
            x.ln()
        } else {
            (x.powf(1.0 - s) - 1.0) / (1.0 - s)
        }
    }

    #[inline]
    fn h_inv_static(x: f64, s: f64) -> f64 {
        if (s - 1.0).abs() < 1e-9 {
            x.exp()
        } else {
            (1.0 + (1.0 - s) * x).powf(1.0 / (1.0 - s))
        }
    }

    /// Draws one 0-based categorical value, with rank 0 being the most likely.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        if self.s == 0.0 {
            return rng.gen_range(0..self.n);
        }
        self.sample_from_word(rng.gen(), rng)
    }

    /// One rejection-inversion step (Hörmann & Derflinger 1996) driven by
    /// the RNG word `word`: the 0-based rank it accepts, or `None` when the
    /// step rejects and the draw needs another word.
    ///
    /// [`Zipf::sample`] (for `s > 0`) is exactly a loop over this step, each
    /// iteration consuming one `u64` from the generator. `s == 0` draws
    /// through `gen_range` instead and never calls it.
    #[inline]
    pub fn try_draw(&self, word: u64) -> Option<u64> {
        let u = self.h_n + unit_f64(word) * (self.h_x1 - self.h_n);
        let x = Self::h_inv_static(u, self.s);
        let k = (x + 0.5).floor().clamp(1.0, self.n as f64);
        if k - x <= self.dense_threshold
            || u >= Self::h_static(k + 0.5, self.s) - Self::pow_neg(k, self.s)
        {
            Some(k as u64 - 1)
        } else {
            None
        }
    }

    /// Finishes a draw (`s > 0`) whose first RNG word is `word`, pulling
    /// further words from `rng` while steps reject.
    #[inline]
    fn sample_from_word<R: Rng + ?Sized>(&self, mut word: u64, rng: &mut R) -> u64 {
        loop {
            if let Some(k) = self.try_draw(word) {
                return k;
            }
            word = rng.gen();
        }
    }

    /// The `r`-space safety margin of the guide-table build (see the module
    /// doc), or `None` when the distribution gets no guide.
    fn guide_margin(&self) -> Option<f64> {
        let span = self.h_n - self.h_x1;
        if self.s == 0.0 || !(span.is_finite() && span > 0.0 && self.dense_threshold.is_finite()) {
            return None;
        }
        let conditioning = if (self.s - 1.0).abs() < 1e-9 {
            1.0
        } else {
            1.0 / (1.0 - self.s).abs()
        };
        Some(1e-9 * (1.0 + conditioning))
    }

    /// Resolves every guide cell that lies inside one rank's squeeze
    /// interval (see the module doc); unresolved cells hold
    /// [`ZipfGuide::MISS`].
    fn guide_cells(&self) -> Vec<u16> {
        let Some(margin) = self.guide_margin() else {
            return Vec::new();
        };
        let mut cells = vec![ZipfGuide::MISS; ZipfGuide::CELLS];
        let scale = ZipfGuide::CELLS as f64;
        let span = self.h_n - self.h_x1;
        // `r` of a continuous position `x`: the inverse of step 1.
        let r_of = |x: f64| (self.h_n - Self::h_static(x, self.s)) / span;
        // Ranks above `CELLS` cannot own a whole cell (widths fall with the
        // rank and sum to at most 1), so the stored rank fits a `u16`.
        for (rank, k) in (1..=self.n.min(ZipfGuide::CELLS as u64)).enumerate() {
            let kf = k as f64;
            let r_top = r_of((kf - 0.5).max(kf - self.dense_threshold));
            let r_bottom = if k == self.n {
                f64::NEG_INFINITY
            } else {
                r_of(kf + 0.5)
            };
            if r_top - r_bottom < 1.0 / scale {
                break;
            }
            // Cells `c` with `[c, c + 1) / CELLS` inside the shrunk interval.
            let first = ((r_bottom + margin) * scale).ceil().max(0.0);
            let end = ((r_top - margin) * scale).floor().min(scale);
            if first < end {
                let rank = rank as u16;
                cells[first as usize..end as usize].fill(rank);
            }
        }
        cells
    }

    /// Draws `count` 0-based categorical values.
    pub fn sample_many<R: Rng + ?Sized>(&self, rng: &mut R, count: usize) -> Vec<u64> {
        (0..count).map(|_| self.sample(rng)).collect()
    }

    /// Exact probability mass of the 0-based rank `k` (expensive for large
    /// `n` on first use: requires the harmonic normalizer).
    pub fn pmf(&self, k: u64) -> f64 {
        assert!(k < self.n, "rank out of support");
        let z: f64 = (1..=self.n).map(|i| 1.0 / (i as f64).powf(self.s)).sum();
        (1.0 / ((k + 1) as f64).powf(self.s)) / z
    }
}

/// Converts one RNG word to the `[0, 1)` float vendored rand's
/// `gen::<f64>()` draws from it: the top 53 bits, scaled by `2⁻⁵³`.
#[inline]
fn unit_f64(word: u64) -> f64 {
    (word >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// A guide table over a [`Zipf`] distribution: the rank each of
/// [`ZipfGuide::CELLS`] RNG-word cells is known to return, so most draws
/// skip the rejection-inversion arithmetic. Draws are bit-identical to
/// [`Zipf::sample`]; the module doc gives the argument.
///
/// ```
/// use rand::SeedableRng;
/// use recshard_data::{Zipf, ZipfGuide};
///
/// let zipf = Zipf::new(1_000_000, 1.1);
/// let guide = ZipfGuide::new(zipf);
/// let mut a = rand::rngs::StdRng::seed_from_u64(1);
/// let mut b = a.clone();
/// for _ in 0..1000 {
///     assert_eq!(guide.sample(&mut a), zipf.sample(&mut b));
/// }
/// assert_eq!(a, b);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ZipfGuide {
    zipf: Zipf,
    /// 0-based rank per cell, [`ZipfGuide::MISS`] when unresolved; empty
    /// when the distribution has no guide.
    cells: Vec<u16>,
}

impl ZipfGuide {
    /// Bits of the RNG word that select a cell.
    pub const BITS: u32 = 12;
    /// Number of cells.
    pub const CELLS: usize = 1 << Self::BITS;
    /// Cell value of an unresolved cell.
    const MISS: u16 = u16::MAX;

    /// Builds the guide for `zipf`.
    pub fn new(zipf: Zipf) -> Self {
        Self {
            zipf,
            cells: zipf.guide_cells(),
        }
    }

    /// The guided distribution.
    pub fn zipf(&self) -> &Zipf {
        &self.zipf
    }

    /// Whether the guide has cells. Without them (`s == 0`) every draw goes
    /// through [`Zipf::sample`], whose first RNG word is not a step word.
    pub fn is_guided(&self) -> bool {
        !self.cells.is_empty()
    }

    /// The cell the RNG word `word` falls in.
    #[inline]
    pub fn cell(word: u64) -> usize {
        (word >> (64 - Self::BITS)) as usize
    }

    /// The rank every word in `cell` draws from its first step, if the
    /// guide resolved the cell.
    #[inline]
    pub fn rank(&self, cell: usize) -> Option<u64> {
        match self.cells.get(cell) {
            Some(&rank) if rank != Self::MISS => Some(u64::from(rank)),
            _ => None,
        }
    }

    /// Finishes a guided draw whose first RNG word is `word`: the cell's
    /// rank when resolved, otherwise the rejection loop from `word` on.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if the guide has no cells: an unguided
    /// draw's first word is not a step word.
    #[inline]
    pub fn sample_from_word<R: Rng + ?Sized>(&self, word: u64, rng: &mut R) -> u64 {
        debug_assert!(self.is_guided(), "unguided draws go through Zipf::sample");
        match self.rank(Self::cell(word)) {
            Some(rank) => rank,
            None => self.zipf.sample_from_word(word, rng),
        }
    }

    /// Draws one 0-based value; identical to [`Zipf::sample`] on the same
    /// generator state, and leaves the generator in the same state.
    #[inline]
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        if !self.is_guided() {
            return self.zipf.sample(rng);
        }
        let word = rng.gen();
        self.sample_from_word(word, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn seeded() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(0xC0FFEE)
    }

    #[test]
    fn samples_within_support() {
        let zipf = Zipf::new(1000, 1.2);
        let mut rng = seeded();
        for _ in 0..10_000 {
            assert!(zipf.sample(&mut rng) < 1000);
        }
    }

    #[test]
    fn uniform_when_exponent_zero() {
        let zipf = Zipf::new(100, 0.0);
        let mut rng = seeded();
        let mut counts = vec![0u64; 100];
        for _ in 0..100_000 {
            counts[zipf.sample(&mut rng) as usize] += 1;
        }
        let max = *counts.iter().max().unwrap() as f64;
        let min = *counts.iter().min().unwrap() as f64;
        assert!(
            max / min < 1.5,
            "uniform sampling should be flat, got {min}..{max}"
        );
    }

    #[test]
    fn skew_concentrates_head() {
        let zipf = Zipf::new(1_000_000, 1.1);
        let mut rng = seeded();
        let samples = zipf.sample_many(&mut rng, 50_000);
        let head = samples.iter().filter(|&&v| v < 100).count() as f64 / samples.len() as f64;
        // With s=1.1 and n=1e6 the top-100 ranks carry well over a third of the mass.
        assert!(head > 0.3, "head mass too small: {head}");
    }

    #[test]
    fn higher_exponent_is_more_skewed() {
        let mut rng = seeded();
        let weak = Zipf::new(100_000, 0.6);
        let strong = Zipf::new(100_000, 1.4);
        let head_mass = |z: &Zipf, rng: &mut rand::rngs::StdRng| {
            let s = z.sample_many(rng, 20_000);
            s.iter().filter(|&&v| v < 10).count() as f64 / s.len() as f64
        };
        let weak_head = head_mass(&weak, &mut rng);
        let strong_head = head_mass(&strong, &mut rng);
        assert!(strong_head > weak_head);
    }

    #[test]
    fn pmf_sums_to_one_small_support() {
        let zipf = Zipf::new(50, 0.9);
        let total: f64 = (0..50).map(|k| zipf.pmf(k)).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn empirical_matches_pmf_for_head() {
        let zipf = Zipf::new(1_000, 1.0);
        let mut rng = seeded();
        let n = 200_000;
        let samples = zipf.sample_many(&mut rng, n);
        for k in 0..5u64 {
            let expected = zipf.pmf(k);
            let got = samples.iter().filter(|&&v| v == k).count() as f64 / n as f64;
            assert!(
                (got - expected).abs() < 0.01 + expected * 0.15,
                "rank {k}: expected {expected}, got {got}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "support size must be non-zero")]
    fn zero_support_panics() {
        let _ = Zipf::new(0, 1.0);
    }

    #[test]
    fn unit_f64_is_vendored_gen_f64() {
        let mut words = seeded();
        let mut floats = seeded();
        for _ in 0..10_000 {
            let w: u64 = words.gen();
            assert_eq!(unit_f64(w).to_bits(), floats.gen::<f64>().to_bits());
        }
    }

    #[test]
    fn sample_is_a_loop_over_try_draw() {
        let zipf = Zipf::new(50_000, 0.9);
        let mut a = seeded();
        let mut b = seeded();
        for _ in 0..10_000 {
            let stepped = loop {
                if let Some(k) = zipf.try_draw(a.gen()) {
                    break k;
                }
            };
            assert_eq!(stepped, zipf.sample(&mut b));
        }
        assert_eq!(a, b);
    }

    #[test]
    fn guide_resolves_more_cells_with_more_skew_and_less_support() {
        let resolved = |n: u64, s: f64| {
            let guide = ZipfGuide::new(Zipf::new(n, s));
            (0..ZipfGuide::CELLS)
                .filter(|&c| guide.rank(c).is_some())
                .count()
        };
        for n in [1 << 12, 1 << 16, 1 << 20] {
            let by_skew: Vec<usize> = [0.8, 1.0, 1.05, 1.3, 1.6]
                .iter()
                .map(|&s| resolved(n, s))
                .collect();
            assert!(by_skew.windows(2).all(|w| w[0] < w[1]), "{by_skew:?}");
            // Nine in ten draws of a strongly skewed feature hit the guide.
            assert!(10 * by_skew[4] > 9 * ZipfGuide::CELLS, "{by_skew:?}");
        }
        assert!(resolved(1 << 12, 1.05) > resolved(1 << 20, 1.05));
        assert!(!ZipfGuide::new(Zipf::new(1000, 0.0)).is_guided());
    }

    #[test]
    fn resolved_cells_return_their_rank_at_both_word_ends() {
        for (n, s) in [
            (1, 1.2),
            (2, 0.5),
            (3, 3.0),
            (4096, 0.05),
            (1 << 31, 1.0),
            (777, 1.0 + 1e-7),
        ] {
            let zipf = Zipf::new(n, s);
            let guide = ZipfGuide::new(zipf);
            for cell in 0..ZipfGuide::CELLS {
                if let Some(rank) = guide.rank(cell) {
                    let lo = (cell as u64) << (64 - ZipfGuide::BITS);
                    let hi = lo | (u64::MAX >> ZipfGuide::BITS);
                    assert_eq!(zipf.try_draw(lo), Some(rank), "n={n} s={s} cell {cell}");
                    assert_eq!(zipf.try_draw(hi), Some(rank), "n={n} s={s} cell {cell}");
                }
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(96))]

        /// The guided draw equals `Zipf::sample` draw for draw and leaves the
        /// generator in the same state, across supports and exponents —
        /// including `s = 1` and `1 ± 1e-10` (the `ln` branch), the
        /// ill-conditioned `1 ± 1e-7`, `s < 1` and `s = 0` (no guide).
        #[test]
        fn guided_draws_equal_sample(
            n in 1u64..=(1u64 << 31),
            small_n in 1u64..64,
            pick in 0u32..9,
            raw in 0.0f64..3.0,
            seed in proptest::any::<u64>(),
        ) {
            let s = match pick {
                0 => 0.0,
                1 => 1.0,
                2 => 1.0 + 1e-10,
                3 => 1.0 - 1e-10,
                4 => 1.0 + 1e-7,
                5 => raw / 3.0,
                _ => raw,
            };
            // Small supports exercise the clamped top rank.
            let n = if pick % 2 == 0 { n } else { small_n };
            let zipf = Zipf::new(n, s);
            let guide = ZipfGuide::new(zipf);
            let mut a = rand::rngs::StdRng::seed_from_u64(seed);
            let mut b = a.clone();
            for _ in 0..4_000 {
                proptest::prop_assert_eq!(guide.sample(&mut a), zipf.sample(&mut b));
            }
            proptest::prop_assert_eq!(a, b);
        }
    }

    #[test]
    fn exponent_one_exact_limit_handling() {
        // s = 1.0 exercises the logarithmic branch of H.
        let zipf = Zipf::new(10_000, 1.0);
        let mut rng = seeded();
        for _ in 0..5000 {
            assert!(zipf.sample(&mut rng) < 10_000);
        }
    }
}
