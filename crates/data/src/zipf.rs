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
//! 3. The top `b` bits of `w` select one of `2ᵇ` equal cells of `r`. A cell
//!    that lies inside rank `k`'s `r`-interval shrunk by a margin `m` on
//!    both sides always returns `k` from its first word, so the guide stores
//!    `k` for it. Every other cell is a *miss*: the draw runs
//!    [`Zipf::try_draw`] on the same word and continues the rejection loop
//!    exactly as [`Zipf::sample`] does.
//!
//! Nothing in the argument depends on `b`: [`Zipf::resolve_cells`] resolves
//! cells at any resolution. [`ZipfGuide::new`] stores `u16` ranks at
//! [`ZipfGuide::BITS`] `= 12` (8 KB), and [`ZipfGuide::compact`] byte ranks
//! at [`ZipfGuide::COMPACT_BITS`] `= 10` (1 KB), where ranks from 255 up
//! stay misses: on the 5,000-table benchmark model every rank that owns a
//! cell at 10 bits is at most 104, and the byte guides resolve 70% of its
//! draws against 78% for the 12-bit ones. The trace kernel's per-table
//! sampler (`recshard_memsim::TableSampler`) stores at 15 bits only the
//! two-bit memory tier of each resolved rank's row, which is all it needs.
//!
//! The margin covers floating-point error: rounding `u` and `r` contributes
//! a few `2⁻⁵²` in `r`, and each `powf` or the `H` evaluations the build
//! uses, a few `2⁻⁵²` scaled by the conditioning `1/|1 − s|` of
//! `H(x) = (x^(1−s) − 1)/(1 − s)` near `s = 1` (the `ln`/`exp` branch taken
//! within `10⁻⁹` of `s = 1` is well conditioned). With
//! `m = 10⁻⁹ · (1 + 1/|1 − s|)` (`2·10⁻⁹` on the `ln` branch) the margin is
//! about `10⁶` times that error bound. `s = 0` keeps its integer
//! `gen_range` path and gets no guide.
//!
//! The build walks the ranks from the head and costs one `H` evaluation
//! per rank, `H(k + ½)`, at the top of rank `k`'s squeeze interval. The
//! bottom `H(k − t)` is not evaluated but bounded from above by the
//! concavity of `H` (its derivative `x^(−s)` falls): `H(k − t) ≤ H(k − ½) +
//! (½ − t) · (H(k − ½) − H(k − 1.5))`, both terms known from the two ranks
//! before. Only rank 1 evaluates its bottom. The bounded interval lies inside
//! the squeeze interval, so it can only lose cells, never resolve a wrong
//! one; the bound's few roundings sit inside the same margin. The walk
//! stops at the first rank whose interval is narrower than a given number
//! of cells (interval widths fall with the rank): one cell for
//! [`ZipfGuide`], four for the 15-bit tier map, whose narrower ranks would
//! cost more to walk than their misses cost to draw. Stopping early only
//! leaves cells as misses.
//!
//! # The pooling guide
//!
//! [`PoolingGuide`] does the same for the long-tail pooling factor, which
//! [`PoolingSpec::sample`] draws from one word as `1 + g`, capped at `max`,
//! with `g = ⌊ln u / ln q⌋`, `u = max(r, MIN_POSITIVE)`, `q = 1 − p` and
//! `p = 1/mean` clamped to `[10⁻⁶, 1]`. `g ≥ j` exactly when `u ≤ qʲ`, so
//! factor `v < max` is drawn for `u ∈ (qᵛ, qᵛ⁻¹]` (for `v = 1` the upper
//! end is open, as `u < 1`) and the cap for `u ≤ q^(max−1)`. A cell strictly
//! inside `(qᵛ(1 + m), qᵛ⁻¹(1 − m))` returns `v`, and every other cell falls
//! back to the spec's draw on the same word. The boundaries are
//! `exp(v · ln q)` with the draw's own `ln q`, so rounding moves them, and
//! `ln u` and the division move the draw, by a relative few `2⁻⁵²` times
//! `|ln u| ≤ 37` (for `u ≥ 2⁻⁵³`); `m = 10⁻⁹` is more than `10⁴` times
//! that. Only `u = 0`, in cell 0, lies below `2⁻⁵³`; its `MIN_POSITIVE`
//! draws the largest factor of the cell, and cell 0 resolves to a factor
//! `v < max` only when `qᵛ` underflows to 0, below `MIN_POSITIVE`. Factors
//! are stored in a byte, so caps above 255 get no guide; `OneHot` and
//! `Constant` draw no word and need none.
//!
//! The property tests in this module check the guided draws against
//! [`Zipf::sample`] and [`PoolingSpec::sample`] draw for draw, RNG state
//! included, across supports up to `2³¹`, exponents in `[0, 3]`, pooling
//! means in `[1, 200]` and caps up to 254; the workspace tests check every
//! resolved cell of the benchmark models at both ends of its word range.

use crate::pooling::{long_tail_factor, long_tail_ln_q, PoolingSpec};
use rand::Rng;
use std::ops::Range;
use std::sync::Arc;

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
#[derive(Debug, Clone, Copy, PartialEq)]
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
    /// further words from `rng` while steps reject: [`Zipf::sample`] after
    /// it drew `word`.
    #[inline]
    pub fn sample_from_word<R: Rng + ?Sized>(&self, mut word: u64, rng: &mut R) -> u64 {
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

    /// Walks the ranks whose squeeze interval (see the module doc) holds
    /// whole cells of a `2^bits`-cell guide over the RNG word, calling
    /// `visit(rank, cells)` with each 0-based rank and the cells every word
    /// of which returns that rank from its first step. The walk stops at the
    /// first rank whose interval is narrower than `min_cells` cells; every
    /// cell it does not visit is a miss. Returns `false`, visiting nothing,
    /// when the distribution gets no guide (`s == 0`).
    ///
    /// Each rank costs one `H` evaluation, at the top of its squeeze
    /// interval, `x = k + ½`; the bottom, `x = k − t`, is bounded from the
    /// two evaluations before by the concavity of `H` (module doc).
    pub fn resolve_cells(
        &self,
        bits: u32,
        min_cells: u32,
        mut visit: impl FnMut(u64, Range<usize>),
    ) -> bool {
        let Some(margin) = self.guide_margin() else {
            return false;
        };
        let s = self.s;
        let scale = (1u64 << bits) as f64;
        let min_width = f64::from(min_cells) / scale;
        let span = self.h_n - self.h_x1;
        // `r` of a position whose `H` is `h`: the inverse of step 1.
        let r_of = |h: f64| (self.h_n - h) / span;
        let t = self.dense_threshold;
        // `H(k − 1.5)` and `H(k − ½)`, shifted along as `k` rises.
        let mut h_before = Self::h_static(0.5, s);
        let mut h_prev = h_before;
        // Ranks above `2^bits` cannot own a whole cell (widths fall with
        // the rank and sum to at most 1).
        for k in 1..=self.n.min(1 << bits) {
            // `H` at the bottom and the top of rank `k`'s squeeze interval;
            // the bottom may be overestimated, which only shrinks it.
            let h_bottom = if k == 1 {
                Self::h_static(0.5f64.max(1.0 - t), s)
            } else if t >= 0.5 {
                h_prev
            } else {
                h_prev + (0.5 - t) * (h_prev - h_before)
            };
            let h_top = Self::h_static(k as f64 + 0.5, s);
            // `r` falls as `x` rises.
            let r_high = r_of(h_bottom);
            let r_low = if k == self.n {
                f64::NEG_INFINITY
            } else {
                r_of(h_top)
            };
            if r_high - r_low < min_width {
                break;
            }
            // Cells `c` with `[c, c + 1) / 2^bits` inside the shrunk interval.
            let first = ((r_low + margin) * scale).ceil().max(0.0);
            let end = ((r_high - margin) * scale).floor().min(scale);
            if first < end {
                visit(k - 1, first as usize..end as usize);
            }
            h_before = h_prev;
            h_prev = h_top;
        }
        true
    }
}

/// Converts one RNG word to the `[0, 1)` float vendored rand's
/// `gen::<f64>()` draws from it: the top 53 bits, scaled by `2⁻⁵³`.
#[inline]
pub(crate) fn unit_f64(word: u64) -> f64 {
    (word >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// A guide table over a [`Zipf`] distribution: the rank each of
/// [`ZipfGuide::CELLS`] RNG-word cells is known to return, so most draws
/// skip the rejection-inversion arithmetic. Draws are bit-identical to
/// [`Zipf::sample`]; the module doc gives the argument.
///
/// [`ZipfGuide::new`] stores a `u16` rank per cell at [`ZipfGuide::BITS`]
/// (8 KB). [`ZipfGuide::compact`] stores a byte per cell at
/// [`ZipfGuide::COMPACT_BITS`] (1 KB), for thousands of tables at once:
/// ranks from 255 up stay misses there.
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
    cells: RankCells,
}

/// A [`ZipfGuide`]'s cells: the 0-based rank per cell, the cell type's
/// `MAX` when unresolved.
#[derive(Debug, Clone, PartialEq)]
enum RankCells {
    /// The distribution has no guide (`s == 0`).
    Unguided,
    /// [`ZipfGuide::CELLS`] `u16` ranks.
    Wide(Box<[u16; ZipfGuide::CELLS]>),
    /// [`ZipfGuide::COMPACT_CELLS`] byte ranks.
    Compact(Box<[u8; ZipfGuide::COMPACT_CELLS]>),
}

impl ZipfGuide {
    /// Bits of the RNG word that select a cell of [`ZipfGuide::new`]'s guide.
    pub const BITS: u32 = 12;
    /// Number of cells of [`ZipfGuide::new`]'s guide.
    pub const CELLS: usize = 1 << Self::BITS;
    /// Bits of the RNG word that select a cell of [`ZipfGuide::compact`]'s
    /// guide.
    pub const COMPACT_BITS: u32 = 10;
    /// Number of cells of [`ZipfGuide::compact`]'s guide.
    pub const COMPACT_CELLS: usize = 1 << Self::COMPACT_BITS;

    /// Builds the guide for `zipf`: a `u16` rank per cell at
    /// [`BITS`](Self::BITS).
    pub fn new(zipf: Zipf) -> Self {
        let mut cells = Box::new([u16::MAX; Self::CELLS]);
        let guided = zipf.resolve_cells(Self::BITS, 1, |rank, resolved| {
            // The walk visits ranks below `CELLS`, so the rank fits a `u16`.
            cells[resolved].fill(rank as u16);
        });
        Self::with_cells(zipf, guided.then_some(RankCells::Wide(cells)))
    }

    /// Builds the guide for `zipf` at a byte per cell and
    /// [`COMPACT_BITS`](Self::COMPACT_BITS): 1 KB instead of 8 KB, for
    /// thousands of tables at once. Cells of ranks from 255 up stay misses.
    pub fn compact(zipf: Zipf) -> Self {
        let mut cells = Box::new([u8::MAX; Self::COMPACT_CELLS]);
        let guided = zipf.resolve_cells(Self::COMPACT_BITS, 1, |rank, resolved| {
            if let Ok(rank) = u8::try_from(rank) {
                if rank != u8::MAX {
                    cells[resolved].fill(rank);
                }
            }
        });
        Self::with_cells(zipf, guided.then_some(RankCells::Compact(cells)))
    }

    fn with_cells(zipf: Zipf, cells: Option<RankCells>) -> Self {
        Self {
            zipf,
            cells: cells.unwrap_or(RankCells::Unguided),
        }
    }

    /// Heap bytes the cells take.
    pub(crate) fn heap_bytes(&self) -> usize {
        match self.cells {
            RankCells::Unguided => 0,
            RankCells::Wide(_) => std::mem::size_of::<[u16; Self::CELLS]>(),
            RankCells::Compact(_) => Self::COMPACT_CELLS,
        }
    }

    /// The rank every word in `cell` (of [`CELLS`](Self::CELLS) or, for a
    /// [`compact`](Self::compact) guide,
    /// [`COMPACT_CELLS`](Self::COMPACT_CELLS)) draws from its first step,
    /// if the guide resolved the cell.
    #[inline]
    // recshard-lint: allow(test-only-pub) -- the guide exactness tests check
    // each cell's resolved rank through it; no public path shows a cell.
    pub fn rank(&self, cell: usize) -> Option<u64> {
        let (rank, miss) = match &self.cells {
            RankCells::Unguided => return None,
            RankCells::Wide(cells) => (u64::from(*cells.get(cell)?), u64::from(u16::MAX)),
            RankCells::Compact(cells) => (u64::from(*cells.get(cell)?), u64::from(u8::MAX)),
        };
        (rank != miss).then_some(rank)
    }

    /// Draws one 0-based value; identical to [`Zipf::sample`] on the same
    /// generator state, and leaves the generator in the same state.
    #[inline]
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        let (word, rank, miss) = match &self.cells {
            RankCells::Unguided => return self.zipf.sample(rng),
            RankCells::Wide(cells) => {
                let word: u64 = rng.gen();
                let rank = cells[(word >> (64 - Self::BITS)) as usize];
                (word, u64::from(rank), u64::from(u16::MAX))
            }
            RankCells::Compact(cells) => {
                let word: u64 = rng.gen();
                let rank = cells[(word >> (64 - Self::COMPACT_BITS)) as usize];
                (word, u64::from(rank), u64::from(u8::MAX))
            }
        };
        if rank != miss {
            rank
        } else {
            self.zipf.sample_from_word(word, rng)
        }
    }
}

/// A guide table over a [`PoolingSpec::LongTail`] draw: the pooling factor
/// each of [`PoolingGuide::CELLS`] RNG-word cells is known to return, so
/// most draws skip the two logarithms. Draws are bit-identical to
/// [`PoolingSpec::sample`]; the module doc gives the argument. Other specs,
/// and caps above 255, get no cells and draw through [`PoolingSpec::sample`].
/// Clones share one set of cells, so tables with equal specs can share a
/// guide.
///
/// ```
/// use rand::SeedableRng;
/// use recshard_data::{PoolingGuide, PoolingSpec};
///
/// let spec = PoolingSpec::long_tail(8.0);
/// let guide = PoolingGuide::new(spec);
/// let mut a = rand::rngs::StdRng::seed_from_u64(1);
/// let mut b = a.clone();
/// for _ in 0..1000 {
///     assert_eq!(guide.sample(&mut a), spec.sample(&mut b));
/// }
/// assert_eq!(a, b);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PoolingGuide {
    spec: PoolingSpec,
    /// Pooling factor per cell, [`PoolingGuide::MISS`] when unresolved;
    /// `None` when the spec has no guide.
    cells: Option<Arc<[u8; PoolingGuide::CELLS]>>,
}

impl PoolingGuide {
    /// Bits of the RNG word that select a cell.
    pub const BITS: u32 = 12;
    /// Number of cells.
    pub const CELLS: usize = 1 << Self::BITS;
    /// Cell value of an unresolved cell (every factor is at least 1).
    const MISS: u8 = 0;
    /// The `u`-space safety margin, relative (see the module doc).
    const MARGIN: f64 = 1e-9;

    /// Builds the guide for `spec`, at one `exp` per factor below the cap.
    pub fn new(spec: PoolingSpec) -> Self {
        let cells = match spec {
            PoolingSpec::LongTail { mean, max } if max <= u32::from(u8::MAX) => {
                Some(Arc::new(Self::long_tail_cells(mean, max.max(1))))
            }
            _ => None,
        };
        Self { spec, cells }
    }

    fn long_tail_cells(mean: f64, cap: u32) -> [u8; Self::CELLS] {
        let mut cells = [Self::MISS; Self::CELLS];
        let scale = Self::CELLS as f64;
        let ln_q = long_tail_ln_q(mean);
        // Factor `v < cap` is drawn for `u ∈ (q^v, q^(v−1)]`, the cap for
        // `u ≤ q^(cap−1)`; `q^0 = 1` bounds nothing, as `u < 1`.
        let mut fill = |v: u32, low: f64, high: f64| {
            let first = (low * scale).ceil().max(0.0);
            let end = (high * scale).floor().min(scale);
            if first < end {
                cells[first as usize..end as usize].fill(v as u8);
            }
        };
        let mut high = f64::INFINITY;
        for v in 1..cap {
            if high * scale < 1.0 {
                // Every interval left lies inside cell 0.
                return cells;
            }
            let boundary = (ln_q * f64::from(v)).exp();
            fill(v, boundary * (1.0 + Self::MARGIN), high);
            high = boundary * (1.0 - Self::MARGIN);
        }
        fill(cap, f64::NEG_INFINITY, high);
        cells
    }

    /// The guided spec.
    pub fn spec(&self) -> &PoolingSpec {
        &self.spec
    }

    /// The address of the cells, which clones share; `None` without cells.
    pub(crate) fn cells_addr(&self) -> Option<usize> {
        self.cells.as_ref().map(|cells| Arc::as_ptr(cells) as usize)
    }

    /// The cell the RNG word `word` falls in.
    #[inline]
    fn cell(word: u64) -> usize {
        (word >> (64 - Self::BITS)) as usize
    }

    /// The factor every word in `cell` draws, if the guide resolved the cell.
    #[inline]
    pub fn factor(&self, cell: usize) -> Option<u32> {
        match self.cells.as_ref()?.get(cell) {
            Some(&v) if v != Self::MISS => Some(u32::from(v)),
            _ => None,
        }
    }

    /// Draws one pooling factor; identical to [`PoolingSpec::sample`] on the
    /// same generator state, and leaves the generator in the same state.
    #[inline]
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u32 {
        let Some(cells) = &self.cells else {
            return self.spec.sample(rng);
        };
        let word = rng.gen();
        match cells[Self::cell(word)] {
            Self::MISS => self.draw_miss(word),
            v => u32::from(v),
        }
    }

    /// [`PoolingSpec::sample`]'s draw from `word`, for a word in an
    /// unresolved cell: kept out of line, as at most two cells per factor
    /// boundary miss.
    #[cold]
    #[inline(never)]
    fn draw_miss(&self, word: u64) -> u32 {
        match self.spec {
            PoolingSpec::LongTail { mean, max } => long_tail_factor(mean, max, word),
            _ => unreachable!("only long-tail specs have cells"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    /// `count` draws of `zipf`.
    fn sample_many(zipf: &Zipf, rng: &mut rand::rngs::StdRng, count: usize) -> Vec<u64> {
        (0..count).map(|_| zipf.sample(rng)).collect()
    }

    /// Exact probability mass of the 0-based rank `k`: the reference the
    /// sampler is held to.
    fn pmf(zipf: &Zipf, k: u64) -> f64 {
        let z: f64 = (1..=zipf.n).map(|i| 1.0 / (i as f64).powf(zipf.s)).sum();
        (1.0 / ((k + 1) as f64).powf(zipf.s)) / z
    }

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
        let samples = sample_many(&zipf, &mut rng, 50_000);
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
            let s = sample_many(z, rng, 20_000);
            s.iter().filter(|&&v| v < 10).count() as f64 / s.len() as f64
        };
        let weak_head = head_mass(&weak, &mut rng);
        let strong_head = head_mass(&strong, &mut rng);
        assert!(strong_head > weak_head);
    }

    #[test]
    fn pmf_sums_to_one_small_support() {
        let zipf = Zipf::new(50, 0.9);
        let total: f64 = (0..50).map(|k| pmf(&zipf, k)).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn empirical_matches_pmf_for_head() {
        let zipf = Zipf::new(1_000, 1.0);
        let mut rng = seeded();
        let n = 200_000;
        let samples = sample_many(&zipf, &mut rng, n);
        for k in 0..5u64 {
            let expected = pmf(&zipf, k);
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
        assert!(ZipfGuide::new(Zipf::new(1000, 0.0)).cells == RankCells::Unguided);
    }

    #[test]
    fn compact_guides_hold_ranks_below_255_in_a_kilobyte() {
        // A flat, short support owns cells up to rank 299 at 10 bits; the
        // byte guide leaves ranks from 255 up as misses.
        let zipf = Zipf::new(300, 0.05);
        let (wide, compact) = (ZipfGuide::new(zipf), ZipfGuide::compact(zipf));
        assert_eq!((wide.heap_bytes(), compact.heap_bytes()), (8_192, 1_024));
        let ranks = |guide: &ZipfGuide, cells: usize| -> Vec<u64> {
            (0..cells).filter_map(|c| guide.rank(c)).collect()
        };
        assert!(ranks(&wide, ZipfGuide::CELLS).iter().any(|&r| r > 254));
        let compact_ranks = ranks(&compact, ZipfGuide::COMPACT_CELLS);
        assert!(compact_ranks.contains(&254) && compact_ranks.iter().all(|&r| r < 255));
        assert_eq!(compact.rank(ZipfGuide::COMPACT_CELLS), None);
        let unguided = ZipfGuide::compact(Zipf::new(300, 0.0));
        assert_eq!(unguided.heap_bytes(), 0);
        assert_eq!(unguided.rank(0), None);
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
            (1 << 16, 1.05),
        ] {
            let zipf = Zipf::new(n, s);
            for (guide, bits) in [
                (ZipfGuide::new(zipf), ZipfGuide::BITS),
                (ZipfGuide::compact(zipf), ZipfGuide::COMPACT_BITS),
            ] {
                for cell in 0..1 << bits {
                    if let Some(rank) = guide.rank(cell) {
                        for word in cell_ends(cell, bits) {
                            assert_eq!(zipf.try_draw(word), Some(rank), "n={n} s={s} cell {cell}");
                        }
                    }
                }
            }
            // The same walk at a finer resolution, down to one-cell ranks.
            let bits = 16;
            zipf.resolve_cells(bits, 1, |rank, cells| {
                for cell in cells {
                    for word in cell_ends(cell, bits) {
                        assert_eq!(zipf.try_draw(word), Some(rank), "n={n} s={s} cell {cell}");
                    }
                }
            });
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(96))]

        /// The guided draw, through a `u16` and a byte guide, equals
        /// `Zipf::sample` draw for draw and leaves the generator in the same
        /// state, across supports and exponents —
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
            for guide in [ZipfGuide::new(zipf), ZipfGuide::compact(zipf)] {
                let mut a = rand::rngs::StdRng::seed_from_u64(seed);
                let mut b = a.clone();
                for _ in 0..4_000 {
                    proptest::prop_assert_eq!(guide.sample(&mut a), zipf.sample(&mut b));
                }
                proptest::prop_assert_eq!(a, b);
            }
        }
    }

    /// The lowest and the highest RNG word of `cell` of a `2^bits`-cell
    /// guide.
    fn cell_ends(cell: usize, bits: u32) -> [u64; 2] {
        let lowest = (cell as u64) << (64 - bits);
        [lowest, lowest | (u64::MAX >> bits)]
    }

    #[test]
    fn resolved_pooling_cells_return_their_factor_at_both_word_ends() {
        let mut specs = vec![
            PoolingSpec::LongTail { mean: 1.0, max: 1 },
            PoolingSpec::LongTail { mean: 1.0, max: 9 },
            PoolingSpec::LongTail { mean: 5.0, max: 0 },
            PoolingSpec::LongTail {
                mean: 1e7,
                max: 255,
            },
            PoolingSpec::LongTail {
                mean: 1.0001,
                max: 3,
            },
        ];
        for mean in [1.5, 2.0, 8.0, 37.5, 200.0] {
            for max in [1, 2, 32, 254, 255] {
                specs.push(PoolingSpec::LongTail { mean, max });
            }
        }
        for spec in specs {
            let PoolingSpec::LongTail { mean, max } = spec else {
                unreachable!()
            };
            let guide = PoolingGuide::new(spec);
            let mut resolved = 0;
            for cell in 0..PoolingGuide::CELLS {
                if let Some(factor) = guide.factor(cell) {
                    for word in cell_ends(cell, PoolingGuide::BITS) {
                        assert_eq!(
                            long_tail_factor(mean, max, word),
                            factor,
                            "{spec:?} cell {cell}"
                        );
                    }
                    resolved += 1;
                }
            }
            // Only the (at most two) cells at each factor boundary miss.
            let boundaries = max.max(1) as usize - 1;
            assert!(
                resolved + 2 * boundaries >= PoolingGuide::CELLS,
                "{spec:?}: {resolved}"
            );
        }
        for spec in [
            PoolingSpec::OneHot,
            PoolingSpec::Constant(3),
            PoolingSpec::LongTail {
                mean: 80.0,
                max: 256,
            },
        ] {
            assert!(PoolingGuide::new(spec).cells.is_none(), "{spec:?}");
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(96))]

        /// The guided pooling draw equals `PoolingSpec::sample` draw for
        /// draw and leaves the generator in the same state — long tails
        /// with means 1–200 and caps 1–254, mean 1 with cap 1, a cap of 256
        /// or more (no guide) and the other specs (no guide).
        #[test]
        fn guided_pooling_draws_equal_sample(
            mean in 1.0f64..200.0,
            max in 1u32..255,
            wide in 256u32..4096,
            pick in 0u32..7,
            seed in proptest::any::<u64>(),
        ) {
            let spec = match pick {
                0 => PoolingSpec::LongTail { mean: 1.0, max: 1 },
                1 => PoolingSpec::LongTail { mean, max: wide },
                2 => PoolingSpec::Constant(max),
                3 => PoolingSpec::LongTail { mean: 200.0, max },
                _ => PoolingSpec::LongTail { mean, max },
            };
            let guide = PoolingGuide::new(spec);
            proptest::prop_assert_eq!(guide.cells.is_some(), pick == 0 || pick >= 3);
            let mut a = rand::rngs::StdRng::seed_from_u64(seed);
            let mut b = a.clone();
            for _ in 0..4_000 {
                proptest::prop_assert_eq!(guide.sample(&mut a), spec.sample(&mut b));
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
