//! Multi-hot training sample generation.
//!
//! A training sample assigns to each sparse feature a (possibly empty) list of
//! raw categorical values; hashing those values yields the embedding rows the
//! sample reads (Figure 3 of the paper). The [`SampleGenerator`] draws samples
//! from a [`ModelSpec`]'s per-feature distributions:
//! presence is a Bernoulli draw with the feature's coverage, the list length
//! is drawn from the pooling-factor distribution, and the values themselves
//! are drawn from the feature's Zipf value distribution.
//!
//! One per-feature draw body, [`FeatureSampler`], serves every caller.
//! [`SampleGenerator`] runs it over every feature from one sequential RNG:
//! [`SampleGenerator::sample_each`] visits each drawn `(feature, value)`
//! without building a [`SparseSample`], and [`SampleGenerator::sample`]
//! collects the same draws into one. [`FeatureSampler::draw_keyed`] runs it
//! for one feature from an RNG seeded by a key ([`stream_seed`]), so
//! independent streams (one per query and table when serving, one per
//! iteration in the cluster simulator) can be drawn in any order, on any
//! thread. Guided samplers draw pooling factors through a
//! [`PoolingGuide`] and values through a [`ZipfGuide`]: the same draws from
//! the same RNG words at up to 12 KB per feature, so only long streams
//! (serving) build them. [`SampleGenerator::guided`] draws every feature
//! through a 1 KB [`ZipfGuide::compact`] guide, and features with equal
//! pooling specs share one [`PoolingGuide`], so a profile of thousands of
//! tables can afford guides too.

use crate::feature::FeatureSpec;
use crate::model::ModelSpec;
use crate::pooling::PoolingSpec;
use crate::zipf::{PoolingGuide, Zipf, ZipfGuide};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};

/// The seed of the draw stream keyed by `key`. Each word is folded in by
/// one SplitMix64 step (add the golden-ratio increment, then the
/// full-avalanche finaliser), so keys that differ in any bit of any word
/// seed unrelated generators. Seeding with `key * increment` instead would
/// hand adjacent keys overlapping SplitMix64 sequences inside
/// [`SeedableRng::seed_from_u64`].
pub fn stream_seed(key: &[u64]) -> u64 {
    key.iter().fold(0, |h, &word| {
        let mut z = (h ^ word).wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    })
}

/// The worker threads that draw ahead of a consumer (the cluster
/// simulator's keyed iteration draws, the profiler's sample stream): one
/// when a CPU besides the caller's own is available, none on a single CPU,
/// where the caller draws everything itself. One worker is the only count
/// that was timed; more compete with the consumer for CPUs.
pub fn default_workers() -> usize {
    let cpus = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    (cpus - 1).min(1)
}

/// One feature's per-sample draw: a Bernoulli presence draw with the
/// feature's coverage, the pooling factor, then that many values from the
/// feature's Zipf value distribution.
#[derive(Debug, Clone)]
pub struct FeatureSampler {
    coverage: f64,
    pooling: PoolingSpec,
    values: Zipf,
    /// The pooling and value guides, or `None` for an unguided sampler.
    guides: Option<(PoolingGuide, ZipfGuide)>,
}

impl FeatureSampler {
    /// An unguided sampler for `spec`.
    pub fn new(spec: &FeatureSpec) -> Self {
        Self {
            coverage: spec.coverage,
            pooling: spec.pooling,
            values: spec.value_distribution(),
            guides: None,
        }
    }

    /// Like [`new`](Self::new), but drawing pooling factors through a
    /// [`PoolingGuide`] and values through a [`ZipfGuide`]: the identical
    /// draws from the identical RNG words, with most of them skipping the
    /// logarithms and the rejection-inversion arithmetic. Building the
    /// guides costs microseconds and up to 12 KB, which only pays off over
    /// long streams.
    pub fn guided(spec: &FeatureSpec) -> Self {
        Self::with_guides(spec, PoolingGuide::new(spec.pooling), ZipfGuide::new)
    }

    /// A sampler for `spec` drawing through `pooling` (a guide for
    /// `spec.pooling`) and the value guide `values` builds.
    fn with_guides(
        spec: &FeatureSpec,
        pooling: PoolingGuide,
        values: impl FnOnce(Zipf) -> ZipfGuide,
    ) -> Self {
        let mut sampler = Self::new(spec);
        sampler.guides = Some((pooling, values(sampler.values)));
        sampler
    }

    /// Draws `samples` samples of the feature from the stream keyed by
    /// `key` and calls `visit(value)` for every drawn value, sample after
    /// sample. The draws depend on `key` and the feature alone, never on
    /// any other stream.
    pub fn draw_keyed(&self, key: &[u64], samples: usize, mut visit: impl FnMut(u64)) {
        let mut rng = StdRng::seed_from_u64(stream_seed(key));
        for _ in 0..samples {
            self.draw(&mut rng, &mut visit, |_, _| {}, |visit, value| visit(value));
        }
    }

    /// The draw body: presence, then the pooling factor `k` (announced
    /// through `present(sink, k)`), then `k` values (each through
    /// `visit(sink, value)`).
    #[inline]
    fn draw<S>(
        &self,
        rng: &mut StdRng,
        sink: &mut S,
        present: impl FnOnce(&mut S, usize),
        visit: impl Fn(&mut S, u64),
    ) {
        if rng.gen::<f64>() < self.coverage {
            match &self.guides {
                Some((pooling, values)) => {
                    let k = pooling.sample(rng) as usize;
                    present(sink, k);
                    for _ in 0..k {
                        visit(sink, values.sample(rng));
                    }
                }
                None => {
                    let k = self.pooling.sample(rng) as usize;
                    present(sink, k);
                    for _ in 0..k {
                        visit(sink, self.values.sample(rng));
                    }
                }
            }
        }
    }
}

/// One training sample: for each feature, the list of raw categorical values
/// (empty when the feature is absent from the sample).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SparseSample {
    /// `values[f]` holds the raw (pre-hash) categorical values of feature `f`.
    pub values: Vec<Vec<u64>>,
}

impl SparseSample {
    /// Total number of embedding lookups this sample induces across all tables.
    pub fn total_lookups(&self) -> usize {
        self.values.iter().map(Vec::len).sum()
    }
}

/// A batch of training samples.
pub type Batch = Vec<SparseSample>;

/// Deterministic, seedable generator of multi-hot training samples for a model.
///
/// ```
/// use recshard_data::{ModelSpec, SampleGenerator};
///
/// let model = ModelSpec::small(6, 1);
/// let mut gen = SampleGenerator::new(&model, 9);
/// let batch = gen.batch(32);
/// assert_eq!(batch.len(), 32);
/// assert_eq!(batch[0].values.len(), 6);
/// ```
#[derive(Debug, Clone)]
pub struct SampleGenerator {
    model: ModelSpec,
    samplers: Vec<FeatureSampler>,
    rng: StdRng,
    samples_generated: u64,
}

impl SampleGenerator {
    /// Creates a generator for the given model with a fixed seed.
    pub fn new(model: &ModelSpec, seed: u64) -> Self {
        Self::with_samplers(model, seed, FeatureSampler::new)
    }

    /// Like [`new`](Self::new), drawing the identical samples from the
    /// identical RNG words, but through guides sized for thousands of
    /// features: a [`ZipfGuide::compact`] value guide per feature (1 KB) and
    /// one [`PoolingGuide`] (4 KB) per distinct long-tail pooling spec.
    pub fn guided(model: &ModelSpec, seed: u64) -> Self {
        // Long-tail specs by `(mean bits, cap)`, with their shared guide.
        let mut shared: BTreeMap<(u64, u32), PoolingGuide> = BTreeMap::new();
        Self::with_samplers(model, seed, |spec| {
            let pooling = match spec.pooling {
                PoolingSpec::LongTail { mean, max } => shared
                    .entry((mean.to_bits(), max))
                    .or_insert_with(|| PoolingGuide::new(spec.pooling))
                    .clone(),
                other => PoolingGuide::new(other),
            };
            FeatureSampler::with_guides(spec, pooling, ZipfGuide::compact)
        })
    }

    /// Heap bytes the generator's guides take, counting a pooling guide
    /// that features share once.
    // recshard-lint: allow(test-only-pub) -- no public path can observe the
    // guide-arena budget its test pins.
    pub fn guide_bytes(&self) -> usize {
        let mut pooling = BTreeSet::new();
        let mut bytes = 0;
        for (poolings, values) in self.samplers.iter().filter_map(|s| s.guides.as_ref()) {
            pooling.extend(poolings.cells_addr());
            bytes += values.heap_bytes();
        }
        bytes + pooling.len() * PoolingGuide::CELLS
    }

    /// A generator drawing each feature through `sampler(spec)`.
    fn with_samplers(
        model: &ModelSpec,
        seed: u64,
        sampler: impl FnMut(&FeatureSpec) -> FeatureSampler,
    ) -> Self {
        Self {
            model: model.clone(),
            samplers: model.features().iter().map(sampler).collect(),
            rng: StdRng::seed_from_u64(seed),
            samples_generated: 0,
        }
    }

    /// The model this generator draws samples for.
    pub fn model(&self) -> &ModelSpec {
        &self.model
    }

    /// Number of samples generated so far.
    pub fn samples_generated(&self) -> u64 {
        self.samples_generated
    }

    /// Draws one training sample.
    pub fn sample(&mut self) -> SparseSample {
        let mut values = vec![Vec::new(); self.model.num_features()];
        self.draw(
            &mut values,
            |values, f, k| values[f].reserve_exact(k),
            |values, f, value| values[f].push(value),
        );
        SparseSample { values }
    }

    /// Draws one sample without materialising it: calls `visit(feature,
    /// value)` for every drawn value, in exactly the order (and from exactly
    /// the RNG words) [`sample`](Self::sample) draws them.
    pub fn sample_each(&mut self, mut visit: impl FnMut(usize, u64)) {
        self.draw(&mut visit, |_, _, _| {}, |visit, f, value| visit(f, value));
    }

    /// The draw loop: [`FeatureSampler`]'s draw body for every feature in
    /// order, announcing each pooling factor `k` through `present(sink,
    /// feature, k)` and each value through `visit(sink, feature, value)`.
    #[inline]
    fn draw<S>(
        &mut self,
        sink: &mut S,
        present: impl Fn(&mut S, usize, usize),
        visit: impl Fn(&mut S, usize, u64),
    ) {
        self.samples_generated += 1;
        for (f, sampler) in self.samplers.iter().enumerate() {
            sampler.draw(
                &mut self.rng,
                sink,
                |sink, k| present(sink, f, k),
                |sink, value| visit(sink, f, value),
            );
        }
    }

    /// Draws a batch of `batch_size` samples.
    pub fn batch(&mut self, batch_size: usize) -> Batch {
        (0..batch_size).map(|_| self.sample()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feature::FeatureId;

    #[test]
    fn sample_shape_matches_model() {
        let model = ModelSpec::small(8, 2);
        let mut gen = SampleGenerator::new(&model, 1);
        let s = gen.sample();
        assert_eq!(s.values.len(), 8);
    }

    #[test]
    fn coverage_controls_presence() {
        let mut model = ModelSpec::small(3, 3);
        // Force extreme coverages through a custom model.
        let mut feats = model.features().to_vec();
        feats[0].coverage = 1.0;
        feats[1].coverage = 0.0;
        feats[2].coverage = 0.5;
        model = ModelSpec::new("cov-test", crate::model::RmKind::Custom, feats, 64);
        let mut gen = SampleGenerator::new(&model, 5);
        let n = 2000;
        let batch = gen.batch(n);
        let present = |f: usize| batch.iter().filter(|s| !s.values[f].is_empty()).count();
        assert_eq!(present(0), n);
        assert_eq!(present(1), 0);
        let half = present(2) as f64 / n as f64;
        assert!(
            (half - 0.5).abs() < 0.05,
            "coverage 0.5 gave presence {half}"
        );
    }

    #[test]
    fn pooling_factor_respected() {
        let model = ModelSpec::small(5, 11);
        let mut gen = SampleGenerator::new(&model, 17);
        let batch = gen.batch(500);
        for s in &batch {
            for (i, f) in model.features().iter().enumerate() {
                let pf = s.values[i].len();
                assert!(pf <= f.pooling.max() as usize);
            }
        }
    }

    #[test]
    fn deterministic_with_same_seed() {
        let model = ModelSpec::small(6, 4);
        let a = SampleGenerator::new(&model, 123).batch(20);
        let b = SampleGenerator::new(&model, 123).batch(20);
        assert_eq!(a, b);
        let c = SampleGenerator::new(&model, 124).batch(20);
        assert_ne!(a, c);
    }

    #[test]
    fn values_within_cardinality() {
        let model = ModelSpec::small(4, 9);
        let mut gen = SampleGenerator::new(&model, 2);
        for s in gen.batch(200) {
            for (i, f) in model.features().iter().enumerate() {
                for &v in &s.values[i] {
                    assert!(v < f.cardinality);
                }
            }
        }
    }

    /// A skewed model with the guide's edge cases: a uniform feature
    /// (`s = 0`, no guide), a one-value support (`n = 1`), a single-row
    /// table, the `s = 1` log branch and a strongly skewed large support.
    fn edge_model(seed: u64) -> ModelSpec {
        let mut feats = ModelSpec::small(9, seed).features().to_vec();
        feats[0].zipf_exponent = 0.0;
        feats[1].cardinality = 1;
        feats[2].hash_size = 1;
        feats[2].zipf_exponent = 1.2;
        feats[3].zipf_exponent = 1.0;
        feats[4].cardinality = 1 << 24;
        feats[4].zipf_exponent = 1.6;
        feats[5].cardinality = 2;
        feats[5].zipf_exponent = 3.0;
        for f in &mut feats {
            f.coverage = f.coverage.max(0.5);
        }
        ModelSpec::new("guide-edges", crate::model::RmKind::Custom, feats, 64)
    }

    #[test]
    fn guided_generator_replays_the_unguided_stream() {
        for seed in [1u64, 7, 42] {
            let model = edge_model(seed);
            let mut plain = SampleGenerator::new(&model, seed);
            let mut guided = SampleGenerator::with_samplers(&model, seed, FeatureSampler::guided);
            assert_eq!(guided.samplers.len(), model.num_features());
            let has_cells = |f: usize| {
                let values = &guided.samplers[f].guides.as_ref().unwrap().1;
                (0..ZipfGuide::CELLS).any(|cell| values.rank(cell).is_some())
            };
            assert!(!has_cells(0) && has_cells(4));
            for _ in 0..400 {
                assert_eq!(guided.sample(), plain.sample(), "seed {seed}");
                assert_eq!(guided.rng, plain.rng, "seed {seed}: RNG state diverged");
            }
            assert_eq!(guided.samples_generated(), plain.samples_generated());
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        /// `SampleGenerator::guided`, the profiler's generator (byte value
        /// guides at `ZipfGuide::COMPACT_BITS`, one pooling guide per
        /// distinct long-tail spec), draws exactly what
        /// `SampleGenerator::new` draws, sample for sample and RNG state
        /// included: exponents in [0, 3] (0 gets no guide), supports from 1
        /// to 2^31, coverage 0, 1 and between, and OneHot, `Constant(0)`,
        /// `Constant(k)` and long-tail pooling, with caps above 255 (no
        /// guide) and one spec shared by two features.
        #[test]
        fn guided_generator_draws_what_the_plain_one_draws(
            features in proptest::collection::vec(
                (0.0f64..3.0, 1u64..=(1u64 << 31), 0u32..8, 0u32..6),
                1..5,
            ),
            mean in 1.0f64..40.0,
            cap in 1u32..255,
            wide_cap in 256u32..2_048,
            seed in proptest::any::<u64>(),
        ) {
            let base = ModelSpec::small(1, 1).features()[0].clone();
            let mut specs: Vec<FeatureSpec> = features
                .iter()
                .enumerate()
                .map(|(i, &(exponent, support, pick, pooling))| FeatureSpec {
                    id: FeatureId(i as u32),
                    name: format!("f{i}"),
                    cardinality: if pick == 7 { 1 + support % 3 } else { support },
                    zipf_exponent: match pick {
                        0 => 0.0,
                        1 => 1.0,
                        _ => exponent,
                    },
                    coverage: match pick % 3 {
                        0 => 1.0,
                        1 => exponent / 3.0,
                        _ => f64::from(pick % 2),
                    },
                    pooling: match pooling {
                        0 => PoolingSpec::OneHot,
                        1 => PoolingSpec::Constant(0),
                        2 => PoolingSpec::Constant(1 + cap % 7),
                        3 => PoolingSpec::LongTail { mean, max: wide_cap },
                        _ => PoolingSpec::LongTail { mean, max: cap },
                    },
                    ..base.clone()
                })
                .collect();
            // A second feature with the first's spec shares its guides' spec.
            let twin = FeatureSpec {
                id: FeatureId(specs.len() as u32),
                ..specs[0].clone()
            };
            specs.push(twin);
            let model = ModelSpec::new("guided", crate::model::RmKind::Custom, specs, 8);
            let mut guided = SampleGenerator::guided(&model, seed);
            let mut plain = SampleGenerator::new(&model, seed);
            for _ in 0..300 {
                proptest::prop_assert_eq!(guided.sample(), plain.sample());
                proptest::prop_assert_eq!(&guided.rng, &plain.rng);
            }
        }
    }

    #[test]
    fn guided_generator_shares_equal_pooling_guides() {
        let mut feats = edge_model(2).features().to_vec();
        for f in &mut feats {
            f.pooling = PoolingSpec::long_tail(8.0);
        }
        feats[1].pooling = PoolingSpec::long_tail(3.0);
        feats[2].pooling = PoolingSpec::OneHot;
        let model = ModelSpec::new("shared", crate::model::RmKind::Custom, feats, 8);
        let gen = SampleGenerator::guided(&model, 1);
        // Feature 0 is uniform (s = 0): no value guide.
        let value_guides = model.num_features() - 1;
        assert_eq!(
            gen.guide_bytes(),
            value_guides * ZipfGuide::COMPACT_CELLS + 2 * PoolingGuide::CELLS
        );
        assert_eq!(SampleGenerator::new(&model, 1).guide_bytes(), 0);
    }

    #[test]
    fn sample_each_visits_exactly_the_sampled_values() {
        let model = edge_model(3);
        for guided in [false, true] {
            let mut collect = if guided {
                SampleGenerator::with_samplers(&model, 11, FeatureSampler::guided)
            } else {
                SampleGenerator::new(&model, 11)
            };
            let mut visit = collect.clone();
            for _ in 0..300 {
                let sample = collect.sample();
                let mut visited = Vec::new();
                visit.sample_each(|f, v| visited.push((f, v)));
                let expected: Vec<(usize, u64)> = sample
                    .values
                    .iter()
                    .enumerate()
                    .flat_map(|(f, vals)| vals.iter().map(move |&v| (f, v)))
                    .collect();
                assert_eq!(visited, expected);
                assert_eq!(visit.rng, collect.rng);
            }
            assert_eq!(visit.samples_generated(), 300);
        }
    }

    /// Skewed features with long-tailed pooling and partial coverage.
    fn skewed_model(exponent_shift: f64) -> ModelSpec {
        let mut feats = ModelSpec::small(4, 21).features().to_vec();
        for (f, spec) in feats.iter_mut().enumerate() {
            spec.zipf_exponent = [0.9, 1.05, 1.2, 1.4][f] + exponent_shift;
            spec.pooling = PoolingSpec::long_tail(3.0 + f as f64);
            spec.coverage = 0.6;
        }
        ModelSpec::new("skewed", crate::model::RmKind::Custom, feats, 64)
    }

    /// Two-sample chi-squared statistic over paired histograms, and its
    /// degrees of freedom (non-empty bins minus one).
    fn chi_squared(a: &[u64], b: &[u64]) -> (f64, usize) {
        let (na, nb) = (a.iter().sum::<u64>() as f64, b.iter().sum::<u64>() as f64);
        let (ka, kb) = ((nb / na).sqrt(), (na / nb).sqrt());
        let mut stat = 0.0;
        let mut bins = 0;
        for (&x, &y) in a.iter().zip(b) {
            if x + y > 0 {
                let d = x as f64 * ka - y as f64 * kb;
                stat += d * d / (x + y) as f64;
                bins += 1;
            }
        }
        (stat, bins - 1)
    }

    /// The chi-squared critical value at p = 0.001 (Wilson–Hilferty).
    fn critical(df: usize) -> f64 {
        let df = df as f64;
        let v = 2.0 / (9.0 * df);
        df * (1.0 - v + 3.0902 * v.sqrt()).powi(3)
    }

    /// Pooling-factor (0 = absent, capped at 12) and top-value-rank (ranks
    /// 0..15, then "other") histograms of one feature over `samples` draws.
    fn histograms(samples: impl Iterator<Item = Vec<u64>>) -> (Vec<u64>, Vec<u64>) {
        let (mut pooling, mut ranks) = (vec![0u64; 13], vec![0u64; 17]);
        for values in samples {
            pooling[values.len().min(12)] += 1;
            for v in values {
                ranks[(v as usize).min(16)] += 1;
            }
        }
        (pooling, ranks)
    }

    #[test]
    fn keyed_draws_match_the_sequential_generator_in_distribution() {
        // 20,000 samples per feature; every statistic must stay below the
        // p = 0.001 chi-squared critical value for its degrees of freedom.
        const SAMPLES: usize = 20_000;
        let model = skewed_model(0.0);
        let reference: Vec<SparseSample> = SampleGenerator::new(&model, 5).batch(SAMPLES);
        let keyed_histograms = |model: &ModelSpec, f: usize| {
            let sampler = FeatureSampler::guided(&model.features()[f]);
            histograms((0..SAMPLES as u64).map(|i| {
                let mut values = Vec::new();
                sampler.draw_keyed(&[5, i, f as u64], 1, |v| values.push(v));
                values
            }))
        };
        for f in 0..model.num_features() {
            let (ref_pooling, ref_ranks) =
                histograms(reference.iter().map(|s| s.values[f].clone()));
            let (pooling, ranks) = keyed_histograms(&model, f);
            for (what, a, b) in [
                ("pooling", &ref_pooling, &pooling),
                ("value rank", &ref_ranks, &ranks),
            ] {
                let (stat, df) = chi_squared(a, b);
                assert!(
                    stat < critical(df),
                    "feature {f} {what}: chi2 {stat:.1} >= {:.1} (df {df})",
                    critical(df)
                );
            }
            // The test has power: a 0.1 steeper exponent is rejected.
            let (_, steeper) = keyed_histograms(&skewed_model(0.1), f);
            let (stat, df) = chi_squared(&ref_ranks, &steeper);
            assert!(stat > critical(df), "feature {f}: chi2 {stat:.1}");
        }
    }

    /// Pearson correlation of two equally long series.
    fn correlation(x: &[f64], y: &[f64]) -> f64 {
        let n = x.len() as f64;
        let (mx, my) = (x.iter().sum::<f64>() / n, y.iter().sum::<f64>() / n);
        let (mut sxy, mut sxx, mut syy) = (0.0, 0.0, 0.0);
        for (a, b) in x.iter().zip(y) {
            sxy += (a - mx) * (b - my);
            sxx += (a - mx) * (a - mx);
            syy += (b - my) * (b - my);
        }
        sxy / (sxx * syy).sqrt()
    }

    #[test]
    fn adjacent_stream_keys_draw_uncorrelated_values() {
        // The first four draws of the streams keyed (q, t), (q, t + 1) and
        // (q + 1, t), over 20,000 queries q: every cross-correlation, at
        // every lag, stays within 4.5 standard errors of zero.
        const QUERIES: u64 = 20_000;
        let draws = |key: &dyn Fn(u64) -> [u64; 3]| -> Vec<Vec<f64>> {
            let mut lags = vec![Vec::new(); 4];
            for q in 0..QUERIES {
                let mut rng = StdRng::seed_from_u64(stream_seed(&key(q)));
                for lag in &mut lags {
                    lag.push(rng.gen::<f64>());
                }
            }
            lags
        };
        let bound = 4.5 / (QUERIES as f64).sqrt();
        for t in [0u64, 7] {
            let base = draws(&|q| [9, q, t]);
            for (name, other) in [
                ("next table", draws(&|q| [9, q, t + 1])),
                ("next query", draws(&|q| [9, q + 1, t])),
            ] {
                for (i, x) in base.iter().enumerate() {
                    for (j, y) in other.iter().enumerate() {
                        let r = correlation(x, y);
                        assert!(r.abs() < bound, "t {t}, {name}, draws {i}/{j}: r = {r}");
                    }
                }
            }
        }
    }

    #[test]
    fn adjacent_stream_keys_never_share_a_splitmix_sequence() {
        // `seed_from_u64(s)` expands `s` through SplitMix64, whose state
        // steps by GAMMA: seeds a small multiple of GAMMA apart share most of
        // their expansion. Count the distance in GAMMA steps.
        const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;
        let inverse = (0..6).fold(GAMMA, |x, _| {
            x.wrapping_mul(2u64.wrapping_sub(GAMMA.wrapping_mul(x)))
        });
        assert_eq!(GAMMA.wrapping_mul(inverse), 1);
        let steps = |a: u64, b: u64| {
            let d = b.wrapping_sub(a).wrapping_mul(inverse);
            d.min(d.wrapping_neg())
        };
        // The naive `key * GAMMA` derivation is exactly one step apart.
        assert_eq!(steps(GAMMA.wrapping_mul(5), GAMMA.wrapping_mul(6)), 1);
        for q in 0..5_000u64 {
            for t in 0..4u64 {
                let seed = stream_seed(&[1, q, t]);
                for other in [stream_seed(&[1, q, t + 1]), stream_seed(&[1, q + 1, t])] {
                    assert!(steps(seed, other) > 1 << 32, "q {q}, t {t}");
                }
            }
        }
    }

    #[test]
    fn keyed_draws_are_guide_invariant_and_key_determined() {
        let model = edge_model(4);
        for spec in model.features() {
            let draw = |sampler: &FeatureSampler, key: &[u64]| {
                let mut values = Vec::new();
                sampler.draw_keyed(key, 16, |v| values.push(v));
                values
            };
            let (plain, guided) = (FeatureSampler::new(spec), FeatureSampler::guided(spec));
            for q in 0..50u64 {
                let key = [3, q, u64::from(spec.id.0)];
                assert_eq!(draw(&plain, &key), draw(&guided, &key));
                assert!(draw(&plain, &key).iter().all(|&v| v < spec.cardinality));
            }
        }
    }

    #[test]
    fn total_lookups_counts_all_features() {
        let model = ModelSpec::small(3, 10);
        let mut gen = SampleGenerator::new(&model, 6);
        let s = gen.sample();
        let manual: usize = s.values.iter().map(Vec::len).sum();
        assert_eq!(s.total_lookups(), manual);
    }
}
