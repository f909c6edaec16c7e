//! Multi-hot training sample generation.
//!
//! A training sample assigns to each sparse feature a (possibly empty) list of
//! raw categorical values; hashing those values yields the embedding rows the
//! sample reads (Figure 3 of the paper). The [`SampleGenerator`] draws samples
//! from a [`ModelSpec`](crate::ModelSpec)'s per-feature distributions:
//! presence is a Bernoulli draw with the feature's coverage, the list length
//! is drawn from the pooling-factor distribution, and the values themselves
//! are drawn from the feature's Zipf value distribution.
//!
//! One draw loop serves two callers: [`SampleGenerator::sample_each`]
//! visits each drawn `(feature, value)` without building a
//! [`SparseSample`], and [`SampleGenerator::sample`] collects the same
//! draws into one. A generator built with
//! [`SampleGenerator::with_guides`] draws values through a [`ZipfGuide`] per
//! feature — the same values from the same RNG words, so the two
//! constructors produce identical streams. The guides cost 8 KB per feature,
//! so only long streams over few features (the serving front-end) build
//! them; [`SampleGenerator::new`] stays unguided.

use crate::feature::FeatureId;
use crate::model::ModelSpec;
use crate::zipf::{Zipf, ZipfGuide};
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// One training sample: for each feature, the list of raw categorical values
/// (empty when the feature is absent from the sample).
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct SparseSample {
    /// `values[f]` holds the raw (pre-hash) categorical values of feature `f`.
    pub values: Vec<Vec<u64>>,
}

impl SparseSample {
    /// Whether the given feature is present (non-NULL) in this sample.
    pub fn is_present(&self, feature: FeatureId) -> bool {
        !self.values[feature.index()].is_empty()
    }

    /// The sample pooling factor of the given feature (0 when absent).
    pub fn pooling_factor(&self, feature: FeatureId) -> usize {
        self.values[feature.index()].len()
    }

    /// Raw values of the given feature.
    pub fn feature_values(&self, feature: FeatureId) -> &[u64] {
        &self.values[feature.index()]
    }

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
    value_dists: Vec<Zipf>,
    /// One guide per feature, or empty for an unguided generator.
    guides: Vec<ZipfGuide>,
    rng: rand::rngs::StdRng,
    samples_generated: u64,
}

impl SampleGenerator {
    /// Creates a generator for the given model with a fixed seed.
    pub fn new(model: &ModelSpec, seed: u64) -> Self {
        let value_dists = model
            .features()
            .iter()
            .map(|f| f.value_distribution())
            .collect();
        Self {
            model: model.clone(),
            value_dists,
            guides: Vec::new(),
            rng: rand::rngs::StdRng::seed_from_u64(seed),
            samples_generated: 0,
        }
    }

    /// Like [`new`](Self::new), but drawing values through one [`ZipfGuide`]
    /// per feature: the identical stream (values and RNG state, draw for
    /// draw), with most value draws skipping the rejection-inversion
    /// arithmetic. Building the guides costs microseconds and 8 KB per
    /// feature, which only pays off over long streams.
    pub fn with_guides(model: &ModelSpec, seed: u64) -> Self {
        let mut gen = Self::new(model, seed);
        gen.guides = gen.value_dists.iter().map(|&z| ZipfGuide::new(z)).collect();
        gen
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

    /// The draw loop: per feature, presence, then the pooling factor `k`
    /// (announced through `present(sink, feature, k)`), then `k` values
    /// (each through `visit(sink, feature, value)`).
    #[inline]
    fn draw<S>(
        &mut self,
        sink: &mut S,
        present: impl Fn(&mut S, usize, usize),
        visit: impl Fn(&mut S, usize, u64),
    ) {
        self.samples_generated += 1;
        for (f, (spec, dist)) in self
            .model
            .features()
            .iter()
            .zip(&self.value_dists)
            .enumerate()
        {
            if self.rng.gen::<f64>() < spec.coverage {
                let k = spec.pooling.sample(&mut self.rng) as usize;
                present(sink, f, k);
                match self.guides.get(f) {
                    Some(guide) => {
                        for _ in 0..k {
                            visit(sink, f, guide.sample(&mut self.rng));
                        }
                    }
                    None => {
                        for _ in 0..k {
                            visit(sink, f, dist.sample(&mut self.rng));
                        }
                    }
                }
            }
        }
    }

    /// Draws a batch of `batch_size` samples.
    pub fn batch(&mut self, batch_size: usize) -> Batch {
        (0..batch_size).map(|_| self.sample()).collect()
    }

    /// Draws samples for a *single* feature only (much faster than full
    /// samples when profiling or characterising one feature). Returns the raw
    /// value lists of `num_samples` samples; absent samples yield empty lists.
    pub fn feature_samples(&mut self, feature: FeatureId, num_samples: usize) -> Vec<Vec<u64>> {
        let spec = self.model.feature(feature).clone();
        let dist = &self.value_dists[feature.index()];
        let mut out = Vec::with_capacity(num_samples);
        for _ in 0..num_samples {
            if self.rng.gen::<f64>() < spec.coverage {
                let k = spec.pooling.sample(&mut self.rng) as usize;
                out.push((0..k).map(|_| dist.sample(&mut self.rng)).collect());
            } else {
                out.push(Vec::new());
            }
        }
        out
    }

    /// Draws `num_lookups` *hashed* row indices for a single feature,
    /// ignoring presence/pooling (a pure access-stream view of the feature,
    /// used when only the post-hash frequency distribution matters).
    pub fn feature_row_stream(&mut self, feature: FeatureId, num_lookups: usize) -> Vec<u64> {
        let hasher = self.model.feature(feature).hasher();
        let dist = &self.value_dists[feature.index()];
        (0..num_lookups)
            .map(|_| hasher.hash(dist.sample(&mut self.rng)))
            .collect()
    }
}

/// An iterator adapter that yields an endless stream of samples.
#[derive(Debug)]
pub struct SampleStream {
    gen: SampleGenerator,
}

impl SampleStream {
    /// Creates an endless stream of samples for the model.
    pub fn new(model: &ModelSpec, seed: u64) -> Self {
        Self {
            gen: SampleGenerator::new(model, seed),
        }
    }
}

impl Iterator for SampleStream {
    type Item = SparseSample;

    fn next(&mut self) -> Option<SparseSample> {
        Some(self.gen.sample())
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
        let present = |f: u32| batch.iter().filter(|s| s.is_present(FeatureId(f))).count();
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

    #[test]
    fn feature_row_stream_is_hashed() {
        let model = ModelSpec::small(4, 9);
        let mut gen = SampleGenerator::new(&model, 2);
        let rows = gen.feature_row_stream(FeatureId(1), 1000);
        let hs = model.feature(FeatureId(1)).hash_size;
        assert!(rows.iter().all(|&r| r < hs));
    }

    #[test]
    fn stream_iterator_yields() {
        let model = ModelSpec::small(3, 9);
        let stream = SampleStream::new(&model, 4);
        assert_eq!(stream.take(10).count(), 10);
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
            let mut guided = SampleGenerator::with_guides(&model, seed);
            assert_eq!(guided.guides.len(), model.num_features());
            assert!(!guided.guides[0].is_guided() && guided.guides[4].is_guided());
            for _ in 0..400 {
                assert_eq!(guided.sample(), plain.sample(), "seed {seed}");
                assert_eq!(guided.rng, plain.rng, "seed {seed}: RNG state diverged");
            }
            assert_eq!(guided.samples_generated(), plain.samples_generated());
        }
    }

    #[test]
    fn sample_each_visits_exactly_the_sampled_values() {
        let model = edge_model(3);
        for guided in [false, true] {
            let mut collect = if guided {
                SampleGenerator::with_guides(&model, 11)
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

    #[test]
    fn total_lookups_counts_all_features() {
        let model = ModelSpec::small(3, 10);
        let mut gen = SampleGenerator::new(&model, 6);
        let s = gen.sample();
        let manual: usize = s.values.iter().map(Vec::len).sum();
        assert_eq!(s.total_lookups(), manual);
    }
}
