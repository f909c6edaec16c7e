//! The training-data profiler (Section 4.1 of the paper).
//!
//! RecShard samples a small fraction (~1%) of the training data, hashes it
//! with each table's hash function, and estimates three per-table statistics:
//! the post-hash value frequency CDF, the average pooling factor, and the
//! coverage. [`DatasetProfiler`] implements that stage: feed it samples (or
//! let it generate them from a [`ModelSpec`]) and call
//! [`finish`](DatasetProfiler::finish).
//!
//! [`DatasetProfiler::profile_model`] runs as a two-stage pipeline. The
//! drawing stage walks one sequential sample stream, which must run in
//! order for the profile to stay bit-identical to
//! [`consume`](DatasetProfiler::consume)-ing each
//! [`SampleGenerator::sample`]. It draws through
//! [`SampleGenerator::guided`]'s byte-wide rank guides (the same values
//! from the same RNG words, at 1 KB per table), counts each table's
//! presence and writes every drawn `(table, raw value)` record into
//! fixed-size chunks. The counting stage hashes each record and counts its
//! row in [`RowCounters`], then [`finish`](DatasetProfiler::finish) ranks
//! every table. On `profile_model(skewed_model(5000), 1200)`, each stage
//! timed alone on one thread of a 2-vCPU VM, about 3% of the time goes to
//! building the guides, 48% to the draws, 6% to hashing, 33% to row
//! counting and 9% to `finish`. So when a second CPU is available
//! ([`default_workers`]) the drawing stage runs on one scoped worker, and
//! the caller hashes and counts beside it. Chunks go to the caller and come
//! back empty over two bounded channels. `finish` then sorts about half
//! the rows on a second scoped thread. On a single CPU the caller draws
//! each chunk and then counts it, through the same two stages, and
//! finishes alone.
//!
//! Counting, `finish` and every allocation stay on the calling thread. The
//! caller allocates the generator and its guides, the presence counts, all
//! chunk buffers and every buffer `finish`'s sorting thread writes, and
//! lends them out; no other thread allocates. The reason is memory: glibc
//! gives a thread that allocates an arena of its own, and memory freed
//! into an arena stays with it, so whatever another thread allocated would
//! add to the peak RSS beside the caller's heap. In a prototype, counting
//! on the worker (whose sorted-run buffers grow and shrink) raised the peak
//! RSS of a 5,000-table profile from 64.5 to 105 MB, and chunk buffers
//! allocated on the worker raised a 5.2 MB simulation's to 6.6 MB. The
//! generator, guides included, is freed before `finish` allocates the
//! profile, so the profile reuses its memory.

use crate::cdf::AccessCdf;
use crate::freq::RowCounters;
use crate::profile::{DatasetProfile, FeatureProfile};
use recshard_data::{default_workers, FeatureHasher, ModelSpec, SampleGenerator, SparseSample};
use std::sync::mpsc;

/// Records per chunk handed from the drawing stage to the counting stage.
const CHUNK: usize = 4_096;
/// Chunk buffers in circulation when the drawing stage runs on a worker.
const BUFFERS: usize = 4;

/// One drawn lookup: the table's index and the raw (pre-hash) value.
type Record = (usize, u64);

/// Streaming profiler of multi-hot training samples.
#[derive(Debug, Clone)]
pub struct DatasetProfiler {
    model: ModelSpec,
    hashers: Vec<FeatureHasher>,
    /// Per-table row counts; their totals are the tables' lookup counts.
    rows: RowCounters,
    present: Vec<u64>,
    samples_seen: u64,
}

impl DatasetProfiler {
    /// Creates a profiler.
    pub fn new(model: &ModelSpec) -> Self {
        let n = model.num_features();
        Self {
            model: model.clone(),
            hashers: model.features().iter().map(|f| f.hasher()).collect(),
            rows: RowCounters::new(n),
            present: vec![0; n],
            samples_seen: 0,
        }
    }

    /// Inspects one sample.
    pub fn consume(&mut self, sample: &SparseSample) {
        assert_eq!(
            sample.values.len(),
            self.model.num_features(),
            "sample feature count must match the model"
        );
        self.samples_seen += 1;
        for (f, values) in sample.values.iter().enumerate() {
            if values.is_empty() {
                continue;
            }
            self.present[f] += 1;
            let hasher = &self.hashers[f];
            for &raw in values {
                self.rows.record(f, hasher.hash(raw));
            }
        }
    }

    /// Inspects every sample in the batch.
    pub fn consume_batch(&mut self, batch: &[SparseSample]) {
        for s in batch {
            self.consume(s);
        }
    }

    /// Finalises the profile, consuming each table's counts with a single
    /// ranking sort.
    pub fn finish(self) -> DatasetProfile {
        self.finish_on(0)
    }

    /// [`finish`](Self::finish), sorting about half the rows on one scoped
    /// thread when `helpers > 0` (see [`RowCounters::into_ranked_on`]).
    fn finish_on(self, helpers: usize) -> DatasetProfile {
        let mut profiles = Vec::with_capacity(self.model.num_features());
        let tables = self.rows.into_ranked_on(helpers).zip(self.present);
        for (spec, ((ranked_rows, ranked_counts), present)) in
            self.model.features().iter().zip(tables)
        {
            let cdf = AccessCdf::from_ranked_counts(ranked_counts);
            let lookups = cdf.total_accesses();
            let avg_pooling = if present > 0 {
                lookups as f64 / present as f64
            } else {
                0.0
            };
            let coverage = if self.samples_seen > 0 {
                present as f64 / self.samples_seen as f64
            } else {
                0.0
            };
            profiles.push(FeatureProfile {
                id: spec.id,
                hash_size: spec.hash_size,
                embedding_dim: spec.embedding_dim,
                bytes_per_element: spec.bytes_per_element,
                samples_seen: self.samples_seen,
                present_samples: present,
                total_lookups: lookups,
                avg_pooling,
                coverage,
                cdf,
                ranked_rows,
            });
        }
        DatasetProfile::new(profiles, self.samples_seen)
    }

    /// The counting stage: hashes each drawn record and counts its row.
    fn count(&mut self, chunk: &[Record]) {
        for &(f, raw) in chunk {
            self.rows.record(f, self.hashers[f].hash(raw));
        }
    }

    /// Convenience: generates `num_samples` synthetic samples for `model` and
    /// profiles all of them.
    ///
    /// Bit-identical to [`consume`](Self::consume)-ing each
    /// [`SampleGenerator::sample`], but draws through
    /// [`SampleGenerator::guided`]'s guides and
    /// [`SampleGenerator::sample_each`], so no sample is materialised. The
    /// draws run on one worker thread when a second CPU is available, while
    /// this thread hashes, counts and finishes; on a single CPU this thread
    /// does both in turns. See the [module docs](self) for the pipeline and
    /// why every allocation stays on this thread.
    pub fn profile_model(model: &ModelSpec, num_samples: usize, seed: u64) -> DatasetProfile {
        Self::profile_model_with(model, num_samples, seed, default_workers())
    }

    /// [`profile_model`](Self::profile_model) with the drawing stage on
    /// the calling thread (`workers == 0`) or on one worker (otherwise: the
    /// draws are one sequential stream, so a second worker has nothing to
    /// draw).
    fn profile_model_with(
        model: &ModelSpec,
        num_samples: usize,
        seed: u64,
        workers: usize,
    ) -> DatasetProfile {
        let mut profiler = DatasetProfiler::new(model);
        let mut stage = DrawStage {
            gen: SampleGenerator::guided(model, seed),
            samples: num_samples,
            present: std::mem::take(&mut profiler.present),
        };
        let mut count = |mut chunk: Vec<Record>| {
            profiler.count(&chunk);
            chunk.clear();
            chunk
        };
        if workers == 0 {
            // Counting never stops the stage, so the last chunk comes back.
            if let Some(last) = stage.run(Vec::with_capacity(CHUNK), |full| Some(count(full))) {
                count(last);
            }
        } else {
            let (empty_tx, mut empty_rx) = mpsc::sync_channel(BUFFERS);
            for _ in 0..BUFFERS {
                // Cannot fail: the receiver is alive and has room for all.
                let _ = empty_tx.send(Vec::with_capacity(CHUNK));
            }
            let (full_tx, full_rx) = mpsc::sync_channel(BUFFERS);
            // The worker only borrows the receiver of empty buffers, so the
            // buffers left in it are freed on this thread.
            let (stage, empty_rx) = (&mut stage, &mut empty_rx);
            // Moving `full_rx` and `empty_tx` into the scope means a panic
            // while counting drops them, which stops a waiting worker
            // before the scope joins it.
            std::thread::scope(move |scope| {
                // recshard-lint: allow(thread-fanin) -- one worker produces
                // chunks in draw order over one FIFO channel, and this
                // thread counts them in the order received.
                scope.spawn(move || {
                    let first = empty_rx.recv().ok()?;
                    let last = stage.run(first, |full| {
                        full_tx.send(full).ok()?;
                        empty_rx.recv().ok()
                    })?;
                    full_tx.send(last).ok()
                });
                for chunk in full_rx {
                    // Fails only once the worker is gone.
                    let _ = empty_tx.send(count(chunk));
                }
            });
        }
        // The generator and its guides go before `finish` allocates.
        profiler.present = stage.present;
        drop(stage.gen);
        profiler.samples_seen = num_samples as u64;
        profiler.finish_on(workers)
    }
}

/// The drawing stage of [`DatasetProfiler::profile_model`]: the sample
/// stream and each table's presence count.
struct DrawStage {
    gen: SampleGenerator,
    samples: usize,
    /// Per table, the samples that drew at least one of its values.
    present: Vec<u64>,
}

impl DrawStage {
    /// Draws every sample into `chunk`, passing each chunk to `flush` as
    /// soon as it fills, in the middle of a sample or not. `flush` returns
    /// an empty chunk to go on with, or `None` to stop. Returns the last,
    /// part-filled chunk, or `None` if `flush` stopped the stage.
    fn run(
        &mut self,
        chunk: Vec<Record>,
        mut flush: impl FnMut(Vec<Record>) -> Option<Vec<Record>>,
    ) -> Option<Vec<Record>> {
        let mut chunk = Some(chunk);
        for _ in 0..self.samples {
            // A table is present in a sample iff it drew at least one value,
            // so a zero-length pooling draw leaves it absent, as in
            // `consume`. Each table's values arrive together, table after
            // table, so a value whose table differs from the last value's
            // is its table's first in this sample.
            let mut last_drawn = usize::MAX;
            let present = &mut self.present;
            self.gen.sample_each(|f, raw| {
                if f != last_drawn {
                    last_drawn = f;
                    present[f] += 1;
                }
                if let Some(filling) = chunk.as_mut() {
                    filling.push((f, raw));
                    if filling.len() == CHUNK {
                        chunk = chunk.take().and_then(&mut flush);
                    }
                }
            });
            chunk.as_ref()?;
        }
        chunk
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recshard_data::{FeatureId, FeatureSpec, ModelSpec, PoolingSpec, RmKind};

    #[test]
    fn profiles_match_model_shape() {
        let model = ModelSpec::small(5, 2);
        let profile = DatasetProfiler::profile_model(&model, 1_000, 3);
        assert_eq!(profile.num_features(), 5);
        assert_eq!(profile.samples_profiled(), 1_000);
        for (p, f) in profile.profiles().iter().zip(model.features()) {
            assert_eq!(p.hash_size, f.hash_size);
            assert!(p.coverage >= 0.0 && p.coverage <= 1.0);
            assert!(p.cdf.full_coverage_rows() <= p.hash_size);
        }
    }

    #[test]
    fn measured_statistics_close_to_spec() {
        let model = ModelSpec::small(6, 9);
        let profile = DatasetProfiler::profile_model(&model, 5_000, 11);
        for (p, f) in profile.profiles().iter().zip(model.features()) {
            // Coverage estimate within a few points of the generating value.
            assert!(
                (p.coverage - f.coverage).abs() < 0.05,
                "{}: coverage {} vs spec {}",
                f.id,
                p.coverage,
                f.coverage
            );
            // Pooling estimate within ~15% of the generating mean.
            if f.coverage > 0.2 {
                let rel = (p.avg_pooling - f.avg_pooling()).abs() / f.avg_pooling();
                assert!(
                    rel < 0.2,
                    "{}: pooling {} vs spec {}",
                    f.id,
                    p.avg_pooling,
                    f.avg_pooling()
                );
            }
        }
    }

    #[test]
    fn lookups_are_conserved() {
        let model = ModelSpec::small(4, 5);
        let mut gen = SampleGenerator::new(&model, 1);
        let batch = gen.batch(500);
        let expected: u64 = batch
            .iter()
            .flat_map(|s| &s.values)
            .map(|v| v.len() as u64)
            .sum();
        let mut profiler = DatasetProfiler::new(&model);
        profiler.consume_batch(&batch);
        let profile = profiler.finish();
        let counted: u64 = profile.profiles().iter().map(|p| p.total_lookups).sum();
        assert_eq!(counted, expected);
    }

    #[test]
    fn sampled_profile_approximates_full_profile() {
        // The paper's claim (§4.1): ~1% sampling suffices for placement-grade
        // statistics. Verify a 10% sample (800 of 8,000 samples) tracks the
        // full profile closely on coverage and pooling for a small model.
        let model = ModelSpec::small(5, 21);
        let full = DatasetProfiler::profile_model(&model, 8_000, 33);
        let sampled = DatasetProfiler::profile_model(&model, 800, 5);
        for (a, b) in full.profiles().iter().zip(sampled.profiles()) {
            assert!((a.coverage - b.coverage).abs() < 0.07);
            if a.avg_pooling > 2.0 {
                assert!((a.avg_pooling - b.avg_pooling).abs() / a.avg_pooling < 0.25);
            }
        }
    }

    #[test]
    fn skewed_features_have_skewed_cdfs() {
        let model = ModelSpec::small(8, 13);
        let profile = DatasetProfiler::profile_model(&model, 4_000, 17);
        // Find the most skewed generating feature and check its CDF head share
        // exceeds that of the least skewed one.
        let mut idx: Vec<usize> = (0..model.num_features()).collect();
        idx.sort_by(|&a, &b| {
            model.features()[a]
                .zipf_exponent
                .partial_cmp(&model.features()[b].zipf_exponent)
                .unwrap()
        });
        let flat = &profile.profiles()[idx[0]];
        let skewed = &profile.profiles()[idx[idx.len() - 1]];
        if flat.total_lookups > 100 && skewed.total_lookups > 100 {
            assert!(skewed.cdf.top_percent_share(5.0) >= flat.cdf.top_percent_share(5.0));
        }
    }

    /// The sequential reference: `consume` over materialised samples.
    fn consumed(model: &ModelSpec, num_samples: usize, seed: u64) -> DatasetProfile {
        let mut gen = SampleGenerator::new(model, seed);
        let mut profiler = DatasetProfiler::new(model);
        for _ in 0..num_samples {
            profiler.consume(&gen.sample());
        }
        profiler.finish()
    }

    /// `profile_model` with the draws on this thread and on a worker, each
    /// checked against the sequential reference, profile for profile.
    fn assert_pipeline_matches_reference(model: &ModelSpec, num_samples: usize, seed: u64) {
        let reference = consumed(model, num_samples, seed);
        for workers in [0, 1] {
            let piped = DatasetProfiler::profile_model_with(model, num_samples, seed, workers);
            for (a, b) in piped.profiles().iter().zip(reference.profiles()) {
                assert_eq!(a, b, "feature {}, {workers} workers", a.id);
            }
            assert_eq!(piped, reference, "{workers} workers");
        }
    }

    fn edge_feature(
        i: u32,
        coverage: f64,
        hash_size: u64,
        cardinality: u64,
        pooling: PoolingSpec,
    ) -> FeatureSpec {
        FeatureSpec {
            id: FeatureId(i),
            name: format!("edge_{i}"),
            coverage,
            hash_size,
            cardinality,
            pooling,
            ..ModelSpec::small(1, 1).features()[0].clone()
        }
    }

    #[test]
    fn profile_model_matches_a_consume_loop_on_edge_cases() {
        // Coverage 0 and 1, a one-row table, a one-value support and the
        // zero-length pooling spec: the pipelined path must agree with
        // consuming materialised samples, profile for profile.
        let features = vec![
            edge_feature(0, 0.0, 64, 256, PoolingSpec::Constant(3)),
            edge_feature(1, 1.0, 1, 512, PoolingSpec::Constant(2)),
            edge_feature(2, 1.0, 128, 1, PoolingSpec::long_tail(2.0)),
            edge_feature(3, 0.7, 256, 1_024, PoolingSpec::Constant(0)),
            edge_feature(4, 0.5, 4_096, 100_000, PoolingSpec::OneHot),
        ];
        let model = ModelSpec::new("edge", RmKind::Custom, features, 8);
        assert_pipeline_matches_reference(&model, 1_500, 21);
        let streamed = DatasetProfiler::profile_model(&model, 1_500, 21);
        let p = streamed.profiles();
        assert_eq!((p[0].present_samples, p[0].coverage), (0, 0.0));
        assert_eq!(p[0].cdf, AccessCdf::empty());
        assert_eq!((p[1].coverage, p[1].ranked_rows.clone()), (1.0, vec![0]));
        assert_eq!(p[2].cdf.full_coverage_rows(), 1);
        // `Constant(0)` draws floor to one value, so the feature is present
        // exactly when its coverage draw says so.
        assert_eq!(p[3].total_lookups, p[3].present_samples);
        assert!(p[3].present_samples > 0);
    }

    #[test]
    fn pipeline_matches_reference_when_a_sample_spans_chunks() {
        // Each sample draws at least 3 * 2,500 records, so chunks fill in
        // the middle of a sample and of a table's values, and every chunk
        // buffer goes round more than once.
        let pooling = PoolingSpec::Constant(2_500);
        let features = vec![
            edge_feature(0, 1.0, 8_192, 50_000, pooling),
            edge_feature(1, 0.5, 1_024, 4_096, PoolingSpec::OneHot),
            edge_feature(2, 1.0, 16_384, 100_000, pooling),
            edge_feature(3, 1.0, 512, 2_048, pooling),
        ];
        let model = ModelSpec::new("wide", RmKind::Custom, features, 8);
        const { assert!(3 * 2_500 > CHUNK) };
        assert_pipeline_matches_reference(&model, 7, 3);
    }

    #[test]
    fn pipeline_matches_reference_on_one_table_and_on_no_samples() {
        let single = ModelSpec::small(1, 4);
        assert_pipeline_matches_reference(&single, 3_000, 8);
        assert_pipeline_matches_reference(&ModelSpec::small(6, 2), 0, 1);
        assert_pipeline_matches_reference(&single, 0, 1);
    }

    #[test]
    #[should_panic(expected = "sample feature count must match the model")]
    fn mismatched_sample_rejected() {
        let model = ModelSpec::small(3, 1);
        let mut profiler = DatasetProfiler::new(&model);
        let bad = SparseSample {
            values: vec![vec![1]],
        };
        profiler.consume(&bad);
    }

    #[test]
    fn empty_profiler_finishes_cleanly() {
        let model = ModelSpec::small(3, 1);
        let profile = DatasetProfiler::new(&model).finish();
        assert_eq!(profile.samples_profiled(), 0);
        assert_eq!(profile.profiles()[0].coverage, 0.0);
    }
}
