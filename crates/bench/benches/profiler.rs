//! Criterion bench for the training-data profiling stage (Section 4.1 /
//! Section 6.6 overhead): cost of profiling per sample, of streaming a wide
//! skewed model through `profile_model`'s row counters (500 tables, and the
//! 5,000 of perfbench's `plan_5k` set-up), and of deriving the 100-step
//! ICDFs.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use recshard_bench::skewed_model;
use recshard_data::{ModelSpec, SampleGenerator};
use recshard_stats::DatasetProfiler;

fn profiler(c: &mut Criterion) {
    let model = ModelSpec::rm1().scaled(8_192);
    let mut gen = SampleGenerator::new(&model, 3);
    let batch = gen.batch(256);

    let mut group = c.benchmark_group("profiler");
    group.sample_size(10);
    group.throughput(Throughput::Elements(batch.len() as u64));
    group.bench_function("profile_256_samples_397_features", |b| {
        b.iter(|| {
            let mut profiler = DatasetProfiler::new(&model);
            profiler.consume_batch(&batch);
            profiler.finish()
        });
    });

    let profile = DatasetProfiler::profile_model(&model, 2_000, 5);
    group.bench_function("icdf_100_steps_all_tables", |b| {
        b.iter(|| {
            profile
                .profiles()
                .iter()
                .map(|p| p.icdf(100).max_rows())
                .sum::<u64>()
        });
    });

    // 500 skewed tables x 200 samples: about 225K lookups landing on 61K
    // distinct rows of 1K-128K-row tables, enough for most tables' row
    // counters to compact before the ranking sort.
    let wide = skewed_model(500);
    group.throughput(Throughput::Elements(200));
    group.bench_function("profile_model_200_samples_500_skewed_tables", |b| {
        b.iter(|| DatasetProfiler::profile_model(&wide, 200, 7));
    });

    // The profile behind perfbench's `plan_5k` set-up: 5,000 skewed tables
    // x 1,200 samples, about 13.6M lookups.
    let plan_5k = skewed_model(5_000);
    group.throughput(Throughput::Elements(1_200));
    group.bench_function("profile_model_1200_samples_5000_skewed_tables", |b| {
        b.iter(|| DatasetProfiler::profile_model(&plan_5k, 1_200, 1));
    });
    group.finish();
}

criterion_group!(benches, profiler);
criterion_main!(benches);
