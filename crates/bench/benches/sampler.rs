//! Criterion bench of the trace-sampling kernel: a plain `Zipf::sample`
//! and a plain long-tail `PoolingSpec::sample` against their guide-table
//! draws (which return the same values), the whole `sample_batch_accesses`
//! kernel on the 48-table skewed model that `des_bench` and the
//! `train_fifo` workload replay, and what the kernel's tables cost to build
//! on that model: `TableSampler::for_plan`, and one `install_placement`
//! pass over all 48 tables (a re-shard).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rand::rngs::StdRng;
use rand::SeedableRng;
use recshard_bench::solver_bench::bench_system;
use recshard_bench::{skewed_model, Strategy};
use recshard_data::{PoolingGuide, PoolingSpec, Zipf, ZipfGuide};
use recshard_memsim::{sample_batch_accesses, TableSampler};
use recshard_stats::DatasetProfiler;

/// Draws per timed iteration of the single-distribution benches.
const DRAWS: u64 = 1_000;

fn zipf_draws(c: &mut Criterion) {
    let mut group = c.benchmark_group("zipf_draw");
    group.throughput(Throughput::Elements(DRAWS));
    for s in [0.8, 1.0, 1.05, 1.6] {
        let zipf = Zipf::new(1 << 16, s);
        let guide = ZipfGuide::new(zipf);
        group.bench_with_input(BenchmarkId::new("sample", s), &zipf, |b, zipf| {
            let mut rng = StdRng::seed_from_u64(1);
            b.iter(|| (0..DRAWS).map(|_| zipf.sample(&mut rng)).sum::<u64>());
        });
        group.bench_with_input(BenchmarkId::new("guided", s), &guide, |b, guide| {
            let mut rng = StdRng::seed_from_u64(1);
            b.iter(|| (0..DRAWS).map(|_| guide.sample(&mut rng)).sum::<u64>());
        });
    }
    group.finish();
}

fn pooling_draws(c: &mut Criterion) {
    let mut group = c.benchmark_group("pooling_draw");
    group.throughput(Throughput::Elements(DRAWS));
    for spec in [
        PoolingSpec::LongTail { mean: 8.0, max: 32 },
        PoolingSpec::long_tail(50.0),
    ] {
        let guide = PoolingGuide::new(spec);
        let mean = spec.mean();
        group.bench_with_input(BenchmarkId::new("sample", mean), &spec, |b, spec| {
            let mut rng = StdRng::seed_from_u64(1);
            b.iter(|| (0..DRAWS).map(|_| spec.sample(&mut rng)).sum::<u32>());
        });
        group.bench_with_input(BenchmarkId::new("guided", mean), &guide, |b, guide| {
            let mut rng = StdRng::seed_from_u64(1);
            b.iter(|| (0..DRAWS).map(|_| guide.sample(&mut rng)).sum::<u32>());
        });
    }
    group.finish();
}

fn batch_kernel(c: &mut Criterion) {
    const GPUS: usize = 16;
    const BATCH: usize = 32;
    let model = skewed_model(48);
    let profile = DatasetProfiler::profile_model(&model, 3_000, 0xA5F0);
    let system = bench_system(model.total_bytes(), GPUS);
    let plan = Strategy::RecShard.plan(&model, &profile, &system);
    let gpu_of = plan.gpu_assignments();
    let samplers = TableSampler::for_plan(&model, &plan, &profile);
    // Throughput unit: the mean lookups per batch, over 200 sampled batches.
    let mut rng = StdRng::seed_from_u64(2);
    let lookups: u64 = (0..200)
        .flat_map(|_| sample_batch_accesses(&model, &samplers, &gpu_of, GPUS, BATCH, &mut rng))
        .map(|c| c.total_accesses())
        .sum();

    let mut group = c.benchmark_group("sample_batch_accesses");
    group.sample_size(20);
    group.throughput(Throughput::Elements(lookups / 200));
    group.bench_function("skewed_48_tables_16_gpus_batch_32", |b| {
        let mut rng = StdRng::seed_from_u64(1);
        b.iter(|| {
            black_box(sample_batch_accesses(
                &model, &samplers, &gpu_of, GPUS, BATCH, &mut rng,
            ))
        });
    });
    group.finish();

    let mut group = c.benchmark_group("table_sampler_build");
    group.sample_size(20);
    group.throughput(Throughput::Elements(model.num_features() as u64));
    group.bench_function("for_plan_skewed_48_tables", |b| {
        b.iter(|| black_box(TableSampler::for_plan(&model, &plan, &profile)));
    });
    let mut installed = samplers.clone();
    group.bench_function("install_placement_48_tables", |b| {
        b.iter(|| {
            for ((sampler, placement), prof) in installed
                .iter_mut()
                .zip(plan.placements())
                .zip(profile.profiles())
            {
                sampler.install_placement(placement, &prof.ranked_rows);
            }
        });
    });
    group.finish();
}

criterion_group!(benches, zipf_draws, pooling_draws, batch_kernel);
criterion_main!(benches);
