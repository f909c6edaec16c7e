//! Criterion bench for the remapping layer (Section 4.3 / Section 6.6):
//! building the per-table remap tables and the per-lookup translation cost.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use recshard::{RecShard, RecShardConfig};
use recshard_bench::ExperimentConfig;
use recshard_data::RmKind;
use recshard_stats::DatasetProfiler;

fn remapping(c: &mut Criterion) {
    let mut cfg = ExperimentConfig::fast();
    cfg.scale = 8_192;
    cfg.profile_samples = 1_500;
    let model = cfg.model(RmKind::Rm2);
    let system = cfg.system();
    let profile = DatasetProfiler::profile_model(&model, cfg.profile_samples, cfg.seed);
    let recshard = RecShard::new(RecShardConfig::default());
    let plan = recshard.plan(&model, &profile, &system).expect("plan");

    let mut group = c.benchmark_group("remapping");
    group.sample_size(10);
    group.bench_function("build_remap_tables_397_tables", |b| {
        b.iter(|| recshard.remap(&plan, &profile));
    });

    let remaps = recshard.remap(&plan, &profile);
    let biggest = remaps
        .iter()
        .max_by_key(|r| r.total_rows())
        .expect("non-empty");
    let rows: Vec<u64> = (0..biggest.total_rows()).step_by(7).collect();
    group.throughput(Throughput::Elements(rows.len() as u64));
    group.bench_function("lookup_translation", |b| {
        b.iter(|| rows.iter().map(|&r| biggest.lookup(r).slot).sum::<u64>());
    });
    group.finish();
}

criterion_group!(benches, remapping);
criterion_main!(benches);
