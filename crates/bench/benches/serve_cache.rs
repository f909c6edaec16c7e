//! Criterion bench of the serving layer's hot paths on the 48-table skewed
//! model of the `serve_mixed` workload (2 shards, RecShard placement,
//! caches at 1/100 of a shard's fair share): `ShardedCache::access` under
//! StatGuided, LRU and LFU, replaying a seeded request stream through one
//! single-owner cache per shard on this thread, and
//! `RequestStream::generate` itself.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use recshard_bench::{skewed_model, Strategy};
use recshard_serve::{
    ArrivalModel, CacheConfig, PolicyKind, RequestStream, ServeConfig, ShardedCache, StatGuide,
};
use recshard_sharding::SystemSpec;
use recshard_stats::DatasetProfiler;

const SHARDS: usize = 2;
const BATCH: usize = 8;
/// Queries per generated stream.
const QUERIES: u32 = 100;
const ARRIVAL: ArrivalModel = ArrivalModel::FixedRate { interval_us: 125.0 };

fn serve_paths(c: &mut Criterion) {
    let model = skewed_model(48);
    let profile = DatasetProfiler::profile_model(&model, 3_000, 0x5E21);
    let total = model.total_bytes();
    let system = SystemSpec::uniform(SHARDS, total / (100 * SHARDS as u64), total, 1555.0, 16.0);
    let plan = Strategy::RecShard.plan(&model, &profile, &system);
    let gpu_of = plan.gpu_assignments();
    let row_bytes: Vec<u64> = model.features().iter().map(|f| f.row_bytes()).collect();
    let stream = RequestStream::generate(&model, &gpu_of, SHARDS, QUERIES, BATCH, ARRIVAL, 1);
    let config = ServeConfig::default();

    // Each timed iteration replays every lookup of the stream through the
    // shard caches; the caches persist, so after the warm-up iteration they
    // run at steady state.
    let mut group = c.benchmark_group("cache_access");
    group.sample_size(20);
    group.throughput(Throughput::Elements(stream.total_lookups));
    for policy in [PolicyKind::StatGuided, PolicyKind::Lru, PolicyKind::Lfu] {
        let caches: Vec<ShardedCache> = (0..SHARDS)
            .map(|gpu| {
                let capacity = system.hbm_capacity(gpu);
                let cache_config = CacheConfig::new(capacity);
                match policy {
                    PolicyKind::StatGuided => ShardedCache::with_guide(
                        StatGuide::for_gpu(gpu, &gpu_of, &profile, capacity, &config.stat_guided),
                        cache_config,
                    ),
                    other => ShardedCache::new(other, cache_config),
                }
            })
            .collect();
        group.bench_with_input(BenchmarkId::new("replay", policy), &caches, |b, caches| {
            b.iter(|| {
                let mut hits = 0u64;
                for (tasks, cache) in stream.shard_tasks.iter().zip(caches) {
                    for task in tasks {
                        for &(table, row) in &task.lookups {
                            hits += u64::from(
                                cache.access(table, row, row_bytes[table as usize]).is_hit(),
                            );
                        }
                    }
                }
                hits
            });
        });
    }
    group.finish();

    let mut group = c.benchmark_group("request_stream");
    group.sample_size(20);
    group.throughput(Throughput::Elements(stream.total_lookups));
    group.bench_function("generate_100_queries_batch_8", |b| {
        b.iter(|| {
            black_box(RequestStream::generate(
                &model, &gpu_of, SHARDS, QUERIES, BATCH, ARRIVAL, 1,
            ))
        });
    });
    group.finish();
}

criterion_group!(benches, serve_paths);
criterion_main!(benches);
