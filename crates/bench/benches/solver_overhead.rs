//! Criterion bench for Section 6.6: RecShard partitioning/placement solve
//! time (structured solver at full 397-table width, exact MILP on a small
//! instance) as a function of GPU count, plus 5,000-table structured solves
//! with ample HBM (split selection builds no cost menu) and with HBM cut
//! 50x (it builds every one).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use recshard::{RecShard, RecShardConfig};
use recshard_bench::solver_bench::bench_system;
use recshard_bench::{skewed_model, ExperimentConfig};
use recshard_data::{ModelSpec, RmKind};
use recshard_sharding::SystemSpec;
use recshard_stats::DatasetProfiler;

fn solver_overhead(c: &mut Criterion) {
    let cfg = ExperimentConfig {
        profile_samples: 1_500,
        ..ExperimentConfig::fast()
    };
    let model = cfg.model(RmKind::Rm2);
    let profile = DatasetProfiler::profile_model(&model, cfg.profile_samples, cfg.seed);

    let mut group = c.benchmark_group("solver_overhead");
    group.sample_size(10);
    for gpus in [8usize, 16, 32] {
        let system = SystemSpec::paper_with_gpus(gpus).scaled(cfg.scale);
        group.bench_with_input(
            BenchmarkId::new("structured_397_tables", gpus),
            &gpus,
            |b, _| {
                let sharder = RecShard::new(RecShardConfig::default());
                b.iter(|| sharder.plan(&model, &profile, &system).expect("plan"));
            },
        );
    }

    // The exact MILP only on a tiny instance (ground-truth path).
    let small = ModelSpec::small(4, 9).with_batch_size(128);
    let small_profile = DatasetProfiler::profile_model(&small, 800, 3);
    let small_system = SystemSpec::uniform(
        2,
        small.total_bytes() / 4,
        small.total_bytes() * 2,
        1555.0,
        16.0,
    );
    group.bench_function("exact_milp_4_tables_2_gpus", |b| {
        let sharder = RecShard::new(
            RecShardConfig::default()
                .with_exact_milp()
                .with_icdf_steps(5),
        );
        b.iter(|| {
            sharder
                .plan(&small, &small_profile, &small_system)
                .expect("plan")
        });
    });

    // Production width: the `plan_5k` shape (5,000 skewed tables, a
    // 1,200-sample profile, 16 GPUs), on its ample system and with per-GPU
    // HBM cut 50x.
    let wide = skewed_model(5_000);
    let wide_profile = DatasetProfiler::profile_model(&wide, 1_200, 11);
    let ample = bench_system(wide.total_bytes(), 16);
    let pressured = SystemSpec::uniform(
        16,
        ample.hbm_capacity(0) / 50,
        wide.total_bytes(),
        1555.0,
        16.0,
    );
    for (label, system) in [("ample", &ample), ("hbm_div_50", &pressured)] {
        group.bench_function(format!("structured_5000_tables_{label}"), |b| {
            let sharder = RecShard::new(RecShardConfig::default());
            b.iter(|| sharder.plan(&wide, &wide_profile, system).expect("plan"));
        });
    }
    group.finish();
}

criterion_group!(benches, solver_overhead);
criterion_main!(benches);
