//! The guided sampling kernel is bit-identical to the plain one.
//!
//! `recshard_memsim::sample_batch_accesses` draws lookups through per-table
//! [`TableSampler`]s whose guide cells hold precomputed ranks and tiers
//! (see the `recshard_data::zipf` module doc for the exactness argument).
//! These tests pin the fast path to the slow one on the benchmark's own
//! models: every resolved guide cell against `Zipf::try_draw` at both ends
//! of its word range, and the whole kernel against a copy of the plain
//! draw → hash → remap kernel, counter for counter and RNG state included.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use recshard_bench::solver_bench::bench_system;
use recshard_bench::{skewed_model, Strategy};
use recshard_data::{ModelSpec, Zipf, ZipfGuide};
use recshard_memsim::{sample_batch_accesses, AccessCounters, TableSampler};
use recshard_sharding::{MemoryTier, RemapTable};
use recshard_stats::DatasetProfiler;

/// Every resolved cell of every table's guide returns its stored rank from
/// the lowest and the highest RNG word in the cell.
fn assert_cells_exact(model: &ModelSpec) {
    let mut resolved = 0;
    for spec in model.features() {
        let zipf = spec.value_distribution();
        let guide = ZipfGuide::new(zipf);
        for cell in 0..ZipfGuide::CELLS {
            let Some(rank) = guide.rank(cell) else {
                continue;
            };
            let lowest = (cell as u64) << (64 - ZipfGuide::BITS);
            let highest = lowest | (u64::MAX >> ZipfGuide::BITS);
            for word in [lowest, highest] {
                assert_eq!(
                    zipf.try_draw(word),
                    Some(rank),
                    "{}: cell {cell}, word {word:#018x}",
                    spec.id
                );
            }
            resolved += 1;
        }
    }
    assert!(resolved > 0, "{} resolved no cells", model.name());
}

#[test]
fn resolved_cells_are_exact_on_the_benchmark_models() {
    assert_cells_exact(&skewed_model(48));
    assert_cells_exact(&ModelSpec::small(64, 3));
}

/// The kernel as it was before guide tables: one Zipf draw, one hash and
/// one remap-table read per lookup.
fn plain_kernel(
    model: &ModelSpec,
    value_dists: &[Zipf],
    remaps: &[RemapTable],
    gpu_of: &[usize],
    num_gpus: usize,
    batch: usize,
    rng: &mut StdRng,
) -> Vec<AccessCounters> {
    let mut counters = vec![AccessCounters::new(); num_gpus];
    for (f, spec) in model.features().iter().enumerate() {
        let hasher = spec.hasher();
        let mut hbm_rows = 0u64;
        let mut uvm_rows = 0u64;
        for _ in 0..batch {
            if rng.gen::<f64>() >= spec.coverage {
                continue;
            }
            for _ in 0..spec.pooling.sample(rng) {
                match remaps[f].tier_of(hasher.hash(value_dists[f].sample(rng))) {
                    MemoryTier::Hbm => hbm_rows += 1,
                    MemoryTier::Uvm => uvm_rows += 1,
                }
            }
        }
        counters[gpu_of[f]].record_hbm(hbm_rows, spec.row_bytes());
        counters[gpu_of[f]].record_uvm(uvm_rows, spec.row_bytes());
    }
    counters
}

/// `train_fifo`'s configuration: the 48-table skewed model, a RecShard plan
/// over 16 capacity-pressured GPUs, batch 32. Debug builds run a tenth of
/// the batches to keep the suite fast.
#[test]
fn guided_kernel_matches_the_plain_kernel_on_train_fifo_batches() {
    const GPUS: usize = 16;
    const BATCH: usize = 32;
    let batches = if cfg!(debug_assertions) {
        2_000
    } else {
        20_000
    };
    let model = skewed_model(48);
    let profile = DatasetProfiler::profile_model(&model, 3_000, 0xA5F0);
    let system = bench_system(model.total_bytes(), GPUS);
    let plan = Strategy::RecShard.plan(&model, &profile, &system);
    let gpu_of = plan.gpu_assignments();
    let samplers = TableSampler::for_plan(&model, &plan, &profile);
    let value_dists: Vec<Zipf> = model
        .features()
        .iter()
        .map(|f| f.value_distribution())
        .collect();
    let remaps: Vec<RemapTable> = plan
        .placements()
        .iter()
        .zip(profile.profiles())
        .map(|(p, prof)| RemapTable::build(p, &prof.ranked_rows))
        .collect();

    let mut guided_rng = StdRng::seed_from_u64(1);
    let mut plain_rng = StdRng::seed_from_u64(1);
    let mut uvm = 0;
    for batch in 0..batches {
        let guided =
            sample_batch_accesses(&model, &samplers, &gpu_of, GPUS, BATCH, &mut guided_rng);
        let plain = plain_kernel(
            &model,
            &value_dists,
            &remaps,
            &gpu_of,
            GPUS,
            BATCH,
            &mut plain_rng,
        );
        assert_eq!(guided, plain, "batch {batch}");
        uvm += guided.iter().map(|c| c.uvm_accesses).sum::<u64>();
    }
    assert_eq!(guided_rng, plain_rng);
    // The plan is capacity-pressured, so both tiers are exercised.
    assert!(uvm > 0);
}
