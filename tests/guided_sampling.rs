//! The guided sampling kernel is bit-identical to the plain one.
//!
//! `recshard_memsim::sample_batch_accesses` draws pooling factors through
//! [`PoolingGuide`]s and lookups through per-table [`TableSampler`]s whose
//! tier maps hold the tier of each resolved rank's row (see the
//! `recshard_data::zipf` module doc for the exactness argument). These
//! tests pin the fast path to the slow one on the benchmark's own models:
//! every resolved value-guide, tier-map and pooling-guide cell at both ends
//! of its word range, and the whole kernel against a copy of the plain
//! draw → hash → remap kernel, counter for counter and RNG state included.

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use recshard_bench::solver_bench::bench_system;
use recshard_bench::{skewed_model, Strategy};
use recshard_data::{ModelSpec, PoolingGuide, SampleGenerator, Zipf, ZipfGuide};
use recshard_memsim::{sample_batch_accesses, AccessCounters, TableSampler};
use recshard_sharding::{MemoryTier, RemapTable, ShardingPlan};
use recshard_stats::{DatasetProfile, DatasetProfiler};

/// Every resolved cell of every table's guide, `u16` and byte-wide,
/// returns its stored rank from the lowest and the highest RNG word in the
/// cell.
fn assert_cells_exact(model: &ModelSpec) {
    let mut resolved = 0;
    for spec in model.features() {
        let zipf = spec.value_distribution();
        for (guide, bits) in [
            (ZipfGuide::new(zipf), ZipfGuide::BITS),
            (ZipfGuide::compact(zipf), ZipfGuide::COMPACT_BITS),
        ] {
            for cell in 0..1 << bits {
                let Some(rank) = guide.rank(cell) else {
                    continue;
                };
                for word in cell_ends(cell, bits) {
                    assert_eq!(
                        zipf.try_draw(word),
                        Some(rank),
                        "{}: {bits}-bit cell {cell}, word {word:#018x}",
                        spec.id
                    );
                }
                resolved += 1;
            }
        }
    }
    assert!(resolved > 0, "{} resolved no cells", model.name());
}

#[test]
fn the_plan_5k_profile_guides_fit_their_byte_budget() {
    // The profile behind perfbench's `plan_5k`: a 1 KiB byte guide per
    // table (every exponent is positive) and one 4 KiB pooling guide for
    // the 1,667 long-tail tables, which share one spec; about 5 MB in all.
    let model = skewed_model(5_000);
    let budget = 5_000 * ZipfGuide::COMPACT_CELLS + PoolingGuide::CELLS;
    let gen = SampleGenerator::guided(&model, 1);
    assert_eq!(gen.guide_bytes(), budget);
    assert!(budget < 5_200_000);
}

#[test]
fn resolved_cells_are_exact_on_the_benchmark_models() {
    assert_cells_exact(&skewed_model(48));
    assert_cells_exact(&ModelSpec::small(64, 3));
}

/// The lowest and the highest RNG word of `cell` of a `2^bits`-cell table.
fn cell_ends(cell: usize, bits: u32) -> [u64; 2] {
    let lowest = (cell as u64) << (64 - bits);
    [lowest, lowest | (u64::MAX >> bits)]
}

/// `train_fifo`'s model, profile and plan: the 48-table skewed model, a
/// RecShard plan over 16 capacity-pressured GPUs.
fn train_fifo_setup() -> (ModelSpec, DatasetProfile, ShardingPlan) {
    let model = skewed_model(48);
    let profile = DatasetProfiler::profile_model(&model, 3_000, 0xA5F0);
    let system = bench_system(model.total_bytes(), 16);
    let plan = Strategy::RecShard.plan(&model, &profile, &system);
    (model, profile, plan)
}

/// Every resolved cell of every table's tier map holds the tier of the row
/// its rank hashes to, and every word at either end of the cell draws that
/// rank from its first step. Every cell the 12-bit value guide resolves
/// splits into tier-map cells that all carry its rank's tier.
#[test]
fn resolved_tier_map_cells_are_exact_on_train_fifo_tables() {
    let (model, profile, plan) = train_fifo_setup();
    let samplers = TableSampler::for_plan(&model, &plan, &profile);
    let bits = TableSampler::TIER_BITS;
    let sub_cells = 1 << (bits - ZipfGuide::BITS);
    let mut resolved = 0;
    for (((spec, sampler), placement), prof) in model
        .features()
        .iter()
        .zip(&samplers)
        .zip(plan.placements())
        .zip(profile.profiles())
    {
        let zipf = spec.value_distribution();
        let hasher = spec.hasher();
        let remap = RemapTable::build(placement, &prof.ranked_rows);
        let tier_of_rank = |rank: u64| remap.tier_of(hasher.hash(rank));
        // The ranks of the full walk; the map's shorter walk visits a prefix.
        let mut rank_of = vec![None; 1 << bits];
        zipf.resolve_cells(bits, 1, |rank, cells| rank_of[cells].fill(Some(rank)));
        for (cell, &rank) in rank_of.iter().enumerate() {
            let Some(tier) = sampler.cell_tier(cell) else {
                continue;
            };
            let rank = rank.unwrap_or_else(|| panic!("{}: cell {cell} has no rank", spec.id));
            assert_eq!(tier, tier_of_rank(rank), "{}: cell {cell}", spec.id);
            for word in cell_ends(cell, bits) {
                assert_eq!(
                    zipf.try_draw(word),
                    Some(rank),
                    "{}: word {word:#018x}",
                    spec.id
                );
            }
            resolved += 1;
        }
        let guide = ZipfGuide::new(zipf);
        for cell in 0..ZipfGuide::CELLS {
            if let Some(rank) = guide.rank(cell) {
                for sub in cell * sub_cells..(cell + 1) * sub_cells {
                    assert_eq!(
                        sampler.cell_tier(sub),
                        Some(tier_of_rank(rank)),
                        "{}: cell {cell}, sub-cell {sub}",
                        spec.id
                    );
                }
            }
        }
    }
    assert!(resolved > 0);
}

/// Every resolved cell of every long-tail table's pooling guide returns its
/// factor from the lowest and the highest RNG word in the cell.
#[test]
fn resolved_pooling_cells_are_exact_on_the_benchmark_model() {
    let mut guided = 0;
    for spec in skewed_model(48).features() {
        let guide = PoolingGuide::new(spec.pooling);
        let mut resolved = false;
        for cell in 0..PoolingGuide::CELLS {
            let Some(factor) = guide.factor(cell) else {
                continue;
            };
            resolved = true;
            for word in cell_ends(cell, PoolingGuide::BITS) {
                let mut rng = WordRng(word);
                assert_eq!(
                    spec.pooling.sample(&mut rng),
                    factor,
                    "{}: cell {cell}",
                    spec.id
                );
            }
        }
        guided += usize::from(resolved);
    }
    assert_eq!(guided, 16, "every third table pools long-tailed");
}

/// A generator that yields one fixed word.
struct WordRng(u64);

impl RngCore for WordRng {
    fn next_u64(&mut self) -> u64 {
        self.0
    }
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
    let (model, profile, plan) = train_fifo_setup();
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
