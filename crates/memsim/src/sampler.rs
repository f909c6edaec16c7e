//! Per-table fused lookup samplers for the trace-sampling kernel.
//!
//! One sample's reads of a table are: draw the pooling factor, then for
//! each lookup draw a raw value from the feature's Zipf distribution, hash
//! it to a row, and ask the plan which tier holds that row. [`TableSampler`]
//! fuses them. The pooling factor comes through a [`PoolingGuide`]. A
//! lookup's first RNG word selects one of `2^15` cells of a *tier map*, two
//! bits per cell (8 KB per table), which holds the tier of the row of the
//! rank every word in the cell draws, or a miss. So most lookups cost one
//! RNG word and one byte load; a miss finishes the draw with
//! [`Zipf::sample_from_word`] on the same word, then hashes the value and
//! reads one bit of an [`HbmRowSet`]. The map is built straight from the
//! rank walk [`Zipf::resolve_cells`], at every construction and every
//! placement or value-distribution change, and stops at ranks narrower
//! than four cells to keep that rebuild cheap. Every draw consumes exactly
//! the RNG words `PoolingSpec::sample` and `Zipf::sample` would, so the
//! counts are bit-identical to drawing, hashing and looking up a
//! [`RemapTable`](recshard_sharding::RemapTable) one lookup at a time. The
//! exactness argument is in the `recshard_data::zipf` module doc.

use rand::Rng;
use recshard_data::{FeatureHasher, FeatureSpec, ModelSpec, PoolingGuide, Zipf};
use recshard_sharding::{HbmRowSet, MemoryTier, ShardingPlan, TablePlacement};
use recshard_stats::DatasetProfile;
use std::ops::Range;

/// Number of tier-map cells.
const TIER_CELLS: usize = 1 << TableSampler::TIER_BITS;
/// The tier-map build stops at the first rank narrower than this many
/// cells: narrower ranks would cost more to resolve than their misses do.
const MIN_RANK_CELLS: u32 = 4;

/// Two-bit tier codes; four cells per byte, cell `c` in bits
/// `2·(c % 4)..2·(c % 4) + 2` of byte `c / 4`.
const MISS: u8 = 0;
const HBM: u8 = 1;
const UVM: u8 = 2;

/// A tier map: one two-bit code per cell.
type TierMap = [u8; TIER_CELLS / 4];

/// One embedding table's lookup sampler: pooling and value distributions,
/// hasher and HBM row set, with the resolved ranks' cells mapped straight
/// to tiers.
#[derive(Debug, Clone)]
pub struct TableSampler {
    zipf: Zipf,
    pooling: PoolingGuide,
    hasher: FeatureHasher,
    hbm: HbmRowSet,
    /// The tier of each cell's resolved rank's row, or `MISS`; `None` when
    /// the value distribution has no guide.
    tiers: Option<Box<TierMap>>,
}

impl TableSampler {
    /// Bits of the RNG word that select a tier-map cell.
    pub const TIER_BITS: u32 = 15;

    /// Builds the sampler of one feature's table under `placement`, with
    /// HBM rows selected from the profile's hottest-first `ranked_rows`.
    pub fn new(spec: &FeatureSpec, placement: &TablePlacement, ranked_rows: &[u64]) -> Self {
        let mut sampler = Self {
            zipf: spec.value_distribution(),
            pooling: PoolingGuide::new(spec.pooling),
            hasher: spec.hasher(),
            hbm: HbmRowSet::build(placement, ranked_rows),
            tiers: None,
        };
        sampler.rebuild_tiers();
        sampler
    }

    /// One sampler per table of `model` under `plan`.
    ///
    /// # Panics
    ///
    /// Panics if the model, plan and profile disagree on the table count.
    pub fn for_plan(model: &ModelSpec, plan: &ShardingPlan, profile: &DatasetProfile) -> Vec<Self> {
        assert_eq!(
            plan.placements().len(),
            model.num_features(),
            "plan/model mismatch"
        );
        assert_eq!(
            profile.num_features(),
            model.num_features(),
            "profile/model mismatch"
        );
        model
            .features()
            .iter()
            .zip(plan.placements())
            .zip(profile.profiles())
            .map(|((spec, placement), prof)| Self::new(spec, placement, &prof.ranked_rows))
            .collect()
    }

    /// Swaps in a new placement (online re-sharding): rebuilds the HBM row
    /// set and the tier map.
    pub fn install_placement(&mut self, placement: &TablePlacement, ranked_rows: &[u64]) {
        self.hbm = HbmRowSet::build(placement, ranked_rows);
        self.rebuild_tiers();
    }

    /// Swaps in a drifted feature spec, keeping the placement. The pooling
    /// guide is rebuilt only if the pooling distribution changed, and the
    /// tier map only if the value distribution (cardinality, exponent) or
    /// the hasher (hash size, seed) did.
    pub fn install_feature(&mut self, spec: &FeatureSpec) {
        if spec.pooling != *self.pooling.spec() {
            self.pooling = PoolingGuide::new(spec.pooling);
        }
        let zipf = spec.value_distribution();
        let hasher = spec.hasher();
        if zipf != self.zipf || hasher != self.hasher {
            self.zipf = zipf;
            self.hasher = hasher;
            self.rebuild_tiers();
        }
    }

    fn rebuild_tiers(&mut self) {
        let map = self
            .tiers
            .get_or_insert_with(|| Box::new([MISS; TIER_CELLS / 4]));
        map.fill(MISS);
        let (hbm, hasher) = (&self.hbm, &self.hasher);
        let guided = self
            .zipf
            .resolve_cells(Self::TIER_BITS, MIN_RANK_CELLS, |rank, cells| {
                let code = if hbm.contains(hasher.hash(rank)) {
                    HBM
                } else {
                    UVM
                };
                fill_codes(map, cells, code);
            });
        if !guided {
            self.tiers = None;
        }
    }

    /// The tier of the row every RNG word in tier-map cell `cell` (its top
    /// [`TableSampler::TIER_BITS`] bits) reads from its first step, if the
    /// map resolved the cell.
    // recshard-lint: allow(test-only-pub) -- no public path can observe that
    // every resolved cell's tier is exact, which its test pins.
    pub fn cell_tier(&self, cell: usize) -> Option<MemoryTier> {
        match tier_code(self.tiers.as_ref()?, cell) {
            HBM => Some(MemoryTier::Hbm),
            UVM => Some(MemoryTier::Uvm),
            _ => None,
        }
    }

    /// Draws one sample's pooling factor — [`PoolingSpec::sample`] of the
    /// table's feature, from the same RNG word.
    ///
    /// [`PoolingSpec::sample`]: recshard_data::PoolingSpec::sample
    #[inline]
    pub fn sample_pooling<R: Rng + ?Sized>(&self, rng: &mut R) -> u32 {
        self.pooling.sample(rng)
    }

    /// Draws one lookup and returns the tier of the row it reads —
    /// the tier of `hasher.hash(zipf.sample(rng))`, from the same RNG words.
    #[inline]
    pub fn sample_tier<R: Rng + ?Sized>(&self, rng: &mut R) -> MemoryTier {
        let value = match &self.tiers {
            None => self.zipf.sample(rng),
            Some(map) => {
                let word = rng.gen();
                match tier_code(map, (word >> (64 - Self::TIER_BITS)) as usize) {
                    HBM => return MemoryTier::Hbm,
                    UVM => return MemoryTier::Uvm,
                    _ => self.zipf.sample_from_word(word, rng),
                }
            }
        };
        if self.hbm.contains(self.hasher.hash(value)) {
            MemoryTier::Hbm
        } else {
            MemoryTier::Uvm
        }
    }
}

/// The code of `cell`.
#[inline]
fn tier_code(map: &TierMap, cell: usize) -> u8 {
    (map[cell / 4] >> (2 * (cell % 4))) & 3
}

/// Sets `cells`, all `MISS` so far, to `code`: the partial bytes at either
/// end cell by cell, the whole bytes between at once.
fn fill_codes(map: &mut TierMap, cells: Range<usize>, code: u8) {
    let set = |map: &mut TierMap, c: usize| map[c / 4] |= code << (2 * (c % 4));
    let whole = cells.start.next_multiple_of(4)..cells.end & !3;
    if whole.start >= whole.end {
        cells.for_each(|c| set(map, c));
        return;
    }
    (cells.start..whole.start).for_each(|c| set(map, c));
    map[whole.start / 4..whole.end / 4].fill(code * 0x55);
    (whole.end..cells.end).for_each(|c| set(map, c));
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use recshard_data::{FeatureId, PoolingSpec};
    use recshard_sharding::RemapTable;

    fn feature(
        cardinality: u64,
        hash_size: u64,
        zipf_exponent: f64,
        hash_seed: u64,
    ) -> FeatureSpec {
        FeatureSpec {
            id: FeatureId(0),
            name: "f".into(),
            class: recshard_data::FeatureClass::User,
            cardinality,
            hash_size,
            zipf_exponent,
            pooling: PoolingSpec::long_tail(6.0),
            coverage: 1.0,
            embedding_dim: 16,
            bytes_per_element: 4,
            hash_seed,
        }
    }

    fn placement(spec: &FeatureSpec, hbm_rows: u64) -> TablePlacement {
        TablePlacement {
            table: spec.id,
            gpu: 0,
            hbm_rows,
            total_rows: spec.hash_size,
            row_bytes: spec.row_bytes(),
        }
    }

    /// The reference path: draw the pooling factor, then each lookup's
    /// value, hash it and look the row up in a remap table.
    fn assert_matches_reference(sampler: &TableSampler, spec: &FeatureSpec, remap: &RemapTable) {
        let zipf = spec.value_distribution();
        let hasher = spec.hasher();
        let mut a = StdRng::seed_from_u64(5);
        let mut b = a.clone();
        for _ in 0..5_000 {
            let pool = spec.pooling.sample(&mut b);
            assert_eq!(sampler.sample_pooling(&mut a), pool);
            for _ in 0..pool {
                let expected = remap.tier_of(hasher.hash(zipf.sample(&mut b)));
                assert_eq!(sampler.sample_tier(&mut a), expected);
            }
        }
        assert_eq!(a, b);
    }

    #[test]
    fn tiers_match_draw_hash_and_remap() {
        let ranked: Vec<u64> = (0..300).map(|i| (i * 37) % 1024).collect();
        for s in [0.0, 0.7, 1.0, 1.3] {
            let spec = feature(4096, 1024, s, 9);
            for hbm_rows in [0, 40, 1024] {
                let p = placement(&spec, hbm_rows);
                let sampler = TableSampler::new(&spec, &p, &ranked);
                assert_eq!(sampler.tiers.is_none(), s == 0.0);
                assert_matches_reference(&sampler, &spec, &RemapTable::build(&p, &ranked));
            }
        }
    }

    #[test]
    fn installs_rebuild_what_changed() {
        let ranked: Vec<u64> = (0..100).collect();
        let spec = feature(4096, 1024, 1.1, 1);
        let p = placement(&spec, 50);
        let mut sampler = TableSampler::new(&spec, &p, &ranked);

        // A new placement keeps the guide but re-derives the tiers.
        let wider = placement(&spec, 500);
        sampler.install_placement(&wider, &ranked);
        assert_matches_reference(&sampler, &spec, &RemapTable::build(&wider, &ranked));

        // A re-seeded hash (hot-key remix), a grown cardinality, and a
        // pooling drift that changes nothing else.
        let mut pooled = feature(8192, 1024, 1.1, 2);
        pooled.pooling = pooled.pooling.with_mean_scaled(1.5);
        for drifted in [
            feature(4096, 1024, 1.1, 2),
            feature(8192, 1024, 1.1, 2),
            pooled,
        ] {
            sampler.install_feature(&drifted);
            assert_matches_reference(&sampler, &drifted, &RemapTable::build(&wider, &ranked));
        }
    }

    #[test]
    fn tier_codes_fill_exactly_their_cells() {
        let mut map = Box::new([MISS; TIER_CELLS / 4]);
        let runs = [
            (0..1, HBM),
            (1..3, UVM),
            (5..13, HBM),
            (13..14, UVM),
            (16..40, UVM),
        ];
        for (cells, code) in runs.clone() {
            fill_codes(&mut map, cells, code);
        }
        for cell in 0..64 {
            let expected = runs
                .iter()
                .find(|(cells, _)| cells.contains(&cell))
                .map_or(MISS, |&(_, code)| code);
            assert_eq!(tier_code(&map, cell), expected, "cell {cell}");
        }
    }
}
