//! Per-table fused lookup samplers for the trace-sampling kernel.
//!
//! One lookup of the trace model is: draw a raw value from the feature's
//! Zipf distribution, hash it to a row, and ask the plan which tier holds
//! that row. [`TableSampler`] fuses the three. Its guide cells (a
//! [`ZipfGuide`] over the value distribution) store the *tier* of each
//! resolved rank's row directly, so most lookups cost one RNG word and one
//! byte load; a miss runs [`Zipf::try_draw`](recshard_data::Zipf::try_draw)
//! on the same word, then the hash, then one bit of an [`HbmRowSet`].
//! Every draw consumes exactly the RNG words `Zipf::sample` would, so the
//! counts are bit-identical to drawing, hashing and looking up a
//! [`RemapTable`](recshard_sharding::RemapTable) one lookup at a time. The
//! exactness argument is in the `recshard_data::zipf` module doc.

use rand::Rng;
use recshard_data::{FeatureHasher, FeatureSpec, ModelSpec, ZipfGuide};
use recshard_sharding::{HbmRowSet, MemoryTier, ShardingPlan, TablePlacement};
use recshard_stats::DatasetProfile;

/// Tier-cell values.
const MISS: u8 = 0;
const HBM: u8 = 1;
const UVM: u8 = 2;

/// One embedding table's lookup sampler: value distribution, hasher and
/// HBM row set, with the guide's resolved cells mapped straight to tiers.
#[derive(Debug, Clone)]
pub struct TableSampler {
    guide: ZipfGuide,
    hasher: FeatureHasher,
    hbm: HbmRowSet,
    /// Per guide cell: the tier of the resolved rank's row, or `MISS`.
    /// Empty when the distribution has no guide.
    tiers: Vec<u8>,
}

impl TableSampler {
    /// Builds the sampler of one feature's table under `placement`, with
    /// HBM rows selected from the profile's hottest-first `ranked_rows`.
    pub fn new(spec: &FeatureSpec, placement: &TablePlacement, ranked_rows: &[u64]) -> Self {
        let mut sampler = Self {
            guide: ZipfGuide::new(spec.value_distribution()),
            hasher: spec.hasher(),
            hbm: HbmRowSet::build(placement, ranked_rows),
            tiers: Vec::new(),
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
    /// set and the tier cells, keeping the guide.
    pub fn install_placement(&mut self, placement: &TablePlacement, ranked_rows: &[u64]) {
        self.hbm = HbmRowSet::build(placement, ranked_rows);
        self.rebuild_tiers();
    }

    /// Swaps in a drifted feature spec, keeping the placement. The guide is
    /// rebuilt only if the value distribution (cardinality, exponent)
    /// changed, and the tier cells only if the guide or the hasher (hash
    /// size, seed) did.
    pub fn install_feature(&mut self, spec: &FeatureSpec) {
        let zipf = spec.value_distribution();
        let hasher = spec.hasher();
        let new_guide = zipf != *self.guide.zipf();
        if new_guide {
            self.guide = ZipfGuide::new(zipf);
        }
        if new_guide || hasher != self.hasher {
            self.hasher = hasher;
            self.rebuild_tiers();
        }
    }

    fn rebuild_tiers(&mut self) {
        self.tiers = if self.guide.is_guided() {
            (0..ZipfGuide::CELLS)
                .map(|cell| match self.guide.rank(cell) {
                    None => MISS,
                    Some(rank) if self.hbm.contains(self.hasher.hash(rank)) => HBM,
                    Some(_) => UVM,
                })
                .collect()
        } else {
            Vec::new()
        };
    }

    /// Draws one lookup and returns the tier of the row it reads —
    /// the tier of `hasher.hash(zipf.sample(rng))`, from the same RNG words.
    #[inline]
    pub fn sample_tier<R: Rng + ?Sized>(&self, rng: &mut R) -> MemoryTier {
        let value = if self.tiers.is_empty() {
            self.guide.zipf().sample(rng)
        } else {
            let word = rng.gen();
            match self.tiers[ZipfGuide::cell(word)] {
                HBM => return MemoryTier::Hbm,
                UVM => return MemoryTier::Uvm,
                _ => self.guide.sample_from_word(word, rng),
            }
        };
        if self.hbm.contains(self.hasher.hash(value)) {
            MemoryTier::Hbm
        } else {
            MemoryTier::Uvm
        }
    }
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
            pooling: PoolingSpec::OneHot,
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

    /// The reference path: draw, hash, look the row up in a remap table.
    fn assert_matches_reference(sampler: &TableSampler, spec: &FeatureSpec, remap: &RemapTable) {
        let zipf = spec.value_distribution();
        let hasher = spec.hasher();
        let mut a = StdRng::seed_from_u64(5);
        let mut b = a.clone();
        for _ in 0..20_000 {
            let expected = remap.tier_of(hasher.hash(zipf.sample(&mut b)));
            assert_eq!(sampler.sample_tier(&mut a), expected);
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
                assert_eq!(sampler.tiers.is_empty(), s == 0.0);
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

        // A re-seeded hash (hot-key remix) and a grown cardinality.
        for drifted in [feature(4096, 1024, 1.1, 2), feature(8192, 1024, 1.1, 2)] {
            sampler.install_feature(&drifted);
            assert_matches_reference(&sampler, &drifted, &RemapTable::build(&wider, &ranked));
        }
    }
}
