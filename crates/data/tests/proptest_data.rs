//! Property-based tests for the data substrate: hashing, Zipf sampling and
//! multi-hot sample generation.

use proptest::prelude::*;
use rand::SeedableRng;
use recshard_data::{FeatureHasher, ModelSpec, SampleGenerator, Zipf};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Hash outputs always land inside the table and are deterministic.
    #[test]
    fn hash_in_range_and_deterministic(
        hash_size in 1u64..1_000_000,
        seed in any::<u64>(),
        values in prop::collection::vec(any::<u64>(), 1..100),
    ) {
        let h = FeatureHasher::new(hash_size, seed);
        for &v in &values {
            let r = h.hash(v);
            prop_assert!(r < hash_size);
            prop_assert_eq!(r, h.hash(v));
        }
    }

    /// The hash equals the mixed value modulo the hash size, whether it is
    /// masked (powers of two, 1 and 2^63 included) or divided (2^k ± 1 and
    /// arbitrary sizes).
    #[test]
    fn hash_equals_mix_modulo_hash_size(
        k in 0u32..64,
        pick in 0u32..4,
        any_size in 1u64..=u64::MAX,
        seed in any::<u64>(),
        values in prop::collection::vec(any::<u64>(), 1..200),
    ) {
        let hash_size = match pick {
            0 => 1u64 << k,
            1 => (1u64 << k) + 1,
            2 => ((1u64 << k) - 1).max(1),
            _ => any_size,
        };
        for size in [hash_size, 1, 1 << 63] {
            let h = FeatureHasher::new(size, seed);
            for &v in &values {
                prop_assert_eq!(h.hash(v), h.mix(v) % size, "size {}", size);
            }
        }
    }

    /// Collision statistics are internally consistent: occupied rows never
    /// exceed either the input count or the hash size, and the derived
    /// fractions stay in [0, 1].
    #[test]
    fn collision_stats_are_consistent(
        hash_size in 1u64..50_000,
        n in 1usize..5_000,
        seed in any::<u64>(),
    ) {
        let h = FeatureHasher::new(hash_size, seed);
        let values: Vec<u64> = (0..n as u64).map(|i| i.wrapping_mul(0x9E37_79B9)).collect();
        let stats = h.collision_stats(&values);
        prop_assert!(stats.occupied_rows <= stats.distinct_inputs);
        prop_assert!(stats.occupied_rows <= stats.hash_size);
        for frac in [stats.usage(), stats.collision_fraction(), stats.sparsity()] {
            prop_assert!((0.0..=1.0).contains(&frac));
        }
        prop_assert!((stats.usage() + stats.sparsity() - 1.0).abs() < 1e-12);
    }

    /// Zipf samples always fall inside the support, for any exponent.
    #[test]
    fn zipf_samples_in_support(
        n in 1u64..1_000_000,
        s in 0.0f64..2.0,
        seed in any::<u64>(),
    ) {
        let zipf = Zipf::new(n, s);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        for _ in 0..50 {
            prop_assert!(zipf.sample(&mut rng) < n);
        }
    }

    /// Generated samples respect every structural invariant of their model:
    /// per-feature value lists are within cardinality and bounded by the
    /// pooling cap, and absent features are genuinely empty.
    #[test]
    fn samples_respect_model_invariants(
        n_features in 1usize..8,
        model_seed in 0u64..1_000,
        gen_seed in 0u64..1_000,
    ) {
        let model = ModelSpec::small(n_features, model_seed);
        let mut gen = SampleGenerator::new(&model, gen_seed);
        for sample in gen.batch(20) {
            prop_assert_eq!(sample.values.len(), n_features);
            for (spec, values) in model.features().iter().zip(&sample.values) {
                prop_assert!(values.len() <= spec.pooling.max() as usize);
                for &v in values {
                    prop_assert!(v < spec.cardinality);
                }
            }
        }
    }

    /// Scaling a model never breaks validation and preserves feature count.
    #[test]
    fn scaled_models_stay_valid(
        n_features in 1usize..10,
        seed in 0u64..500,
        factor in 1u64..100_000,
    ) {
        let model = ModelSpec::small(n_features, seed).scaled(factor);
        prop_assert_eq!(model.num_features(), n_features);
        for f in model.features() {
            prop_assert!(f.validate().is_ok());
            prop_assert!(f.hash_size >= 1);
        }
    }
}
