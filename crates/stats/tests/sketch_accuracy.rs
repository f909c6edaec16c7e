//! Accuracy of the [`LogLinearHistogram`] quantile sketch against exact
//! nearest-rank quantiles on seeded integer streams.
//!
//! The DES trainer, the serving layer and the metrics registry all quote
//! p50/p95/p99 numbers straight out of the sketch, so its error is pinned
//! here, not assumed: on every stream shape, each quantile lies within
//! 2^-8 (0.39%) of the exact ⌈q·n⌉-th smallest sample, relatively.
//!
//! | stream   | shape                                          |
//! |----------|------------------------------------------------|
//! | uniform  | flat on `[0, 10^7)`                            |
//! | Zipf     | discrete power law (s = 1.1) over 10,000 ranks, in µs |
//! | bimodal  | 70/30 mix of `[10^4, 10^5)` and `[9·10^6, 10^7)` |
//!
//! All streams are seeded (`StdRng`) and 50,000 samples long.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use recshard_stats::LogLinearHistogram;

const STREAM_LEN: usize = 50_000;
const QUANTILES: [f64; 3] = [0.50, 0.95, 0.99];

/// The sketch's documented relative error bound.
const BOUND: f64 = 1.0 / 256.0;

/// The ⌈q·n⌉-th smallest sample (1-based), as the sketch defines rank.
fn exact_quantile(values: &[u64], q: f64) -> u64 {
    let mut sorted = values.to_vec();
    sorted.sort_unstable();
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn uniform_stream(seed: u64) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..STREAM_LEN)
        .map(|_| rng.gen_range(0..10_000_000))
        .collect()
}

/// Ranks drawn by inverse CDF over a harmonic tail (s = 1.1, support
/// 10,000), scaled to microseconds: the shape of per-row access counts
/// and of queueing delays on a skewed table.
fn zipf_stream(seed: u64) -> Vec<u64> {
    let weights: Vec<f64> = (1..=10_000u32).map(|k| f64::from(k).powf(-1.1)).collect();
    let total: f64 = weights.iter().sum();
    let mut cumulative = Vec::with_capacity(weights.len());
    let mut running = 0.0;
    for w in &weights {
        running += w / total;
        cumulative.push(running);
    }
    let mut rng = StdRng::seed_from_u64(seed);
    (0..STREAM_LEN)
        .map(|_| {
            let u: f64 = rng.gen();
            (cumulative.partition_point(|&c| c < u) as u64 + 1) * 1_000
        })
        .collect()
}

/// 70% fast path, 30% slow path (HBM hits against UVM misses).
fn bimodal_stream(seed: u64) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..STREAM_LEN)
        .map(|_| {
            if rng.gen_bool(0.7) {
                rng.gen_range(10_000..100_000)
            } else {
                rng.gen_range(9_000_000..10_000_000)
            }
        })
        .collect()
}

fn assert_within_bound(name: &str, values: &[u64]) {
    let mut sketch = LogLinearHistogram::new();
    values.iter().for_each(|&v| sketch.push(v));
    assert_eq!(sketch.count(), values.len() as u64);
    for q in QUANTILES {
        let got = sketch.quantile(q) as f64;
        let want = exact_quantile(values, q) as f64;
        assert!(
            (got - want).abs() <= want * BOUND,
            "{name} q={q}: sketch {got} vs exact {want} ({:.4}% off)",
            (got / want - 1.0) * 100.0
        );
    }
}

#[test]
fn uniform_quantiles_are_within_the_bound() {
    assert_within_bound("uniform", &uniform_stream(0xA11));
}

#[test]
fn zipf_quantiles_are_within_the_bound() {
    assert_within_bound("zipf", &zipf_stream(0xB22));
}

#[test]
fn bimodal_quantiles_are_within_the_bound() {
    let values = bimodal_stream(0xC33);
    assert_within_bound("bimodal", &values);
    // p50 sits in the fast band, p99 in the slow one.
    let mut sketch = LogLinearHistogram::new();
    values.iter().for_each(|&v| sketch.push(v));
    assert!(sketch.quantile(0.5) < 100_000);
    assert!(sketch.quantile(0.99) >= 9_000_000);
}

/// Orders that drag a marker-based estimator (P²) far off: sorted up,
/// sorted down, and alternating from both ends inwards. The sketch keeps
/// counts only, so all of them give the same bits as arrival order.
#[test]
fn sketch_is_insensitive_to_adversarial_arrival_order() {
    let values = zipf_stream(0xE55);
    let sketch_of = |vals: &[u64]| {
        let mut sketch = LogLinearHistogram::new();
        vals.iter().for_each(|&v| sketch.push(v));
        sketch
    };
    let reference = sketch_of(&values);
    let mut ascending = values.clone();
    ascending.sort_unstable();
    let descending: Vec<u64> = ascending.iter().rev().copied().collect();
    let (low, high) = ascending.split_at(ascending.len() / 2);
    let outside_in: Vec<u64> = low
        .iter()
        .zip(high.iter().rev())
        .flat_map(|(&a, &b)| [a, b])
        .chain(high.get(low.len()).copied())
        .collect();
    assert_eq!(outside_in.len(), values.len());
    for (name, order) in [
        ("ascending", &ascending),
        ("descending", &descending),
        ("outside-in", &outside_in),
    ] {
        let sketch = sketch_of(order);
        assert_eq!(sketch, reference, "{name}");
        for q in QUANTILES {
            assert_eq!(sketch.quantile(q), reference.quantile(q), "{name} q={q}");
        }
    }
    assert_within_bound("zipf, any order", &values);
}

#[test]
fn moments_are_exact() {
    let values = zipf_stream(0xD44);
    let mut sketch = LogLinearHistogram::new();
    values.iter().for_each(|&v| sketch.push(v));
    let s = sketch.summary(1.0);
    let sum: u128 = values.iter().map(|&v| u128::from(v)).sum();
    assert_eq!(s.mean, sum as f64 / values.len() as f64);
    assert_eq!(s.min, *values.iter().min().unwrap() as f64);
    assert_eq!(s.max, *values.iter().max().unwrap() as f64);
    let mean = s.mean;
    let var = values
        .iter()
        .map(|&v| (v as f64 - mean).powi(2))
        .sum::<f64>()
        / values.len() as f64;
    assert!((s.std_dev / var.sqrt() - 1.0).abs() < 1e-9);
}
