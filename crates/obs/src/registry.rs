//! The zero-alloc-on-hot-path metrics registry.
//!
//! Metrics are registered once at setup time by name and handed back as
//! `Copy` handle ids; the hot path indexes by handle and performs one
//! relaxed atomic op (counters, gauges, histogram buckets) or takes one
//! per-metric mutex (quantile sinks, so two metrics never contend).
//! Snapshots sort by name and serialise to canonical JSON, making
//! a seeded run's metrics byte-identical across repetitions.

use recshard_stats::{StreamingCdf, Summary};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Handle of a registered counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterId(usize);

/// Handle of a registered gauge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GaugeId(usize);

/// Handle of a registered fixed-bucket histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramId(usize);

/// Handle of a registered P² quantile sink.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuantileId(usize);

/// A fixed-bucket histogram: `bounds` are inclusive upper bounds, plus one
/// overflow bucket.
#[derive(Debug)]
struct Histogram {
    bounds: Vec<f64>,
    counts: Vec<AtomicU64>,
}

/// Snapshot of one quantile sink: P² tail estimates plus exact moments.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantileStats {
    /// Observations recorded.
    pub count: u64,
    /// Median estimate (0 when empty).
    pub p50: f64,
    /// 95th-percentile estimate (0 when empty).
    pub p95: f64,
    /// 99th-percentile estimate (0 when empty).
    pub p99: f64,
    /// Exact min/max/mean/std of everything recorded.
    pub summary: Summary,
}

/// The registry. Registration (`&mut self`) happens at setup; recording
/// (`&self`) is hot-path safe and shareable across worker threads.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: Vec<(String, AtomicU64)>,
    gauges: Vec<(String, AtomicU64)>,
    histograms: Vec<(String, Histogram)>,
    quantiles: Vec<(String, Mutex<StreamingCdf>)>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (or finds) a monotonically increasing counter.
    pub fn counter(&mut self, name: &str) -> CounterId {
        if let Some(i) = self.counters.iter().position(|(n, _)| n == name) {
            return CounterId(i);
        }
        self.counters.push((name.to_string(), AtomicU64::new(0)));
        CounterId(self.counters.len() - 1)
    }

    /// Registers (or finds) a last-write-wins gauge. Unset gauges snapshot
    /// as 0.
    pub fn gauge(&mut self, name: &str) -> GaugeId {
        if let Some(i) = self.gauges.iter().position(|(n, _)| n == name) {
            return GaugeId(i);
        }
        self.gauges
            .push((name.to_string(), AtomicU64::new(0f64.to_bits())));
        GaugeId(self.gauges.len() - 1)
    }

    /// Registers (or finds) a histogram over ascending inclusive upper
    /// `bounds` plus an implicit overflow bucket.
    ///
    /// # Panics
    ///
    /// Panics if `bounds` is empty or not strictly ascending.
    pub fn histogram(&mut self, name: &str, bounds: &[f64]) -> HistogramId {
        if let Some(i) = self.histograms.iter().position(|(n, _)| n == name) {
            return HistogramId(i);
        }
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must ascend strictly"
        );
        let counts = (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect();
        self.histograms.push((
            name.to_string(),
            Histogram {
                bounds: bounds.to_vec(),
                counts,
            },
        ));
        HistogramId(self.histograms.len() - 1)
    }

    /// Registers (or finds) a P² quantile sink tracking p50/p95/p99 with
    /// exact moments — the same estimator the simulators report tails from.
    pub fn quantile(&mut self, name: &str) -> QuantileId {
        if let Some(i) = self.quantiles.iter().position(|(n, _)| n == name) {
            return QuantileId(i);
        }
        self.quantiles.push((
            name.to_string(),
            Mutex::new(StreamingCdf::latency_defaults()),
        ));
        QuantileId(self.quantiles.len() - 1)
    }

    /// Adds `delta` to a counter.
    #[inline]
    pub fn add(&self, id: CounterId, delta: u64) {
        self.counters[id.0].1.fetch_add(delta, Ordering::Relaxed);
    }

    /// Increments a counter by one.
    #[inline]
    pub fn incr(&self, id: CounterId) {
        self.add(id, 1);
    }

    /// Sets a gauge.
    #[inline]
    pub fn set(&self, id: GaugeId, value: f64) {
        self.gauges[id.0]
            .1
            .store(value.to_bits(), Ordering::Relaxed);
    }

    /// Adds one observation to a histogram (linear scan over the fixed
    /// bounds; no allocation).
    #[inline]
    pub fn observe(&self, id: HistogramId, value: f64) {
        let h = &self.histograms[id.0].1;
        let bucket = h
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(h.bounds.len());
        h.counts[bucket].fetch_add(1, Ordering::Relaxed);
    }

    /// Locks one quantile stripe. No writer panics while holding a stripe
    /// lock, so poisoning only follows a panic that already tore down the
    /// run; every acquisition goes through here.
    fn lock_cdf(cdf: &Mutex<StreamingCdf>) -> std::sync::MutexGuard<'_, StreamingCdf> {
        // recshard-lint: allow(unwrap) -- see above: poisoning implies a
        // prior panic, and propagating it is the only option.
        cdf.lock().expect("quantile stripe poisoned")
    }

    /// Streams one observation into a quantile sink. Takes that metric's
    /// stripe lock only.
    #[inline]
    pub fn record(&self, id: QuantileId, value: f64) {
        Self::lock_cdf(&self.quantiles[id.0].1).push(value);
    }

    /// Current value of a counter.
    pub fn counter_value(&self, id: CounterId) -> u64 {
        self.counters[id.0].1.load(Ordering::Relaxed)
    }

    /// Current value of a gauge.
    pub fn gauge_value(&self, id: GaugeId) -> f64 {
        f64::from_bits(self.gauges[id.0].1.load(Ordering::Relaxed))
    }

    /// Snapshot of one quantile sink.
    pub fn quantile_stats(&self, id: QuantileId) -> QuantileStats {
        let cdf = Self::lock_cdf(&self.quantiles[id.0].1);
        Self::stats_of(&cdf)
    }

    fn stats_of(cdf: &StreamingCdf) -> QuantileStats {
        let empty = cdf.count() == 0;
        QuantileStats {
            count: cdf.count(),
            p50: if empty { 0.0 } else { cdf.p50() },
            p95: if empty { 0.0 } else { cdf.p95() },
            p99: if empty { 0.0 } else { cdf.p99() },
            summary: cdf.summary(),
        }
    }

    /// A point-in-time snapshot of every registered metric, sorted by name.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut entries: Vec<(String, MetricValue)> = Vec::new();
        for (name, v) in &self.counters {
            entries.push((
                name.clone(),
                MetricValue::Counter(v.load(Ordering::Relaxed)),
            ));
        }
        for (name, v) in &self.gauges {
            entries.push((
                name.clone(),
                MetricValue::Gauge(f64::from_bits(v.load(Ordering::Relaxed))),
            ));
        }
        for (name, h) in &self.histograms {
            entries.push((
                name.clone(),
                MetricValue::Histogram {
                    bounds: h.bounds.clone(),
                    counts: h.counts.iter().map(|c| c.load(Ordering::Relaxed)).collect(),
                },
            ));
        }
        for (name, cdf) in &self.quantiles {
            let cdf = Self::lock_cdf(cdf);
            entries.push((name.clone(), MetricValue::Quantile(Self::stats_of(&cdf))));
        }
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        MetricsSnapshot { entries }
    }
}

/// One metric's snapshot value.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Counter total.
    Counter(u64),
    /// Gauge value.
    Gauge(f64),
    /// Histogram bucket bounds and counts (last count = overflow).
    Histogram {
        /// Inclusive upper bounds, ascending.
        bounds: Vec<f64>,
        /// Per-bucket counts; one longer than `bounds`.
        counts: Vec<u64>,
    },
    /// Quantile sink estimates and moments.
    Quantile(QuantileStats),
}

/// A name-sorted snapshot of a registry, serialisable as canonical JSON.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// `(name, value)` pairs, sorted by name.
    pub entries: Vec<(String, MetricValue)>,
}

impl MetricsSnapshot {
    /// Canonical JSON: fixed key order, floats in `{:.9e}`, one metric per
    /// line — byte-identical for identical snapshots.
    pub fn to_json(&self) -> String {
        let f = |x: f64| format!("{x:.9e}");
        let mut out = String::from("{\n  \"metrics\": [\n");
        for (i, (name, value)) in self.entries.iter().enumerate() {
            let body = match value {
                MetricValue::Counter(v) => format!("\"type\": \"counter\", \"value\": {v}"),
                MetricValue::Gauge(v) => format!("\"type\": \"gauge\", \"value\": {}", f(*v)),
                MetricValue::Histogram { bounds, counts } => format!(
                    "\"type\": \"histogram\", \"bounds\": [{}], \"counts\": [{}]",
                    bounds.iter().map(|&b| f(b)).collect::<Vec<_>>().join(", "),
                    counts
                        .iter()
                        .map(|c| c.to_string())
                        .collect::<Vec<_>>()
                        .join(", ")
                ),
                MetricValue::Quantile(q) => format!(
                    "\"type\": \"quantile\", \"count\": {}, \"p50\": {}, \"p95\": {}, \
                     \"p99\": {}, \"mean\": {}, \"min\": {}, \"max\": {}, \"std_dev\": {}",
                    q.count,
                    f(q.p50),
                    f(q.p95),
                    f(q.p99),
                    f(q.summary.mean),
                    f(q.summary.min),
                    f(q.summary.max),
                    f(q.summary.std_dev)
                ),
            };
            out.push_str(&format!(
                "    {{\"name\": \"{name}\", {body}}}{}\n",
                if i + 1 < self.entries.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// FNV-1a hash over the canonical JSON.
    pub fn fingerprint(&self) -> u64 {
        let mut hash = 0xCBF2_9CE4_8422_2325u64;
        for byte in self.to_json().bytes() {
            hash ^= byte as u64;
            hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
        hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_dedupes_by_name_and_handles_index_correctly() {
        let mut reg = MetricsRegistry::new();
        let a = reg.counter("a");
        let b = reg.counter("b");
        assert_ne!(a, b);
        assert_eq!(reg.counter("a"), a, "same name must return the same handle");
        reg.add(a, 3);
        reg.incr(a);
        reg.incr(b);
        assert_eq!(reg.counter_value(a), 4);
        assert_eq!(reg.counter_value(b), 1);
    }

    #[test]
    fn gauges_histograms_and_quantiles_round_trip() {
        let mut reg = MetricsRegistry::new();
        let g = reg.gauge("g");
        let h = reg.histogram("h", &[1.0, 10.0, 100.0]);
        let q = reg.quantile("q");
        reg.set(g, 2.5);
        assert_eq!(reg.gauge_value(g), 2.5);
        for v in [0.5, 5.0, 50.0, 500.0, 5.0] {
            reg.observe(h, v);
        }
        for v in 1..=100 {
            reg.record(q, v as f64);
        }
        let stats = reg.quantile_stats(q);
        assert_eq!(stats.count, 100);
        assert!(stats.p50 <= stats.p95 && stats.p95 <= stats.p99);
        assert!((stats.summary.mean - 50.5).abs() < 1e-9);

        let snap = reg.snapshot();
        let names: Vec<_> = snap.entries.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["g", "h", "q"], "snapshot sorts by name");
        match &snap.entries[1].1 {
            MetricValue::Histogram { counts, .. } => assert_eq!(counts, &vec![1, 2, 1, 1]),
            other => panic!("expected histogram, got {other:?}"),
        }
    }

    #[test]
    fn snapshot_json_is_deterministic_and_canonical() {
        let build = || {
            let mut reg = MetricsRegistry::new();
            let c = reg.counter("z.counter");
            let q = reg.quantile("a.quantile");
            reg.add(c, 7);
            for v in 0..10 {
                reg.record(q, v as f64);
            }
            reg.snapshot()
        };
        let a = build();
        let b = build();
        assert_eq!(a, b);
        assert_eq!(a.to_json(), b.to_json());
        assert_eq!(a.fingerprint(), b.fingerprint());
        // Sorted: the quantile precedes the counter despite registration order.
        assert!(a.to_json().find("a.quantile").unwrap() < a.to_json().find("z.counter").unwrap());
    }

    #[test]
    fn hot_path_is_shareable_across_threads() {
        let mut reg = MetricsRegistry::new();
        let c = reg.counter("c");
        let q = reg.quantile("q");
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let reg = &reg;
                scope.spawn(move || {
                    for i in 0..1_000 {
                        reg.incr(c);
                        reg.record(q, i as f64);
                    }
                });
            }
        });
        assert_eq!(reg.counter_value(c), 4_000);
        assert_eq!(reg.quantile_stats(q).count, 4_000);
    }
}
