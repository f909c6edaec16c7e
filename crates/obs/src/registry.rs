//! The metrics registry.
//!
//! Metrics are registered once at setup time by name and handed back as
//! `Copy` handle ids; the hot path indexes by handle and adds to, stores or
//! pushes into a plain value the registry owns. Only a quantile sample
//! landing beyond every earlier sample's bucket allocates.
//! Snapshots sort by name and serialise to canonical JSON, making
//! a seeded run's metrics byte-identical across repetitions.
//!
//! A quantile sink is a [`LogLinearHistogram`]: it records integers in the
//! metric's own unit (nanoseconds for times, a count for tenancy, parts
//! per million for ratios), and the snapshot divides by the scale given at
//! registration, so exported values keep their names and units. The
//! histogram depends only on the set of samples, not on the order they
//! were recorded in.

use recshard_data::{fnv1a, FNV_OFFSET};
use recshard_stats::{LogLinearHistogram, Summary};

/// Handle of a registered counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterId(usize);

/// Handle of a registered gauge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GaugeId(usize);

/// Handle of a registered quantile sink.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuantileId(usize);

/// Snapshot of one quantile sink: tail quantiles within 2^-8 relative of
/// the exact nearest-rank ones, plus exact moments.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantileStats {
    /// Observations recorded.
    pub count: u64,
    /// Median (0 when empty).
    pub p50: f64,
    /// 95th percentile (0 when empty).
    pub p95: f64,
    /// 99th percentile (0 when empty).
    pub p99: f64,
    /// Exact min/max/mean/std of everything recorded.
    pub summary: Summary,
}

impl QuantileStats {
    /// The p50/p95/p99 and moments of `sketch`, each divided by `scale`
    /// (recorded units per reported unit).
    pub fn of(sketch: &LogLinearHistogram, scale: f64) -> Self {
        Self {
            count: sketch.count(),
            p50: sketch.quantile(0.50) as f64 / scale,
            p95: sketch.quantile(0.95) as f64 / scale,
            p99: sketch.quantile(0.99) as f64 / scale,
            summary: sketch.summary(scale),
        }
    }
}

/// One registered quantile sink.
#[derive(Debug)]
struct QuantileSink {
    name: String,
    /// Recorded units per reported unit.
    scale: f64,
    sketch: LogLinearHistogram,
}

/// The registry. Registration happens at setup, recording on the hot
/// path; both take `&mut self`, because the registry has one owner (a
/// [`Collector`](crate::Collector)) and is never shared between threads.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: Vec<(String, u64)>,
    gauges: Vec<(String, f64)>,
    quantiles: Vec<QuantileSink>,
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
        self.counters.push((name.to_string(), 0));
        CounterId(self.counters.len() - 1)
    }

    /// Registers (or finds) a last-write-wins gauge. Unset gauges snapshot
    /// as 0.
    pub fn gauge(&mut self, name: &str) -> GaugeId {
        if let Some(i) = self.gauges.iter().position(|(n, _)| n == name) {
            return GaugeId(i);
        }
        self.gauges.push((name.to_string(), 0.0));
        GaugeId(self.gauges.len() - 1)
    }

    /// Registers (or finds) a quantile sink reporting p50/p95/p99 with
    /// exact moments — the same sketch the simulators report tails from.
    /// It records integers and reports them divided by `scale` (e.g. `1e6`
    /// to record nanoseconds and report milliseconds); a name registered
    /// again keeps its first scale.
    pub fn quantile(&mut self, name: &str, scale: f64) -> QuantileId {
        if let Some(i) = self.quantiles.iter().position(|q| q.name == name) {
            return QuantileId(i);
        }
        self.quantiles.push(QuantileSink {
            name: name.to_string(),
            scale,
            sketch: LogLinearHistogram::new(),
        });
        QuantileId(self.quantiles.len() - 1)
    }

    /// Adds `delta` to a counter.
    #[inline]
    pub fn add(&mut self, id: CounterId, delta: u64) {
        self.counters[id.0].1 += delta;
    }

    /// Increments a counter by one.
    #[inline]
    pub fn incr(&mut self, id: CounterId) {
        self.add(id, 1);
    }

    /// Sets a gauge.
    #[inline]
    pub fn set(&mut self, id: GaugeId, value: f64) {
        self.gauges[id.0].1 = value;
    }

    /// Records one observation, in the sink's recorded unit.
    #[inline]
    pub fn record(&mut self, id: QuantileId, value: u64) {
        self.quantiles[id.0].sketch.push(value);
    }

    /// A point-in-time snapshot of every registered metric, sorted by name.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut entries: Vec<(String, MetricValue)> = Vec::new();
        for (name, v) in &self.counters {
            entries.push((name.clone(), MetricValue::Counter(*v)));
        }
        for (name, v) in &self.gauges {
            entries.push((name.clone(), MetricValue::Gauge(*v)));
        }
        for q in &self.quantiles {
            let stats = QuantileStats::of(&q.sketch, q.scale);
            entries.push((q.name.clone(), MetricValue::Quantile(stats)));
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
        self.to_json()
            .bytes()
            .fold(FNV_OFFSET, |h, byte| fnv1a(h, u64::from(byte)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A metric's value as the snapshot reports it.
    fn value(reg: &MetricsRegistry, name: &str) -> MetricValue {
        let entry = reg.snapshot().entries.into_iter().find(|(n, _)| n == name);
        entry.expect("metric registered").1
    }

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
        assert_eq!(value(&reg, "a"), MetricValue::Counter(4));
        assert_eq!(value(&reg, "b"), MetricValue::Counter(1));
    }

    #[test]
    fn gauges_and_quantiles_round_trip() {
        let mut reg = MetricsRegistry::new();
        let g = reg.gauge("g");
        let q = reg.quantile("q", 1e3);
        reg.set(g, 2.5);
        assert_eq!(value(&reg, "g"), MetricValue::Gauge(2.5));
        for v in 1..=100 {
            reg.record(q, v);
        }
        let MetricValue::Quantile(stats) = value(&reg, "q") else {
            panic!("q is a quantile sink");
        };
        assert_eq!(stats.count, 100);
        assert_eq!([stats.p50, stats.p95, stats.p99], [0.05, 0.095, 0.099]);
        assert_eq!(stats.summary.mean, 0.0505, "the snapshot scales back");

        let snap = reg.snapshot();
        let names: Vec<_> = snap.entries.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["g", "q"], "snapshot sorts by name");
    }

    #[test]
    fn snapshot_json_is_deterministic_and_canonical() {
        let build = || {
            let mut reg = MetricsRegistry::new();
            let c = reg.counter("z.counter");
            let q = reg.quantile("a.quantile", 1.0);
            reg.add(c, 7);
            for v in 0..10 {
                reg.record(q, v);
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
}
