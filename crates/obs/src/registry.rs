//! The metrics registry.
//!
//! Metrics are registered once at setup time by name and handed back as
//! `Copy` handle ids; the hot path indexes by handle and performs one
//! relaxed atomic op (counters, gauges) or takes one
//! per-metric mutex (quantile sinks, so two metrics never contend). Only a
//! quantile sample landing beyond every earlier sample's bucket allocates.
//! Snapshots sort by name and serialise to canonical JSON, making
//! a seeded run's metrics byte-identical across repetitions.
//!
//! A quantile sink is a [`LogLinearHistogram`]: it records integers in the
//! metric's own unit (nanoseconds for times, a count for tenancy, parts
//! per million for ratios), and the snapshot divides by the scale given at
//! registration, so exported values keep their names and units. The
//! histogram depends only on the set of samples, so threads recording into
//! one sink in any interleaving snapshot the same bits.

use recshard_data::{fnv1a, FNV_OFFSET};
use recshard_stats::{LogLinearHistogram, Summary};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

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
    sketch: Mutex<LogLinearHistogram>,
}

impl QuantileSink {
    /// Locks the sink. No writer panics while holding the lock, so
    /// poisoning only follows a panic that already tore down the run;
    /// every acquisition goes through here.
    fn lock(&self) -> std::sync::MutexGuard<'_, LogLinearHistogram> {
        // recshard-lint: allow(unwrap) -- see above: poisoning implies a
        // prior panic, and propagating it is the only option.
        self.sketch.lock().expect("quantile sink poisoned")
    }
}

/// The registry. Registration (`&mut self`) happens at setup; recording
/// (`&self`) is hot-path safe and shareable across worker threads.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: Vec<(String, AtomicU64)>,
    gauges: Vec<(String, AtomicU64)>,
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
            sketch: Mutex::new(LogLinearHistogram::new()),
        });
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

    /// Records one observation, in the sink's recorded unit. Takes that
    /// metric's lock only.
    #[inline]
    pub fn record(&self, id: QuantileId, value: u64) {
        self.quantiles[id.0].lock().push(value);
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
        for q in &self.quantiles {
            let stats = QuantileStats::of(&q.lock(), q.scale);
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

    #[test]
    fn hot_path_is_shareable_across_threads() {
        let mut reg = MetricsRegistry::new();
        let c = reg.counter("c");
        let q = reg.quantile("q", 1e6);
        // Each thread records its own values, so the interleaving decides
        // the order the sink sees them in.
        let value_of = |thread: u64, i: u64| (i * 7_919 + thread * 104_729) % 1_000_003;
        std::thread::scope(|scope| {
            for thread in 0..4 {
                let reg = &reg;
                scope.spawn(move || {
                    for i in 0..1_000 {
                        reg.incr(c);
                        reg.record(q, value_of(thread, i));
                    }
                });
            }
        });
        assert_eq!(value(&reg, "c"), MetricValue::Counter(4_000));
        let MetricValue::Quantile(stats) = value(&reg, "q") else {
            panic!("q is a quantile sink");
        };
        assert_eq!(stats.count, 4_000);

        let mut serial = MetricsRegistry::new();
        let serial_q = serial.quantile("q", 1e6);
        for thread in 0..4 {
            for i in 0..1_000 {
                serial.record(serial_q, value_of(thread, i));
            }
        }
        assert_eq!(
            value(&reg, "q"),
            value(&serial, "q"),
            "the snapshot must not depend on how the threads interleaved"
        );
    }
}
