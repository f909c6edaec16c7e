//! Serving-run reports: hit rates, tail latency, throughput, fingerprint.

use crate::cache::CacheStats;
use crate::policy::PolicyKind;
use recshard_stats::Summary;

/// Aggregated results of one serving run. Identical inputs and seed produce
/// identical reports, fingerprint included — the same determinism contract
/// as the discrete-event simulator's `RunSummary`.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeReport {
    /// Strategy name of the placement that routed tables to shards.
    pub placement: String,
    /// Cache policy every shard ran.
    pub policy: PolicyKind,
    /// GPU shards serving.
    pub shards: usize,
    /// Measured queries (warmup excluded).
    pub queries: u32,
    /// Warmup queries excluded from every measured number below.
    pub warmup: u32,
    /// Samples per query.
    pub batch_size: usize,
    /// Largest HBM cache capacity across shards, in bytes (shards may
    /// differ on a heterogeneous cluster; uniform clusters report the
    /// shared per-shard capacity).
    pub capacity_per_shard_bytes: u64,
    /// Measured lookups served from HBM.
    pub hits: u64,
    /// Measured lookups that missed and were admitted.
    pub misses: u64,
    /// Measured lookups that missed and bypassed admission.
    pub bypasses: u64,
    /// `hits / (hits + misses + bypasses)` over the measured window.
    pub hit_rate: f64,
    /// Measured hit rate of each shard.
    pub per_shard_hit_rate: Vec<f64>,
    /// Fraction of the makespan each shard spent serving lookups.
    pub busy_fraction: Vec<f64>,
    /// Median query latency (arrival → slowest shard done), ms.
    pub p50_ms: f64,
    /// 95th-percentile query latency, ms.
    pub p95_ms: f64,
    /// 99th-percentile query latency, ms.
    pub p99_ms: f64,
    /// Exact moments of the measured latency distribution, ms.
    pub latency: Summary,
    /// Virtual time of the last completion, ms.
    pub makespan_ms: f64,
    /// Sustained throughput over the whole run, queries per virtual second.
    pub throughput_qps: f64,
    /// End-state cache counters summed over shards (warmup included).
    pub cache: CacheStats,
    /// Order-sensitive FNV-1a hash over measured per-query latencies and the
    /// hit/miss/bypass totals.
    pub fingerprint: u64,
}

impl std::fmt::Display for ServeReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}+{}: {} queries on {} shards — hit rate {:.1}%, p50/p95/p99 = \
             {:.3}/{:.3}/{:.3} ms, {:.0} qps",
            self.placement,
            self.policy,
            self.queries,
            self.shards,
            self.hit_rate * 100.0,
            self.p50_ms,
            self.p95_ms,
            self.p99_ms,
            self.throughput_qps
        )
    }
}
