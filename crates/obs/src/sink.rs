//! The instrumentation hook: [`ObsSink`], the borrowed [`ObsHandle`] the
//! hot layers thread through their call chains, and the standard
//! [`Collector`] sink that buffers trace records and routes them into
//! well-known registry metrics.

use crate::registry::{CounterId, GaugeId, MetricsRegistry, MetricsSnapshot, QuantileId};
use crate::trace::{Trace, TraceBuffer, TraceEvent};

/// Receiver of instrumentation events.
///
/// Implementations must not observe-and-perturb: recording an event may not
/// influence the instrumented computation (the simulators' event logs and
/// fingerprints are asserted identical with and without a sink attached).
pub trait ObsSink {
    /// Whether events should be recorded at all. Hook sites check this once
    /// per scope and skip event construction entirely when `false`.
    fn enabled(&self) -> bool {
        true
    }

    /// Records one event at virtual time `ts_ns`.
    fn record(&mut self, ts_ns: u64, event: TraceEvent);
}

/// The do-nothing sink: [`enabled`](ObsSink::enabled) is `false`, so hook
/// sites skip event construction and instrumented code runs at full speed.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopSink;

impl ObsSink for NoopSink {
    fn enabled(&self) -> bool {
        false
    }

    fn record(&mut self, _ts_ns: u64, _event: TraceEvent) {}
}

/// A cheap, optional, borrowed handle to a sink — the form the hot layers
/// store and thread through their call chains. The default/noop handle holds
/// no sink at all, so the per-hook cost of an un-instrumented run is one
/// `Option` branch (no virtual call, no allocation).
#[derive(Default)]
pub struct ObsHandle<'a> {
    sink: Option<&'a mut (dyn ObsSink + 'a)>,
}

impl std::fmt::Debug for ObsHandle<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObsHandle")
            .field("enabled", &self.enabled())
            .finish()
    }
}

impl<'a> ObsHandle<'a> {
    /// A handle with no sink: every hook is a skipped branch.
    pub fn noop() -> Self {
        Self { sink: None }
    }

    /// A handle recording into `sink`.
    pub fn attached(sink: &'a mut (dyn ObsSink + 'a)) -> Self {
        Self { sink: Some(sink) }
    }

    /// Whether hook sites should construct and record events.
    #[inline]
    pub fn enabled(&self) -> bool {
        match &self.sink {
            Some(sink) => sink.enabled(),
            None => false,
        }
    }

    /// Records one event if a sink is attached and enabled.
    #[inline]
    pub fn record(&mut self, ts_ns: u64, event: TraceEvent) {
        if let Some(sink) = &mut self.sink {
            if sink.enabled() {
                sink.record(ts_ns, event);
            }
        }
    }

    /// Reborrows the handle for a nested call without consuming it.
    pub fn reborrow(&mut self) -> ObsHandle<'_> {
        ObsHandle {
            sink: self.sink.as_deref_mut().map(|s| s as &mut dyn ObsSink),
        }
    }
}

/// Scale of the time sinks: they record nanoseconds and report
/// milliseconds.
const NS_PER_MS: f64 = 1e6;

/// Scale of the ratio sinks: they record parts per million.
const PPM: f64 = 1e6;

/// Well-known metric handles the collector routes events into.
#[derive(Debug, Clone, Copy)]
struct Ids {
    des_iterations: CounterId,
    des_station_jobs: CounterId,
    des_exchanges: CounterId,
    des_reshard_checks: CounterId,
    des_reshards: CounterId,
    des_events: GaugeId,
    des_sojourn_ms: QuantileId,
    des_station_wait_ms: QuantileId,
    des_barrier_wait_ms: QuantileId,
    des_link_transfers: CounterId,
    des_link_duration_ms: QuantileId,
    des_link_stretch: QuantileId,
    des_link_tenancy: QuantileId,
    solver_lp_solves: CounterId,
    solver_pivots: CounterId,
    solver_refactorizations: CounterId,
    solver_nodes: CounterId,
    solver_pruned: CounterId,
    solver_incumbents: CounterId,
    solver_node_solves: CounterId,
    solver_compression: GaugeId,
    serve_shard_tasks: CounterId,
    serve_queries: CounterId,
    serve_hits: CounterId,
    serve_misses: CounterId,
    serve_bypasses: CounterId,
    serve_evictions: CounterId,
    serve_latency_ms: QuantileId,
    serve_service_ms: QuantileId,
    scenario_phases: CounterId,
    scenario_rate_multiplier: GaugeId,
    scenario_shifts_applied: GaugeId,
}

impl Ids {
    fn register(reg: &mut MetricsRegistry) -> Self {
        Self {
            des_iterations: reg.counter("des.iterations"),
            des_station_jobs: reg.counter("des.station.jobs"),
            des_exchanges: reg.counter("des.exchanges"),
            des_reshard_checks: reg.counter("des.reshard.checks"),
            des_reshards: reg.counter("des.reshard.applied"),
            des_events: reg.gauge("des.events"),
            des_sojourn_ms: reg.quantile("des.sojourn_ms", NS_PER_MS),
            des_station_wait_ms: reg.quantile("des.station.wait_ms", NS_PER_MS),
            des_barrier_wait_ms: reg.quantile("des.barrier.wait_ms", NS_PER_MS),
            des_link_transfers: reg.counter("des.link.transfers"),
            des_link_duration_ms: reg.quantile("des.link.duration_ms", NS_PER_MS),
            des_link_stretch: reg.quantile("des.link.stretch", PPM),
            des_link_tenancy: reg.quantile("des.link.tenancy", 1.0),
            solver_lp_solves: reg.counter("solver.lp_solves"),
            solver_pivots: reg.counter("solver.simplex.pivots"),
            solver_refactorizations: reg.counter("solver.simplex.refactorizations"),
            solver_nodes: reg.counter("solver.bnb.nodes"),
            solver_pruned: reg.counter("solver.bnb.pruned"),
            solver_incumbents: reg.counter("solver.bnb.incumbents"),
            solver_node_solves: reg.counter("solver.hierarchical.node_solves"),
            solver_compression: reg.gauge("solver.bucketing.compression"),
            serve_shard_tasks: reg.counter("serve.shard_tasks"),
            serve_queries: reg.counter("serve.queries"),
            serve_hits: reg.counter("serve.cache.hits"),
            serve_misses: reg.counter("serve.cache.misses"),
            serve_bypasses: reg.counter("serve.cache.bypasses"),
            serve_evictions: reg.counter("serve.cache.evictions"),
            serve_latency_ms: reg.quantile("serve.latency_ms", NS_PER_MS),
            serve_service_ms: reg.quantile("serve.service_ms", NS_PER_MS),
            scenario_phases: reg.counter("scenario.phases"),
            scenario_rate_multiplier: reg.gauge("scenario.rate_multiplier"),
            scenario_shifts_applied: reg.gauge("scenario.shifts_applied"),
        }
    }
}

/// The standard sink: buffers every event into a per-worker [`TraceBuffer`]
/// and simultaneously routes it into well-known [`MetricsRegistry`] metrics.
/// [`finish`](Collector::finish) merges all buffers deterministically and
/// snapshots the registry.
#[derive(Debug)]
pub struct Collector {
    own: TraceBuffer,
    extra: Vec<TraceBuffer>,
    registry: MetricsRegistry,
    ids: Ids,
}

impl Default for Collector {
    fn default() -> Self {
        Self::new()
    }
}

impl Collector {
    /// A collector recording as worker 0.
    pub fn new() -> Self {
        Self::for_worker(0)
    }

    /// A collector recording as the given worker lane.
    pub fn for_worker(worker: u32) -> Self {
        let mut registry = MetricsRegistry::new();
        let ids = Ids::register(&mut registry);
        Self {
            own: TraceBuffer::new(worker),
            extra: Vec::new(),
            registry,
            ids,
        }
    }

    /// Absorbs a buffer recorded elsewhere (e.g. by a worker thread),
    /// routing its events into the metrics and keeping its records for the
    /// deterministic merge. The metrics do not depend on the order buffers
    /// arrive in; the trace merge orders records by `(ts, worker, seq)`.
    pub fn ingest_buffer(&mut self, buffer: TraceBuffer) {
        for r in buffer.records() {
            self.route(&r.event);
        }
        self.extra.push(buffer);
    }

    /// Finishes the collection: merged trace plus metrics snapshot.
    pub fn finish(self) -> ObsBundle {
        let mut buffers = vec![self.own];
        buffers.extend(self.extra);
        ObsBundle {
            trace: Trace::merge(buffers),
            metrics: self.registry.snapshot(),
        }
    }

    fn route(&mut self, event: &TraceEvent) {
        let reg = &mut self.registry;
        let ids = &self.ids;
        match *event {
            TraceEvent::StationEnqueue { .. } => {}
            TraceEvent::StationService { wait_ns, .. } => {
                reg.incr(ids.des_station_jobs);
                reg.record(ids.des_station_wait_ms, wait_ns);
            }
            TraceEvent::BarrierWait { wait_ns, .. } => {
                reg.record(ids.des_barrier_wait_ms, wait_ns);
            }
            TraceEvent::Exchange { .. } => reg.incr(ids.des_exchanges),
            TraceEvent::IterationDone { sojourn_ns, .. } => {
                reg.incr(ids.des_iterations);
                reg.record(ids.des_sojourn_ms, sojourn_ns);
            }
            TraceEvent::ReshardCheck { resharded, .. } => {
                reg.incr(ids.des_reshard_checks);
                if resharded {
                    reg.incr(ids.des_reshards);
                }
            }
            TraceEvent::SimulationDone { events, .. } => {
                reg.set(ids.des_events, events as f64);
            }
            TraceEvent::LinkTransfer {
                work_ns,
                elapsed_ns,
                ..
            } => {
                reg.incr(ids.des_link_transfers);
                reg.record(ids.des_link_duration_ms, elapsed_ns);
                let stretch_ppm = if work_ns == 0 {
                    1_000_000
                } else {
                    u64::try_from(u128::from(elapsed_ns) * 1_000_000 / u128::from(work_ns))
                        .unwrap_or(u64::MAX)
                };
                reg.record(ids.des_link_stretch, stretch_ppm);
            }
            TraceEvent::LinkTenancy { tenants, .. } => {
                reg.record(ids.des_link_tenancy, u64::from(tenants));
            }
            TraceEvent::LpSolved {
                pivots,
                refactorizations,
                ..
            } => {
                reg.incr(ids.solver_lp_solves);
                reg.add(ids.solver_pivots, pivots);
                reg.add(ids.solver_refactorizations, refactorizations);
            }
            TraceEvent::BnbOpen { .. } => reg.incr(ids.solver_nodes),
            TraceEvent::BnbPrune { .. } => reg.incr(ids.solver_pruned),
            TraceEvent::BnbIncumbent { .. } => reg.incr(ids.solver_incumbents),
            TraceEvent::Bucketing { compression, .. } => {
                reg.set(ids.solver_compression, compression);
            }
            TraceEvent::NodeSolve { .. } => reg.incr(ids.solver_node_solves),
            TraceEvent::QueryServed {
                service_ns,
                hits,
                misses,
                bypasses,
                ..
            } => {
                reg.incr(ids.serve_shard_tasks);
                reg.record(ids.serve_service_ms, service_ns);
                reg.add(ids.serve_hits, hits);
                reg.add(ids.serve_misses, misses);
                reg.add(ids.serve_bypasses, bypasses);
            }
            TraceEvent::QueryLatency { latency_ns, .. } => {
                reg.incr(ids.serve_queries);
                reg.record(ids.serve_latency_ms, latency_ns);
            }
            TraceEvent::ScenarioPhase {
                rate_multiplier,
                shifts_applied,
                ..
            } => {
                reg.incr(ids.scenario_phases);
                reg.set(ids.scenario_rate_multiplier, rate_multiplier);
                reg.set(ids.scenario_shifts_applied, shifts_applied as f64);
            }
            TraceEvent::CacheShard { evictions, .. } => {
                reg.add(ids.serve_evictions, evictions);
            }
        }
    }
}

impl ObsSink for Collector {
    fn record(&mut self, ts_ns: u64, event: TraceEvent) {
        self.route(&event);
        self.own.record(ts_ns, event);
    }
}

/// Everything a finished collection yields: the deterministically merged
/// trace and the name-sorted metrics snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct ObsBundle {
    /// The merged trace (export via [`Trace::to_jsonl`] / [`Trace::to_chrome`]).
    pub trace: Trace,
    /// The metrics snapshot (export via [`MetricsSnapshot::to_json`]).
    pub metrics: MetricsSnapshot,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::MetricValue;

    fn metric<'a>(snap: &'a MetricsSnapshot, name: &str) -> &'a MetricValue {
        &snap
            .entries
            .iter()
            .find(|(n, _)| n == name)
            .unwrap_or_else(|| panic!("metric {name} missing"))
            .1
    }

    #[test]
    fn noop_handle_is_disabled_and_records_nothing() {
        let mut h = ObsHandle::noop();
        assert!(!h.enabled());
        h.record(
            0,
            TraceEvent::IterationDone {
                iter: 0,
                sojourn_ns: 1,
            },
        );
        let mut noop = NoopSink;
        let h = ObsHandle::attached(&mut noop);
        assert!(!h.enabled(), "a NoopSink-backed handle stays disabled");
    }

    #[test]
    fn collector_routes_events_into_well_known_metrics() {
        let mut c = Collector::new();
        for iter in 0..5u64 {
            c.record(
                iter * 100,
                TraceEvent::IterationDone {
                    iter,
                    sojourn_ns: 2_000_000,
                },
            );
        }
        c.record(
            0,
            TraceEvent::LpSolved {
                node: 0,
                pivots: 12,
                refactorizations: 2,
                objective: 1.5,
            },
        );
        c.record(
            500,
            TraceEvent::ReshardCheck {
                completed: 5,
                imbalance: 0.3,
                resharded: true,
                moved_tables: 3,
                migration_ns: 10,
            },
        );
        let bundle = c.finish();
        assert_eq!(bundle.trace.len(), 7);
        assert_eq!(
            metric(&bundle.metrics, "des.iterations"),
            &MetricValue::Counter(5)
        );
        assert_eq!(
            metric(&bundle.metrics, "solver.simplex.pivots"),
            &MetricValue::Counter(12)
        );
        assert_eq!(
            metric(&bundle.metrics, "des.reshard.applied"),
            &MetricValue::Counter(1)
        );
        match metric(&bundle.metrics, "des.sojourn_ms") {
            MetricValue::Quantile(q) => {
                assert_eq!(q.count, 5);
                assert!((q.summary.mean - 2.0).abs() < 1e-9);
            }
            other => panic!("expected quantile, got {other:?}"),
        }
    }

    #[test]
    fn ingested_buffers_merge_and_route() {
        let mut c = Collector::new();
        let mut worker = TraceBuffer::new(3);
        worker.record(
            10,
            TraceEvent::QueryServed {
                shard: 3,
                query: 0,
                start_ns: 10,
                service_ns: 100,
                wait_ns: 0,
                hits: 4,
                misses: 1,
                bypasses: 0,
            },
        );
        c.ingest_buffer(worker);
        let bundle = c.finish();
        assert_eq!(bundle.trace.len(), 1);
        assert_eq!(
            metric(&bundle.metrics, "serve.cache.hits"),
            &MetricValue::Counter(4)
        );
    }
}
