//! # recshard-obs
//!
//! Deterministic **observability substrate** for the RecShard reproduction:
//! a metrics registry, structured event tracing, and a run-report layer,
//! threaded through the hot paths of the solver (`recshard-milp`,
//! `recshard`), the discrete-event trainer (`recshard-des`) and the online
//! inference layer (`recshard-serve`).
//!
//! Everything in this crate follows the repo's determinism contract: with a
//! fixed seed, a traced run exports **byte-identical** JSONL traces and
//! metrics snapshots across repetitions, and the instrumentation never
//! perturbs the instrumented computation — the no-op sink keeps every golden
//! fingerprint bit-identical.
//!
//! The three layers:
//!
//! * [`MetricsRegistry`] — named counters, gauges and quantile sinks
//!   ([`recshard_stats::LogLinearHistogram`], recording integers in each
//!   metric's own unit and snapshotting in the reported one). Registration
//!   returns `Copy` handles; the hot path is an index plus a plain add,
//!   store or histogram push — no name lookup, no atomics, no locks. The
//!   registry has one owner (a [`Collector`]), which records through
//!   `&mut self`; worker threads record into their own trace buffers,
//!   which the collector ingests. A quantile sink's snapshot does not
//!   depend on the order its samples arrived in.
//! * [`TraceEvent`] / [`TraceBuffer`] / [`Trace`] — typed span/instant
//!   records (station enqueue/service, barrier waits, re-shard decisions,
//!   simplex pivot/refactorisation counts, B&B node open/prune, bucketing
//!   compression, serve cache traffic) buffered per worker and merged in
//!   deterministic `(virtual time, worker, sequence)` order. A merged trace
//!   exports as JSONL or as Chrome `trace_event` JSON for `about://tracing`.
//! * [`ObsSink`] / [`ObsHandle`] / [`Collector`] — the hook the hot layers
//!   call through. [`ObsHandle::noop`] is a `None` branch (no virtual call),
//!   so un-instrumented runs pay one predictable branch per hook site;
//!   [`Collector`] buffers trace records and routes them into well-known
//!   registry metrics, and [`Collector::finish`] yields an [`ObsBundle`]
//!   (merged trace + sorted metrics snapshot).
//! * [`RunReport`] — renders per-run `key: value` summaries (point counts,
//!   fingerprints, determinism footers) for the bench bins, replacing their
//!   hand-rolled output.
//!
//! ```
//! use recshard_obs::{Collector, ObsHandle, ObsSink, TraceEvent};
//!
//! let mut collector = Collector::new();
//! {
//!     let mut obs = ObsHandle::attached(&mut collector);
//!     if obs.enabled() {
//!         obs.record(1_000, TraceEvent::IterationDone { iter: 0, sojourn_ns: 1_000 });
//!     }
//! }
//! let bundle = collector.finish();
//! assert_eq!(bundle.trace.len(), 1);
//! assert!(bundle.trace.to_chrome().starts_with("{\"traceEvents\":["));
//! ```
#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod registry;
pub mod report;
pub mod sink;
pub mod trace;

pub use registry::{
    CounterId, GaugeId, MetricValue, MetricsRegistry, MetricsSnapshot, QuantileId, QuantileStats,
};
pub use report::RunReport;
pub use sink::{Collector, NoopSink, ObsBundle, ObsHandle, ObsSink};
pub use trace::{LinkKind, PruneReason, Trace, TraceBuffer, TraceEvent, TraceRecord};
