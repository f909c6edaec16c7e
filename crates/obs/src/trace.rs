//! Structured event tracing: typed records, per-worker buffers, and a
//! deterministic merged trace exportable as JSONL or Chrome `trace_event`
//! JSON.
//!
//! Records carry integer virtual-time stamps (nanoseconds in the simulators,
//! a synthetic tick in the solvers — any monotone per-worker clock works)
//! and are merged across workers in `(ts, worker, seq)` order, so a seeded
//! run's exported trace is byte-identical across repetitions regardless of
//! thread scheduling.

use recshard_data::{fnv1a, FNV_OFFSET};

/// Why a branch-and-bound node was discarded without branching.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PruneReason {
    /// The node's relaxation bound could not beat the incumbent.
    Bound,
    /// The node's LP relaxation was infeasible.
    Infeasible,
}

impl PruneReason {
    /// Stable lowercase label used in exported traces.
    pub fn as_str(self) -> &'static str {
        match self {
            PruneReason::Bound => "bound",
            PruneReason::Infeasible => "infeasible",
        }
    }
}

/// Synthetic lane (Chrome `tid`) for the DES barrier/exchange spans.
const LANE_BARRIER: u32 = 900;
/// Synthetic lane for the all-to-all exchange spans.
const LANE_EXCHANGE: u32 = 901;
/// Synthetic lane for controller/summary instants.
const LANE_CONTROL: u32 = 902;
/// Synthetic lane for shared-rate link (contention) events.
const LANE_LINK: u32 = 903;
/// Synthetic lane for scenario phase-change events.
const LANE_SCENARIO: u32 = 904;
/// Synthetic lane for solver (simplex / B&B / bucketing) events.
const LANE_SOLVER: u32 = 1000;

/// Which kind of contended link a link event refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkKind {
    /// A GPU's HBM gather channel.
    Hbm,
    /// A GPU's UVM (host-memory) gather channel.
    Uvm,
    /// A GPU's NVLink all-to-all egress.
    Nvlink,
    /// A node's inter-node fabric (NIC) ingress port.
    Fabric,
}

impl LinkKind {
    /// Stable lowercase label used in exported traces.
    pub fn as_str(self) -> &'static str {
        match self {
            LinkKind::Hbm => "hbm",
            LinkKind::Uvm => "uvm",
            LinkKind::Nvlink => "nvlink",
            LinkKind::Fabric => "fabric",
        }
    }
}

/// One typed trace event. Variants cover the instrumented layers: the
/// discrete-event trainer, the MILP solver stack, the structured solvers,
/// and the online serving layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceEvent {
    /// A GPU station received one iteration's embedding work (DES).
    StationEnqueue {
        /// Station (GPU) index.
        gpu: u32,
        /// Training iteration.
        iter: u64,
        /// Backlog in front of the job at enqueue time.
        queue_ns: u64,
    },
    /// One station job from enqueue to completion (DES span).
    StationService {
        /// Station (GPU) index.
        gpu: u32,
        /// Training iteration.
        iter: u64,
        /// Virtual time service started (enqueue + queueing).
        start_ns: u64,
        /// Pure service time (HBM + UVM + overhead).
        service_ns: u64,
        /// Time spent queued behind earlier jobs.
        wait_ns: u64,
    },
    /// The all-to-all barrier: first GPU done → last GPU done (DES span).
    BarrierWait {
        /// Training iteration.
        iter: u64,
        /// How long the fastest GPU waited for the slowest.
        wait_ns: u64,
    },
    /// The all-to-all exchange crossing the interconnect (DES span).
    Exchange {
        /// Training iteration.
        iter: u64,
        /// Exchange duration.
        duration_ns: u64,
    },
    /// An iteration completed; sojourn is arrival → exchange done (DES).
    IterationDone {
        /// Training iteration.
        iter: u64,
        /// Arrival → exchange-done time.
        sojourn_ns: u64,
    },
    /// The online re-sharding controller ran an imbalance check (DES).
    ReshardCheck {
        /// Iterations completed when the check fired.
        completed: u64,
        /// Relative busy-time imbalance the controller measured (the cost
        /// signal behind the decision).
        imbalance: f64,
        /// Whether a new plan was installed.
        resharded: bool,
        /// Tables whose GPU changed under the new plan (0 when balanced).
        moved_tables: u64,
        /// Migration stall charged to every station (0 when balanced).
        migration_ns: u64,
    },
    /// The simulation drained (DES run summary instant).
    SimulationDone {
        /// Total events processed by the engine.
        events: u64,
        /// Iterations completed.
        iterations: u64,
    },
    /// One transfer completed service on a shared-rate link (DES span,
    /// contention mode only). `elapsed_ns / work_ns` is the contention
    /// stretch: 1 means the transfer never shared the link.
    LinkTransfer {
        /// Which kind of link served the transfer.
        kind: LinkKind,
        /// Device index within the kind (GPU for hbm/uvm/nvlink, node for
        /// fabric).
        link: u32,
        /// Admission sequence number on the link.
        seq: u64,
        /// Virtual time the transfer was admitted.
        start_ns: u64,
        /// Solo (uncontended) service time.
        work_ns: u64,
        /// Wall time on the link including sharing.
        elapsed_ns: u64,
        /// Tenants sharing the link at admission (including this one).
        tenants: u32,
    },
    /// Tenancy on a shared-rate link changed (DES instant, contention mode
    /// only).
    LinkTenancy {
        /// Which kind of link changed tenancy.
        kind: LinkKind,
        /// Device index within the kind.
        link: u32,
        /// In-flight transfers after the change.
        tenants: u32,
    },
    /// One LP relaxation solved by the simplex backend (solver).
    LpSolved {
        /// Branch-and-bound node index (0 = root; pure LPs only emit 0).
        node: u64,
        /// Dual-simplex pivots this solve performed.
        pivots: u64,
        /// Basis refactorisations this solve performed.
        refactorizations: u64,
        /// Relaxation objective in the model's original sense.
        objective: f64,
    },
    /// A branch-and-bound node was popped for exploration (solver).
    BnbOpen {
        /// Node index in exploration order.
        node: u64,
        /// The node's relaxation bound (minimization form).
        bound: f64,
    },
    /// A branch-and-bound node was discarded without branching (solver).
    BnbPrune {
        /// Node index in exploration order.
        node: u64,
        /// Why the node was discarded.
        reason: PruneReason,
    },
    /// A new incumbent integer solution was found (solver).
    BnbIncumbent {
        /// Node index in exploration order.
        node: u64,
        /// Incumbent objective in the model's original sense.
        objective: f64,
    },
    /// The scalable solver's preprocessor collapsed tables into buckets.
    Bucketing {
        /// Tables before bucketing.
        tables: u64,
        /// Buckets after.
        buckets: u64,
        /// `tables / buckets`.
        compression: f64,
    },
    /// The hierarchical solver solved one node's sub-problem.
    NodeSolve {
        /// Cluster node index.
        node: u32,
        /// Tables assigned to the node.
        tables: u64,
        /// GPUs on the node.
        gpus: u64,
        /// Whether the exact MILP path ran (vs the scalable solver).
        exact: bool,
    },
    /// One shard finished its slice of a query (serve span).
    QueryServed {
        /// Shard (GPU) index.
        shard: u32,
        /// Query index in the stream (warmup included).
        query: u64,
        /// Virtual time the shard started serving the slice.
        start_ns: u64,
        /// Pure service time on the shard.
        service_ns: u64,
        /// Time the slice queued behind earlier queries.
        wait_ns: u64,
        /// Measured-window lookups served from HBM (0 during warmup).
        hits: u64,
        /// Measured-window lookups missed and admitted.
        misses: u64,
        /// Measured-window lookups missed and bypassed.
        bypasses: u64,
    },
    /// A measured query's end-to-end latency after fan-in (serve).
    QueryLatency {
        /// Query index in the stream.
        query: u64,
        /// Arrival → slowest-shard-done latency.
        latency_ns: u64,
    },
    /// The driving workload scenario entered a new phase: a rate-curve
    /// regime boundary was crossed and/or distribution shifts applied
    /// (DES and serve instant).
    ScenarioPhase {
        /// Phase index after the change (0 is never emitted — runs start
        /// in phase 0).
        phase: u32,
        /// Composed arrival-rate multiplier at the boundary.
        rate_multiplier: f64,
        /// Total distribution shifts applied so far.
        shifts_applied: u64,
    },
    /// End-state cache counters of one shard (serve, warmup included).
    CacheShard {
        /// Shard (GPU) index.
        shard: u32,
        /// Lifetime cache hits.
        hits: u64,
        /// Lifetime misses admitted.
        misses: u64,
        /// Lifetime misses bypassed.
        bypasses: u64,
        /// Lifetime evictions.
        evictions: u64,
        /// Bytes resident at the end of the run.
        used_bytes: u64,
        /// Bytes pinned by the stat-guided policy.
        pinned_bytes: u64,
    },
}

/// Formats a float exactly like the committed bench artifacts do, so traces
/// containing floats stay byte-stable across runs.
fn fmt_f64(x: f64) -> String {
    format!("{x:.9e}")
}

impl TraceEvent {
    /// Stable snake_case event name used in both export formats.
    pub fn name(&self) -> &'static str {
        match self {
            TraceEvent::StationEnqueue { .. } => "station_enqueue",
            TraceEvent::StationService { .. } => "station_service",
            TraceEvent::BarrierWait { .. } => "barrier_wait",
            TraceEvent::Exchange { .. } => "exchange",
            TraceEvent::IterationDone { .. } => "iteration_done",
            TraceEvent::ReshardCheck { .. } => "reshard_check",
            TraceEvent::SimulationDone { .. } => "simulation_done",
            TraceEvent::LinkTransfer { .. } => "link_transfer",
            TraceEvent::LinkTenancy { .. } => "link_tenancy",
            TraceEvent::LpSolved { .. } => "lp_solved",
            TraceEvent::BnbOpen { .. } => "bnb_open",
            TraceEvent::BnbPrune { .. } => "bnb_prune",
            TraceEvent::BnbIncumbent { .. } => "bnb_incumbent",
            TraceEvent::Bucketing { .. } => "bucketing",
            TraceEvent::NodeSolve { .. } => "node_solve",
            TraceEvent::QueryServed { .. } => "query_served",
            TraceEvent::QueryLatency { .. } => "query_latency",
            TraceEvent::ScenarioPhase { .. } => "scenario_phase",
            TraceEvent::CacheShard { .. } => "cache_shard",
        }
    }

    /// Display lane of the event: per-GPU/shard events use the device index,
    /// synthetic subsystems get fixed lanes. Becomes the Chrome `tid`.
    pub fn lane(&self) -> u32 {
        match *self {
            TraceEvent::StationEnqueue { gpu, .. } | TraceEvent::StationService { gpu, .. } => gpu,
            TraceEvent::BarrierWait { .. } => LANE_BARRIER,
            TraceEvent::Exchange { .. } => LANE_EXCHANGE,
            TraceEvent::IterationDone { .. }
            | TraceEvent::ReshardCheck { .. }
            | TraceEvent::SimulationDone { .. }
            | TraceEvent::QueryLatency { .. } => LANE_CONTROL,
            TraceEvent::LinkTransfer { .. } | TraceEvent::LinkTenancy { .. } => LANE_LINK,
            TraceEvent::ScenarioPhase { .. } => LANE_SCENARIO,
            TraceEvent::LpSolved { .. }
            | TraceEvent::BnbOpen { .. }
            | TraceEvent::BnbPrune { .. }
            | TraceEvent::BnbIncumbent { .. }
            | TraceEvent::Bucketing { .. }
            | TraceEvent::NodeSolve { .. } => LANE_SOLVER,
            TraceEvent::QueryServed { shard, .. } | TraceEvent::CacheShard { shard, .. } => shard,
        }
    }

    /// Span extent `(start_ns, duration_ns)` for events that model an
    /// interval; `None` renders as a Chrome instant. `ts_ns` is the record's
    /// timestamp, used by spans anchored at their record time.
    pub fn span(&self, ts_ns: u64) -> Option<(u64, u64)> {
        match *self {
            TraceEvent::StationService {
                start_ns,
                service_ns,
                ..
            } => Some((start_ns, service_ns)),
            TraceEvent::BarrierWait { wait_ns, .. } => Some((ts_ns, wait_ns)),
            TraceEvent::Exchange { duration_ns, .. } => Some((ts_ns, duration_ns)),
            TraceEvent::LinkTransfer {
                start_ns,
                elapsed_ns,
                ..
            } => Some((start_ns, elapsed_ns)),
            TraceEvent::QueryServed {
                start_ns,
                service_ns,
                ..
            } => Some((start_ns, service_ns)),
            _ => None,
        }
    }

    /// The event payload as a canonical JSON object (fixed key order,
    /// floats in `{:.9e}`).
    pub fn args_json(&self) -> String {
        match *self {
            TraceEvent::StationEnqueue {
                gpu,
                iter,
                queue_ns,
            } => {
                format!("{{\"gpu\":{gpu},\"iter\":{iter},\"queue_ns\":{queue_ns}}}")
            }
            TraceEvent::StationService {
                gpu,
                iter,
                start_ns,
                service_ns,
                wait_ns,
            } => format!(
                "{{\"gpu\":{gpu},\"iter\":{iter},\"start_ns\":{start_ns},\
                 \"service_ns\":{service_ns},\"wait_ns\":{wait_ns}}}"
            ),
            TraceEvent::BarrierWait { iter, wait_ns } => {
                format!("{{\"iter\":{iter},\"wait_ns\":{wait_ns}}}")
            }
            TraceEvent::Exchange { iter, duration_ns } => {
                format!("{{\"iter\":{iter},\"duration_ns\":{duration_ns}}}")
            }
            TraceEvent::IterationDone { iter, sojourn_ns } => {
                format!("{{\"iter\":{iter},\"sojourn_ns\":{sojourn_ns}}}")
            }
            TraceEvent::ReshardCheck {
                completed,
                imbalance,
                resharded,
                moved_tables,
                migration_ns,
            } => format!(
                "{{\"completed\":{completed},\"imbalance\":{},\"resharded\":{resharded},\
                 \"moved_tables\":{moved_tables},\"migration_ns\":{migration_ns}}}",
                fmt_f64(imbalance)
            ),
            TraceEvent::SimulationDone { events, iterations } => {
                format!("{{\"events\":{events},\"iterations\":{iterations}}}")
            }
            TraceEvent::LinkTransfer {
                kind,
                link,
                seq,
                start_ns,
                work_ns,
                elapsed_ns,
                tenants,
            } => format!(
                "{{\"kind\":\"{}\",\"link\":{link},\"seq\":{seq},\"start_ns\":{start_ns},\
                 \"work_ns\":{work_ns},\"elapsed_ns\":{elapsed_ns},\"tenants\":{tenants}}}",
                kind.as_str()
            ),
            TraceEvent::LinkTenancy {
                kind,
                link,
                tenants,
            } => format!(
                "{{\"kind\":\"{}\",\"link\":{link},\"tenants\":{tenants}}}",
                kind.as_str()
            ),
            TraceEvent::LpSolved {
                node,
                pivots,
                refactorizations,
                objective,
            } => format!(
                "{{\"node\":{node},\"pivots\":{pivots},\
                 \"refactorizations\":{refactorizations},\"objective\":{}}}",
                fmt_f64(objective)
            ),
            TraceEvent::BnbOpen { node, bound } => {
                format!("{{\"node\":{node},\"bound\":{}}}", fmt_f64(bound))
            }
            TraceEvent::BnbPrune { node, reason } => {
                format!("{{\"node\":{node},\"reason\":\"{}\"}}", reason.as_str())
            }
            TraceEvent::BnbIncumbent { node, objective } => {
                format!("{{\"node\":{node},\"objective\":{}}}", fmt_f64(objective))
            }
            TraceEvent::Bucketing {
                tables,
                buckets,
                compression,
            } => format!(
                "{{\"tables\":{tables},\"buckets\":{buckets},\"compression\":{}}}",
                fmt_f64(compression)
            ),
            TraceEvent::NodeSolve {
                node,
                tables,
                gpus,
                exact,
            } => {
                format!("{{\"node\":{node},\"tables\":{tables},\"gpus\":{gpus},\"exact\":{exact}}}")
            }
            TraceEvent::QueryServed {
                shard,
                query,
                start_ns,
                service_ns,
                wait_ns,
                hits,
                misses,
                bypasses,
            } => format!(
                "{{\"shard\":{shard},\"query\":{query},\"start_ns\":{start_ns},\
                 \"service_ns\":{service_ns},\"wait_ns\":{wait_ns},\"hits\":{hits},\
                 \"misses\":{misses},\"bypasses\":{bypasses}}}"
            ),
            TraceEvent::QueryLatency { query, latency_ns } => {
                format!("{{\"query\":{query},\"latency_ns\":{latency_ns}}}")
            }
            TraceEvent::ScenarioPhase {
                phase,
                rate_multiplier,
                shifts_applied,
            } => format!(
                "{{\"phase\":{phase},\"rate_multiplier\":{},\"shifts_applied\":{shifts_applied}}}",
                fmt_f64(rate_multiplier)
            ),
            TraceEvent::CacheShard {
                shard,
                hits,
                misses,
                bypasses,
                evictions,
                used_bytes,
                pinned_bytes,
            } => format!(
                "{{\"shard\":{shard},\"hits\":{hits},\"misses\":{misses},\
                 \"bypasses\":{bypasses},\"evictions\":{evictions},\
                 \"used_bytes\":{used_bytes},\"pinned_bytes\":{pinned_bytes}}}"
            ),
        }
    }
}

/// One buffered trace record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceRecord {
    /// Virtual timestamp (nanoseconds in the simulators, a synthetic tick in
    /// the solvers).
    pub ts_ns: u64,
    /// Worker that recorded the event (0 for single-threaded layers).
    pub worker: u32,
    /// Per-worker emission sequence number (merge tie-break).
    pub seq: u64,
    /// The typed payload.
    pub event: TraceEvent,
}

/// A per-worker append-only record buffer. Workers record into private
/// buffers (no synchronisation on the hot path); [`Trace::merge`] produces
/// the deterministic global order afterwards.
#[derive(Debug, Clone, Default)]
pub struct TraceBuffer {
    worker: u32,
    records: Vec<TraceRecord>,
}

impl TraceBuffer {
    /// Creates an empty buffer for `worker`.
    pub fn new(worker: u32) -> Self {
        Self {
            worker,
            records: Vec::new(),
        }
    }

    /// Appends one event at virtual time `ts_ns`.
    pub fn record(&mut self, ts_ns: u64, event: TraceEvent) {
        let seq = self.records.len() as u64;
        self.records.push(TraceRecord {
            ts_ns,
            worker: self.worker,
            seq,
            event,
        });
    }

    /// The buffered records, emission order.
    pub fn records(&self) -> &[TraceRecord] {
        &self.records
    }

    /// Records buffered so far.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

/// A merged, deterministically ordered trace.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    records: Vec<TraceRecord>,
}

impl Trace {
    /// Merges per-worker buffers into `(ts, worker, seq)` order. The sort
    /// key is total over records of distinct workers, so the merged order is
    /// independent of buffer order and of any thread scheduling that
    /// produced the buffers.
    pub fn merge(buffers: impl IntoIterator<Item = TraceBuffer>) -> Self {
        let mut records: Vec<TraceRecord> = buffers.into_iter().flat_map(|b| b.records).collect();
        records.sort_by_key(|r| (r.ts_ns, r.worker, r.seq));
        Self { records }
    }

    /// The merged records.
    pub fn records(&self) -> &[TraceRecord] {
        &self.records
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// One canonical JSON object per record, newline-terminated — the
    /// grep/jq-friendly export.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for r in &self.records {
            out.push_str(&format!(
                "{{\"ts_ns\":{},\"worker\":{},\"seq\":{},\"name\":\"{}\",\"args\":{}}}\n",
                r.ts_ns,
                r.worker,
                r.seq,
                r.event.name(),
                r.event.args_json()
            ));
        }
        out
    }

    /// Chrome `trace_event` JSON (the "JSON Array Format"): load the file in
    /// `about://tracing` or Perfetto. Spans render as complete (`ph:"X"`)
    /// events, everything else as thread-scoped instants; lanes become
    /// threads with stable names, timestamps are microseconds.
    pub fn to_chrome(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        let mut first = true;
        let mut push = |line: String, out: &mut String| {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            out.push_str(&line);
        };

        // Thread-name metadata for every lane present, ascending.
        let mut lanes: Vec<u32> = self.records.iter().map(|r| r.event.lane()).collect();
        lanes.sort_unstable();
        lanes.dedup();
        for lane in lanes {
            let name = match lane {
                LANE_BARRIER => "barrier".to_string(),
                LANE_EXCHANGE => "exchange".to_string(),
                LANE_CONTROL => "control".to_string(),
                LANE_LINK => "links".to_string(),
                LANE_SCENARIO => "scenario".to_string(),
                LANE_SOLVER => "solver".to_string(),
                gpu => format!("gpu {gpu}"),
            };
            push(
                format!(
                    "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{lane},\
                     \"args\":{{\"name\":\"{name}\"}}}}"
                ),
                &mut out,
            );
        }

        let us = |ns: u64| format!("{:.3}", ns as f64 / 1e3);
        for r in &self.records {
            let line = match r.event.span(r.ts_ns) {
                Some((start_ns, dur_ns)) => format!(
                    "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":0,\"tid\":{},\"ts\":{},\
                     \"dur\":{},\"args\":{}}}",
                    r.event.name(),
                    r.event.lane(),
                    us(start_ns),
                    us(dur_ns),
                    r.event.args_json()
                ),
                None => format!(
                    "{{\"name\":\"{}\",\"ph\":\"i\",\"s\":\"t\",\"pid\":0,\"tid\":{},\
                     \"ts\":{},\"args\":{}}}",
                    r.event.name(),
                    r.event.lane(),
                    us(r.ts_ns),
                    r.event.args_json()
                ),
            };
            push(line, &mut out);
        }
        out.push_str("\n]}\n");
        out
    }

    /// Order-sensitive FNV-1a hash over the JSONL export.
    pub fn fingerprint(&self) -> u64 {
        self.to_jsonl()
            .bytes()
            .fold(FNV_OFFSET, |h, byte| fnv1a(h, u64::from(byte)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_buffers() -> Vec<TraceBuffer> {
        let mut a = TraceBuffer::new(0);
        a.record(
            10,
            TraceEvent::StationEnqueue {
                gpu: 0,
                iter: 0,
                queue_ns: 0,
            },
        );
        a.record(
            10,
            TraceEvent::StationService {
                gpu: 0,
                iter: 0,
                start_ns: 10,
                service_ns: 40,
                wait_ns: 0,
            },
        );
        let mut b = TraceBuffer::new(1);
        b.record(
            5,
            TraceEvent::QueryServed {
                shard: 1,
                query: 0,
                start_ns: 5,
                service_ns: 7,
                wait_ns: 0,
                hits: 2,
                misses: 1,
                bypasses: 0,
            },
        );
        b.record(
            10,
            TraceEvent::IterationDone {
                iter: 0,
                sojourn_ns: 50,
            },
        );
        vec![a, b]
    }

    #[test]
    fn merge_orders_by_time_worker_seq_regardless_of_buffer_order() {
        let fwd = Trace::merge(sample_buffers());
        let mut rev = sample_buffers();
        rev.reverse();
        let bwd = Trace::merge(rev);
        assert_eq!(fwd, bwd);
        assert_eq!(fwd.to_jsonl(), bwd.to_jsonl());
        let keys: Vec<_> = fwd
            .records()
            .iter()
            .map(|r| (r.ts_ns, r.worker, r.seq))
            .collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted, "merged trace must be sorted");
        assert_eq!(fwd.len(), 4);
    }

    #[test]
    fn jsonl_is_one_valid_object_per_line() {
        let trace = Trace::merge(sample_buffers());
        let jsonl = trace.to_jsonl();
        assert_eq!(jsonl.lines().count(), trace.len());
        for line in jsonl.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'));
            assert!(line.contains("\"name\":"));
            assert_eq!(
                line.matches('{').count(),
                line.matches('}').count(),
                "unbalanced braces in {line}"
            );
        }
    }

    #[test]
    fn chrome_export_has_spans_instants_and_lane_names() {
        let trace = Trace::merge(sample_buffers());
        let chrome = trace.to_chrome();
        assert!(chrome.starts_with("{\"traceEvents\":["));
        assert!(chrome.trim_end().ends_with("]}"));
        assert!(chrome.contains("\"ph\":\"X\""), "spans present");
        assert!(chrome.contains("\"ph\":\"i\""), "instants present");
        assert!(chrome.contains("\"ph\":\"M\""), "lane metadata present");
        assert!(chrome.contains("gpu 0"));
        assert_eq!(chrome.matches('{').count(), chrome.matches('}').count());
    }

    #[test]
    fn fingerprint_is_order_sensitive() {
        let trace = Trace::merge(sample_buffers());
        let mut shuffled = sample_buffers();
        // Swap the two workers' identities: same events, different order.
        shuffled.swap(0, 1);
        let mut relabeled = Vec::new();
        for (w, mut buf) in shuffled.into_iter().enumerate() {
            buf.worker = w as u32;
            for r in &mut buf.records {
                r.worker = w as u32;
            }
            relabeled.push(buf);
        }
        let other = Trace::merge(relabeled);
        assert_ne!(trace.fingerprint(), other.fingerprint());
    }
}
