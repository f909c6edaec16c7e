//! The sharded-training cluster simulation.
//!
//! [`ClusterSimulator`] composes the deterministic event engine with the
//! domain components: per-GPU [`GpuStation`]s, a batch [`ArrivalProcess`],
//! the trace-driven [`IterationWorkload`], an all-to-all exchange barrier,
//! and optionally a workload [scenario](recshard_data::ScenarioSpec) plus an
//! [online re-sharding controller](crate::ReshardController).
//!
//! One training iteration flows through three event types:
//!
//! 1. **`Arrival`** — a batch arrives (input pipeline), its lookups are drawn
//!    and each GPU's embedding work is enqueued at its station; the next
//!    arrival is scheduled. Iteration `i`'s lookups come from the stream
//!    keyed by `(seed, i)`, drawn ahead on a worker thread (given a
//!    second CPU) while earlier iterations run; see the `draws` module.
//! 2. **`GpuDone`** — one GPU finished its gather for the iteration; when the
//!    last GPU finishes, the all-to-all exchange starts (synchronous
//!    training's barrier). In shared-rate mode this is always a
//!    same-instant step (see below), never a heap event.
//! 3. **`ExchangeDone`** — the pooled embeddings finished crossing the
//!    interconnect; the iteration completes and its *sojourn time* (arrival →
//!    exchange done, queueing included) goes into the p50/p95/p99 sketch.
//!
//! # Per-iteration state
//!
//! Every live iteration's bookkeeping sits in one dense record store, not
//! in maps keyed by iteration id. Iteration ids are dense — arrival `i` is
//! iteration `i` — so the store is a ring of records starting at `base`,
//! the oldest iteration not yet retired, and iteration `i`'s record is at
//! index `i − base`. A record holds the arrival time, the barrier count
//! and first-finish time, and (shared-rate mode) the exchange's start time
//! and pending-transfer count. Shared-rate gather jobs sit in a parallel
//! ring, one slot per GPU per record.
//!
//! Retirement rule: arrivals push at the back; `ExchangeDone` only marks
//! its record done, and done records leave from the front, each advancing
//! `base` by one. Overlapping iterations finish their barriers and
//! exchanges out of arrival order, so a done record can wait behind an
//! older live one; the store then spans from the oldest live iteration to
//! the newest arrival. Every lookup goes through one accessor that panics
//! on an iteration that is done, retired or not yet arrived.
//!
//! Because arrivals are open-loop, a plan whose slowest GPU cannot keep up
//! with the arrival rate builds a queue and its tail latency diverges — the
//! sustained-throughput behaviour the closed-form model in
//! `recshard-memsim` cannot express.
//!
//! # Contention modes
//!
//! [`ContentionMode::Fifo`] (the default) is the historical model: each GPU
//! is a single-server FIFO queue and the all-to-all exchange is one
//! precomputed scalar delay. [`ContentionMode::SharedRate`] replaces both
//! with shared-rate (processor-sharing) links — per-GPU HBM and UVM
//! channels, per-GPU NVLink egress, and one inter-node fabric port per
//! *receiving* node — so overlapping iterations slow each other down and
//! incast (many senders converging on one node's NIC) shows up in the
//! sojourn tail. The exchange runs as a hierarchical reduce-scatter over
//! the plan's two-level topology: an intra-node phase on the NVLink links,
//! then an inter-node phase in which every ordered node pair's flow
//! contends on the receiver's fabric link. This also fixes the old
//! split-bandwidth bug where local and remote transfer times were *summed*
//! into one serial scalar — the phases now occupy separate contended
//! resources with their own queueing.
//!
//! # Same-instant steps
//!
//! In shared-rate mode, work due at the current instant skips the event
//! heap. An event scheduled for `now` — a gather with no stall and no
//! launch overhead, the `GpuDone` that closes a gather, the hand-off of a
//! zero-work transfer — is queued as a *step* on a FIFO lane instead. Heap
//! events due now were all scheduled before the clock reached now, so the
//! loop runs them first and then the lane. Steps are neither counted in
//! `events` nor folded into the fingerprint.
//!
//! The order of one instant's handlers does not reach the [`RunSummary`].
//! It decides same-time ties on the links (admission sequence breaks
//! them) and so the order in which tied completions are recorded. The
//! sojourns and station waits go into [`LogLinearHistogram`]s, whose
//! quantiles and moments depend only on the set of samples, so the summary
//! is a function of what completes at each instant. The event log still
//! records the heap's tie order.
//!
//! # Zero-work transfers
//!
//! A transfer with no work (a GPU with no lookups on one tier, a node
//! with nothing to send) never becomes a link tenant. Its link is still
//! advanced to now and any transfers completing there are handled, as an
//! admission would; the link's wake-up is re-projected if that advance
//! moved it. Fixed-point drains round per interval, so advancing at the
//! same instants as before keeps every later completion where it was.
//! The transfer then completes as a same-instant step.

use crate::controller::{CheckOutcome, ReshardController};
use crate::draws::IterationDraws;
use crate::engine::EventQueue;
use crate::error::{check_bandwidth, check_duration, DesError};
use crate::resource::{CompletedTransfer, SharedRateResource};
use crate::station::{GpuStation, ServiceDemand};
use crate::time::SimTime;
use crate::workload::ArrivalProcess;
use rand::rngs::StdRng;
use rand::SeedableRng;
use recshard_data::{fnv1a, ModelSpec, ScenarioSpec, FNV_OFFSET};
use recshard_memsim::{AccessCounters, IterationWorkload};
use recshard_obs::{LinkKind, ObsHandle, ObsSink, QuantileStats, TraceEvent};
use recshard_sharding::{NodeTopology, ShardingPlan, SystemSpec};
use recshard_stats::{DatasetProfile, LogLinearHistogram, Summary};
use std::collections::VecDeque;

/// Nanoseconds per millisecond: the sketches record nanoseconds, and the
/// summary reports milliseconds.
const NS_PER_MS: f64 = 1e6;

/// How contended resources are scheduled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ContentionMode {
    /// Historical model: per-GPU single-server FIFO stations, one scalar
    /// all-to-all delay. Bit-compatible with every committed fingerprint.
    #[default]
    Fifo,
    /// Shared-rate (processor-sharing) links for HBM, UVM, NVLink egress and
    /// per-node fabric ports; the exchange is a two-phase hierarchical
    /// reduce-scatter over first-class link stations.
    ///
    /// A transfer with zero work (a GPU with no lookups on one tier) moves
    /// no bytes and never occupies its link: it completes at the instant
    /// it starts, records no `LinkTenancy` or `LinkTransfer` trace event,
    /// and `des.link.stretch` covers only transfers that moved bytes.
    SharedRate,
}

/// Configuration of a cluster simulation run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterConfig {
    /// Samples per training batch actually traced. Counters (and therefore
    /// service times) can be scaled up via [`scale_to_batch`](Self::scale_to_batch).
    pub batch_size: usize,
    /// Number of training iterations (batches) to simulate.
    pub iterations: u64,
    /// Master seed; every internal stream derives from it.
    pub seed: u64,
    /// How batches arrive at the cluster.
    pub arrival: ArrivalProcess,
    /// Fixed kernel-launch + pooling overhead per table kernel, in µs (same
    /// constant as `recshard_memsim::SimConfig`).
    pub kernel_overhead_us_per_table: f64,
    /// When set, access counters are scaled from `batch_size` up to this
    /// batch before timing, like the trace simulator's `scale_to_batch`.
    pub scale_to_batch: Option<u32>,
    /// Base latency of the all-to-all exchange, in µs.
    pub alltoall_latency_us: f64,
    /// Per-GPU all-to-all bandwidth in GB/s (NVLink-class).
    pub alltoall_bandwidth_gbps: f64,
    /// Per-GPU bandwidth of the inter-node fabric in GB/s (RoCE/IB-class;
    /// only exercised when the plan carries a multi-node
    /// [`NodeTopology`] — flat plans see exactly the single-fabric
    /// exchange). In [`ContentionMode::SharedRate`] this is the rate of each
    /// *receiving node's* fabric port, which all inbound flows share.
    pub internode_bandwidth_gbps: f64,
    /// How contended resources are scheduled (FIFO stations vs shared-rate
    /// links).
    pub contention: ContentionMode,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        Self {
            batch_size: 128,
            iterations: 1_000,
            seed: 0xDE5,
            arrival: ArrivalProcess::FixedRate { interval_ms: 1.0 },
            kernel_overhead_us_per_table: 8.0,
            scale_to_batch: None,
            alltoall_latency_us: 20.0,
            alltoall_bandwidth_gbps: 150.0,
            internode_bandwidth_gbps: 25.0,
            contention: ContentionMode::Fifo,
        }
    }
}

impl ClusterConfig {
    /// Validates the configuration: run dimensions non-empty, arrival
    /// intervals sane, overheads/latencies non-negative and finite,
    /// bandwidths positive and finite (a zero or negative bandwidth used to
    /// silently produce inf/NaN transfer seconds at `exchange_ns_for`'s
    /// divisions).
    pub fn validate(&self) -> Result<(), DesError> {
        if self.iterations == 0 {
            return Err(DesError::EmptyRun {
                what: "must simulate at least one iteration",
            });
        }
        if self.batch_size == 0 {
            return Err(DesError::EmptyRun {
                what: "batch must contain at least one sample",
            });
        }
        self.arrival.validate()?;
        check_duration(
            "kernel_overhead_us_per_table",
            self.kernel_overhead_us_per_table,
        )?;
        check_duration("alltoall_latency_us", self.alltoall_latency_us)?;
        check_bandwidth("alltoall_bandwidth_gbps", self.alltoall_bandwidth_gbps)?;
        check_bandwidth("internode_bandwidth_gbps", self.internode_bandwidth_gbps)?;
        Ok(())
    }
}

/// The events of the cluster model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Event {
    /// A training batch arrived from the input pipeline.
    Arrival { iter: u64 },
    /// One GPU finished its embedding gather for an iteration. A heap event
    /// only in FIFO mode; in shared-rate mode it is due the instant the
    /// gather's UVM share ends, so it always runs as a same-instant step.
    GpuDone { iter: u64, gpu: usize },
    /// The all-to-all exchange of an iteration finished.
    ExchangeDone { iter: u64 },
    /// A GPU's memory gathers begin after any migration stall and launch
    /// overhead (shared-rate mode only). A heap event only when one of them
    /// delays the gather; otherwise a same-instant step of the arrival.
    GatherStart { iter: u64, gpu: usize },
    /// Wake-up at a shared-rate link's earliest projected completion. The
    /// generation stamps the tenancy state the projection was made under; a
    /// stale wake-up (the link changed tenancy since) is ignored when popped.
    LinkUpdate { link: usize, generation: u64 },
    /// A zero-work transfer finished: it moved no bytes, never sat on its
    /// link, and hands off to the next pipeline stage as a same-instant
    /// step (shared-rate mode only).
    ZeroWorkDone { iter: u64, stage: TransferStage },
}

/// Live state of an attached workload scenario: the spec plus how far the
/// run has advanced through its phase boundaries and shift schedule.
#[derive(Debug)]
struct ScenarioRuntime {
    spec: ScenarioSpec,
    /// Sorted regime boundaries, cached once (phase advancement is on the
    /// per-arrival path).
    boundaries_ns: Vec<u64>,
    /// Shift events applied so far.
    applied: usize,
    /// Current phase index (count of boundaries crossed).
    phase: u32,
}

/// Bookkeeping of one iteration, from its arrival until its exchange
/// completes.
#[derive(Debug, Clone, Copy)]
struct IterRecord {
    arrival: SimTime,
    remaining_gpus: u32,
    /// When the first GPU finished its gather — the barrier wait of the
    /// iteration spans from here to the last GPU's finish.
    first_done: SimTime,
    /// When the barrier opened and the exchange's intra-node phase started
    /// (shared-rate mode).
    exchange_start: SimTime,
    /// Exchange transfers outstanding in the current phase (shared-rate
    /// mode).
    exchange_pending: u32,
    /// Set by `ExchangeDone`; the record retires once every older one has.
    done: bool,
}

impl IterRecord {
    fn arrived(arrival: SimTime, gpus: u32) -> Self {
        Self {
            arrival,
            remaining_gpus: gpus,
            first_done: arrival,
            exchange_start: arrival,
            exchange_pending: 0,
            done: false,
        }
    }
}

/// Dense per-iteration state: one [`IterRecord`] per live iteration, in
/// arrival order, from the oldest iteration not yet retired.
///
/// Iteration ids are dense (arrival `i` is iteration `i`), so a live
/// iteration's record sits at ring index `iter - base`. Shared-rate
/// [`GatherJob`]s live in a parallel ring, `gathers_per_iter` slots per
/// record. Records cannot retire when their exchange completes, because
/// barriers open out of arrival order: `ExchangeDone` only marks its record
/// done, and done records retire from the front, advancing `base` past
/// them.
#[derive(Debug)]
struct IterationStore {
    /// Iteration id of `records[0]`.
    base: u64,
    records: VecDeque<IterRecord>,
    gathers: VecDeque<GatherJob>,
    /// GPUs per iteration in shared-rate mode, 0 in FIFO mode (no jobs).
    gathers_per_iter: usize,
}

impl IterationStore {
    fn new(gathers_per_iter: usize) -> Self {
        Self {
            base: 0,
            records: VecDeque::new(),
            gathers: VecDeque::new(),
            gathers_per_iter,
        }
    }

    /// Appends the record of a newly arrived iteration; arrivals come in
    /// id order, so `iter` is always the next id after the newest record.
    /// Its gather jobs follow through [`push_gather`](Self::push_gather).
    fn push(&mut self, iter: u64, record: IterRecord) {
        debug_assert_eq!(
            iter,
            self.base + self.records.len() as u64,
            "iterations must arrive in id order"
        );
        self.records.push_back(record);
    }

    /// Appends the next gather job of the newest iteration (GPU order).
    fn push_gather(&mut self, job: GatherJob) {
        self.gathers.push_back(job);
    }

    /// The ring index of live iteration `iter` — the one audited lookup
    /// every accessor goes through.
    ///
    /// # Panics
    ///
    /// Panics if `iter` has already completed, retired, or never arrived.
    fn slot(&self, iter: u64) -> usize {
        let slot = iter
            .checked_sub(self.base)
            .and_then(|offset| usize::try_from(offset).ok())
            .filter(|&i| self.records.get(i).is_some_and(|r| !r.done));
        // recshard-lint: allow(unwrap) -- every event that names an
        // iteration is scheduled after the arrival that pushed its record
        // and fires before the ExchangeDone that completes it; a miss is an
        // engine bug, not a data-driven condition.
        slot.expect("event for a completed, retired or unknown iteration")
    }

    fn record(&self, iter: u64) -> &IterRecord {
        &self.records[self.slot(iter)]
    }

    fn record_mut(&mut self, iter: u64) -> &mut IterRecord {
        let slot = self.slot(iter);
        &mut self.records[slot]
    }

    fn gather(&self, iter: u64, gpu: usize) -> GatherJob {
        self.gathers[self.slot(iter) * self.gathers_per_iter + gpu]
    }

    /// Marks `iter` complete, retires every complete record at the front,
    /// and returns the completed record.
    fn complete(&mut self, iter: u64) -> IterRecord {
        let record = self.record_mut(iter);
        record.done = true;
        let record = *record;
        while self.records.front().is_some_and(|r| r.done) {
            self.records.pop_front();
            self.gathers.drain(..self.gathers_per_iter);
            self.base += 1;
        }
        record
    }

    /// Whether every iteration that arrived has retired.
    fn is_empty(&self) -> bool {
        self.records.is_empty() && self.gathers.is_empty()
    }
}

/// Which pipeline stage a shared-rate transfer implements.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TransferStage {
    /// The HBM share of one GPU's gather.
    Hbm { gpu: usize },
    /// The UVM share of one GPU's gather (runs after the HBM share).
    Uvm { gpu: usize },
    /// One GPU's intra-node exchange share on its NVLink egress.
    Local { gpu: usize },
    /// One ordered node pair's inter-node flow, served by the *receiver's*
    /// fabric port.
    Remote { dst: usize },
}

/// Payload of one shared-rate transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Transfer {
    iter: u64,
    stage: TransferStage,
}

/// One GPU's gather job in flight on the shared-rate memory links.
#[derive(Debug, Clone, Copy, PartialEq)]
struct GatherJob {
    arrival: SimTime,
    /// When the job actually started (arrival delayed past any migration
    /// stall); launch overhead runs from here.
    start: SimTime,
    demand: ServiceDemand,
}

/// The shared-rate link fabric: all contended links and per-plan transfer
/// volumes. Per-iteration gather/exchange progress lives in the
/// simulator's [`IterationStore`].
///
/// Link index layout (`g` GPUs, `n` nodes): HBM channels `0..g`, UVM
/// channels `g..2g`, NVLink egress `2g..3g`, per-node fabric ports
/// `3g..3g+n`.
#[derive(Debug)]
struct Contention {
    links: Vec<SharedRateResource<Transfer>>,
    topology: NodeTopology,
    num_gpus: usize,
    latency_ns: u64,
    /// Per-GPU solo NVLink nanoseconds of the intra-node exchange phase.
    local_work_ns: Vec<u64>,
    /// `remote_work_ns[src][dst]` (src ≠ dst): solo fabric nanoseconds of
    /// the src→dst node flow on dst's fabric port.
    remote_work_ns: Vec<Vec<u64>>,
    /// Per-GPU earliest virtual time new gathers may start (pushed out by
    /// migration stalls).
    stalled_until: Vec<SimTime>,
    /// Per-link virtual time of the last wake-up scheduled, ns: a wake-up
    /// due at any other time is stale even if its generation is current.
    wake_ns: Vec<u64>,
    /// Reusable completion buffers for [`SharedRateResource::advance_into`].
    /// Link handlers nest (a completion on one link admits onto the next,
    /// which advances that link), so each nesting level takes its own
    /// buffer and returns it empty.
    completion_bufs: Vec<Vec<CompletedTransfer<Transfer>>>,
}

impl Contention {
    fn new(topology: NodeTopology, latency_ns: u64) -> Self {
        let num_gpus = topology.num_gpus();
        let num_links = 3 * num_gpus + topology.num_nodes;
        Self {
            links: (0..num_links).map(|_| SharedRateResource::new()).collect(),
            topology,
            num_gpus,
            latency_ns,
            local_work_ns: vec![0; num_gpus],
            remote_work_ns: vec![vec![0; topology.num_nodes]; topology.num_nodes],
            stalled_until: vec![SimTime::ZERO; num_gpus],
            wake_ns: vec![u64::MAX; num_links],
            completion_bufs: Vec::new(),
        }
    }

    fn hbm_link(&self, gpu: usize) -> usize {
        gpu
    }

    fn uvm_link(&self, gpu: usize) -> usize {
        self.num_gpus + gpu
    }

    fn nvlink_link(&self, gpu: usize) -> usize {
        2 * self.num_gpus + gpu
    }

    fn fabric_link(&self, node: usize) -> usize {
        3 * self.num_gpus + node
    }

    /// The kind and device index of a link, for trace events.
    fn link_kind(&self, link: usize) -> (LinkKind, u32) {
        let g = self.num_gpus;
        if link < g {
            (LinkKind::Hbm, link as u32)
        } else if link < 2 * g {
            (LinkKind::Uvm, (link - g) as u32)
        } else if link < 3 * g {
            (LinkKind::Nvlink, (link - 2 * g) as u32)
        } else {
            (LinkKind::Fabric, (link - 3 * g) as u32)
        }
    }

    /// Recomputes per-plan exchange volumes. Every GPU's pooled outputs are
    /// owed to all peers in proportion to the batch share each peer
    /// processes:
    ///
    /// * intra-node phase — GPU `g` ships `owned_bytes[g] · (p−1)/G` over
    ///   its NVLink egress (`p` GPUs per node, `G` total GPUs);
    /// * inter-node phase — node `a` ships `node_bytes[a] / N` to each
    ///   other node, and that flow is served by the *receiver's* fabric
    ///   port, so `N−1` inbound flows contend there (incast).
    ///
    /// On a uniform flat plan this reduces exactly to the historical
    /// `batch · pooled_bytes · (G−1)/G²` per-GPU exchange volume.
    ///
    /// In-flight transfers keep the volumes they were admitted with; only
    /// gathers and exchanges starting after a re-shard see the new plan.
    fn rebuild_volumes(&mut self, plan: &ShardingPlan, config: &ClusterConfig) {
        let g_total = self.num_gpus as f64;
        let p = self.topology.gpus_per_node as f64;
        let n = self.topology.num_nodes;
        let effective_batch = config
            .scale_to_batch
            .map(|b| b as f64)
            .unwrap_or(config.batch_size as f64);
        let mut owned_bytes = vec![0.0f64; self.num_gpus];
        for placement in plan.placements() {
            owned_bytes[placement.gpu] += effective_batch * placement.row_bytes as f64;
        }
        for (gpu, &bytes) in owned_bytes.iter().enumerate() {
            let local_bytes = bytes * (p - 1.0) / g_total;
            self.local_work_ns[gpu] = SimTime::saturating_ns_from_secs(
                local_bytes / (config.alltoall_bandwidth_gbps * 1e9),
            );
        }
        let mut node_bytes = vec![0.0f64; n];
        for (gpu, &bytes) in owned_bytes.iter().enumerate() {
            node_bytes[self.topology.node_of_gpu(gpu)] += bytes;
        }
        for src in 0..n {
            for dst in 0..n {
                self.remote_work_ns[src][dst] = if src == dst {
                    0
                } else {
                    SimTime::saturating_ns_from_secs(
                        node_bytes[src] / n as f64 / (config.internode_bandwidth_gbps * 1e9),
                    )
                };
            }
        }
    }
}

/// Aggregated results of one simulated run. Two runs with identical inputs
/// and seed produce identical summaries (including the event-log
/// fingerprint) — the determinism contract of the engine.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSummary {
    /// Strategy name of the initially installed plan.
    pub strategy: String,
    /// GPUs simulated.
    pub num_gpus: usize,
    /// Iterations requested.
    pub iterations: u64,
    /// Iterations completed (== requested; open-loop arrivals always drain).
    pub completed: u64,
    /// Traced samples per batch.
    pub batch_size: usize,
    /// Virtual time of the last event, in ms.
    pub makespan_ms: f64,
    /// Sustained throughput: completed iterations per virtual second.
    pub throughput_iters_per_s: f64,
    /// Median iteration sojourn time (arrival → exchange done), ms.
    pub p50_ms: f64,
    /// 95th-percentile iteration sojourn time, ms.
    pub p95_ms: f64,
    /// 99th-percentile iteration sojourn time, ms.
    pub p99_ms: f64,
    /// Exact moments of the sojourn-time distribution, ms.
    pub iteration_time: Summary,
    /// Queue-wait moments across all stations, ms.
    pub queue_wait: Summary,
    /// Per-GPU fraction of the makespan spent serving embedding work.
    pub busy_fraction: Vec<f64>,
    /// Per-GPU busy milliseconds (service only, stalls excluded).
    pub per_gpu_busy_ms: Vec<f64>,
    /// Per-GPU share of busy time spent in UVM gathers.
    pub uvm_busy_share: Vec<f64>,
    /// Plan swaps performed by the online re-sharding controller.
    pub reshards: u32,
    /// Total events processed.
    pub events: u64,
    /// Order-sensitive FNV-1a hash over the entire event log.
    pub fingerprint: u64,
}

impl std::fmt::Display for RunSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: {} iters on {} GPUs in {:.1} ms — {:.1} iters/s, sojourn p50/p95/p99 = \
             {:.3}/{:.3}/{:.3} ms, {} reshards",
            self.strategy,
            self.completed,
            self.num_gpus,
            self.makespan_ms,
            self.throughput_iters_per_s,
            self.p50_ms,
            self.p95_ms,
            self.p99_ms,
            self.reshards
        )
    }
}

/// The discrete-event cluster simulator.
///
/// ```
/// use recshard_data::ModelSpec;
/// use recshard_stats::DatasetProfiler;
/// use recshard_sharding::{GreedySharder, SizeCost, SystemSpec};
/// use recshard_des::{ClusterConfig, ClusterSimulator};
///
/// let model = ModelSpec::small(6, 3);
/// let profile = DatasetProfiler::profile_model(&model, 500, 1);
/// let system = SystemSpec::uniform(2, u64::MAX / 4, u64::MAX / 4, 1555.0, 16.0);
/// let plan = GreedySharder::new(SizeCost).shard(&model, &profile, &system).unwrap();
/// let config = ClusterConfig { iterations: 50, ..ClusterConfig::default() };
/// let summary = ClusterSimulator::new(&model, &plan, &profile, &system, config).run();
/// assert_eq!(summary.completed, 50);
/// assert!(summary.p99_ms >= summary.p50_ms);
/// ```
#[derive(Debug)]
pub struct ClusterSimulator<'obs> {
    config: ClusterConfig,
    system: SystemSpec,
    base_model: ModelSpec,
    plan: ShardingPlan,
    strategy: String,
    draws: IterationDraws,
    /// The arriving iteration's per-GPU counters (reused buffer).
    counters: Vec<AccessCounters>,
    tables_per_gpu: Vec<usize>,
    queue: EventQueue<Event>,
    /// Same-instant steps (shared-rate mode): events due at the current
    /// instant, in scheduling order; see [`schedule_at`](Self::schedule_at).
    steps: VecDeque<Event>,
    /// Drains the step lane newest first instead of in scheduling order;
    /// only tests set it.
    lifo_steps: bool,
    stations: Vec<GpuStation>,
    arrival_rng: StdRng,
    iters: IterationStore,
    /// Sojourn times of completed iterations, ns.
    sojourns: LogLinearHistogram,
    completed: u64,
    exchange_ns: u64,
    scenario: Option<ScenarioRuntime>,
    controller: Option<ReshardController>,
    fingerprint: u64,
    contention: Option<Contention>,
    obs: ObsHandle<'obs>,
}

impl<'obs> ClusterSimulator<'obs> {
    /// Builds a simulator for `model` sharded by `plan` on `system`.
    ///
    /// # Panics
    ///
    /// Panics if the inputs disagree on feature or GPU counts, or if the
    /// configuration is invalid (zero iterations, empty batch, degenerate
    /// arrival interval, non-positive bandwidths). Use
    /// [`try_new`](Self::try_new) to receive the failure as a typed
    /// [`DesError`] instead.
    pub fn new(
        model: &ModelSpec,
        plan: &ShardingPlan,
        profile: &DatasetProfile,
        system: &SystemSpec,
        config: ClusterConfig,
    ) -> Self {
        Self::try_new(model, plan, profile, system, config).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Builds a simulator, returning a typed error on an invalid
    /// configuration instead of panicking.
    ///
    /// # Errors
    ///
    /// [`DesError::EmptyRun`] for zero iterations or an empty batch,
    /// [`DesError::InvalidArrival`] for degenerate arrival intervals,
    /// [`DesError::NonPositiveBandwidth`] /
    /// [`DesError::InvalidDuration`] for poisoned link parameters (config
    /// *and* per-GPU system bandwidths — both feed divisions that used to
    /// yield silent inf/NaN), and [`DesError::GpuCountMismatch`] when plan
    /// and system disagree.
    ///
    /// # Panics
    ///
    /// Still panics if model, plan and profile disagree on the feature
    /// count (that is a caller bug, not a configuration value).
    pub fn try_new(
        model: &ModelSpec,
        plan: &ShardingPlan,
        profile: &DatasetProfile,
        system: &SystemSpec,
        config: ClusterConfig,
    ) -> Result<Self, DesError> {
        config.validate()?;
        if plan.num_gpus() != system.num_gpus() {
            return Err(DesError::GpuCountMismatch {
                plan: plan.num_gpus(),
                system: system.num_gpus(),
            });
        }
        for gpu in 0..system.num_gpus() {
            check_bandwidth("hbm_bandwidth_gbps", system.hbm_bandwidth_gbps(gpu))?;
            check_bandwidth("uvm_bandwidth_gbps", system.uvm_bandwidth_gbps(gpu))?;
        }
        let workload = IterationWorkload::new(model, plan, profile);
        let num_gpus = plan.num_gpus();
        let contention = match config.contention {
            ContentionMode::Fifo => None,
            ContentionMode::SharedRate => {
                let latency_ns = SimTime::from_us(config.alltoall_latency_us).as_ns();
                let mut c = Contention::new(plan.effective_topology(), latency_ns);
                c.rebuild_volumes(plan, &config);
                Some(c)
            }
        };
        let gathers_per_iter = contention.as_ref().map_or(0, |c| c.num_gpus);
        Ok(Self {
            config,
            system: system.clone(),
            base_model: model.clone(),
            strategy: plan.strategy().to_string(),
            tables_per_gpu: workload.tables_per_gpu(),
            plan: plan.clone(),
            draws: IterationDraws::new(workload, config.seed, config.batch_size, config.iterations),
            counters: vec![AccessCounters::new(); num_gpus],
            queue: EventQueue::new(),
            steps: VecDeque::new(),
            lifo_steps: false,
            stations: vec![GpuStation::default(); num_gpus],
            arrival_rng: StdRng::seed_from_u64(config.seed ^ 0xA221_7A1C_0FFE_E000),
            iters: IterationStore::new(gathers_per_iter),
            sojourns: LogLinearHistogram::new(),
            completed: 0,
            exchange_ns: Self::exchange_ns_for(model, plan, system, &config),
            scenario: None,
            controller: None,
            fingerprint: FNV_OFFSET,
            contention,
            obs: ObsHandle::noop(),
        })
    }

    /// Attaches a workload scenario: the spec's rate curves scale the
    /// inter-arrival gaps over virtual time (the same seeded gap draws are
    /// consumed, only their lengths change, so a stationary scenario
    /// replays bit-identically) and its shift events mutate the live
    /// feature universe — hot-key re-hashing, per-class pooling drift,
    /// table growth — at their scheduled virtual instants. Phase changes
    /// are recorded as [`TraceEvent::ScenarioPhase`] instants when an
    /// observation sink is attached. This is the only way the workload
    /// changes mid-run.
    ///
    /// # Panics
    ///
    /// Panics if the spec fails [`ScenarioSpec::validate`].
    pub fn with_scenario(mut self, spec: ScenarioSpec) -> Self {
        spec.validate().unwrap_or_else(|e| panic!("{e}"));
        self.scenario = Some(ScenarioRuntime {
            boundaries_ns: spec.boundaries_ns(),
            spec,
            applied: 0,
            phase: 0,
        });
        self
    }

    /// Attaches an online re-sharding controller.
    pub fn with_controller(mut self, controller: ReshardController) -> Self {
        self.controller = Some(controller);
        self
    }

    /// Attaches an observation sink: station enqueues/services, barrier
    /// waits, exchanges, iteration completions, re-shard checks and the
    /// final simulation summary are recorded at their virtual timestamps.
    /// Observation never perturbs the simulation — the [`RunSummary`]
    /// (fingerprint included) is identical with and without a sink.
    pub fn with_obs(mut self, sink: &'obs mut (dyn ObsSink + 'obs)) -> Self {
        self.obs = ObsHandle::attached(sink);
        self
    }

    /// All-to-all time of the legacy FIFO model: every GPU exchanges its
    /// share of the batch's pooled embedding vectors with every other GPU.
    /// Two-level plans split the exchange across fabrics: the share of a
    /// GPU's peers living on other nodes
    /// ([`NodeTopology::remote_peer_fraction`]) crosses the slower
    /// inter-node link.
    ///
    /// Known modeling artifact, kept bit-for-bit for fingerprint
    /// compatibility: the local and remote phase times are *summed* into one
    /// serial scalar, so NVLink/fabric overlap and per-link queueing are
    /// invisible. [`ContentionMode::SharedRate`] replaces this with separate
    /// contended link stations per phase.
    fn exchange_ns_for(
        model: &ModelSpec,
        plan: &ShardingPlan,
        system: &SystemSpec,
        config: &ClusterConfig,
    ) -> u64 {
        let g = system.num_gpus() as f64;
        let effective_batch = config
            .scale_to_batch
            .map(|b| b as f64)
            .unwrap_or(config.batch_size as f64);
        let pooled_bytes_per_sample: u64 = model.features().iter().map(|f| f.row_bytes()).sum();
        // Each GPU sends (G-1)/G of its pooled outputs and the exchange is
        // bandwidth-bound on the per-GPU link.
        let per_gpu_bytes = effective_batch * pooled_bytes_per_sample as f64 * (g - 1.0) / (g * g);
        let remote_fraction = plan.effective_topology().remote_peer_fraction();
        let local_bytes = per_gpu_bytes * (1.0 - remote_fraction);
        let remote_bytes = per_gpu_bytes * remote_fraction;
        let transfer_s = local_bytes / (config.alltoall_bandwidth_gbps * 1e9)
            + remote_bytes / (config.internode_bandwidth_gbps * 1e9);
        (config.alltoall_latency_us * 1e3 + transfer_s * 1e9).round() as u64
    }

    /// Converts one GPU's iteration counters into a station service demand,
    /// applying the batch scale factor (as `recshard-memsim` does).
    fn demand_for(&self, gpu: usize, counters: &AccessCounters) -> ServiceDemand {
        let scale = self
            .config
            .scale_to_batch
            .map(|b| b as f64 / self.config.batch_size as f64)
            .unwrap_or(1.0)
            .max(1.0);
        let scaled = counters.scaled(scale);
        let hbm_s = scaled.hbm_bytes as f64 / (self.system.hbm_bandwidth_gbps(gpu) * 1e9);
        let uvm_s = scaled.uvm_bytes as f64 / (self.system.uvm_bandwidth_gbps(gpu) * 1e9);
        let overhead_s =
            self.tables_per_gpu[gpu] as f64 * self.config.kernel_overhead_us_per_table * 1e-6;
        ServiceDemand {
            hbm_ns: (hbm_s * 1e9).round() as u64,
            uvm_ns: (uvm_s * 1e9).round() as u64,
            overhead_ns: (overhead_s * 1e9).round() as u64,
        }
    }

    /// Schedules `event` at `at`. In shared-rate mode an event due at the
    /// current instant becomes a same-instant step instead: it runs exactly
    /// where the heap would have popped it — after every event and step
    /// already due now, in scheduling order — but skips the heap and is
    /// neither counted in `events` nor folded into the fingerprint.
    fn schedule_at(&mut self, at: SimTime, event: Event) {
        if at == self.queue.now() && self.contention.is_some() {
            self.steps.push_back(event);
        } else {
            self.queue.schedule_at(at, event);
        }
    }

    /// [`schedule_at`](Self::schedule_at) `delay_ns` from now.
    fn schedule_after_ns(&mut self, delay_ns: u64, event: Event) {
        self.schedule_at(self.queue.now().after_ns(delay_ns), event);
    }

    /// Folds one event into the order-sensitive run fingerprint.
    fn log_event(&mut self, time: SimTime, seq: u64, event: &Event) {
        let (tag, a, b) = match *event {
            Event::Arrival { iter } => (1u64, iter, 0),
            Event::GpuDone { iter, gpu } => (2, iter, gpu as u64),
            Event::ExchangeDone { iter } => (3, iter, 0),
            Event::GatherStart { iter, gpu } => (4, iter, gpu as u64),
            Event::LinkUpdate { link, generation } => (5, link as u64, generation),
            // Always a same-instant step, so never logged.
            Event::ZeroWorkDone { iter, .. } => (6, iter, 0),
        };
        self.fingerprint = [time.as_ns(), seq, tag, a, b]
            .into_iter()
            .fold(self.fingerprint, fnv1a);
    }

    /// The shared-rate contention state. The gather/exchange/link handlers
    /// below are only reachable from events that shared-rate mode itself
    /// schedules, so inside them the state is always present; funnelling
    /// every access through these two accessors keeps that invariant in one
    /// audited place.
    fn contention(&self) -> &Contention {
        // recshard-lint: allow(unwrap) -- only called from shared-rate event
        // handlers, which exist only when contention was constructed.
        self.contention.as_ref().expect("shared-rate mode")
    }

    /// Mutable form of [`contention`](Self::contention); same invariant.
    fn contention_mut(&mut self) -> &mut Contention {
        // recshard-lint: allow(unwrap) -- same invariant as `contention`.
        self.contention.as_mut().expect("shared-rate mode")
    }

    fn handle_arrival(&mut self, iter: u64) {
        let now = self.queue.now();
        // Scenario shifts and phase boundaries apply at the first arrival
        // at or past their virtual instant; the shifted model is the base
        // model with every shift due so far applied.
        let mut shifted = None;
        let mut phase_event = None;
        if let Some(sc) = &mut self.scenario {
            let t = now.as_ns();
            let due = sc.spec.shifts_due(t);
            if due > sc.applied {
                sc.applied = due;
                shifted = Some(sc.spec.model_after(&self.base_model, due));
            }
            let phase = sc.boundaries_ns.iter().filter(|&&b| b <= t).count() as u32;
            if phase > sc.phase {
                sc.phase = phase;
                phase_event = Some(TraceEvent::ScenarioPhase {
                    phase,
                    rate_multiplier: sc.spec.rate_multiplier(t),
                    shifts_applied: sc.applied as u64,
                });
            }
        }
        if let Some(model) = shifted {
            self.draws.install_model(&model);
        }
        if let Some(event) = phase_event {
            self.obs.record(now.as_ns(), event);
        }
        let mut counters = std::mem::take(&mut self.counters);
        self.draws.draw(iter, &mut counters);
        let obs_on = self.obs.enabled();
        self.iters
            .push(iter, IterRecord::arrived(now, self.stations.len() as u32));
        if self.contention.is_some() {
            // Shared-rate mode: busy accounting happens up front; the
            // gathers start after any migration stall plus launch overhead
            // and then contend on the HBM/UVM links.
            for (gpu, c) in counters.iter().enumerate() {
                let demand = self.demand_for(gpu, c);
                self.stations[gpu].account(demand);
                let start = self.contention().stalled_until[gpu].max(now);
                self.iters.push_gather(GatherJob {
                    arrival: now,
                    start,
                    demand,
                });
                self.schedule_at(
                    start.after_ns(demand.overhead_ns),
                    Event::GatherStart { iter, gpu },
                );
            }
        } else {
            for (gpu, c) in counters.iter().enumerate() {
                let demand = self.demand_for(gpu, c);
                let completion = self.stations[gpu].submit(now, demand);
                if obs_on {
                    let service_ns = demand.total_ns();
                    let start_ns = completion.as_ns() - service_ns;
                    let wait_ns = start_ns - now.as_ns();
                    self.obs.record(
                        now.as_ns(),
                        TraceEvent::StationEnqueue {
                            gpu: gpu as u32,
                            iter,
                            queue_ns: wait_ns,
                        },
                    );
                    self.obs.record(
                        now.as_ns(),
                        TraceEvent::StationService {
                            gpu: gpu as u32,
                            iter,
                            start_ns,
                            service_ns,
                            wait_ns,
                        },
                    );
                }
                self.schedule_at(completion, Event::GpuDone { iter, gpu });
            }
        }
        self.counters = counters;

        if iter + 1 < self.config.iterations {
            // The seeded gap draw is always consumed; the scenario only
            // rescales its length, so attaching a stationary scenario (or
            // none) replays bit-identically.
            let mut gap = self.config.arrival.next_gap_ns(&mut self.arrival_rng);
            if let Some(sc) = &self.scenario {
                gap = sc.spec.scaled_gap_ns(gap, now.as_ns());
            }
            self.schedule_after_ns(gap, Event::Arrival { iter: iter + 1 });
        }
    }

    /// Launch overhead elapsed (shared-rate mode): the GPU's HBM gather
    /// share enters contention; its UVM share follows serially.
    fn handle_gather_start(&mut self, iter: u64, gpu: usize) {
        let hbm_ns = self.iters.gather(iter, gpu).demand.hbm_ns;
        let link = self.contention().hbm_link(gpu);
        self.admit_transfer(
            link,
            hbm_ns,
            Transfer {
                iter,
                stage: TransferStage::Hbm { gpu },
            },
        );
    }

    fn handle_gpu_done(&mut self, iter: u64) {
        let now = self.queue.now();
        let total = self.stations.len() as u32;
        let entry = self.iters.record_mut(iter);
        if entry.remaining_gpus == total {
            entry.first_done = now;
        }
        entry.remaining_gpus -= 1;
        let barrier_open = (entry.remaining_gpus == 0).then_some(entry.first_done);
        if let Some(first_done) = barrier_open {
            // Barrier passed: the all-to-all exchange starts now.
            if self.obs.enabled() {
                self.obs.record(
                    first_done.as_ns(),
                    TraceEvent::BarrierWait {
                        iter,
                        wait_ns: now.since(first_done),
                    },
                );
            }
            if self.contention.is_some() {
                self.start_exchange(iter);
            } else {
                if self.obs.enabled() {
                    self.obs.record(
                        now.as_ns(),
                        TraceEvent::Exchange {
                            iter,
                            duration_ns: self.exchange_ns,
                        },
                    );
                }
                self.schedule_after_ns(self.exchange_ns, Event::ExchangeDone { iter });
            }
        }
    }

    /// Opens the two-phase exchange of `iter` (shared-rate mode): every GPU
    /// admits its intra-node share onto its NVLink egress; the inter-node
    /// phase follows once all local shares have drained.
    fn start_exchange(&mut self, iter: u64) {
        let now = self.queue.now();
        let num_gpus = self.contention().num_gpus;
        let record = self.iters.record_mut(iter);
        record.exchange_start = now;
        record.exchange_pending = num_gpus as u32;
        for gpu in 0..num_gpus {
            let contention = self.contention();
            let link = contention.nvlink_link(gpu);
            let work_ns = contention.local_work_ns[gpu];
            self.admit_transfer(
                link,
                work_ns,
                Transfer {
                    iter,
                    stage: TransferStage::Local { gpu },
                },
            );
        }
    }

    /// Starts the inter-node phase of `iter`: each ordered node pair's flow
    /// is admitted on the *receiver's* fabric port, so all inbound flows to
    /// one node contend there (incast).
    fn start_remote_phase(&mut self, iter: u64) {
        let n = self.contention().topology.num_nodes;
        self.iters.record_mut(iter).exchange_pending = (n * (n - 1)) as u32;
        for src in 0..n {
            for dst in 0..n {
                if src == dst {
                    continue;
                }
                let contention = self.contention();
                let link = contention.fabric_link(dst);
                let work_ns = contention.remote_work_ns[src][dst];
                self.admit_transfer(
                    link,
                    work_ns,
                    Transfer {
                        iter,
                        stage: TransferStage::Remote { dst },
                    },
                );
            }
        }
    }

    /// Closes the exchange of `iter`: the base all-to-all latency is charged
    /// on top of the contended transfer phases.
    fn finish_exchange(&mut self, iter: u64) {
        let now = self.queue.now();
        let latency_ns = self.contention().latency_ns;
        if self.obs.enabled() {
            let start = self.iters.record(iter).exchange_start;
            self.obs.record(
                start.as_ns(),
                TraceEvent::Exchange {
                    iter,
                    duration_ns: now.since(start) + latency_ns,
                },
            );
        }
        self.schedule_after_ns(latency_ns, Event::ExchangeDone { iter });
    }

    /// Admits a transfer on `link` at the current virtual time, re-estimating
    /// every resident tenant's remaining service, and schedules the link's
    /// next wake-up. Transfers that complete during the same advance (their
    /// projected completion coincides with this instant) are processed
    /// immediately; the wake-up they had scheduled becomes stale via the
    /// generation bump and is skipped when popped.
    ///
    /// A zero-work transfer is not admitted: the link is still advanced to
    /// now and its completions handled, so every later drain rounds exactly
    /// as if it had been, and the transfer then completes as a same-instant
    /// [`Event::ZeroWorkDone`] step.
    fn admit_transfer(&mut self, link: usize, work_ns: u64, transfer: Transfer) {
        let now = self.queue.now();
        let contention = self.contention_mut();
        let mut completed = contention.completion_bufs.pop().unwrap_or_default();
        contention.links[link].advance_into(now.as_ns(), &mut completed);
        if work_ns == 0 {
            if completed.is_empty() {
                contention.completion_bufs.push(completed);
                // Draining up to now re-rounded what each tenant has left,
                // which can push the earliest completion a nanosecond past
                // the pending wake-up; re-project it as admitting would.
                let link_state = &contention.links[link];
                let moved = link_state
                    .next_completion_delay()
                    .is_some_and(|delay| now.after_ns(delay).as_ns() != contention.wake_ns[link]);
                if moved {
                    self.schedule_link_wakeup(link);
                }
            } else {
                self.finish_transfers(link, completed);
            }
            let Transfer { iter, stage } = transfer;
            self.steps.push_back(Event::ZeroWorkDone { iter, stage });
            return;
        }
        contention.links[link].admit(now.as_ns(), work_ns, transfer);
        if self.obs.enabled() {
            let contention = self.contention();
            let (kind, device) = contention.link_kind(link);
            let tenants = contention.links[link].tenants() as u32;
            self.obs.record(
                now.as_ns(),
                TraceEvent::LinkTenancy {
                    kind,
                    link: device,
                    tenants,
                },
            );
        }
        self.finish_transfers(link, completed);
    }

    /// Runs the completion handler of every transfer in `completed` (in
    /// order), returns the emptied buffer to the pool, and schedules the
    /// link's next wake-up.
    fn finish_transfers(&mut self, link: usize, mut completed: Vec<CompletedTransfer<Transfer>>) {
        for done in completed.drain(..) {
            self.transfer_done(link, done);
        }
        self.contention_mut().completion_bufs.push(completed);
        self.schedule_link_wakeup(link);
    }

    /// Schedules a wake-up at the link's earliest projected completion,
    /// stamped with the current generation.
    fn schedule_link_wakeup(&mut self, link: usize) {
        let now = self.queue.now();
        let contention = self.contention_mut();
        if let Some(delay) = contention.links[link].next_completion_delay() {
            let at = now.after_ns(delay);
            contention.wake_ns[link] = at.as_ns();
            let generation = contention.links[link].generation();
            self.schedule_at(at, Event::LinkUpdate { link, generation });
        }
    }

    /// A link wake-up fired: if it is the link's last projection (its
    /// generation is current and no later projection moved the time), the
    /// earliest tenant(s) complete exactly now; otherwise the event is
    /// stale.
    fn handle_link_update(&mut self, link: usize, generation: u64) {
        let now = self.queue.now();
        let contention = self.contention_mut();
        if contention.links[link].generation() != generation
            || contention.wake_ns[link] != now.as_ns()
        {
            return;
        }
        let mut completed = contention.completion_bufs.pop().unwrap_or_default();
        let appended = contention.links[link].advance_into(now.as_ns(), &mut completed);
        debug_assert!(
            appended > 0,
            "a current-generation wake-up must complete at least one transfer"
        );
        self.finish_transfers(link, completed);
    }

    /// One shared-rate transfer finished on `link`: record it, then advance
    /// its pipeline stage.
    fn transfer_done(&mut self, link: usize, done: CompletedTransfer<Transfer>) {
        if self.obs.enabled() {
            let contention = self.contention();
            let (kind, device) = contention.link_kind(link);
            self.obs.record(
                done.completed_ns,
                TraceEvent::LinkTransfer {
                    kind,
                    link: device,
                    seq: done.seq,
                    start_ns: done.admitted_ns,
                    work_ns: done.work_ns,
                    elapsed_ns: done.elapsed_ns(),
                    tenants: done.tenants_at_admit as u32,
                },
            );
        }
        let Transfer { iter, stage } = done.payload;
        self.advance_stage(iter, stage);
    }

    /// A transfer of `iter` finished its `stage`: start the next one (HBM →
    /// UVM → gather done; local phase → remote phase → exchange done).
    fn advance_stage(&mut self, iter: u64, stage: TransferStage) {
        let now = self.queue.now();
        match stage {
            TransferStage::Hbm { gpu } => {
                let uvm_ns = self.iters.gather(iter, gpu).demand.uvm_ns;
                let uvm_link = self.contention().uvm_link(gpu);
                self.admit_transfer(
                    uvm_link,
                    uvm_ns,
                    Transfer {
                        iter,
                        stage: TransferStage::Uvm { gpu },
                    },
                );
            }
            TransferStage::Uvm { gpu } => {
                let job = self.iters.gather(iter, gpu);
                let wait_ns = job.start.since(job.arrival);
                self.stations[gpu].record_wait_ns(wait_ns);
                if self.obs.enabled() {
                    self.obs.record(
                        job.arrival.as_ns(),
                        TraceEvent::StationEnqueue {
                            gpu: gpu as u32,
                            iter,
                            queue_ns: wait_ns,
                        },
                    );
                    self.obs.record(
                        job.start.as_ns(),
                        TraceEvent::StationService {
                            gpu: gpu as u32,
                            iter,
                            start_ns: job.start.as_ns(),
                            service_ns: now.since(job.start),
                            wait_ns,
                        },
                    );
                }
                self.schedule_at(now, Event::GpuDone { iter, gpu });
            }
            TransferStage::Local { .. } => {
                let record = self.iters.record_mut(iter);
                record.exchange_pending -= 1;
                if record.exchange_pending == 0 {
                    if self.contention().topology.num_nodes > 1 {
                        self.start_remote_phase(iter);
                    } else {
                        self.finish_exchange(iter);
                    }
                }
            }
            TransferStage::Remote { .. } => {
                let record = self.iters.record_mut(iter);
                record.exchange_pending -= 1;
                if record.exchange_pending == 0 {
                    self.finish_exchange(iter);
                }
            }
        }
    }

    fn handle_exchange_done(&mut self, iter: u64) {
        let entry = self.iters.complete(iter);
        let now = self.queue.now();
        let sojourn_ns = now.since(entry.arrival);
        self.sojourns.push(sojourn_ns);
        self.completed += 1;
        self.obs
            .record(now.as_ns(), TraceEvent::IterationDone { iter, sojourn_ns });

        // Online re-sharding: periodic imbalance check on completed work.
        let Some(controller) = &mut self.controller else {
            return;
        };
        if !controller.check_due(self.completed) {
            return;
        }
        let busy: Vec<u64> = self.stations.iter().map(|s| s.busy_ns()).collect();
        let outcome = controller.check(
            &busy,
            self.draws.workload().model(),
            &self.plan,
            &self.system,
        );
        match outcome {
            CheckOutcome::Balanced { imbalance } => {
                self.obs.record(
                    now.as_ns(),
                    TraceEvent::ReshardCheck {
                        completed: self.completed,
                        imbalance,
                        resharded: false,
                        moved_tables: 0,
                        migration_ns: 0,
                    },
                );
            }
            CheckOutcome::Reshard {
                imbalance,
                plan,
                profile,
                migration_ns,
            } => {
                if self.obs.enabled() {
                    let moved_tables = plan
                        .placements()
                        .iter()
                        .zip(self.plan.placements())
                        .filter(|(new, old)| new.gpu != old.gpu)
                        .count() as u64;
                    self.obs.record(
                        now.as_ns(),
                        TraceEvent::ReshardCheck {
                            completed: self.completed,
                            imbalance,
                            resharded: true,
                            moved_tables,
                            migration_ns,
                        },
                    );
                }
                for station in &mut self.stations {
                    station.stall(now, migration_ns);
                }
                self.draws.install_plan(&plan, &profile);
                self.tables_per_gpu = self.draws.workload().tables_per_gpu();
                self.plan = plan;
                if let Some(contention) = &mut self.contention {
                    // Shared-rate gathers are not gated by station free
                    // times, so the migration downtime is charged as a
                    // per-GPU start gate instead; exchange volumes follow
                    // the new plan (in-flight transfers keep their old
                    // volumes).
                    let gate = now.after_ns(migration_ns);
                    for stalled in &mut contention.stalled_until {
                        *stalled = (*stalled).max(gate);
                    }
                    contention.rebuild_volumes(&self.plan, &self.config);
                }
            }
        }
    }

    /// Sets the number of draw workers (0 = the simulator's thread draws
    /// every chunk) in place of the default taken from the available
    /// parallelism. The run's summary does not depend on it.
    #[cfg(test)]
    fn with_draw_workers(mut self, workers: usize) -> Self {
        self.draws = self.draws.with_workers(workers);
        self
    }

    /// Draws iterations in order from one shared RNG, as the simulator did
    /// before iterations were keyed: the reference the keyed streams are
    /// tested against.
    #[cfg(test)]
    fn with_serial_draws(mut self) -> Self {
        let seed = self.config.seed ^ 0x3A3B_0B5C_AFE5_0000;
        self.draws = self.draws.serial_reference(seed);
        self
    }

    /// Runs same-instant steps newest first: any order of one instant's
    /// steps is a valid run, and the summary must not depend on it.
    #[cfg(test)]
    fn with_lifo_steps(mut self) -> Self {
        self.lifo_steps = true;
        self
    }

    /// The next same-instant step to run.
    fn next_step(&mut self) -> Option<Event> {
        if self.lifo_steps {
            self.steps.pop_back()
        } else {
            self.steps.pop_front()
        }
    }

    /// Runs the simulation to completion and returns the summary. Draw
    /// workers, if any, draw iterations ahead while it runs.
    pub fn run(self) -> RunSummary {
        let pool = self.draws.pool();
        pool.drive(self.draws.workers(), move || self.simulate())
    }

    /// Runs the handler of one heap event or same-instant step.
    fn dispatch(&mut self, event: Event) {
        match event {
            Event::Arrival { iter } => self.handle_arrival(iter),
            Event::GpuDone { iter, .. } => self.handle_gpu_done(iter),
            Event::ExchangeDone { iter } => self.handle_exchange_done(iter),
            Event::GatherStart { iter, gpu } => self.handle_gather_start(iter, gpu),
            Event::LinkUpdate { link, generation } => self.handle_link_update(link, generation),
            Event::ZeroWorkDone { iter, stage } => self.advance_stage(iter, stage),
        }
    }

    fn simulate(mut self) -> RunSummary {
        self.queue
            .schedule_at(SimTime::ZERO, Event::Arrival { iter: 0 });
        while let Some(scheduled) = self.queue.pop() {
            self.log_event(scheduled.time, scheduled.seq, &scheduled.event);
            self.dispatch(scheduled.event);
            // Heap events due now were scheduled before the clock reached
            // now, so they run before every step queued at this instant;
            // once none is left, nothing can add one, and the steps run.
            // Then nothing more happens at this instant.
            if self.queue.peek_time() != Some(self.queue.now()) {
                while let Some(step) = self.next_step() {
                    self.dispatch(step);
                }
            }
        }
        assert!(
            self.iters.is_empty(),
            "simulation drained with in-flight iterations or transfers"
        );
        assert_eq!(
            self.completed, self.config.iterations,
            "not every iteration completed"
        );
        if let Some(contention) = &self.contention {
            for link in &contention.links {
                assert!(link.is_idle(), "a shared-rate link drained non-idle");
                assert_eq!(
                    link.served_units(),
                    link.admitted_units(),
                    "served work must equal admitted work once a link drains"
                );
            }
        }

        let makespan = self.queue.now();
        self.obs.record(
            makespan.as_ns(),
            TraceEvent::SimulationDone {
                events: self.queue.processed(),
                iterations: self.completed,
            },
        );
        let makespan_ms = makespan.as_ms();
        let mut queue_wait = LogLinearHistogram::new();
        for s in &self.stations {
            queue_wait.merge(s.queue_wait_ns());
        }
        let sojourn = QuantileStats::of(&self.sojourns, NS_PER_MS);
        RunSummary {
            strategy: self.strategy.clone(),
            num_gpus: self.stations.len(),
            iterations: self.config.iterations,
            completed: self.completed,
            batch_size: self.config.batch_size,
            makespan_ms,
            throughput_iters_per_s: if makespan.as_secs() > 0.0 {
                self.completed as f64 / makespan.as_secs()
            } else {
                0.0
            },
            p50_ms: sojourn.p50,
            p95_ms: sojourn.p95,
            p99_ms: sojourn.p99,
            iteration_time: sojourn.summary,
            queue_wait: queue_wait.summary(NS_PER_MS),
            busy_fraction: self
                .stations
                .iter()
                .map(|s| s.busy_ns() as f64 / makespan.as_ns().max(1) as f64)
                .collect(),
            per_gpu_busy_ms: self
                .stations
                .iter()
                .map(|s| s.busy_ns() as f64 / 1e6)
                .collect(),
            uvm_busy_share: self
                .stations
                .iter()
                .map(|s| {
                    let busy = s.busy_ns();
                    if busy == 0 {
                        0.0
                    } else {
                        s.busy_uvm_ns() as f64 / busy as f64
                    }
                })
                .collect(),
            reshards: self.controller.as_ref().map_or(0, |c| c.reshard_count()),
            events: self.queue.processed(),
            fingerprint: self.fingerprint,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use recshard_sharding::{GreedySharder, NodeTopology, SizeCost, TablePlacement};
    use recshard_stats::DatasetProfiler;
    use std::collections::HashMap;

    fn setup(gpus: usize) -> (ModelSpec, DatasetProfile, SystemSpec, ShardingPlan) {
        let model = ModelSpec::small(8, 5);
        let profile = DatasetProfiler::profile_model(&model, 1_000, 2);
        let system = SystemSpec::uniform(gpus, u64::MAX / 8, u64::MAX / 8, 1555.0, 16.0);
        let plan = GreedySharder::new(SizeCost)
            .shard(&model, &profile, &system)
            .unwrap();
        (model, profile, system, plan)
    }

    fn config(iterations: u64) -> ClusterConfig {
        ClusterConfig {
            iterations,
            batch_size: 32,
            ..ClusterConfig::default()
        }
    }

    #[test]
    fn same_seed_same_summary_and_fingerprint() {
        let (model, profile, system, plan) = setup(4);
        let run = || ClusterSimulator::new(&model, &plan, &profile, &system, config(200)).run();
        let a = run();
        let b = run();
        assert_eq!(a, b, "identical seeds must reproduce the identical summary");
        // A different seed produces a different event log.
        let c = ClusterSimulator::new(
            &model,
            &plan,
            &profile,
            &system,
            ClusterConfig {
                seed: 1,
                ..config(200)
            },
        )
        .run();
        assert_ne!(a.fingerprint, c.fingerprint);
    }

    #[test]
    fn observed_run_matches_unobserved_and_traces_every_event() {
        let (model, profile, system, plan) = setup(2);
        let plain = ClusterSimulator::new(&model, &plan, &profile, &system, config(50)).run();
        let mut collector = recshard_obs::Collector::new();
        let traced = ClusterSimulator::new(&model, &plan, &profile, &system, config(50))
            .with_obs(&mut collector)
            .run();
        assert_eq!(plain, traced, "observation must not perturb the run");
        let bundle = collector.finish();
        // Per iteration on 2 GPUs: 2×(enqueue + service) + barrier + exchange
        // + iteration-done = 7 records, plus the final simulation summary.
        assert_eq!(bundle.trace.len() as u64, 50 * 7 + 1);
        let iters = bundle
            .metrics
            .entries
            .iter()
            .find(|(n, _)| n == "des.iterations")
            .map(|(_, v)| v.clone());
        assert_eq!(
            iters,
            Some(recshard_obs::MetricValue::Counter(50)),
            "iteration counter must match the run"
        );
    }

    #[test]
    fn all_iterations_complete_and_ordered_percentiles() {
        let (model, profile, system, plan) = setup(2);
        let s = ClusterSimulator::new(&model, &plan, &profile, &system, config(300)).run();
        assert_eq!(s.completed, 300);
        assert!(s.p50_ms > 0.0);
        assert!(s.p50_ms <= s.p95_ms && s.p95_ms <= s.p99_ms);
        assert!(s.iteration_time.min <= s.p50_ms && s.p99_ms <= s.iteration_time.max);
        assert!(s.throughput_iters_per_s > 0.0);
        assert_eq!(s.events, 300 + 300 * 2 + 300);
    }

    #[test]
    fn busy_time_never_exceeds_makespan() {
        let (model, profile, system, plan) = setup(4);
        let s = ClusterSimulator::new(&model, &plan, &profile, &system, config(150)).run();
        for (&busy_ms, &frac) in s.per_gpu_busy_ms.iter().zip(&s.busy_fraction) {
            assert!(busy_ms <= s.makespan_ms + 1e-9);
            assert!((0.0..=1.0).contains(&frac));
        }
    }

    #[test]
    fn saturating_arrivals_build_queues() {
        let (model, profile, system, plan) = setup(2);
        // Arrivals far faster than service: sojourn times must stretch far
        // beyond the unloaded service time and grow monotonically in rank.
        let fast = ClusterConfig {
            arrival: ArrivalProcess::FixedRate {
                interval_ms: 0.0001,
            },
            ..config(300)
        };
        let slow = ClusterConfig {
            arrival: ArrivalProcess::FixedRate { interval_ms: 50.0 },
            ..config(300)
        };
        let loaded = ClusterSimulator::new(&model, &plan, &profile, &system, fast).run();
        let unloaded = ClusterSimulator::new(&model, &plan, &profile, &system, slow).run();
        assert!(
            loaded.p99_ms > unloaded.p99_ms * 5.0,
            "saturation must inflate tail latency ({} vs {})",
            loaded.p99_ms,
            unloaded.p99_ms
        );
        assert!(loaded.queue_wait.max > 0.0);
        assert_eq!(
            unloaded.queue_wait.max, 0.0,
            "unloaded stations never queue"
        );
    }

    #[test]
    fn uvm_heavy_plan_is_slower_and_attributed_to_uvm() {
        let (model, profile, system, _) = setup(2);
        let hbm_plan = GreedySharder::new(SizeCost)
            .shard(&model, &profile, &system)
            .unwrap();
        let uvm_placements: Vec<TablePlacement> = model
            .features()
            .iter()
            .map(|f| TablePlacement {
                table: f.id,
                gpu: f.id.index() % 2,
                hbm_rows: 0,
                total_rows: f.hash_size,
                row_bytes: f.row_bytes(),
            })
            .collect();
        let uvm_plan = ShardingPlan::new("all-uvm", 2, uvm_placements);
        let cfg = ClusterConfig {
            arrival: ArrivalProcess::FixedRate { interval_ms: 10.0 },
            // No launch overhead, so busy time is pure tier gather time and
            // the UVM attribution is visible even at a small batch size.
            kernel_overhead_us_per_table: 0.0,
            ..config(100)
        };
        let fast = ClusterSimulator::new(&model, &hbm_plan, &profile, &system, cfg).run();
        let slow = ClusterSimulator::new(&model, &uvm_plan, &profile, &system, cfg).run();
        assert!(
            slow.p50_ms > fast.p50_ms,
            "all-UVM embeddings must be slower ({} vs {})",
            slow.p50_ms,
            fast.p50_ms
        );
        assert!(slow.uvm_busy_share.iter().any(|&x| x > 0.9));
        assert!(fast.uvm_busy_share.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn multi_node_topology_slows_the_exchange() {
        use recshard_sharding::NodeTopology;
        let (model, profile, system, plan) = setup(4);
        let cfg = ClusterConfig {
            arrival: ArrivalProcess::FixedRate { interval_ms: 20.0 },
            ..config(100)
        };
        let flat = ClusterSimulator::new(&model, &plan, &profile, &system, cfg).run();
        let two_level = plan.clone().with_topology(NodeTopology::new(2, 2));
        let hier = ClusterSimulator::new(&model, &two_level, &profile, &system, cfg).run();
        // Half the exchange traffic now crosses the 6x slower inter-node
        // fabric, so unloaded sojourn times must strictly grow.
        assert!(
            hier.p50_ms > flat.p50_ms,
            "inter-node exchange must cost time ({} vs {})",
            hier.p50_ms,
            flat.p50_ms
        );
        // A single-node topology annotation is exactly the flat exchange.
        let single = plan.clone().with_topology(NodeTopology::single(4));
        let same = ClusterSimulator::new(&model, &single, &profile, &system, cfg).run();
        assert_eq!(same.fingerprint, flat.fingerprint);
    }

    #[test]
    fn stationary_scenario_replays_bit_identically() {
        let (model, profile, system, plan) = setup(2);
        let plain = ClusterSimulator::new(&model, &plan, &profile, &system, config(200)).run();
        let scenario = ClusterSimulator::new(&model, &plan, &profile, &system, config(200))
            .with_scenario(ScenarioSpec::stationary())
            .run();
        assert_eq!(
            plain, scenario,
            "a stationary scenario must not perturb the run"
        );
    }

    #[test]
    fn flash_crowd_inflates_tail_latency_and_is_deterministic() {
        let (model, profile, system, plan) = setup(2);
        // Default 1 ms arrivals over 400 iterations ≈ 0.4 s of virtual
        // time; the crowd lands at 50 ms and multiplies QPS by 1000 for
        // 200 ms, far past the stations' service rate.
        let cfg = config(400);
        let stationary = ClusterSimulator::new(&model, &plan, &profile, &system, cfg)
            .with_scenario(ScenarioSpec::stationary())
            .run();
        let flash = || {
            ClusterSimulator::new(&model, &plan, &profile, &system, cfg)
                .with_scenario(ScenarioSpec::flash_crowd(0.05, 0.2, 1000.0))
                .run()
        };
        let a = flash();
        let b = flash();
        assert_eq!(a, b, "scenario runs must be deterministic per seed");
        assert!(
            a.p99_ms > stationary.p99_ms,
            "a flash crowd must inflate tail latency ({} vs {})",
            a.p99_ms,
            stationary.p99_ms
        );
        assert_ne!(a.fingerprint, stationary.fingerprint);
    }

    #[test]
    fn observed_scenario_run_matches_unobserved_and_emits_phase_events() {
        let (model, profile, system, plan) = setup(2);
        // 2x QPS between 50 ms and 100 ms: both boundaries (onset + end)
        // fall well inside the run's ~0.3 s of virtual time.
        let spec = ScenarioSpec::flash_crowd(0.05, 0.05, 2.0);
        let cfg = config(300);
        let plain = ClusterSimulator::new(&model, &plan, &profile, &system, cfg)
            .with_scenario(spec.clone())
            .run();
        let mut collector = recshard_obs::Collector::new();
        let traced = ClusterSimulator::new(&model, &plan, &profile, &system, cfg)
            .with_scenario(spec)
            .with_obs(&mut collector)
            .run();
        assert_eq!(plain, traced, "observation must not perturb a scenario run");
        let bundle = collector.finish();
        let phase_events: Vec<_> = bundle
            .trace
            .records()
            .iter()
            .filter(|r| r.event.name() == "scenario_phase")
            .collect();
        assert_eq!(
            phase_events.len(),
            2,
            "crowd onset and end must each record a phase change"
        );
        let phases = bundle
            .metrics
            .entries
            .iter()
            .find(|(n, _)| n == "scenario.phases")
            .map(|(_, v)| v.clone());
        assert_eq!(phases, Some(recshard_obs::MetricValue::Counter(2)));
    }

    /// A class-split plan (user tables on GPU 0, content on GPU 1) holding
    /// `1 / hbm_divisor` of each table's rows in HBM: balanced enough under
    /// the original statistics, but three compounding drift waves (user
    /// pooling ×1.4 each, content ×0.7) pile all the extra gather work
    /// onto GPU 0.
    fn class_split_plan(model: &ModelSpec, hbm_divisor: u64) -> ShardingPlan {
        let placements = model
            .features()
            .iter()
            .map(|f| TablePlacement {
                table: f.id,
                gpu: f.id.index() % 2,
                hbm_rows: f.hash_size / hbm_divisor,
                total_rows: f.hash_size,
                row_bytes: f.row_bytes(),
            })
            .collect();
        ShardingPlan::new("class-split", 2, placements)
    }

    /// 600 iterations without launch overhead: busy time is pure gather
    /// time, so the controller's imbalance signal reflects the (drifting)
    /// lookup volumes and not the constant per-table kernel cost.
    fn storm_config() -> ClusterConfig {
        ClusterConfig {
            kernel_overhead_us_per_table: 0.0,
            ..config(600)
        }
    }

    /// A controller checking every 100 iterations and re-solving with
    /// lookup-balanced greedy sharding.
    fn storm_controller() -> ReshardController {
        let policy = crate::controller::ReshardPolicy {
            check_every_iterations: 100,
            ..Default::default()
        };
        let solver: Box<crate::controller::PlanSolver> = Box::new(|m, p, s, _prev| {
            GreedySharder::new(recshard_sharding::LookupCost)
                .shard(m, p, s)
                .ok()
        });
        ReshardController::new(policy, solver)
    }

    #[test]
    fn drift_storm_scenario_triggers_a_reshard() {
        let (model, profile, system, _) = setup(2);
        let plan = class_split_plan(&model, 1);
        let run = |scenario: Option<ScenarioSpec>| {
            let mut sim = ClusterSimulator::new(&model, &plan, &profile, &system, storm_config())
                .with_controller(storm_controller());
            if let Some(spec) = scenario {
                sim = sim.with_scenario(spec);
            }
            sim.run()
        };
        let stormed = run(Some(ScenarioSpec::drift_storm(0.05, 0.05, 3)));
        assert!(
            stormed.reshards >= 1,
            "a sustained drift storm must trip the re-sharding controller \
             (got {} reshards)",
            stormed.reshards
        );
        // Causality: the same plan under the unshifted workload stays put.
        let calm = run(None);
        assert_eq!(
            calm.reshards, 0,
            "without the storm the controller must not fire"
        );
    }

    #[test]
    fn poisson_arrivals_are_deterministic_per_seed() {
        let (model, profile, system, plan) = setup(2);
        let cfg = ClusterConfig {
            arrival: ArrivalProcess::Poisson {
                mean_interval_ms: 2.0,
            },
            ..config(200)
        };
        let a = ClusterSimulator::new(&model, &plan, &profile, &system, cfg).run();
        let b = ClusterSimulator::new(&model, &plan, &profile, &system, cfg).run();
        assert_eq!(a, b);
    }

    #[test]
    fn summaries_are_identical_for_any_draw_worker_count() {
        // FIFO stations on 4 GPUs, and shared-rate links under a drift
        // storm whose shifts (`install_model`) and controller re-shards
        // (`install_plan`) land while later iterations are drawn ahead.
        let (model, profile, system, plan) = setup(4);
        let fifo = |workers| {
            ClusterSimulator::new(&model, &plan, &profile, &system, config(700))
                .with_draw_workers(workers)
                .run()
        };
        let (split_model, split_profile, split_system, _) = setup(2);
        let split = class_split_plan(&split_model, 1);
        let contended = |workers| {
            let cfg = ClusterConfig {
                contention: ContentionMode::SharedRate,
                ..storm_config()
            };
            ClusterSimulator::new(&split_model, &split, &split_profile, &split_system, cfg)
                .with_scenario(ScenarioSpec::drift_storm(0.05, 0.05, 3))
                .with_controller(storm_controller())
                .with_draw_workers(workers)
                .run()
        };
        let (fifo_inline, contended_inline) = (fifo(0), contended(0));
        assert!(contended_inline.reshards >= 1, "the storm must re-shard");
        for workers in [1, 2, 4] {
            assert_eq!(fifo(workers), fifo_inline, "FIFO, {workers} workers");
            assert_eq!(
                contended(workers),
                contended_inline,
                "shared-rate storm, {workers} workers"
            );
        }
    }

    /// Two-sample chi-squared statistic over paired histograms, and its
    /// degrees of freedom (non-empty bins minus one).
    fn chi_squared(a: &[u64], b: &[u64]) -> (f64, usize) {
        let (na, nb) = (a.iter().sum::<u64>() as f64, b.iter().sum::<u64>() as f64);
        let (ka, kb) = ((nb / na).sqrt(), (na / nb).sqrt());
        let mut stat = 0.0;
        let mut bins = 0;
        for (&x, &y) in a.iter().zip(b) {
            if x + y > 0 {
                let d = x as f64 * ka - y as f64 * kb;
                stat += d * d / (x + y) as f64;
                bins += 1;
            }
        }
        (stat, bins.max(1) - 1)
    }

    /// The chi-squared critical value at p = 0.001 (Wilson–Hilferty).
    fn critical(df: usize) -> f64 {
        let df = df.max(1) as f64;
        let v = 2.0 / (9.0 * df);
        df * (1.0 - v + 3.0902 * v.sqrt()).powi(3)
    }

    /// Histograms of two samples over the pooled sample's decile edges.
    fn decile_histograms(a: &[u64], b: &[u64]) -> (Vec<u64>, Vec<u64>) {
        let mut pooled: Vec<u64> = a.iter().chain(b).copied().collect();
        pooled.sort_unstable();
        let mut edges: Vec<u64> = (1..10).map(|k| pooled[k * pooled.len() / 10]).collect();
        edges.dedup();
        let histogram = |xs: &[u64]| {
            let mut h = vec![0u64; edges.len() + 1];
            for &x in xs {
                h[edges.partition_point(|&e| e < x)] += 1;
            }
            h
        };
        (histogram(a), histogram(b))
    }

    /// The Mann–Whitney rank-sum z score of `a` against `b` (mid ranks for
    /// ties, normal approximation).
    fn rank_sum_z(a: &[f64], b: &[f64]) -> f64 {
        let mut pooled: Vec<(f64, bool)> = a
            .iter()
            .map(|&x| (x, true))
            .chain(b.iter().map(|&x| (x, false)))
            .collect();
        pooled.sort_by(|x, y| x.0.total_cmp(&y.0));
        let mut rank_sum_a = 0.0;
        let mut i = 0;
        while i < pooled.len() {
            let mut j = i;
            while j < pooled.len() && pooled[j].0 == pooled[i].0 {
                j += 1;
            }
            let mid_rank = (i + j + 1) as f64 / 2.0;
            rank_sum_a += mid_rank * pooled[i..j].iter().filter(|p| p.1).count() as f64;
            i = j;
        }
        let (na, nb) = (a.len() as f64, b.len() as f64);
        let u = rank_sum_a - na * (na + 1.0) / 2.0;
        (u - na * nb / 2.0) / (na * nb * (na + nb + 1.0) / 12.0).sqrt()
    }

    #[test]
    fn keyed_streams_match_the_shared_stream_in_distribution() {
        // Per-GPU HBM and UVM counts of 2,000 iterations keyed (seed, i)
        // against 2,000 from one shared RNG: every decile chi-squared stays
        // below its p = 0.001 critical value.
        const ITERS: u64 = 2_000;
        const BATCH: usize = 16;
        let (model, profile, system, _) = setup(2);
        let plan = class_split_plan(&model, 4);
        let workload = IterationWorkload::new(&model, &plan, &profile);
        let per_gpu_tier = |draws: Vec<Vec<AccessCounters>>| {
            let mut counts = vec![[Vec::new(), Vec::new()]; 2];
            for iteration in draws {
                for (gpu, c) in iteration.iter().enumerate() {
                    counts[gpu][0].push(c.hbm_accesses);
                    counts[gpu][1].push(c.uvm_accesses);
                }
            }
            counts
        };
        let keyed = |workload: &IterationWorkload, batch| {
            per_gpu_tier(
                (0..ITERS)
                    .map(|i| {
                        let mut out = vec![AccessCounters::new(); 2];
                        workload.sample_iteration_keyed(batch, &[5, i], &mut out);
                        out
                    })
                    .collect(),
            )
        };
        let mut rng = StdRng::seed_from_u64(5);
        let shared = per_gpu_tier(
            (0..ITERS)
                .map(|_| workload.sample_iteration(BATCH, &mut rng))
                .collect(),
        );
        let check = |other: &[[Vec<u64>; 2]]| {
            let mut worst = 0.0f64;
            for (gpu, tiers) in other.iter().enumerate() {
                for (tier, sample) in tiers.iter().enumerate() {
                    assert!(sample.iter().any(|&n| n > 0), "GPU {gpu} tier {tier} idle");
                    let (a, b) = decile_histograms(sample, &shared[gpu][tier]);
                    let (stat, df) = chi_squared(&a, &b);
                    worst = worst.max(stat / critical(df));
                }
            }
            worst
        };
        let worst = check(&keyed(&workload, BATCH));
        assert!(
            worst < 1.0,
            "keyed counts differ: chi2 at {worst:.2} of critical"
        );
        // The test has power: one more sample per batch is rejected.
        let bigger = check(&keyed(&workload, BATCH + 1));
        assert!(bigger > 1.0, "a 1/16 larger batch passed: {bigger:.2}");

        // Iteration p50 and p99 of loaded Poisson runs over 12 seeds, keyed
        // against the shared-stream reference: two-sided rank-sum tests at
        // p = 0.001 (|z| < 3.29).
        let cfg = |seed| ClusterConfig {
            seed,
            batch_size: BATCH,
            arrival: ArrivalProcess::Poisson {
                mean_interval_ms: 0.0017,
            },
            kernel_overhead_us_per_table: 0.0,
            ..config(1_500)
        };
        let run = |seed, serial: bool| {
            let sim = ClusterSimulator::new(&model, &plan, &profile, &system, cfg(seed));
            if serial { sim.with_serial_draws() } else { sim }.run()
        };
        let (mut keyed_tails, mut shared_tails) = (Vec::new(), Vec::new());
        for seed in 1..=12 {
            keyed_tails.push(run(seed, false));
            shared_tails.push(run(seed, true));
        }
        for (name, quantile) in [
            ("p50", (|s: &RunSummary| s.p50_ms) as fn(&RunSummary) -> f64),
            ("p99", |s: &RunSummary| s.p99_ms),
        ] {
            let a: Vec<f64> = keyed_tails.iter().map(quantile).collect();
            let b: Vec<f64> = shared_tails.iter().map(quantile).collect();
            let z = rank_sum_z(&a, &b);
            assert!(
                z.abs() < 3.29,
                "{name}: rank-sum z = {z:.2} ({a:?} vs {b:?})"
            );
        }
    }

    /// The shape of the golden shared-rate timing sweep, as `(nodes, launch
    /// overhead µs per table, controller threshold, iterations)`: flat, 2-
    /// and 4-node plans of 16 GPUs, with and without launch overhead, and
    /// drift storms whose re-shards release many gathers at one instant.
    const TIE_SWEEP: [(usize, f64, Option<f64>, u64); 8] = [
        (1, 0.0, None, 1_000),
        (1, 0.0, Some(1.5), 3_000),
        (1, 3.0, Some(1.5), 3_000),
        (2, 3.0, None, 1_000),
        (2, 0.0, Some(2.0), 3_000),
        (4, 0.0, Some(3.2), 3_000),
        (4, 1.0, Some(1.5), 3_000),
        (4, 3.0, None, 1_000),
    ];

    /// One `TIE_SWEEP` point: 24 tables on 16 GPUs that hold 1/48 of the
    /// model each, a lookup-balanced plan over `nodes` nodes, shared-rate
    /// links, batch 1 and Poisson arrivals far faster than a sojourn, so
    /// iterations overlap. Given a threshold, a drift storm led by a
    /// hot-key shift lands at 30% of the span under a re-sharding
    /// controller.
    fn tie_sweep_simulator(
        (nodes, overhead_us, threshold, iterations): (usize, f64, Option<f64>, u64),
    ) -> ClusterSimulator<'static> {
        const INTERVAL_MS: f64 = 0.02;
        let topology = NodeTopology::new(nodes, 16 / nodes);
        let model = ModelSpec::small(24, 7);
        let profile = DatasetProfiler::profile_model(&model, 2_000, 7);
        let system = SystemSpec::uniform(
            16,
            model.total_bytes() / 48,
            model.total_bytes(),
            1555.0,
            16.0,
        );
        let solve = move |m: &ModelSpec, p: &DatasetProfile, s: &SystemSpec| {
            GreedySharder::new(recshard_sharding::LookupCost)
                .shard(m, p, s)
                .ok()
                .map(|plan| plan.with_topology(topology))
        };
        let plan = solve(&model, &profile, &system).unwrap();
        let cfg = ClusterConfig {
            batch_size: 1,
            iterations,
            seed: 1,
            arrival: ArrivalProcess::Poisson {
                mean_interval_ms: INTERVAL_MS,
            },
            kernel_overhead_us_per_table: overhead_us,
            contention: ContentionMode::SharedRate,
            ..ClusterConfig::default()
        };
        let sim = ClusterSimulator::new(&model, &plan, &profile, &system, cfg);
        let Some(threshold) = threshold else {
            return sim;
        };
        let span_s = iterations as f64 * INTERVAL_MS / 1e3;
        let mut scenario = ScenarioSpec::drift_storm(0.3 * span_s, 0.1 * span_s, 3);
        scenario.shifts.insert(
            0,
            recshard_data::ShiftEvent {
                at_s: 0.3 * span_s,
                shift: recshard_data::ShiftKind::HotKeyShift { fraction: 0.3 },
            },
        );
        let policy = crate::controller::ReshardPolicy {
            check_every_iterations: 300,
            imbalance_threshold: threshold,
            profile_samples: 1_000,
        };
        let solver: Box<crate::controller::PlanSolver> = Box::new(move |m, p, s, _| solve(m, p, s));
        sim.with_scenario(scenario)
            .with_controller(ReshardController::new(policy, solver))
    }

    #[test]
    fn summaries_do_not_depend_on_the_order_of_same_instant_steps() {
        // Everything but the event log: draining each instant's steps newest
        // first reorders same-time ties on the links and the heap, and so
        // the order in which tied completions are recorded.
        let timing = |mut s: RunSummary| {
            (s.events, s.fingerprint) = (0, 0);
            s
        };
        let mut reshards = 0;
        for point in TIE_SWEEP {
            let fifo = tie_sweep_simulator(point).run();
            let lifo = tie_sweep_simulator(point).with_lifo_steps().run();
            assert_eq!(fifo.completed, point.3);
            reshards += fifo.reshards;
            assert_eq!(timing(lifo), timing(fifo), "{point:?}");
        }
        assert!(reshards > 0, "the storms must re-shard");
    }

    fn store_job(iter: u64, gpu: usize) -> GatherJob {
        GatherJob {
            arrival: SimTime(iter),
            start: SimTime(iter + 1),
            demand: ServiceDemand {
                hbm_ns: iter,
                uvm_ns: gpu as u64,
                overhead_ns: 7,
            },
        }
    }

    /// A store holding iterations `0..arrived`, `gpus` gather jobs each.
    fn filled_store(arrived: u64, gpus: usize) -> IterationStore {
        let mut store = IterationStore::new(gpus);
        for iter in 0..arrived {
            store.push(iter, IterRecord::arrived(SimTime(iter), gpus as u32));
            for gpu in 0..gpus {
                store.push_gather(store_job(iter, gpu));
            }
        }
        store
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The record store agrees with a `HashMap` keyed by iteration id
        /// under in-order arrivals and completions in random order: every
        /// live iteration's record and gather jobs are found, `base` is
        /// always the oldest iteration not yet completed (so it only ever
        /// moves past completed records), and the store ends empty.
        #[test]
        fn record_store_matches_a_hash_map_reference(
            ops in prop::collection::vec(any::<u64>(), 1..160),
            gpus in 0usize..4,
        ) {
            let total = ops.len() as u64 / 2 + 1;
            let mut store = IterationStore::new(gpus);
            let mut reference: HashMap<u64, SimTime> = HashMap::new();
            let mut live: Vec<u64> = Vec::new();
            let mut arrived = 0u64;
            let mut ops = ops.into_iter();
            while arrived < total || !live.is_empty() {
                let op = ops.next().unwrap_or(1);
                if arrived < total && (live.is_empty() || op % 2 == 0) {
                    let at = SimTime(arrived * 10 + op % 10);
                    store.push(arrived, IterRecord::arrived(at, gpus as u32));
                    for gpu in 0..gpus {
                        store.push_gather(store_job(arrived, gpu));
                    }
                    reference.insert(arrived, at);
                    live.push(arrived);
                    arrived += 1;
                } else {
                    let iter = live.swap_remove((op / 2 % live.len() as u64) as usize);
                    let expected = reference.remove(&iter);
                    let record = store.complete(iter);
                    prop_assert_eq!(Some(record.arrival), expected);
                }
                let oldest_live = live.iter().copied().min().unwrap_or(arrived);
                prop_assert_eq!(store.base, oldest_live);
                for (&iter, &at) in &reference {
                    prop_assert_eq!(store.record_mut(iter).arrival, at);
                    for gpu in 0..gpus {
                        prop_assert_eq!(store.gather(iter, gpu), store_job(iter, gpu));
                    }
                }
                prop_assert_eq!(
                    store.gathers.len(),
                    store.records.len() * gpus,
                    "one gather slot per GPU per held record"
                );
            }
            prop_assert!(store.is_empty());
            prop_assert_eq!(store.base, total);
        }
    }

    #[test]
    #[should_panic(expected = "completed, retired or unknown iteration")]
    fn store_lookup_of_a_retired_iteration_panics() {
        let mut store = filled_store(3, 2);
        store.complete(0);
        store.record_mut(0);
    }

    #[test]
    #[should_panic(expected = "completed, retired or unknown iteration")]
    fn store_lookup_of_a_completed_unretired_iteration_panics() {
        let mut store = filled_store(3, 2);
        // Iteration 1 completes before 0, so it is held but no longer live.
        store.complete(1);
        assert_eq!(store.base, 0);
        store.gather(1, 0);
    }

    #[test]
    #[should_panic(expected = "completed, retired or unknown iteration")]
    fn store_lookup_of_an_unarrived_iteration_panics() {
        let mut store = filled_store(3, 2);
        store.record_mut(3);
    }
}
