//! The concurrent inference server.
//!
//! [`InferenceServer::run`] serves a seeded request stream with one worker
//! thread per GPU shard. Each worker owns its shard's slice of every
//! query (the tables the plan routed to that GPU), owns the shard's
//! [`ShardedCache`], and advances a per-shard virtual clock: lookups served
//! from HBM cost HBM bandwidth, misses cost UVM bandwidth plus a per-row
//! fetch latency, and requests queue FIFO behind the shard when they arrive
//! faster than it drains — the open-loop behaviour that makes a poorly
//! balanced placement's p99 diverge.
//!
//! The stream is never materialised and there is no generator thread. The
//! calling thread computes the shared arrival schedule; then each worker,
//! inside one [`std::thread::scope`], draws its own tables' lookups query
//! by query from keyed per-(query, table) streams (see
//! [`request`](crate::request)) and serves each task as it is drawn. A
//! worker that panics re-raises its panic from `run` when it is joined.
//!
//! A query completes when its slowest shard finishes (fan-out/fan-in), so
//! per-query latency is `max` over shard completions minus the arrival time.
//! Measured latencies, in nanoseconds, go into one quantile sketch
//! ([`LogLinearHistogram`]), the sketch the discrete-event trainer reports
//! its sojourn times from. A traced run also routes each latency through
//! its collector's `serve.latency_ms` sink, which holds the same samples.
//!
//! Determinism: every shard's tasks depend only on the seed, the schedule
//! and the shard's own tables, each worker processes them in query order
//! against state only it mutates, and the merge is a pure fold — so neither
//! the thread schedule nor the thread count can change any reported number,
//! and reports carry a fingerprint to prove it. The tests replay a
//! materialised [`RequestStream::generate`](crate::RequestStream::generate)
//! through the same shard loop on one thread and require the identical
//! report.

use crate::cache::{CacheConfig, CacheStats, Lookup, ShardedCache};
use crate::error::ServeError;
use crate::policy::{PolicyKind, StatGuide, StatGuidedConfig};
use crate::report::ServeReport;
use crate::request::{schedule, shard_tasks, ArrivalModel};
use recshard_data::{fnv1a, ModelSpec, ScenarioSpec, FNV_OFFSET};
use recshard_obs::{Collector, ObsBundle, ObsSink, QuantileStats, TraceBuffer, TraceEvent};
use recshard_sharding::{ShardingPlan, SystemSpec};
use recshard_stats::{DatasetProfile, LogLinearHistogram};

/// Fixed overhead per distinct table touched by a query on a shard, in
/// nanoseconds (kernel launch + pooling, as in the training simulators).
const TABLE_OVERHEAD_NS: u64 = 2_000;

/// Extra latency per row fetched from UVM, in nanoseconds (page-fault /
/// random-access cost on top of the bandwidth term).
const MISS_LATENCY_NS: u64 = 1_000;

/// Configuration of a serving run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeConfig {
    /// Measured queries.
    pub queries: u32,
    /// Warmup queries served first and excluded from every measured number
    /// (gives recency/frequency policies a filled cache to be judged on).
    pub warmup: u32,
    /// Samples per query.
    pub batch_size: usize,
    /// Master seed; the request stream and arrivals derive from it.
    pub seed: u64,
    /// How queries arrive (open loop).
    pub arrival: ArrivalModel,
    /// The cache policy every shard runs.
    pub policy: PolicyKind,
    /// Tunables of the stat-guided policy (ignored by LRU/LFU).
    pub stat_guided: StatGuidedConfig,
    /// HBM cache bytes per shard; defaults to the system's per-GPU HBM.
    pub capacity_per_shard: Option<u64>,
    /// Ignored: each shard's cache is one unstriped structure. Kept so
    /// callers that pass it to [`CacheConfig::with_stripes`] still build.
    pub stripes: usize,
    /// One-way network hop latency for fan-in from a shard on a *different
    /// node* than the front-end, in nanoseconds. Only exercised when the plan
    /// carries a multi-node topology (the front-end sits on node 0); flat
    /// plans and the default of 0 reproduce the single-host behaviour
    /// exactly.
    pub internode_hop_ns: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            queries: 2_000,
            warmup: 500,
            batch_size: 8,
            seed: 0x5E21,
            arrival: ArrivalModel::FixedRate { interval_us: 200.0 },
            policy: PolicyKind::Lru,
            stat_guided: StatGuidedConfig::default(),
            capacity_per_shard: None,
            stripes: 1,
            internode_hop_ns: 0,
        }
    }
}

/// Per-worker results returned from a shard thread.
struct ShardRun {
    /// `(query, completion_ns)` in query order.
    completions: Vec<(u32, u64)>,
    /// Measured lookup outcomes.
    hits: u64,
    misses: u64,
    bypasses: u64,
    /// Total busy nanoseconds (warmup included).
    busy_ns: u64,
    /// The shard cache's end-state counters (warmup included).
    cache: CacheStats,
    /// Trace records of this shard's serving loop (traced runs only).
    trace: Option<TraceBuffer>,
}

/// The online embedding-lookup service.
///
/// ```
/// use recshard_data::ModelSpec;
/// use recshard_serve::{hash_placement, InferenceServer, PolicyKind, ServeConfig};
/// use recshard_sharding::SystemSpec;
/// use recshard_stats::DatasetProfiler;
///
/// let model = ModelSpec::small(6, 3);
/// let profile = DatasetProfiler::profile_model(&model, 1_000, 7);
/// let system = SystemSpec::uniform(2, 1 << 14, 1 << 30, 1555.0, 16.0);
/// let plan = hash_placement(&model, 2);
/// let config = ServeConfig {
///     queries: 200,
///     warmup: 50,
///     policy: PolicyKind::Lru,
///     ..ServeConfig::default()
/// };
/// let report = InferenceServer::run(&model, &plan, &profile, &system, config);
/// assert_eq!(report.queries, 200);
/// assert!(report.p50_ms <= report.p99_ms);
/// ```
#[derive(Debug)]
pub struct InferenceServer;

impl InferenceServer {
    /// Serves the seeded stream and returns the measured report.
    ///
    /// # Panics
    ///
    /// Panics with the [`ServeError`] message where
    /// [`try_run`](Self::try_run) returns one.
    pub fn run(
        model: &ModelSpec,
        plan: &ShardingPlan,
        profile: &DatasetProfile,
        system: &SystemSpec,
        config: ServeConfig,
    ) -> ServeReport {
        or_panic(Self::try_run(model, plan, profile, system, config))
    }

    /// [`run`](Self::run), returning a typed error instead of panicking
    /// when the inputs are inconsistent: zero queries, an empty batch, a
    /// NaN, negative or infinite arrival interval, a plan/system
    /// shard-count mismatch, a plan whose routing does not match the model
    /// or targets a missing shard, or (for [`PolicyKind::StatGuided`]) a
    /// profile that does not match the model or a `pin_capacity_fraction`
    /// that is not a finite number in `[0, 1]`.
    /// Nothing is built and no thread is spawned before the checks pass.
    ///
    /// # Errors
    ///
    /// The first failed check, as a [`ServeError`].
    pub fn try_run(
        model: &ModelSpec,
        plan: &ShardingPlan,
        profile: &DatasetProfile,
        system: &SystemSpec,
        config: ServeConfig,
    ) -> Result<ServeReport, ServeError> {
        Self::run_impl(model, plan, profile, system, config, None, None)
    }

    /// Like [`run`](Self::run), but serving a scenario-modulated stream:
    /// arrival gaps follow the spec's rate curves and distribution shifts
    /// re-derive the sampled traffic mid-run (see
    /// [`RequestStream::generate_scenario`](crate::RequestStream::generate_scenario)).
    /// A stationary scenario reproduces [`run`](Self::run) bit-for-bit.
    ///
    /// # Panics
    ///
    /// Panics with the [`ServeError`] message where
    /// [`try_run_scenario`](Self::try_run_scenario) returns one.
    pub fn run_scenario(
        model: &ModelSpec,
        plan: &ShardingPlan,
        profile: &DatasetProfile,
        system: &SystemSpec,
        config: ServeConfig,
        scenario: &ScenarioSpec,
    ) -> ServeReport {
        or_panic(Self::try_run_scenario(
            model, plan, profile, system, config, scenario,
        ))
    }

    /// [`run_scenario`](Self::run_scenario), returning a typed error as
    /// [`try_run`](Self::try_run) does, plus
    /// [`ServeError::InvalidScenario`] when the spec fails
    /// [`ScenarioSpec::validate`].
    ///
    /// # Errors
    ///
    /// The first failed check, as a [`ServeError`].
    pub fn try_run_scenario(
        model: &ModelSpec,
        plan: &ShardingPlan,
        profile: &DatasetProfile,
        system: &SystemSpec,
        config: ServeConfig,
        scenario: &ScenarioSpec,
    ) -> Result<ServeReport, ServeError> {
        Self::run_impl(model, plan, profile, system, config, Some(scenario), None)
    }

    /// Like [`run`](Self::run), additionally collecting a structured trace
    /// (per-task `query_served` spans, per-query `query_latency` instants,
    /// per-shard end-state `cache_shard` records) and a metrics snapshot.
    /// The report is identical to the untraced [`run`](Self::run) —
    /// observation never perturbs the measured numbers.
    ///
    /// # Panics
    ///
    /// As [`run`](Self::run).
    pub fn run_traced(
        model: &ModelSpec,
        plan: &ShardingPlan,
        profile: &DatasetProfile,
        system: &SystemSpec,
        config: ServeConfig,
    ) -> (ServeReport, ObsBundle) {
        let mut collector = Collector::new();
        let report = or_panic(Self::run_impl(
            model,
            plan,
            profile,
            system,
            config,
            None,
            Some(&mut collector),
        ));
        (report, collector.finish())
    }

    /// Every check [`try_run_scenario`](Self::try_run_scenario) documents.
    fn validate(
        model: &ModelSpec,
        plan: &ShardingPlan,
        profile: &DatasetProfile,
        system: &SystemSpec,
        config: &ServeConfig,
        scenario: Option<&ScenarioSpec>,
    ) -> Result<(), ServeError> {
        if config.queries == 0 {
            return Err(ServeError::NoQueries);
        }
        if config.batch_size == 0 {
            return Err(ServeError::EmptyBatch);
        }
        config.arrival.validate()?;
        let shards = plan.num_gpus();
        if shards != system.num_gpus() {
            return Err(ServeError::ShardCountMismatch {
                plan: shards,
                system: system.num_gpus(),
            });
        }
        let routing = plan.placements();
        if routing.len() != model.num_features() {
            return Err(ServeError::RoutingMismatch {
                routing: routing.len(),
                model: model.num_features(),
            });
        }
        if let Some((table, p)) = routing.iter().enumerate().find(|(_, p)| p.gpu >= shards) {
            return Err(ServeError::ShardOutOfRange {
                table,
                shard: p.gpu,
                shards,
            });
        }
        if config.policy == PolicyKind::StatGuided {
            if profile.num_features() != model.num_features() {
                return Err(ServeError::ProfileMismatch {
                    profile: profile.num_features(),
                    model: model.num_features(),
                });
            }
            let fraction = config.stat_guided.pin_capacity_fraction;
            if !(0.0..=1.0).contains(&fraction) {
                return Err(ServeError::InvalidPinFraction(fraction));
            }
        }
        match scenario.map(ScenarioSpec::validate) {
            Some(Err(e)) => Err(ServeError::InvalidScenario(e)),
            _ => Ok(()),
        }
    }

    fn run_impl(
        model: &ModelSpec,
        plan: &ShardingPlan,
        profile: &DatasetProfile,
        system: &SystemSpec,
        config: ServeConfig,
        scenario: Option<&ScenarioSpec>,
        obs: Option<&mut Collector>,
    ) -> Result<ServeReport, ServeError> {
        Self::validate(model, plan, profile, system, &config, scenario)?;
        let (shards, caches) = Shards::build(model, plan, profile, system, &config);
        let traced = obs.is_some();
        let (arrivals_ns, runs) =
            Self::pipeline(model, system, &shards, caches, &config, scenario, traced);
        Ok(Self::merge(plan, &arrivals_ns, &shards, runs, &config, obs))
    }

    /// Serves the stream on one worker per shard, each drawing and serving
    /// its own tasks and owning its cache (see the module doc). Returns the
    /// arrivals and the per-shard results in shard order.
    fn pipeline(
        model: &ModelSpec,
        system: &SystemSpec,
        shards: &Shards,
        caches: Vec<ShardedCache>,
        config: &ServeConfig,
        scenario: Option<&ScenarioSpec>,
        traced: bool,
    ) -> (Vec<u64>, Vec<ShardRun>) {
        let queries = config.warmup + config.queries;
        let arrivals_ns = schedule(queries, config.arrival, config.seed, scenario);
        // Each worker owns its cache and clock, so the merged result is
        // schedule-independent. Traced runs buffer per-shard records
        // privately and merge them in shard order afterwards, keeping the
        // trace deterministic too.
        let runs = std::thread::scope(|scope| {
            let handles: Vec<_> = caches
                .into_iter()
                .enumerate()
                .map(|(gpu, cache)| {
                    let (gpu_of, arrivals) = (&shards.gpu_of, &arrivals_ns);
                    let (batch, seed) = (config.batch_size, config.seed);
                    // recshard-lint: allow(thread-fanin) -- workers share no
                    // mutable state and are joined in shard-index order below.
                    scope.spawn(move || {
                        let tasks =
                            shard_tasks(model, gpu_of, gpu, batch, seed, arrivals, scenario);
                        shards.run_shard(gpu, &cache, tasks, system, config, traced)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
                })
                .collect()
        });
        (arrivals_ns, runs)
    }

    /// Fan-in: per-query latency, its quantile sketch, hit rates,
    /// fingerprint.
    fn merge(
        plan: &ShardingPlan,
        arrivals_ns: &[u64],
        shards: &Shards,
        mut runs: Vec<ShardRun>,
        config: &ServeConfig,
        mut obs: Option<&mut Collector>,
    ) -> ServeReport {
        let total_queries = (config.warmup + config.queries) as usize;
        let mut done_ns = vec![0u64; total_queries];
        let mut makespan_ns = 0u64;
        for run in &runs {
            for &(q, done) in &run.completions {
                let slot = &mut done_ns[q as usize];
                *slot = (*slot).max(done);
                makespan_ns = makespan_ns.max(done);
            }
        }
        if let Some(c) = obs.as_deref_mut() {
            for run in &mut runs {
                if let Some(buffer) = run.trace.take() {
                    c.ingest_buffer(buffer);
                }
            }
        }

        let mut latency = LogLinearHistogram::new();
        let mut fingerprint = FNV_OFFSET;
        let mut fold = |word: u64| fingerprint = fnv1a(fingerprint, word);
        for q in config.warmup as usize..total_queries {
            let latency_ns = done_ns[q].saturating_sub(arrivals_ns[q]);
            latency.push(latency_ns);
            if let Some(c) = obs.as_deref_mut() {
                c.record(
                    done_ns[q],
                    TraceEvent::QueryLatency {
                        query: q as u64,
                        latency_ns,
                    },
                );
            }
            fold(q as u64);
            fold(latency_ns);
        }
        let latency_stats = QuantileStats::of(&latency, 1e6);
        let (hits, misses, bypasses) = runs.iter().fold((0, 0, 0), |(h, m, b), r| {
            (h + r.hits, m + r.misses, b + r.bypasses)
        });
        for word in [hits, misses, bypasses] {
            fold(word);
        }

        let lookups = (hits + misses + bypasses).max(1);
        let mut cache_stats = CacheStats::default();
        for run in &runs {
            cache_stats.merge(&run.cache);
        }
        ServeReport {
            placement: plan.strategy().to_string(),
            policy: config.policy,
            shards: plan.num_gpus(),
            queries: config.queries,
            warmup: config.warmup,
            batch_size: config.batch_size,
            capacity_per_shard_bytes: shards.capacity,
            hits,
            misses,
            bypasses,
            hit_rate: hits as f64 / lookups as f64,
            per_shard_hit_rate: runs
                .iter()
                .map(|r| {
                    let total = r.hits + r.misses + r.bypasses;
                    if total == 0 {
                        0.0
                    } else {
                        r.hits as f64 / total as f64
                    }
                })
                .collect(),
            busy_fraction: runs
                .iter()
                .map(|r| r.busy_ns as f64 / makespan_ns.max(1) as f64)
                .collect(),
            p50_ms: latency_stats.p50,
            p95_ms: latency_stats.p95,
            p99_ms: latency_stats.p99,
            latency: latency_stats.summary,
            makespan_ms: makespan_ns as f64 / 1e6,
            throughput_qps: if makespan_ns > 0 {
                total_queries as f64 / (makespan_ns as f64 / 1e9)
            } else {
                0.0
            },
            cache: cache_stats,
            fingerprint,
        }
    }
}

/// The read-only per-shard state of a run: the plan's routing, fan-in
/// hops and row widths.
struct Shards {
    /// Owning shard of each table.
    gpu_of: Vec<usize>,
    /// Largest per-shard cache capacity, in bytes (the reported one).
    capacity: u64,
    /// Fan-in hop of each shard's completions, in ns.
    hop_of: Vec<u64>,
    /// Row width of each table, in bytes.
    row_bytes: Vec<u64>,
}

impl Shards {
    /// Builds the per-shard constants and caches of a validated run.
    fn build(
        model: &ModelSpec,
        plan: &ShardingPlan,
        profile: &DatasetProfile,
        system: &SystemSpec,
        config: &ServeConfig,
    ) -> (Self, Vec<ShardedCache>) {
        let shards = plan.num_gpus();
        let gpu_of = plan.gpu_assignments();
        // Each shard's HBM cache is sized to *its* GPU's HBM (per device
        // class); an explicit `capacity_per_shard` overrides every shard.
        let capacity_of: Vec<u64> = (0..shards)
            .map(|gpu| {
                config
                    .capacity_per_shard
                    .unwrap_or_else(|| system.hbm_capacity(gpu))
            })
            .collect();
        let caches = capacity_of
            .iter()
            .enumerate()
            .map(|(gpu, &capacity)| {
                let cache_config = CacheConfig::new(capacity);
                match config.policy {
                    PolicyKind::Lru | PolicyKind::Lfu => {
                        ShardedCache::new(config.policy, cache_config)
                    }
                    PolicyKind::StatGuided => ShardedCache::with_guide(
                        StatGuide::for_gpu(gpu, &gpu_of, profile, capacity, &config.stat_guided),
                        cache_config,
                    ),
                }
            })
            .collect();
        // Shards on nodes other than the front-end's (node 0) pay one
        // network hop on fan-in; flat plans put every shard on node 0.
        let topology = plan.effective_topology();
        let hop_of = (0..shards)
            .map(|gpu| {
                if topology.node_of_gpu(gpu) == 0 {
                    0
                } else {
                    config.internode_hop_ns
                }
            })
            .collect();
        let shards = Self {
            gpu_of,
            capacity: capacity_of.iter().copied().max().unwrap_or(0),
            hop_of,
            row_bytes: model.features().iter().map(|f| f.row_bytes()).collect(),
        };
        (shards, caches)
    }

    /// Shard `gpu`'s serving loop over its `cache`: FIFO virtual-time
    /// queueing over its `(query, arrival_ns, lookups)` tasks, in query
    /// order. The shard's fan-in hop delays each completion without occupying the shard
    /// itself. Lookup service times use *this shard's* GPU bandwidths (its
    /// device class on a heterogeneous cluster).
    fn run_shard<L: AsRef<[(u32, u64)]>>(
        &self,
        gpu: usize,
        cache: &ShardedCache,
        tasks: impl IntoIterator<Item = (u32, u64, L)>,
        system: &SystemSpec,
        config: &ServeConfig,
        traced: bool,
    ) -> ShardRun {
        let row_bytes = &self.row_bytes;
        let hop_ns = self.hop_of[gpu];
        let mut trace = traced.then(|| TraceBuffer::new(gpu as u32));
        let hbm_ns_per_byte = 1e9 / (system.hbm_bandwidth_gbps(gpu) * 1e9);
        let uvm_ns_per_byte = 1e9 / (system.uvm_bandwidth_gbps(gpu) * 1e9);
        // Scratch for counting distinct tables without a per-task set.
        let mut touched_epoch = vec![0u32; row_bytes.len()];
        let mut epoch = 0u32;

        let mut free_at = 0u64;
        let mut completions = Vec::new();
        let (mut hits, mut misses, mut bypasses, mut busy_ns) = (0u64, 0u64, 0u64, 0u64);
        for (query, arrival_ns, lookups) in tasks {
            epoch += 1;
            let mut hbm_bytes = 0u64;
            let mut uvm_bytes = 0u64;
            let mut uvm_rows = 0u64;
            let mut tables = 0u64;
            let (mut h, mut m, mut b) = (0u64, 0u64, 0u64);
            for &(table, row) in lookups.as_ref() {
                let bytes = row_bytes[table as usize];
                if touched_epoch[table as usize] != epoch {
                    touched_epoch[table as usize] = epoch;
                    tables += 1;
                }
                match cache.access(table, row, bytes) {
                    Lookup::Hit => {
                        hbm_bytes += bytes;
                        h += 1;
                    }
                    Lookup::MissInserted => {
                        uvm_bytes += bytes;
                        uvm_rows += 1;
                        m += 1;
                    }
                    Lookup::MissBypassed => {
                        uvm_bytes += bytes;
                        uvm_rows += 1;
                        b += 1;
                    }
                }
            }
            let service_ns = (hbm_bytes as f64 * hbm_ns_per_byte
                + uvm_bytes as f64 * uvm_ns_per_byte)
                .round() as u64
                + tables * TABLE_OVERHEAD_NS
                + uvm_rows * MISS_LATENCY_NS;
            let start = free_at.max(arrival_ns);
            // Saturates with the arrival clock (see `RequestStream`).
            let done = start.saturating_add(service_ns);
            free_at = done;
            busy_ns += service_ns;
            if query >= config.warmup {
                hits += h;
                misses += m;
                bypasses += b;
            }
            if let Some(trace) = &mut trace {
                trace.record(
                    arrival_ns,
                    TraceEvent::QueryServed {
                        shard: gpu as u32,
                        query: query as u64,
                        start_ns: start,
                        service_ns,
                        wait_ns: start - arrival_ns,
                        hits: h,
                        misses: m,
                        bypasses: b,
                    },
                );
            }
            completions.push((query, done.saturating_add(hop_ns)));
        }
        let stats = cache.stats();
        if let Some(trace) = &mut trace {
            trace.record(
                free_at,
                TraceEvent::CacheShard {
                    shard: gpu as u32,
                    hits: stats.hits,
                    misses: stats.misses,
                    bypasses: stats.bypasses,
                    evictions: stats.evictions,
                    used_bytes: stats.used_bytes,
                    pinned_bytes: stats.pinned_bytes,
                },
            );
        }
        ShardRun {
            completions,
            hits,
            misses,
            bypasses,
            busy_ns,
            cache: stats,
            trace,
        }
    }
}

/// Unwraps a run result, panicking with the error's message.
fn or_panic(result: Result<ServeReport, ServeError>) -> ServeReport {
    result.unwrap_or_else(|e| panic!("{e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::hash_placement;
    use crate::request::RequestStream;
    use recshard_stats::DatasetProfiler;

    fn setup() -> (ModelSpec, DatasetProfile, SystemSpec) {
        let model = ModelSpec::small(8, 5);
        let profile = DatasetProfiler::profile_model(&model, 2_000, 3);
        // A cache that holds ~1/8 of the model per shard.
        let system = SystemSpec::uniform(
            2,
            (model.total_bytes() / 16).max(1),
            model.total_bytes(),
            1555.0,
            16.0,
        );
        (model, profile, system)
    }

    fn config(policy: PolicyKind) -> ServeConfig {
        ServeConfig {
            queries: 400,
            warmup: 100,
            batch_size: 4,
            policy,
            arrival: ArrivalModel::FixedRate { interval_us: 50.0 },
            ..ServeConfig::default()
        }
    }

    /// The serving loop over a materialised stream: every shard replayed
    /// one after another on this thread from [`RequestStream::generate`]
    /// (or `generate_scenario`), merged as the threaded run merges.
    fn reference_run(
        model: &ModelSpec,
        plan: &ShardingPlan,
        profile: &DatasetProfile,
        system: &SystemSpec,
        config: ServeConfig,
        scenario: Option<&ScenarioSpec>,
    ) -> ServeReport {
        let (shards, caches) = Shards::build(model, plan, profile, system, &config);
        let (gpu_of, shard_count) = (&shards.gpu_of, plan.num_gpus());
        let queries = config.warmup + config.queries;
        let (batch, arrival, seed) = (config.batch_size, config.arrival, config.seed);
        let stream = match scenario {
            None => {
                RequestStream::generate(model, gpu_of, shard_count, queries, batch, arrival, seed)
            }
            Some(spec) => {
                let (stream, _) = RequestStream::generate_scenario(
                    model,
                    gpu_of,
                    shard_count,
                    queries,
                    batch,
                    arrival,
                    seed,
                    spec,
                )
                .unwrap();
                stream
            }
        };
        let runs = stream
            .shard_tasks
            .iter()
            .zip(&caches)
            .enumerate()
            .map(|(gpu, (tasks, cache))| {
                let tasks = tasks
                    .iter()
                    .map(|t| (t.query, stream.arrivals_ns[t.query as usize], &t.lookups));
                shards.run_shard(gpu, cache, tasks, system, &config, false)
            })
            .collect();
        InferenceServer::merge(plan, &stream.arrivals_ns, &shards, runs, &config, None)
    }

    #[test]
    fn pipelined_run_equals_the_materialised_replay() {
        let (model, profile, system) = setup();
        let plan = hash_placement(&model, 2);
        let base = config(PolicyKind::StatGuided);
        for policy in PolicyKind::all() {
            let cfg = ServeConfig { policy, ..base };
            let reference = reference_run(&model, &plan, &profile, &system, cfg, None);
            let run = InferenceServer::run(&model, &plan, &profile, &system, cfg);
            assert_eq!(run, reference, "{policy}");
        }
        // A run of a single measured query after a single warmup query.
        let tiny = ServeConfig {
            queries: 1,
            warmup: 1,
            ..base
        };
        let reference = reference_run(&model, &plan, &profile, &system, tiny, None);
        assert_eq!(
            InferenceServer::run(&model, &plan, &profile, &system, tiny),
            reference
        );
    }

    #[test]
    fn pipelined_run_serves_a_shard_that_owns_no_table() {
        let (model, profile, _) = setup();
        // Three shards, but the plan routes every table to shards 0 and 1.
        let lopsided = ShardingPlan::new(
            "lopsided",
            3,
            hash_placement(&model, 2).placements().to_vec(),
        );
        assert!(lopsided.tables_on_gpu(2).is_empty());
        let system = SystemSpec::uniform(
            3,
            (model.total_bytes() / 16).max(1),
            model.total_bytes(),
            1555.0,
            16.0,
        );
        let cfg = config(PolicyKind::StatGuided);
        let reference = reference_run(&model, &lopsided, &profile, &system, cfg, None);
        let run = InferenceServer::run(&model, &lopsided, &profile, &system, cfg);
        assert_eq!(run, reference);
        assert_eq!(run.per_shard_hit_rate[2], 0.0);
        assert_eq!(run.busy_fraction[2], 0.0);
    }

    #[test]
    fn pipelined_scenario_run_equals_the_materialised_replay() {
        let (model, profile, system) = setup();
        let plan = hash_placement(&model, 2);
        let cfg = config(PolicyKind::StatGuided);
        // A 2x flash crowd with its hot-key shift inside the 25 ms run.
        let spec = ScenarioSpec::flash_crowd(5e-3, 5e-3, 2.0);
        let reference = reference_run(&model, &plan, &profile, &system, cfg, Some(&spec));
        let run = InferenceServer::run_scenario(&model, &plan, &profile, &system, cfg, &spec);
        assert_eq!(run, reference);
    }

    #[test]
    fn try_run_rejects_bad_inputs_with_typed_errors() {
        let (model, profile, system) = setup();
        let plan = hash_placement(&model, 2);
        let cfg = config(PolicyKind::StatGuided);
        let try_run = |plan: &ShardingPlan, system: &SystemSpec, cfg: ServeConfig| {
            InferenceServer::try_run(&model, plan, &profile, system, cfg)
        };
        assert_eq!(
            try_run(&plan, &system, ServeConfig { queries: 0, ..cfg }),
            Err(ServeError::NoQueries)
        );
        assert_eq!(
            try_run(
                &plan,
                &system,
                ServeConfig {
                    batch_size: 0,
                    ..cfg
                }
            ),
            Err(ServeError::EmptyBatch)
        );
        for (arrival, name) in [
            (
                ArrivalModel::FixedRate {
                    interval_us: f64::INFINITY,
                },
                "interval_us",
            ),
            (ArrivalModel::FixedRate { interval_us: -1.0 }, "interval_us"),
            (
                ArrivalModel::Poisson {
                    mean_interval_us: f64::NAN,
                },
                "mean_interval_us",
            ),
            (
                ArrivalModel::Poisson {
                    mean_interval_us: f64::NEG_INFINITY,
                },
                "mean_interval_us",
            ),
        ] {
            let err = try_run(&plan, &system, ServeConfig { arrival, ..cfg });
            assert!(
                matches!(err, Err(ServeError::InvalidArrival { name: n, .. }) if n == name),
                "{arrival:?}: {err:?}"
            );
        }
        for fraction in [f64::NAN, -0.1, 1.5, f64::INFINITY] {
            let stat_guided = StatGuidedConfig {
                pin_capacity_fraction: fraction,
            };
            let err = try_run(&plan, &system, ServeConfig { stat_guided, ..cfg });
            assert!(
                matches!(err, Err(ServeError::InvalidPinFraction(v)) if v.to_bits() == fraction.to_bits()),
                "{fraction}: {err:?}"
            );
            // Only StatGuided reads the fraction.
            let lru = ServeConfig {
                stat_guided,
                ..config(PolicyKind::Lru)
            };
            assert!(try_run(&plan, &system, lru).is_ok());
        }
        assert_eq!(
            try_run(&hash_placement(&model, 3), &system, cfg),
            Err(ServeError::ShardCountMismatch { plan: 3, system: 2 })
        );
        let short = ShardingPlan::new("short", 2, plan.placements()[..5].to_vec());
        assert_eq!(
            try_run(&short, &system, cfg),
            Err(ServeError::RoutingMismatch {
                routing: 5,
                model: 8
            })
        );
        let mut placements = plan.placements().to_vec();
        placements[3].gpu = 7;
        assert_eq!(
            try_run(&ShardingPlan::new("stray", 2, placements), &system, cfg),
            Err(ServeError::ShardOutOfRange {
                table: 3,
                shard: 7,
                shards: 2
            })
        );
        let other_profile = DatasetProfiler::profile_model(&ModelSpec::small(5, 5), 200, 3);
        let mismatch = InferenceServer::try_run(&model, &plan, &other_profile, &system, cfg);
        assert_eq!(
            mismatch,
            Err(ServeError::ProfileMismatch {
                profile: 5,
                model: 8
            })
        );
        // LRU never reads the profile.
        assert!(InferenceServer::try_run(
            &model,
            &plan,
            &other_profile,
            &system,
            config(PolicyKind::Lru)
        )
        .is_ok());
        let bad_spec = ScenarioSpec::flash_crowd(5e-3, 5e-3, -2.0);
        assert!(matches!(
            InferenceServer::try_run_scenario(&model, &plan, &profile, &system, cfg, &bad_spec),
            Err(ServeError::InvalidScenario(_))
        ));
        assert_eq!(
            try_run(&plan, &system, cfg),
            Ok(InferenceServer::run(&model, &plan, &profile, &system, cfg))
        );
    }

    #[test]
    #[should_panic(expected = "plan/system shard count mismatch")]
    fn run_panics_with_the_error_message() {
        let (model, profile, system) = setup();
        let plan = hash_placement(&model, 3);
        let _ = InferenceServer::run(&model, &plan, &profile, &system, config(PolicyKind::Lru));
    }

    #[test]
    fn a_panicking_worker_propagates_without_blocking_the_generator() {
        let (model, profile, system) = setup();
        let plan = hash_placement(&model, 2);
        let cfg = config(PolicyKind::Lru);
        let (mut shards, caches) = Shards::build(&model, &plan, &profile, &system, &cfg);
        // Row widths for table 0 only: shard 1 (tables 1, 3, ...) indexes
        // past them on its first task and panics; shard 0 serves table 0
        // and then panics too once it reaches table 2.
        shards.row_bytes.truncate(1);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            InferenceServer::pipeline(&model, &system, &shards, caches, &cfg, None, false)
        }));
        let panic = outcome.err().expect("the worker's panic must propagate");
        let message = panic
            .downcast_ref::<String>()
            .map(String::as_str)
            .unwrap_or_default();
        assert!(message.contains("index out of bounds"), "{message}");
    }

    #[test]
    fn identical_seeds_reproduce_identical_reports() {
        let (model, profile, system) = setup();
        let plan = hash_placement(&model, 2);
        let run = |seed| {
            InferenceServer::run(
                &model,
                &plan,
                &profile,
                &system,
                ServeConfig {
                    seed,
                    ..config(PolicyKind::StatGuided)
                },
            )
        };
        let a = run(9);
        let b = run(9);
        assert_eq!(a, b, "same seed must reproduce the identical report");
        let c = run(10);
        assert_ne!(a.fingerprint, c.fingerprint);
    }

    #[test]
    fn traced_run_matches_untraced_report() {
        let (model, profile, system) = setup();
        let plan = hash_placement(&model, 2);
        let cfg = config(PolicyKind::StatGuided);
        let plain = InferenceServer::run(&model, &plan, &profile, &system, cfg);
        let (traced, bundle) = InferenceServer::run_traced(&model, &plan, &profile, &system, cfg);
        assert_eq!(plain, traced, "tracing must not perturb the report");
        // At least one query_served span per measured query, one
        // query_latency instant each, and one cache_shard record per shard.
        assert!(bundle.trace.len() as u32 >= 2 * cfg.queries + 2);
        let latency = bundle
            .metrics
            .entries
            .iter()
            .find(|(n, _)| n == "serve.latency_ms")
            .map(|(_, v)| v.clone());
        match latency {
            Some(recshard_obs::MetricValue::Quantile(q)) => {
                assert_eq!(q.count, cfg.queries as u64);
                assert_eq!(q.p50, traced.p50_ms, "snapshot and report must agree");
                assert_eq!(q.summary, traced.latency);
            }
            other => panic!("expected serve.latency_ms quantile, got {other:?}"),
        }
    }

    #[test]
    fn percentiles_are_ordered_and_counts_conserve() {
        let (model, profile, system) = setup();
        let plan = hash_placement(&model, 2);
        for policy in PolicyKind::all() {
            let r = InferenceServer::run(&model, &plan, &profile, &system, config(policy));
            assert_eq!(r.queries, 400);
            assert!(r.p50_ms <= r.p95_ms && r.p95_ms <= r.p99_ms, "{policy}");
            assert!(r.latency.min <= r.p50_ms && r.p99_ms <= r.latency.max);
            assert!(r.hits + r.misses + r.bypasses > 0);
            assert!((0.0..=1.0).contains(&r.hit_rate));
            assert!(r.throughput_qps > 0.0);
            for &f in &r.busy_fraction {
                assert!((0.0..=1.0).contains(&f));
            }
        }
    }

    #[test]
    fn larger_cache_never_lowers_hit_rate() {
        let (model, profile, system) = setup();
        let plan = hash_placement(&model, 2);
        let mut prev = -1.0f64;
        for shift in [4u32, 2, 0] {
            let r = InferenceServer::run(
                &model,
                &plan,
                &profile,
                &system,
                ServeConfig {
                    capacity_per_shard: Some((model.total_bytes() >> shift).max(64)),
                    ..config(PolicyKind::Lru)
                },
            );
            assert!(
                r.hit_rate >= prev - 1e-9,
                "hit rate fell from {prev} to {} as capacity grew",
                r.hit_rate
            );
            prev = r.hit_rate;
        }
        // A cache holding the entire model misses each row at most once.
        assert!(prev > 0.5);
    }

    #[test]
    fn saturating_arrivals_inflate_tail_latency() {
        let (model, profile, system) = setup();
        let plan = hash_placement(&model, 2);
        let slow = InferenceServer::run(
            &model,
            &plan,
            &profile,
            &system,
            ServeConfig {
                arrival: ArrivalModel::FixedRate {
                    interval_us: 100_000.0,
                },
                ..config(PolicyKind::Lru)
            },
        );
        let fast = InferenceServer::run(
            &model,
            &plan,
            &profile,
            &system,
            ServeConfig {
                arrival: ArrivalModel::FixedRate { interval_us: 0.1 },
                ..config(PolicyKind::Lru)
            },
        );
        assert!(
            fast.p99_ms > slow.p99_ms * 5.0,
            "saturation must inflate p99 ({} vs {})",
            fast.p99_ms,
            slow.p99_ms
        );
    }

    #[test]
    fn remote_node_shards_pay_the_fan_in_hop() {
        use recshard_sharding::NodeTopology;
        let (model, profile, system) = setup();
        let plan = hash_placement(&model, 2);
        let base = config(PolicyKind::Lru);
        let flat = InferenceServer::run(&model, &plan, &profile, &system, base);
        // Same placement, but shard 1 now lives on a second node 50 µs away.
        let two_node = plan.clone().with_topology(NodeTopology::new(2, 1));
        let remote = InferenceServer::run(
            &model,
            &two_node,
            &profile,
            &system,
            ServeConfig {
                internode_hop_ns: 50_000,
                ..base
            },
        );
        // The 50 µs hop is less than one sketch bucket at these 20 ms
        // latencies (2^-8 relative), so the exact mean shows it and the
        // quantiles may not.
        assert!(
            remote.latency.mean > flat.latency.mean && remote.p50_ms >= flat.p50_ms,
            "remote fan-in hop must inflate latency ({} vs {})",
            remote.latency.mean,
            flat.latency.mean
        );
        // Hop of zero reproduces the flat run bit-for-bit even with a
        // multi-node annotation.
        let same = InferenceServer::run(&model, &two_node, &profile, &system, base);
        assert_eq!(same.fingerprint, flat.fingerprint);
    }

    #[test]
    fn stationary_scenario_reproduces_the_plain_run() {
        let (model, profile, system) = setup();
        let plan = hash_placement(&model, 2);
        let cfg = config(PolicyKind::StatGuided);
        let plain = InferenceServer::run(&model, &plan, &profile, &system, cfg);
        let stationary = InferenceServer::run_scenario(
            &model,
            &plan,
            &profile,
            &system,
            cfg,
            &ScenarioSpec::stationary(),
        );
        assert_eq!(
            plain, stationary,
            "a stationary scenario must replay the plain run bit-identically"
        );
    }

    #[test]
    fn flash_crowd_scenario_is_deterministic() {
        let (model, profile, system) = setup();
        let plan = hash_placement(&model, 2);
        let cfg = config(PolicyKind::StatGuided);
        // 500 total queries at 50 µs span 25 ms; 2x flash over [5 ms, 10 ms).
        let spec = ScenarioSpec::flash_crowd(5e-3, 5e-3, 2.0);
        let a = InferenceServer::run_scenario(&model, &plan, &profile, &system, cfg, &spec);
        let b = InferenceServer::run_scenario(&model, &plan, &profile, &system, cfg, &spec);
        assert_eq!(a, b, "same seed and spec must reproduce the report");
        let plain = InferenceServer::run(&model, &plan, &profile, &system, cfg);
        assert_ne!(a.fingerprint, plain.fingerprint);
    }

    #[test]
    fn stat_guided_beats_lru_on_hit_rate_under_skew() {
        let (model, profile, system) = setup();
        let plan = hash_placement(&model, 2);
        let lru = InferenceServer::run(&model, &plan, &profile, &system, config(PolicyKind::Lru));
        let sg = InferenceServer::run(
            &model,
            &plan,
            &profile,
            &system,
            config(PolicyKind::StatGuided),
        );
        assert!(
            sg.hit_rate > lru.hit_rate,
            "stat-guided {} must beat LRU {}",
            sg.hit_rate,
            lru.hit_rate
        );
        assert!(sg.cache.pinned_bytes > 0, "knee rows must be pinned");
    }
}
