//! The batched inference request front-end.
//!
//! Online queries look like training samples without labels: a batch of
//! users/items, each contributing multi-hot sparse features. The stream is
//! produced by the *same* coverage/pooling/Zipf draw the rest of the
//! reproduction uses ([`FeatureSampler`]), hashed by the same per-table
//! hashers, and routed to GPU shards by the active sharding plan — so the
//! serving layer sees exactly the access skew the profile measured.
//!
//! Each `(query, table)` pair draws its `batch` samples from its own
//! keyed stream, seeded only from `(seed, query, table)`
//! ([`FeatureSampler::draw_keyed`]). No draw depends on another, so every
//! shard draws its own tables' lookups by itself: the per-shard task
//! generator (`shard_tasks`) is the whole generator, and a shard's tasks do
//! not depend on which tables other shards own or on how many threads draw
//! them. Arrival times and scenario phase changes come from a separate
//! arrival RNG and are computed once for all shards. Within a task, lookups
//! are grouped by table, in table order.
//!
//! [`InferenceServer::run`](crate::InferenceServer::run) runs one
//! `shard_tasks` per shard worker and never materialises a stream.
//! [`RequestStream::generate`] runs the same generator shard after shard on
//! the calling thread and keeps every task (about 16 bytes per lookup): the
//! reference the threaded server is tested against, and the input of
//! offline cache replays.

use crate::error::ServeError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use recshard_data::{FeatureHasher, FeatureSampler, ModelSpec, ScenarioSpec};

/// How inference requests arrive at the server (open loop).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalModel {
    /// One request every `interval_us` microseconds, exactly.
    FixedRate {
        /// Gap between consecutive requests, in microseconds.
        interval_us: f64,
    },
    /// Poisson arrivals with exponentially distributed gaps.
    Poisson {
        /// Mean gap between consecutive requests, in microseconds.
        mean_interval_us: f64,
    },
}

impl ArrivalModel {
    /// Checks that the interval is a non-negative finite number of
    /// microseconds, as the DES's `ArrivalProcess::validate` does.
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidArrival`] naming the rejected parameter.
    pub fn validate(&self) -> Result<(), ServeError> {
        let (name, value) = match *self {
            ArrivalModel::FixedRate { interval_us } => ("interval_us", interval_us),
            ArrivalModel::Poisson { mean_interval_us } => ("mean_interval_us", mean_interval_us),
        };
        if value.is_finite() && value >= 0.0 {
            Ok(())
        } else {
            Err(ServeError::InvalidArrival { name, value })
        }
    }

    /// Draws the gap to the next arrival, in nanoseconds.
    pub fn next_gap_ns(&self, rng: &mut StdRng) -> u64 {
        match *self {
            ArrivalModel::FixedRate { interval_us } => (interval_us.max(0.0) * 1e3).round() as u64,
            ArrivalModel::Poisson { mean_interval_us } => {
                let u: f64 = rng.gen();
                let gap_us = -mean_interval_us.max(0.0) * (1.0 - u).ln();
                (gap_us * 1e3).round() as u64
            }
        }
    }
}

/// One shard's slice of one query: the hashed rows this GPU must gather.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardTask {
    /// Index of the query this task belongs to.
    pub query: u32,
    /// `(table, hashed row)` lookups, in draw order.
    pub lookups: Vec<(u32, u64)>,
}

/// A scenario phase transition observed while materialising a stream:
/// the first arrival at or after a rate-curve boundary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseChange {
    /// Arrival time at which the new phase was first observed, in ns.
    pub at_ns: u64,
    /// Phase index (count of boundaries crossed so far).
    pub phase: u32,
    /// The scenario's rate multiplier at that instant.
    pub rate_multiplier: f64,
    /// Distribution shifts applied up to and including that instant.
    pub shifts_applied: u64,
}

/// A fully materialised, seeded request stream, pre-partitioned per shard.
///
/// The server never builds one (see the module doc); it is the reference
/// the threaded server is tested against, and the input of offline cache
/// replays.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestStream {
    /// Arrival time of each query, in nanoseconds (non-decreasing).
    pub arrivals_ns: Vec<u64>,
    /// Per shard, the tasks in query order.
    pub shard_tasks: Vec<Vec<ShardTask>>,
    /// Total row lookups across all queries and shards.
    pub total_lookups: u64,
}

impl RequestStream {
    /// Generates `queries` batched requests of `batch` samples each, routing
    /// every table's lookups to its owning shard (`gpu_of`).
    ///
    /// # Panics
    ///
    /// Panics if `gpu_of` disagrees with the model's feature count, routes to
    /// an out-of-range shard, or `batch == 0`.
    pub fn generate(
        model: &ModelSpec,
        gpu_of: &[usize],
        num_shards: usize,
        queries: u32,
        batch: usize,
        arrival: ArrivalModel,
        seed: u64,
    ) -> Self {
        let arrivals_ns = schedule(queries, arrival, seed, None);
        Self::collect(model, gpu_of, num_shards, batch, seed, arrivals_ns, None)
    }

    /// Like [`generate`](Self::generate), but modulated by a scenario: gaps
    /// are scaled by the spec's rate curves at each arrival's virtual time,
    /// and distribution shifts re-derive the hashers and samplers from
    /// [`ScenarioSpec::model_after`] for every query that arrives once they
    /// are due. Returns the phase transitions alongside the stream so
    /// callers can trace them.
    ///
    /// A stationary scenario reproduces [`generate`](Self::generate)
    /// bit-for-bit.
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidScenario`] if the spec fails
    /// [`ScenarioSpec::validate`].
    ///
    /// # Panics
    ///
    /// As [`generate`](Self::generate).
    #[allow(clippy::too_many_arguments)]
    // recshard-lint: allow(test-only-pub) -- the materialised stream the
    // threaded scenario server is checked against.
    pub fn generate_scenario(
        model: &ModelSpec,
        gpu_of: &[usize],
        num_shards: usize,
        queries: u32,
        batch: usize,
        arrival: ArrivalModel,
        seed: u64,
        scenario: &ScenarioSpec,
    ) -> Result<(Self, Vec<PhaseChange>), ServeError> {
        scenario.validate().map_err(ServeError::InvalidScenario)?;
        let arrivals_ns = schedule(queries, arrival, seed, Some(scenario));
        let phase_changes = phase_changes(&arrivals_ns, scenario);
        let stream = Self::collect(
            model,
            gpu_of,
            num_shards,
            batch,
            seed,
            arrivals_ns,
            Some(scenario),
        );
        Ok((stream, phase_changes))
    }

    /// Runs every shard's task generator in turn and keeps its tasks.
    fn collect(
        model: &ModelSpec,
        gpu_of: &[usize],
        num_shards: usize,
        batch: usize,
        seed: u64,
        arrivals_ns: Vec<u64>,
        scenario: Option<&ScenarioSpec>,
    ) -> Self {
        assert_eq!(gpu_of.len(), model.num_features(), "routing/model mismatch");
        assert!(batch > 0, "a query must contain at least one sample");
        assert!(
            gpu_of.iter().all(|&g| g < num_shards),
            "routing targets an out-of-range shard"
        );
        let shard_tasks: Vec<Vec<ShardTask>> = (0..num_shards)
            .map(|shard| {
                shard_tasks(model, gpu_of, shard, batch, seed, &arrivals_ns, scenario)
                    .map(|(query, _, lookups)| ShardTask { query, lookups })
                    .collect()
            })
            .collect();
        let total_lookups = shard_tasks
            .iter()
            .flatten()
            .map(|task| task.lookups.len() as u64)
            .sum();
        Self {
            arrivals_ns,
            shard_tasks,
            total_lookups,
        }
    }

    /// Number of queries in the stream.
    pub fn queries(&self) -> u32 {
        self.arrivals_ns.len() as u32
    }
}

/// The arrival time of each of `queries` queries, drawn from the arrival
/// RNG alone. Every shard shares this schedule.
pub(crate) fn schedule(
    queries: u32,
    arrival: ArrivalModel,
    seed: u64,
    scenario: Option<&ScenarioSpec>,
) -> Vec<u64> {
    let mut arrival_rng = StdRng::seed_from_u64(seed ^ 0x5E2E_A221_7A1C_0FFE);
    let mut arrivals_ns = Vec::with_capacity(queries as usize);
    let mut now = 0u64;
    for _ in 0..queries {
        arrivals_ns.push(now);
        let mut gap = arrival.next_gap_ns(&mut arrival_rng);
        if let Some(spec) = scenario {
            gap = spec.scaled_gap_ns(gap, now);
        }
        // Saturates: a huge gap pins the clock at `u64::MAX` ns instead of
        // wrapping, so arrivals never decrease.
        now = now.saturating_add(gap);
    }
    arrivals_ns
}

/// The scenario phase changes that `arrivals_ns` cross: each is the first
/// arrival at or after a rate-curve boundary.
fn phase_changes(arrivals_ns: &[u64], scenario: &ScenarioSpec) -> Vec<PhaseChange> {
    let boundaries = scenario.boundaries_ns();
    let mut phase = 0u32;
    let mut changes = Vec::new();
    for &now in arrivals_ns {
        let now_phase = boundaries.iter().filter(|&&b| b <= now).count() as u32;
        if now_phase > phase {
            phase = now_phase;
            changes.push(PhaseChange {
                at_ns: now,
                phase,
                rate_multiplier: scenario.rate_multiplier(now),
                shifts_applied: scenario.shifts_due(now) as u64,
            });
        }
    }
    changes
}

/// One shard's tasks, in query order: for each query that touches the
/// shard, `(query, arrival_ns, (table, hashed row) lookups)`. Each of the
/// shard's tables draws its `batch` samples of a query from the stream
/// keyed `(seed, query, table)`; a scenario shift due at an arrival
/// rebuilds the shard's own samplers and hashers.
pub(crate) fn shard_tasks<'a>(
    model: &'a ModelSpec,
    gpu_of: &'a [usize],
    shard: usize,
    batch: usize,
    seed: u64,
    arrivals_ns: &'a [u64],
    scenario: Option<&'a ScenarioSpec>,
) -> impl Iterator<Item = (u32, u64, Vec<(u32, u64)>)> + 'a {
    let own_tables = move |model: &ModelSpec| -> Vec<(u32, FeatureSampler, FeatureHasher)> {
        (model.features().iter().zip(gpu_of).enumerate())
            .filter(|&(_, (_, &gpu))| gpu == shard)
            .map(|(t, (spec, _))| (t as u32, FeatureSampler::guided(spec), spec.hasher()))
            .collect()
    };
    let mut tables = own_tables(model);
    let (mut shifts, mut capacity) = (0, 0);
    (0u32..)
        .zip(arrivals_ns)
        .filter_map(move |(query, &arrival_ns)| {
            if let Some(spec) = scenario {
                let due = spec.shifts_due(arrival_ns);
                if due > shifts {
                    shifts = due;
                    tables = own_tables(&spec.model_after(model, due));
                }
            }
            let mut lookups = Vec::with_capacity(capacity);
            for (t, sampler, hasher) in &tables {
                let key = [seed, u64::from(query), u64::from(*t)];
                sampler.draw_keyed(&key, batch, |v| lookups.push((*t, hasher.hash(v))));
            }
            capacity = lookups.len().max(capacity);
            (!lookups.is_empty()).then_some((query, arrival_ns, lookups))
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::hash_placement;
    use std::collections::BTreeMap;

    fn stream(seed: u64) -> (ModelSpec, RequestStream) {
        let model = ModelSpec::small(6, 4);
        let gpu_of: Vec<usize> = (0..model.num_features()).map(|t| t % 2).collect();
        let s = RequestStream::generate(
            &model,
            &gpu_of,
            2,
            50,
            4,
            ArrivalModel::FixedRate { interval_us: 10.0 },
            seed,
        );
        (model, s)
    }

    #[test]
    fn deterministic_per_seed() {
        let (_, a) = stream(7);
        let (_, b) = stream(7);
        assert_eq!(a, b);
        let (_, c) = stream(8);
        assert_ne!(a, c);
    }

    #[test]
    fn lookups_are_hashed_and_routed_to_owners() {
        let (model, s) = stream(3);
        assert_eq!(s.shard_tasks.len(), 2);
        let mut seen = 0u64;
        for (shard, tasks) in s.shard_tasks.iter().enumerate() {
            for task in tasks {
                assert!(!task.lookups.is_empty());
                for &(t, row) in &task.lookups {
                    assert_eq!(t as usize % 2, shard, "lookup on the wrong shard");
                    assert!(row < model.features()[t as usize].hash_size);
                    seen += 1;
                }
            }
        }
        assert_eq!(seen, s.total_lookups);
        assert!(seen > 0);
    }

    #[test]
    fn fixed_rate_arrivals_are_evenly_spaced() {
        let (_, s) = stream(1);
        assert_eq!(s.queries(), 50);
        for w in s.arrivals_ns.windows(2) {
            assert_eq!(w[1] - w[0], 10_000);
        }
    }

    #[test]
    fn huge_arrival_gaps_saturate_the_clock() {
        // 1e16 µs is 1e19 ns per gap: the second gap would overflow u64.
        let model = ModelSpec::small(6, 4);
        let gpu_of: Vec<usize> = (0..model.num_features()).map(|t| t % 2).collect();
        let arrival = ArrivalModel::FixedRate { interval_us: 1e16 };
        assert_eq!(arrival.validate(), Ok(()));
        let s = RequestStream::generate(&model, &gpu_of, 2, 5, 2, arrival, 1);
        assert_eq!(s.arrivals_ns[..2], [0, 10_000_000_000_000_000_000]);
        assert!(s.arrivals_ns.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(s.arrivals_ns[4], u64::MAX);
    }

    #[test]
    fn poisson_gaps_average_the_mean() {
        let mut rng = StdRng::seed_from_u64(5);
        let a = ArrivalModel::Poisson {
            mean_interval_us: 40.0,
        };
        let n = 20_000;
        let total: u64 = (0..n).map(|_| a.next_gap_ns(&mut rng)).sum();
        let mean_us = total as f64 / n as f64 / 1e3;
        assert!(
            (mean_us - 40.0).abs() < 2.0,
            "Poisson mean gap {mean_us} far from 40"
        );
    }

    #[test]
    fn tasks_are_in_query_order() {
        let (_, s) = stream(11);
        for tasks in &s.shard_tasks {
            for w in tasks.windows(2) {
                assert!(w[0].query < w[1].query);
            }
        }
    }

    #[test]
    fn stationary_scenario_matches_plain_generate() {
        let (model, plain) = stream(7);
        let gpu_of: Vec<usize> = (0..model.num_features()).map(|t| t % 2).collect();
        let (s, phases) = RequestStream::generate_scenario(
            &model,
            &gpu_of,
            2,
            50,
            4,
            ArrivalModel::FixedRate { interval_us: 10.0 },
            7,
            &ScenarioSpec::stationary(),
        )
        .unwrap();
        assert_eq!(s, plain, "stationary scenario must replay bit-identically");
        assert!(phases.is_empty());
    }

    #[test]
    fn flash_crowd_compresses_gaps_and_reports_phases() {
        let model = ModelSpec::small(6, 4);
        let gpu_of: Vec<usize> = (0..model.num_features()).map(|t| t % 2).collect();
        // 200 queries at a 10 µs base gap; 2x flash from 0.5 ms to 1.0 ms.
        let spec = ScenarioSpec::flash_crowd(0.5e-3, 0.5e-3, 2.0);
        let run = || {
            RequestStream::generate_scenario(
                &model,
                &gpu_of,
                2,
                200,
                4,
                ArrivalModel::FixedRate { interval_us: 10.0 },
                7,
                &spec,
            )
            .unwrap()
        };
        let (a, pa) = run();
        let (b, pb) = run();
        assert_eq!(a, b, "scenario streams must be deterministic per seed");
        assert_eq!(pa, pb);
        assert_eq!(pa.len(), 2, "both flash boundaries must be crossed");
        assert_eq!(pa[0].phase, 1);
        assert_eq!(pa[0].rate_multiplier, 2.0);
        assert_eq!(pa[0].shifts_applied, 1, "the hot-key shift rides the flash");
        assert_eq!(pa[1].phase, 2);
        assert_eq!(pa[1].rate_multiplier, 1.0);
        // Inside the flash window the fixed 10 µs gap halves to 5 µs.
        assert_eq!(a.arrivals_ns[51] - a.arrivals_ns[50], 5_000);
        assert_eq!(a.arrivals_ns[1] - a.arrivals_ns[0], 10_000);
        assert_eq!(a.arrivals_ns[199] - a.arrivals_ns[198], 10_000);
        // The hot-key shift re-derives the sampled stream.
        let plain_long = RequestStream::generate(
            &model,
            &gpu_of,
            2,
            200,
            4,
            ArrivalModel::FixedRate { interval_us: 10.0 },
            7,
        );
        assert_ne!(a.shard_tasks, plain_long.shard_tasks);
    }

    #[test]
    fn invalid_scenario_is_a_typed_error() {
        let model = ModelSpec::small(6, 4);
        let gpu_of = vec![0; model.num_features()];
        let bad = ScenarioSpec::flash_crowd(0.5e-3, 0.5e-3, -2.0);
        let result = RequestStream::generate_scenario(
            &model,
            &gpu_of,
            1,
            10,
            4,
            ArrivalModel::FixedRate { interval_us: 10.0 },
            7,
            &bad,
        );
        assert!(matches!(result, Err(ServeError::InvalidScenario(_))));
    }

    /// Every `(query, table)`'s rows, in draw order.
    fn by_table(stream: &RequestStream) -> BTreeMap<(u32, u32), Vec<u64>> {
        let mut rows: BTreeMap<(u32, u32), Vec<u64>> = BTreeMap::new();
        for task in stream.shard_tasks.iter().flatten() {
            for &(t, row) in &task.lookups {
                rows.entry((task.query, t)).or_default().push(row);
            }
        }
        rows
    }

    #[test]
    fn lookups_are_independent_of_the_placement() {
        let model = ModelSpec::small(9, 4);
        let spec = ScenarioSpec::flash_crowd(0.2e-3, 0.3e-3, 2.0);
        let arrival = ArrivalModel::FixedRate { interval_us: 10.0 };
        let generate = |shards: usize| {
            let gpu_of = hash_placement(&model, shards).gpu_assignments();
            let plain = RequestStream::generate(&model, &gpu_of, shards, 80, 4, arrival, 5);
            let (shifted, _) =
                RequestStream::generate_scenario(&model, &gpu_of, shards, 80, 4, arrival, 5, &spec)
                    .unwrap();
            (by_table(&plain), by_table(&shifted))
        };
        let two = generate(2);
        assert!(!two.0.is_empty());
        assert_eq!(two, generate(3));
        // One table per shard: each table's stream drawn on its own.
        assert_eq!(two, generate(model.num_features()));
        // Each shard's generator alone draws exactly its share.
        let gpu_of = hash_placement(&model, 3).gpu_assignments();
        let arrivals = schedule(80, arrival, 5, None);
        let one_shard: Vec<_> = shard_tasks(&model, &gpu_of, 1, 4, 5, &arrivals, None)
            .map(|(query, _, lookups)| ShardTask { query, lookups })
            .collect();
        let full = RequestStream::generate(&model, &gpu_of, 3, 80, 4, arrival, 5);
        assert_eq!(one_shard, full.shard_tasks[1]);
    }
}
