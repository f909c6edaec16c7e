//! The batched inference request front-end.
//!
//! Online queries look like training samples without labels: a batch of
//! users/items, each contributing multi-hot sparse features. The stream is
//! produced by the *same* coverage/pooling/Zipf machinery the rest of the
//! reproduction uses ([`SampleGenerator`]), hashed by the same per-table
//! hashers, and routed to GPU shards by the active sharding plan — so the
//! serving layer sees exactly the access skew the profile measured.
//!
//! Generation is fully seeded: a `(model, seed, arrival, batch, count)`
//! tuple always produces the identical stream, which is what makes serving
//! runs fingerprint-stable.
//!
//! One generator core feeds two sinks. [`RequestStream::generate`] collects
//! a *fully materialised* stream: every query's `(table, row)` lookups, per
//! shard, resident at once (about 16 bytes per lookup). The server does not
//! build one: [`InferenceServer::run`](crate::InferenceServer::run) drives
//! the same core and hands each query's per-shard lookups to the shard
//! workers in fixed-size chunks as they are drawn, so only a few chunks are
//! ever resident. Values are drawn through
//! [`SampleGenerator::with_guides`] and visited in place
//! ([`SampleGenerator::sample_each`]), so drawing builds no per-sample
//! `Vec`s; the guided draws return exactly the unguided values.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use recshard_data::{ModelSpec, SampleGenerator, ScenarioSpec};
use serde::{Deserialize, Serialize};
use std::ops::ControlFlow;

/// Salt mixed into the stream seed when a scenario shift re-derives the
/// sample generator, so each applied-shift count gets an independent but
/// fully seeded continuation of the stream.
const SHIFT_SEED_SALT: u64 = 0x9E37_79B9_7F4A_7C15;

/// How inference requests arrive at the server (open loop).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
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

    /// The mean arrival interval in microseconds.
    pub fn mean_interval_us(&self) -> f64 {
        match *self {
            ArrivalModel::FixedRate { interval_us } => interval_us,
            ArrivalModel::Poisson { mean_interval_us } => mean_interval_us,
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
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
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
/// the pipelined server is tested against, and the input of offline cache
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
        Self::collect(
            model, gpu_of, num_shards, queries, batch, arrival, seed, None,
        )
        .0
    }

    /// Like [`generate`](Self::generate), but modulated by a scenario: gaps
    /// are scaled by the spec's rate curves at each arrival's virtual time,
    /// and distribution shifts re-derive the hashers and sample generator
    /// from [`ScenarioSpec::model_after`] the moment they fall due. Returns
    /// the phase transitions alongside the stream so callers can trace them.
    ///
    /// A stationary scenario reproduces [`generate`](Self::generate)
    /// bit-for-bit.
    ///
    /// # Panics
    ///
    /// As [`generate`](Self::generate), plus if the spec fails
    /// [`ScenarioSpec::validate`].
    #[allow(clippy::too_many_arguments)]
    pub fn generate_scenario(
        model: &ModelSpec,
        gpu_of: &[usize],
        num_shards: usize,
        queries: u32,
        batch: usize,
        arrival: ArrivalModel,
        seed: u64,
        scenario: &ScenarioSpec,
    ) -> (Self, Vec<PhaseChange>) {
        if let Err(e) = scenario.validate() {
            panic!("invalid scenario spec: {e}");
        }
        Self::collect(
            model,
            gpu_of,
            num_shards,
            queries,
            batch,
            arrival,
            seed,
            Some(scenario),
        )
    }

    /// The materialising sink: moves every query's non-empty per-shard
    /// lookups into that shard's task list.
    #[allow(clippy::too_many_arguments)]
    fn collect(
        model: &ModelSpec,
        gpu_of: &[usize],
        num_shards: usize,
        queries: u32,
        batch: usize,
        arrival: ArrivalModel,
        seed: u64,
        scenario: Option<&ScenarioSpec>,
    ) -> (Self, Vec<PhaseChange>) {
        let mut stream = Self {
            arrivals_ns: Vec::with_capacity(queries as usize),
            shard_tasks: vec![Vec::new(); num_shards],
            total_lookups: 0,
        };
        let phase_changes = Self::generate_with(
            model,
            gpu_of,
            num_shards,
            queries,
            batch,
            arrival,
            seed,
            scenario,
            |query, arrival_ns, per_shard| {
                stream.arrivals_ns.push(arrival_ns);
                for (tasks, lookups) in stream.shard_tasks.iter_mut().zip(per_shard) {
                    if !lookups.is_empty() {
                        stream.total_lookups += lookups.len() as u64;
                        tasks.push(ShardTask {
                            query,
                            lookups: take_lookups(lookups),
                        });
                    }
                }
                ControlFlow::Continue(())
            },
        );
        (stream, phase_changes)
    }

    /// The generator core. For each query in order it draws the arrival
    /// time and the query's lookups, partitioned per shard, and calls
    /// `emit(query, arrival_ns, per_shard)`. The core clears the buffers
    /// before each query; the sink may move them out. Generation stops early
    /// when `emit` breaks. Returns the scenario phase changes seen so far.
    ///
    /// # Panics
    ///
    /// As [`generate`](Self::generate).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn generate_with(
        model: &ModelSpec,
        gpu_of: &[usize],
        num_shards: usize,
        queries: u32,
        batch: usize,
        arrival: ArrivalModel,
        seed: u64,
        scenario: Option<&ScenarioSpec>,
        mut emit: impl FnMut(u32, u64, &mut [Vec<(u32, u64)>]) -> ControlFlow<()>,
    ) -> Vec<PhaseChange> {
        assert_eq!(gpu_of.len(), model.num_features(), "routing/model mismatch");
        assert!(batch > 0, "a query must contain at least one sample");
        assert!(
            gpu_of.iter().all(|&g| g < num_shards),
            "routing targets an out-of-range shard"
        );
        let mut hashers: Vec<_> = model.features().iter().map(|f| f.hasher()).collect();
        let mut gen = SampleGenerator::with_guides(model, seed);
        let mut arrival_rng = StdRng::seed_from_u64(seed ^ 0x5E2E_A221_7A1C_0FFE);
        let boundaries = scenario.map(|s| s.boundaries_ns()).unwrap_or_default();
        let mut applied = 0usize;
        let mut phase = 0u32;
        let mut phase_changes = Vec::new();

        let mut now = 0u64;
        let mut per_shard: Vec<Vec<(u32, u64)>> = vec![Vec::new(); num_shards];
        for q in 0..queries {
            let arrival_ns = now;
            if let Some(spec) = scenario {
                // Shifts due at or before this arrival rebuild the sampling
                // state; the shifted stream stays fully seeded because the
                // generator seed is derived from (seed, applied).
                let due = spec.shifts_due(now);
                if due > applied {
                    applied = due;
                    let shifted = spec.model_after(model, applied);
                    hashers = shifted.features().iter().map(|f| f.hasher()).collect();
                    gen = SampleGenerator::with_guides(
                        &shifted,
                        seed ^ (applied as u64).wrapping_mul(SHIFT_SEED_SALT),
                    );
                }
                let now_phase = boundaries.iter().filter(|&&b| b <= now).count() as u32;
                if now_phase > phase {
                    phase = now_phase;
                    phase_changes.push(PhaseChange {
                        at_ns: now,
                        phase,
                        rate_multiplier: spec.rate_multiplier(now),
                        shifts_applied: applied as u64,
                    });
                }
            }
            let mut gap = arrival.next_gap_ns(&mut arrival_rng);
            if let Some(spec) = scenario {
                gap = spec.scaled_gap_ns(gap, now);
            }
            now += gap;
            for slot in &mut per_shard {
                slot.clear();
            }
            for _ in 0..batch {
                gen.sample_each(|t, v| per_shard[gpu_of[t]].push((t as u32, hashers[t].hash(v))));
            }
            if emit(q, arrival_ns, &mut per_shard).is_break() {
                break;
            }
        }
        phase_changes
    }

    /// Number of queries in the stream.
    pub fn queries(&self) -> u32 {
        self.arrivals_ns.len() as u32
    }
}

/// Moves a query's lookups out of a generator buffer, leaving an empty one
/// sized for the next query (consecutive queries draw similar counts).
pub(crate) fn take_lookups(buffer: &mut Vec<(u32, u64)>) -> Vec<(u32, u64)> {
    let capacity = buffer.len();
    std::mem::replace(buffer, Vec::with_capacity(capacity))
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert_eq!(a.mean_interval_us(), 40.0);
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
        );
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
}
