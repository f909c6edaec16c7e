//! The `serve_qps` sweep: the tracked online-serving artifact
//! (`BENCH_serve.json`).
//!
//! Crosses three placements (hash, size-proportional greedy, RecShard)
//! with the three cache policies (LRU, LFU, StatGuided), all served the
//! same seeded request stream at the same open-loop arrival rate. The rate
//! is calibrated once: the unloaded StatGuided-on-RecShard median plus 10%
//! headroom. Each cell records its hit rate, its latency tails in virtual
//! time and its report fingerprint, all pure functions of the seed, plus
//! queries served per wall second. That rate is only written into the JSON
//! under `RECSHARD_BENCH_TIMING=1` (otherwise the timing sentinel keeps the
//! artifact byte-stable; see [`crate::artifact`]).
//!
//! [`SPEC`] gates the artifact on report fingerprint drift and on a 25%
//! floor on wall queries/sec.

use crate::artifact::{best_of, recorded, row, Artifact, Better, PerfGate, Row, Spec};
use crate::{skewed_model, Strategy};
use recshard_serve::{
    hash_placement, ArrivalModel, InferenceServer, PolicyKind, ServeConfig, ServeReport,
};
use recshard_sharding::{ShardingPlan, SystemSpec};
use recshard_stats::DatasetProfiler;

/// The `BENCH_serve.json` artifact. A row's key holds every setting its
/// fingerprint depends on besides the seed, so a sweep run with other
/// settings compares nothing instead of drifting. The queries/sec floor is
/// as generous as `BENCH_des.json`'s, for the same reason: wall rates on
/// shared runners are noisy.
pub static SPEC: Spec = Spec {
    bench: "serve_qps",
    file: "BENCH_serve.json",
    sections: &[(
        "cells",
        &[
            "placement",
            "policy",
            "shards",
            "batch",
            "warmup",
            "queries",
        ],
    )],
    timing: &["queries_per_sec"],
    drift_gated: true,
    perf: &[PerfGate {
        metric: "queries_per_sec",
        better: Better::Higher,
        tolerance: 0.25,
    }],
};

/// Sweep configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeBenchConfig {
    /// Tables in the skewed workload.
    pub tables: usize,
    /// Synthetic samples profiled before sharding.
    pub profile_samples: usize,
    /// GPU shards.
    pub shards: usize,
    /// Measured queries per cell.
    pub queries: u32,
    /// Warm-up queries per cell, served before the measured ones.
    pub warmup: u32,
    /// Lookups batched per query.
    pub batch: usize,
    /// Seed of the profile and of every cell's request stream.
    pub seed: u64,
    /// Measure wall queries/sec into the JSON (breaks byte-stability
    /// across runs).
    pub include_timing: bool,
}

impl ServeBenchConfig {
    /// The tracked sweep: 48 tables on 4 shards, 20,000 queries per cell.
    pub fn full() -> Self {
        Self {
            tables: 48,
            profile_samples: 12_000,
            shards: 4,
            queries: 20_000,
            warmup: 2_000,
            batch: 8,
            seed: 0x5E21,
            include_timing: false,
        }
    }

    /// A seconds-scale sweep for tests.
    pub fn tiny() -> Self {
        Self {
            tables: 12,
            profile_samples: 1_500,
            shards: 2,
            queries: 300,
            warmup: 100,
            batch: 4,
            seed: 0x5E21,
            include_timing: false,
        }
    }
}

/// One cell of the placement × policy matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeCell {
    /// `"hash"`, `"size"` or `"recshard"`.
    pub placement: &'static str,
    /// The cache policy of every shard.
    pub policy: PolicyKind,
    /// The cell's serving report.
    pub report: ServeReport,
    /// Warm-up plus measured queries per wall second (best repetition), or
    /// `-1` when untimed.
    pub queries_per_sec: f64,
}

impl ServeCell {
    /// The cell's `cells` row.
    pub fn row(&self) -> Row {
        let r = &self.report;
        row![
            placement: Str(self.placement.to_string()), policy: Str(self.policy.label().to_string()),
            shards: Int(r.shards as u64), batch: Int(r.batch_size as u64),
            warmup: Int(u64::from(r.warmup)), queries: Int(u64::from(r.queries)),
            hit_rate: Float(r.hit_rate), p50_ms: Float(r.p50_ms), p99_ms: Float(r.p99_ms),
            fingerprint: Fingerprint(r.fingerprint), queries_per_sec: Timing(self.queries_per_sec),
        ]
    }
}

/// The full sweep result.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeBenchReport {
    /// Seed the sweep ran under.
    pub seed: u64,
    /// Whether timing fields hold measurements.
    pub timed: bool,
    /// Embedding bytes of the whole model.
    pub model_bytes: u64,
    /// HBM cache bytes of each shard.
    pub cache_bytes: u64,
    /// The calibrated arrival gap every cell is served at, µs.
    pub interval_us: f64,
    /// The cells, placement outer, in [`PolicyKind::all`] order.
    pub cells: Vec<ServeCell>,
    /// The fingerprint of a second StatGuided-on-RecShard run.
    pub replay_fingerprint: u64,
}

impl ServeBenchReport {
    /// The `BENCH_serve.json` artifact.
    pub fn artifact(&self) -> Artifact {
        let rows = self.cells.iter().map(ServeCell::row).collect();
        Artifact::new(&SPEC, self.seed, self.timed, vec![rows])
    }

    /// The cell of `placement` and `policy`.
    pub fn cell(&self, placement: &str, policy: PolicyKind) -> Option<&ServeCell> {
        self.cells
            .iter()
            .find(|c| c.placement == placement && c.policy == policy)
    }
}

/// Runs the sweep.
///
/// # Panics
///
/// Panics if a timed cell's repetitions do not replay bit-identically.
pub fn run_sweep(cfg: &ServeBenchConfig) -> ServeBenchReport {
    let model = skewed_model(cfg.tables);
    let shards = cfg.shards;
    // Each shard's HBM cache holds ~1/24 of its fair share of the embedding
    // bytes; everything also lives in UVM. Which rows the cache keeps — and
    // which shard each table's traffic lands on — decides hit rate and tails.
    let system = SystemSpec::uniform(
        shards,
        model.total_bytes() / (24 * shards as u64),
        model.total_bytes(),
        1555.0,
        16.0,
    );
    let profile = DatasetProfiler::profile_model(&model, cfg.profile_samples, cfg.seed);
    let placements: [(&'static str, ShardingPlan); 3] = [
        ("hash", hash_placement(&model, shards)),
        ("size", Strategy::SizeBased.plan(&model, &profile, &system)),
        (
            "recshard",
            Strategy::RecShard.plan(&model, &profile, &system),
        ),
    ];
    let base = ServeConfig {
        queries: cfg.queries,
        warmup: cfg.warmup,
        batch_size: cfg.batch,
        seed: cfg.seed,
        ..ServeConfig::default()
    };
    let serve = |plan: &ShardingPlan, policy: PolicyKind, config: ServeConfig| {
        let config = ServeConfig { policy, ..config };
        InferenceServer::run(&model, plan, &profile, &system, config)
    };

    // Calibrate the arrival rate: unloaded StatGuided-on-RecShard median
    // plus 10% headroom. Every cell of the matrix is served at this rate.
    let recshard = &placements[2].1;
    let unloaded = serve(
        recshard,
        PolicyKind::StatGuided,
        ServeConfig {
            queries: 500,
            warmup: 200,
            arrival: ArrivalModel::FixedRate {
                interval_us: 1_000_000.0,
            },
            ..base
        },
    );
    let interval_us = unloaded.p50_ms * 1e3 * 1.10;
    let config = ServeConfig {
        arrival: ArrivalModel::FixedRate { interval_us },
        ..base
    };

    let mut cells = Vec::new();
    for (placement, plan) in &placements {
        for policy in PolicyKind::all() {
            let (report, wall_ms) = best_of(cfg.include_timing, || serve(plan, policy, config));
            let served = f64::from(cfg.warmup + cfg.queries);
            let queries_per_sec = served / (wall_ms / 1e3).max(1e-12);
            cells.push(ServeCell {
                placement,
                policy,
                report,
                queries_per_sec: recorded(cfg.include_timing, queries_per_sec),
            });
        }
    }
    let replay = serve(recshard, PolicyKind::StatGuided, config);
    ServeBenchReport {
        seed: cfg.seed,
        timed: cfg.include_timing,
        model_bytes: model.total_bytes(),
        cache_bytes: system.hbm_capacity(0),
        interval_us,
        cells,
        replay_fingerprint: replay.fingerprint,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::TIMING_DISABLED;

    #[test]
    fn tiny_sweep_is_deterministic_and_covers_the_matrix() {
        let cfg = ServeBenchConfig::tiny();
        let a = run_sweep(&cfg);
        assert_eq!(a, run_sweep(&cfg), "same seed must reproduce the sweep");
        assert_eq!(a.cells.len(), 9);
        let best = a.cell("recshard", PolicyKind::StatGuided).expect("cell");
        assert_eq!(a.replay_fingerprint, best.report.fingerprint);
        assert!(best.report.hit_rate > 0.0);
        for cell in &a.cells {
            assert_eq!(cell.report.queries, cfg.queries);
            assert_eq!(cell.queries_per_sec, TIMING_DISABLED);
        }
        let json = a.artifact().to_json();
        let parsed = Artifact::parse(&SPEC, &json).expect("the artifact parses");
        assert_eq!(parsed.to_json(), json);
    }

    #[test]
    fn timing_mode_changes_json_but_not_fingerprint() {
        let mut cfg = ServeBenchConfig {
            queries: 60,
            warmup: 20,
            ..ServeBenchConfig::tiny()
        };
        let untimed = run_sweep(&cfg).artifact();
        cfg.include_timing = true;
        let timed = run_sweep(&cfg);
        assert_ne!(untimed.to_json(), timed.artifact().to_json());
        assert_eq!(untimed.fingerprint(), timed.artifact().fingerprint());
        assert!(timed.cells.iter().all(|c| c.queries_per_sec > 0.0));
    }
}
