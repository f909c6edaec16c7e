//! Online-serving comparison: placement × cache-policy matrix under
//! identical seeded request streams.
//!
//! This is the inference-side counterpart of `scenario_bench`'s DES rows:
//! instead of replaying training iterations, a multi-threaded serving layer
//! (`recshard-serve`) answers batched embedding queries with each GPU
//! shard's HBM acting as a managed cache over UVM. The matrix crosses three
//! placements (hash, size-proportional greedy, RecShard) with three cache
//! policies (LRU, LFU, StatGuided — the profile-driven policy that pins
//! each table's rows above the CDF knee and gates admission of unprofiled
//! rows), all fed the *same* seeded Zipf request stream at the same
//! open-loop arrival rate.
//!
//! The claims this binary demonstrates (and asserts):
//!
//! * StatGuided on the RecShard placement strictly beats LRU on hash
//!   placement on both hit rate and p99 latency,
//! * the stat-guided run's measured hit rate is non-zero, and
//! * replaying the winning configuration with the same seed reproduces the
//!   identical report, fingerprint included.
//!
//! The matrix is written to the tracked `BENCH_serve.json` artifact (see
//! `recshard_bench::serve_bench`): hit rate, p50, p99 and the report
//! fingerprint of every cell, plus wall queries/sec under
//! `RECSHARD_BENCH_TIMING=1` (otherwise a `-1` sentinel keeps the file
//! byte-stable). With `RECSHARD_BENCH_BASELINE` set, the run fails on
//! fingerprint drift (`RECSHARD_BENCH_ALLOW_DRIFT=1` acknowledges intended
//! drift) and, when both sides are timed, on queries/sec regressions beyond
//! 25%.

#![allow(clippy::print_stdout)]
use recshard_bench::artifact::{timing_from_env, Baseline, BaselineError};
use recshard_bench::print_row;
use recshard_bench::report::{determinism_report, RunReport};
use recshard_bench::serve_bench::{run_sweep, ServeBenchConfig, SPEC};
use recshard_serve::PolicyKind;

fn main() -> Result<(), BaselineError> {
    let cfg = ServeBenchConfig {
        include_timing: timing_from_env(),
        ..ServeBenchConfig::full()
    };
    let baseline = Baseline::from_env(&SPEC)?;
    let sweep = run_sweep(&cfg);
    let shards = cfg.shards as u64;
    println!(
        "# Online serving: {} tables, {shards} GPU shards, {} queries \
         (batch {}, {} warmup), arrivals every {:.1} µs \
         (identical stream per cell)",
        cfg.tables, cfg.queries, cfg.batch, cfg.warmup, sweep.interval_us
    );
    println!(
        "# HBM cache per shard: {:.1} MiB ({:.0}% of a fair share of the model)",
        sweep.cache_bytes as f64 / (1 << 20) as f64,
        100.0 * sweep.cache_bytes as f64 / (sweep.model_bytes as f64 / shards as f64)
    );
    println!();
    let header = [
        "placement",
        "policy",
        "hit rate",
        "p50 ms",
        "p95 ms",
        "p99 ms",
        "qps",
    ];
    print_row(&header.map(String::from));
    print_row(&header.map(|_| "---".to_string()));
    for cell in &sweep.cells {
        let r = &cell.report;
        print_row(&[
            cell.placement.into(),
            cell.policy.label().into(),
            format!("{:.1}%", r.hit_rate * 100.0),
            format!("{:.3}", r.p50_ms),
            format!("{:.3}", r.p95_ms),
            format!("{:.3}", r.p99_ms),
            format!("{:.0}", r.throughput_qps),
        ]);
    }

    let find = |placement, policy| sweep.cell(placement, policy).expect("cell");
    let best = &find("recshard", PolicyKind::StatGuided).report;
    let hash_lru = &find("hash", PolicyKind::Lru).report;
    // Determinism: replaying the winning cell with the same seed must
    // reproduce the identical report.
    println!();
    print!(
        "{}",
        determinism_report(
            "StatGuided-on-RecShard replay",
            best.fingerprint,
            sweep.replay_fingerprint
        )
    );

    assert!(best.hit_rate > 0.0, "stat-guided hit rate must be non-zero");
    assert!(
        best.hit_rate > hash_lru.hit_rate,
        "StatGuided-on-RecShard hit rate {:.3} must strictly beat LRU-on-hash {:.3}",
        best.hit_rate,
        hash_lru.hit_rate
    );
    assert!(
        best.p99_ms < hash_lru.p99_ms,
        "StatGuided-on-RecShard p99 {:.3} ms must strictly beat LRU-on-hash {:.3} ms",
        best.p99_ms,
        hash_lru.p99_ms
    );
    let artifact = sweep.artifact();
    baseline.check(&artifact)?;
    std::fs::write(SPEC.file, artifact.to_json()).expect("write BENCH_serve.json");

    let mut footer = RunReport::new("serve_qps: StatGuided-on-RecShard vs LRU-on-hash");
    footer
        .push(
            "hit rate",
            format!(
                "{:.1}% vs {:.1}%",
                best.hit_rate * 100.0,
                hash_lru.hit_rate * 100.0
            ),
        )
        .push(
            "p99 ms",
            format!("{:.3} vs {:.3}", best.p99_ms, hash_lru.p99_ms),
        )
        .push("wins on both", true)
        .push_fingerprint("report fingerprint", artifact.fingerprint());
    if cfg.include_timing {
        let qps = find("recshard", PolicyKind::StatGuided).queries_per_sec;
        footer.push("StatGuided-on-RecShard wall queries/s", format!("{qps:.0}"));
    }
    print!("{footer}");
    println!(
        "The profiled CDF knee pins {:.1} MiB of head rows per run and refuses \
         one-hit wonders, so tail traffic cannot churn the head out of HBM — the \
         serving-side payoff of the paper's statistical placement argument.",
        best.cache.pinned_bytes as f64 / (1 << 20) as f64
    );
    println!("wrote {}", SPEC.file);
    Ok(())
}
