//! DES throughput trajectory: seeded iterations/sec sweep emitting the
//! tracked `BENCH_des.json` artifact.
//!
//! Runs the RecShard plan for the canonical skewed workload through the
//! discrete-event cluster simulator at 4 and 16 GPUs, flat and with the
//! two-level node topology, under identical seeds. Everything in the JSON
//! is a pure function of the sweep configuration and seed **except** the
//! wall-clock fields (`wall_ms`, `iters_per_sec`, `events_per_sec`), which
//! are only written under `RECSHARD_BENCH_TIMING=1` — otherwise a `-1`
//! sentinel keeps the artifact byte-stable, the same contract as
//! `BENCH_solver.json`.
//!
//! A `contention` sweep rides along (uniform + incast scenarios, FIFO and
//! shared-rate contention modes) and is serialised into the artifact's
//! `contention` section, with `wall_ms` and `iters_per_sec` under the same
//! timing rule. Both sections record `events_per_iter`.
//!
//! Gates (see `recshard_bench::artifact`): with `RECSHARD_BENCH_BASELINE`
//! set, the run fails on event-log fingerprint drift in either section
//! (`RECSHARD_BENCH_ALLOW_DRIFT=1` acknowledges intended drift) and, when
//! both sides are timed, on wall iterations/sec regressions beyond 25% in
//! either section (events/sec is reported alongside, ungated).
//!
//! Observability export: when `RECSHARD_OBS_DIR` is set, the sweep's
//! smallest flat point re-runs once with a collector attached and writes
//! `des_trace.jsonl`, `des_trace.chrome.json` (load it in
//! `chrome://tracing` or Perfetto) and `des_metrics.json` there.

#![allow(clippy::print_stdout)]
use recshard_bench::artifact::{export_obs, timing_from_env, Baseline, BaselineError};
use recshard_bench::des_bench::{run_sweep, traced_smoke, DesBenchConfig, SPEC};
use recshard_bench::report::RunReport;

fn main() -> Result<(), BaselineError> {
    let cfg = DesBenchConfig {
        include_timing: timing_from_env(),
        ..DesBenchConfig::full()
    };
    println!(
        "# des_bench: {} tables x gpus {:?} (flat + hierarchical), {} iterations, \
         batch {}, seed {:#x}, timing {}",
        cfg.tables,
        cfg.gpu_counts,
        cfg.iterations,
        cfg.batch_size,
        cfg.seed,
        if cfg.include_timing {
            "in JSON"
        } else {
            "stdout only"
        }
    );
    let baseline = Baseline::from_env(&SPEC)?;
    let report = run_sweep(&cfg);
    let artifact = report.artifact();
    baseline.check(&artifact)?;
    export_obs("des", || traced_smoke(&cfg)).expect("export observability artifacts");
    std::fs::write(SPEC.file, artifact.to_json()).expect("write BENCH_des.json");
    println!();
    let mut summary = RunReport::new("des_bench");
    summary
        .push("sweep points", report.points.len())
        .push("contention points", report.contention.len())
        .push_fingerprint("report fingerprint", artifact.fingerprint());
    print!("{summary}");
    println!("wrote BENCH_des.json");
    Ok(())
}
