//! Workload-scenario trajectory: seeded scenario × placement sweep emitting
//! the tracked `BENCH_scenarios.json` artifact.
//!
//! Runs the four placement strategies under the four canonical traffic
//! scenarios (stationary, diurnal, flash crowd, drift storm) through both
//! the discrete-event trainer — with the online re-sharding controller
//! attached — and the inference server, under identical seeds. Everything
//! in the JSON is a pure function of the sweep configuration and seed
//! **except** the wall-clock fields (`wall_ms`, `events_per_sec`), which
//! are only written under `RECSHARD_BENCH_TIMING=1` — otherwise a `-1`
//! sentinel keeps the artifact byte-stable, the same contract as
//! `BENCH_des.json`.
//!
//! The sweep asserts its acceptance criteria in-line: the flash crowd must
//! inflate every placement's DES p99 over its stationary run, the drift
//! storm must trigger at least one controller re-shard, and stationary
//! traffic must trigger none.
//!
//! Gates (see `recshard_bench::artifact`): with `RECSHARD_BENCH_BASELINE`
//! set, the run fails on DES *or* serve fingerprint drift
//! (`RECSHARD_BENCH_ALLOW_DRIFT=1` acknowledges intended drift) and, when
//! both sides are timed, on DES events/sec regressions beyond 25%.
//!
//! Observability export: when `RECSHARD_OBS_DIR` is set, the flash-crowd
//! RecShard point re-runs once with a collector attached and writes
//! `scenario_trace.jsonl`, `scenario_trace.chrome.json` and
//! `scenario_metrics.json` there — the trace carries the run's
//! `scenario_phase` events.

#![allow(clippy::print_stdout)]
use recshard_bench::artifact::{export_obs, timing_from_env, Baseline, BaselineError};
use recshard_bench::report::RunReport;
use recshard_bench::scenario_bench::{
    run_sweep, traced_smoke, ScenarioBenchConfig, SCENARIOS, SPEC,
};

fn main() -> Result<(), BaselineError> {
    let cfg = ScenarioBenchConfig {
        include_timing: timing_from_env(),
        ..ScenarioBenchConfig::full()
    };
    println!(
        "# scenario_bench: {} tables x {} GPUs, scenarios {:?} x 4 placements, \
         {} DES iterations + {} serve queries, seed {:#x}, timing {}",
        cfg.tables,
        cfg.gpus,
        SCENARIOS,
        cfg.iterations,
        cfg.serve_queries,
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
    export_obs("scenario", || traced_smoke(&cfg)).expect("export observability artifacts");
    std::fs::write(SPEC.file, artifact.to_json()).expect("write BENCH_scenarios.json");
    println!();
    let mut summary = RunReport::new("scenario_bench");
    summary
        .push("sweep points", report.points.len())
        .push_fingerprint("report fingerprint", artifact.fingerprint());
    print!("{summary}");
    println!("wrote BENCH_scenarios.json");
    Ok(())
}
