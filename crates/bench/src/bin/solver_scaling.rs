//! Solver scaling sweep: 100 → 5,000 tables × up to 16 GPUs under identical
//! seeds, emitting the tracked perf-trajectory artifact `BENCH_solver.json`.
//!
//! Four placement paths run per sweep point and are scored with the same
//! structured cost model (max per-GPU coverage-weighted milliseconds):
//!
//! * **greedy** — the size-lookup production baseline,
//! * **structured** — the default, unbucketed `StructuredSolver` (the
//!   reference the 1% acceptance bound is measured against),
//! * **scalable** — the same solver with CDF bucketing before split
//!   selection, and
//! * **hierarchical** — the two-level tables→nodes→GPUs solver.
//!
//! The sweep asserts, for every point: the scalable plan never costs more
//! than greedy, and stays within 1% of the structured reference. Wall-clock
//! times always print to stdout; they are only written into the JSON under
//! `RECSHARD_BENCH_TIMING=1` (otherwise a `-1` sentinel keeps the artifact
//! byte-identical across runs with the same seed — the determinism contract
//! locked by `tests/golden_fingerprints.rs`).
//!
//! Gates (see `recshard_bench::artifact`): with `RECSHARD_BENCH_BASELINE`
//! set, the run fails when a point's scalable or structured plan cost
//! exceeds the baseline's by more than 2% — not on mere plan-fingerprint
//! drift. Each gate prints how many points it compared.

#![allow(clippy::print_stdout)]
use recshard_bench::artifact::{timing_from_env, Baseline, BaselineError};
use recshard_bench::report::RunReport;
use recshard_bench::solver_bench::{run_sweep, SolverBenchConfig, SPEC};

fn main() -> Result<(), BaselineError> {
    let cfg = SolverBenchConfig {
        include_timing: timing_from_env(),
        ..SolverBenchConfig::full()
    };
    println!(
        "# solver_scaling: tables {:?} x gpus {:?}, {} profile samples, seed {:#x}, timing {}",
        cfg.table_counts,
        cfg.gpu_counts,
        cfg.profile_samples,
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
    std::fs::write(SPEC.file, artifact.to_json()).expect("write BENCH_solver.json");
    println!();
    let worst = report
        .points
        .iter()
        .map(|p| p.scalable_vs_structured)
        .fold(0.0f64, f64::max);
    let best_compression = report
        .points
        .iter()
        .map(|p| p.compression_ratio)
        .fold(0.0f64, f64::max);
    let hetero_worst = report
        .hetero
        .iter()
        .map(|h| h.scalable_vs_greedy)
        .fold(0.0f64, f64::max);
    let mut footer = RunReport::new("solver_scaling");
    footer
        .push("sweep points", report.points.len())
        .push_fingerprint("report fingerprint", artifact.fingerprint())
        .push(
            "scalable vs structured worst-case cost ratio",
            format!("{worst:.4} (bound 1.01)"),
        )
        .push(
            "best bucketing compression",
            format!("{best_compression:.2}x"),
        )
        .push("mixed-cluster points", report.hetero.len())
        .push(
            "class-aware vs class-blind worst-case cost ratio",
            format!("{hetero_worst:.4} (bound: strictly < 1)"),
        );
    print!("{footer}");
    println!("wrote BENCH_solver.json");
    Ok(())
}
