//! Section 6.4: Amdahl's-law estimate of the end-to-end training speedup for
//! different embedding-time shares and embedding speedups, plus the solver
//! and remapping overheads of Section 6.6.

#![allow(clippy::print_stdout)]
use recshard::analysis::amdahl_end_to_end_speedup;
use recshard::{RecShard, RecShardConfig};
use recshard_bench::ExperimentConfig;
use recshard_data::RmKind;
use std::time::Instant;

fn main() {
    println!("# Section 6.4: expected end-to-end speedup (Amdahl's law)");
    println!("| embedding share of runtime | 2.5x EMB speedup | 5x | 7.4x |");
    println!("|----------------------------|------------------|----|------|");
    for p in [0.35, 0.5, 0.65, 0.75] {
        println!(
            "| {:.0}% | {:.2}x | {:.2}x | {:.2}x |",
            p * 100.0,
            amdahl_end_to_end_speedup(p, 2.5),
            amdahl_end_to_end_speedup(p, 5.0),
            amdahl_end_to_end_speedup(p, 7.4)
        );
    }
    println!();
    println!(
        "The paper quotes 1.27x–1.82x end-to-end for models spending 35–75% of their time in \
         embedding operations at a 2.5x embedding speedup."
    );

    // Section 6.6 overhead: solver time and remapping storage at experiment scale.
    println!();
    println!("# Section 6.6: RecShard overhead (at experiment scale)");
    let cfg = ExperimentConfig::fast();
    println!("| model | solve time | remap storage | remap storage (paper scale) |");
    println!("|-------|------------|---------------|------------------------------|");
    for kind in [RmKind::Rm1, RmKind::Rm2, RmKind::Rm3] {
        let model = cfg.model(kind);
        let system = cfg.system();
        // recshard-lint: allow(wall-clock) -- this bin's whole purpose is the
        // human-readable overhead table; wall time never reaches BENCH_*.json.
        let start = Instant::now();
        let out = RecShard::new(RecShardConfig::default())
            .run(&model, &system, cfg.profile_samples, cfg.seed)
            .expect("pipeline");
        let elapsed = start.elapsed();
        let remap_bytes = out.remap_storage_bytes();
        println!(
            "| {} | {:.2?} (incl. profiling) | {:.1} MB | ~{:.1} GB |",
            kind,
            elapsed,
            remap_bytes as f64 / 1e6,
            (remap_bytes * cfg.scale) as f64 / 1e9
        );
    }
    println!();
    println!(
        "Paper reference: Gurobi solves the full MILP in under a minute and the remapping tables \
         cost 4 bytes per row (~20 GB for RM3's 5 billion rows) — negligible next to multi-day \
         training runs."
    );
}
