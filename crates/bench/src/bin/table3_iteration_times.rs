//! Table 3 + Figure 11: per-GPU EMB iteration-time statistics
//! (min/max/mean/std) for every sharding strategy on RM1/RM2/RM3, and the
//! speedup of each strategy normalised to the slowest in its group.

#![allow(clippy::print_stdout)]
use recshard::analysis::SpeedupReport;
use recshard_bench::{compare_strategies, ExperimentConfig, Strategy};
use recshard_data::RmKind;

fn main() {
    let cfg = ExperimentConfig::fast();
    println!(
        "# Table 3 / Figure 11: EMB iteration time (ms) across {} GPUs (scale 1/{}, batch {})",
        cfg.gpus,
        cfg.scale,
        recshard_data::model::PAPER_BATCH_SIZE
    );
    println!("| model | strategy | min | max | mean | std | speedup vs slowest |");
    println!("|-------|----------|-----|-----|------|-----|--------------------|");

    for kind in [RmKind::Rm1, RmKind::Rm2, RmKind::Rm3] {
        let cmp = compare_strategies(kind, &cfg);
        let report = SpeedupReport::new(
            cmp.results
                .iter()
                .map(|(s, _, r)| (s.label().to_string(), r.time_summary()))
                .collect(),
        );
        let speedups: std::collections::HashMap<String, f64> =
            report.speedups_vs_slowest().into_iter().collect();
        for (strategy, _, run) in &cmp.results {
            let t = run.time_summary();
            println!(
                "| {} | {} | {:.2} | {:.2} | {:.2} | {:.2} | {:.2}x |",
                kind,
                strategy.label(),
                t.min,
                t.max,
                t.mean,
                t.std_dev,
                speedups[strategy.label()]
            );
        }
        let vs_next = report
            .speedup_vs_next_fastest(Strategy::RecShard.label())
            .unwrap_or(f64::NAN);
        let balance = report
            .load_balance_improvement(Strategy::RecShard.label())
            .unwrap_or(f64::NAN);
        println!(
            "| {} | summary | | | | | RecShard {:.2}x vs next fastest, {:.1}x better load balance |",
            kind, vs_next, balance
        );
    }
    println!();
    println!(
        "Paper reference: RecShard improves EMB iteration time by 2.58x (RM1), 5.26x (RM2) and \
         7.41x (RM3) over the next-fastest strategy, with ~9x lower standard deviation on RM1."
    );
}
