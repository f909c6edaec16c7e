//! Figure 6: per-feature average pooling factor (6a) and coverage (6b).

#![allow(clippy::print_stdout)]
use recshard_bench::ExperimentConfig;
use recshard_data::RmKind;
use recshard_stats::Summary;

fn main() {
    let cfg = ExperimentConfig::fast();
    let profile = cfg.setup(RmKind::Rm1).profile;

    println!("# Figure 6a/6b: average pooling factor and coverage per feature");
    println!("| feature | avg pooling factor | coverage |");
    println!("|---------|--------------------|----------|");
    for p in profile.profiles().iter().step_by(10) {
        println!("| {} | {:.2} | {:.3} |", p.id, p.avg_pooling, p.coverage);
    }

    let poolings: Vec<f64> = profile.profiles().iter().map(|p| p.avg_pooling).collect();
    let coverages: Vec<f64> = profile.profiles().iter().map(|p| p.coverage).collect();
    let pool_summary = Summary::of(&poolings);
    let cov_summary = Summary::of(&coverages);
    println!();
    println!(
        "Pooling factor min/max/mean/std: {pool_summary} — spanning one-hot features to \
         ~{:.0}-hot history features (order-of-magnitude bandwidth differences, Figure 6a).",
        pool_summary.max
    );
    println!(
        "Coverage min/max/mean/std: {cov_summary} — from features present in <{:.0}% of samples \
         to always-present ones (Figure 6b).",
        cov_summary.min * 100.0
    );
}
