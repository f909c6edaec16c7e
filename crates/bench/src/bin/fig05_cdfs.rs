//! Figure 5: hashed value frequency CDFs of the sparse features.
//!
//! Prints, for a subset of features, the cumulative access percentage covered
//! by the hottest 1/5/10/25/50/100% of accessed rows, plus summary statistics
//! over the whole feature universe.

#![allow(clippy::print_stdout)]
use recshard_bench::ExperimentConfig;
use recshard_data::RmKind;

fn main() {
    let cfg = ExperimentConfig::fast();
    let profile = cfg.setup(RmKind::Rm1).profile;

    println!(
        "# Figure 5: hashed value frequency CDFs (profiled over {} samples)",
        cfg.profile_samples
    );
    println!("| feature | accesses | top 1% rows | top 5% | top 10% | top 25% | top 50% |");
    println!("|---------|----------|-------------|--------|---------|---------|---------|");
    for p in profile
        .profiles()
        .iter()
        .filter(|p| p.total_lookups > 0)
        .step_by(20)
    {
        println!(
            "| {} | {} | {:.1}% | {:.1}% | {:.1}% | {:.1}% | {:.1}% |",
            p.id,
            p.total_lookups,
            p.cdf.top_percent_share(1.0) * 100.0,
            p.cdf.top_percent_share(5.0) * 100.0,
            p.cdf.top_percent_share(10.0) * 100.0,
            p.cdf.top_percent_share(25.0) * 100.0,
            p.cdf.top_percent_share(50.0) * 100.0,
        );
    }

    let shares: Vec<f64> = profile
        .profiles()
        .iter()
        .filter(|p| p.total_lookups > 100)
        .map(|p| p.cdf.top_percent_share(10.0))
        .collect();
    let skewed = shares.iter().filter(|&&s| s > 0.5).count();
    println!();
    println!(
        "For {skewed} of {} well-sampled features the hottest 10% of rows cover more than half \
         of all accesses — the power-law locality RecShard exploits (Figure 5's bowed CDFs); \
         the remainder are the near-uniform features visible as straight lines in the figure.",
        shares.len()
    );
}
