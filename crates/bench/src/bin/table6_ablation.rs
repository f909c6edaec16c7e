//! Table 6: RecShard ablation — average HBM and UVM accesses per GPU on RM3
//! for the four formulation variants (CDF only, CDF+Coverage, CDF+Pooling,
//! Full).

#![allow(clippy::print_stdout)]
use recshard::{AblationVariant, RecShard, RecShardConfig};
use recshard_bench::{fmt_count, ExperimentConfig};
use recshard_data::RmKind;
use recshard_memsim::EmbeddingOpSimulator;

fn main() {
    let cfg = ExperimentConfig::fast();
    let setup = cfg.setup(RmKind::Rm3);
    let (model, profile) = (setup.model, setup.profile);
    // The paper profiles >200M samples, so the set of *observed* rows is far
    // larger than HBM and the ablation's cost-model differences decide which
    // observed rows win the scarce HBM space. At the reduced profiling volume
    // used here the observed set is smaller, so we tighten HBM by the same
    // proportion to recreate that pressure inside the observed region;
    // otherwise every variant trivially keeps all observed rows in HBM and
    // the ablation degenerates.
    let system = setup.system.map_classes(|mut c| {
        c.hbm_capacity /= 6;
        c
    });

    println!(
        "# Table 6: RecShard ablation on RM3 ({} GPUs, scale 1/{})",
        cfg.gpus, cfg.scale
    );
    println!("| formulation | HBM accesses / GPU / iter | UVM accesses / GPU / iter | UVM share |");
    println!("|-------------|---------------------------|---------------------------|-----------|");
    for variant in AblationVariant::all() {
        let config = variant.config(RecShardConfig::default());
        let plan = RecShard::new(config)
            .plan(&model, &profile, &system)
            .expect("ablation plan");
        let mut sim = EmbeddingOpSimulator::new(&model, &plan, &profile, &system, cfg.sim_config());
        let report = sim.run(cfg.sim_iterations, cfg.sim_batch, cfg.seed ^ 0xAB1A);
        println!(
            "| {} | {} | {} | {:.2}% |",
            variant.label(),
            fmt_count(report.mean_hbm_accesses_per_gpu()),
            fmt_count(report.mean_uvm_accesses_per_gpu()),
            report.uvm_access_fraction() * 100.0
        );
    }
    println!();
    println!(
        "Paper reference: the full formulation sources ~0.5% of accesses from UVM, CDF+Pooling \
         ~0.9%, CDF+Coverage ~1.3% and CDF-only ~2.4% — every statistic added to the MILP \
         reduces UVM traffic."
    );
}
