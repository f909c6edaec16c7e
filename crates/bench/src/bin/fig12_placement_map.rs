//! Figure 12: the partitions and placements RecShard makes for RM2 —
//! per-EMB fraction placed on UVM, grouped by owning GPU.

#![allow(clippy::print_stdout)]
use recshard_bench::{compare_strategies, ExperimentConfig, Strategy};
use recshard_data::RmKind;

fn main() {
    let cfg = ExperimentConfig::fast();
    let cmp = compare_strategies(RmKind::Rm2, &cfg);
    let plan = &cmp.result(Strategy::RecShard).1;

    println!(
        "# Figure 12: RecShard partitions/placements for RM2 on {} GPUs",
        plan.num_gpus()
    );
    println!("| GPU | tables assigned | mean % of EMB on UVM | min % | max % |");
    println!("|-----|-----------------|----------------------|-------|-------|");
    for gpu in 0..plan.num_gpus() {
        let tables = plan.tables_on_gpu(gpu);
        if tables.is_empty() {
            println!("| {gpu} | 0 | - | - | - |");
            continue;
        }
        let fracs: Vec<f64> = tables
            .iter()
            .map(|&t| plan.placement(t).uvm_fraction() * 100.0)
            .collect();
        let mean = fracs.iter().sum::<f64>() / fracs.len() as f64;
        let min = fracs.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = fracs.iter().cloned().fold(0.0f64, f64::max);
        println!(
            "| {gpu} | {} | {:.1}% | {:.1}% | {:.1}% |",
            tables.len(),
            mean,
            min,
            max
        );
    }
    println!();
    println!("Per-EMB UVM fractions (one value per table, ordered by feature id):");
    let fracs: Vec<String> = plan
        .placements()
        .iter()
        .map(|p| format!("{:.0}", p.uvm_fraction() * 100.0))
        .collect();
    println!("{}", fracs.join(" "));
    println!();
    println!(
        "Mean % of rows per EMB on UVM: {:.1}%; total rows on UVM: {:.1}% — the paper reports \
         53.4% per-EMB average and 61% of all rows for RM2. As in Figure 12, the number of EMBs \
         per GPU varies and every bar height (per-EMB UVM fraction) is table-specific.",
        plan.mean_table_uvm_fraction() * 100.0,
        plan.uvm_row_fraction() * 100.0
    );
}
