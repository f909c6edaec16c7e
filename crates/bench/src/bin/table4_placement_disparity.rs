//! Table 4: how RecShard's row placement differs from each baseline —
//! the fraction of rows a baseline put in UVM that RecShard promotes to HBM,
//! and vice versa (RM2 and RM3, which need UVM on 16 GPUs).

#![allow(clippy::print_stdout)]
use recshard::analysis::PlanComparison;
use recshard_bench::{compare_strategies, ExperimentConfig, Strategy};
use recshard_data::RmKind;

fn main() {
    let cfg = ExperimentConfig::fast();
    println!("# Table 4: placement disparity of RecShard vs the baselines");
    println!("| model | disparity | Size-Based | Lookup-Based | Size-Based-Lookup |");
    println!("|-------|-----------|------------|--------------|-------------------|");
    for kind in [RmKind::Rm1, RmKind::Rm2, RmKind::Rm3] {
        let cmp = compare_strategies(kind, &cfg);
        let recshard_plan = &cmp.result(Strategy::RecShard).1;
        let baselines = [
            Strategy::SizeBased,
            Strategy::LookupBased,
            Strategy::SizeLookupBased,
        ];
        let comparisons: Vec<PlanComparison> = baselines
            .iter()
            .map(|&b| PlanComparison::between(recshard_plan, &cmp.result(b).1))
            .collect();
        let uses_uvm = cmp.results.iter().any(|(_, p, _)| p.total_uvm_rows() > 0);
        if !uses_uvm {
            println!("| {kind} | UVM->HBM | N/A | N/A | N/A |");
            println!("| {kind} | HBM->UVM | N/A | N/A | N/A |");
            continue;
        }
        println!(
            "| {kind} | UVM->HBM | {:.2}% | {:.2}% | {:.2}% |",
            comparisons[0].uvm_to_hbm * 100.0,
            comparisons[1].uvm_to_hbm * 100.0,
            comparisons[2].uvm_to_hbm * 100.0
        );
        println!(
            "| {kind} | HBM->UVM | {:.2}% | {:.2}% | {:.2}% |",
            comparisons[0].hbm_to_uvm * 100.0,
            comparisons[1].hbm_to_uvm * 100.0,
            comparisons[2].hbm_to_uvm * 100.0
        );
    }
    println!();
    println!(
        "Paper reference (RM2): RecShard promotes ~28% of the rows the baselines leave in UVM \
         and demotes ~40% of the rows they keep in HBM; RM1 needs no UVM at all (N/A rows)."
    );
}
