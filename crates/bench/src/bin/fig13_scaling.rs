//! Figure 13: slowdown of each sharding strategy as the model scales 2x (RM2)
//! and 4x (RM3) from RM1.
//!
//! Two measurement backends:
//!
//! * default — the trace-driven single-iteration simulator (`recshard-memsim`),
//! * `RECSHARD_BACKEND=des` — the discrete-event cluster simulator
//!   (`recshard-des`): each strategy's plan is replayed under lightly loaded
//!   arrivals (`DES_ITERS` = 200 iterations) and the median
//!   iteration sojourn time is reported. The DES numbers additionally include
//!   the all-to-all exchange and queueing: a baseline whose slowest GPU
//!   cannot keep the arrival pace builds a queue, so its slowdown can come
//!   out far larger than under the single-iteration backend — that
//!   amplification under sustained load is precisely what the DES models.

#![allow(clippy::print_stdout)]
use recshard_bench::{compare_strategies, ExperimentConfig, Strategy};
use recshard_data::RmKind;
use recshard_des::ArrivalProcess;
use std::collections::HashMap;

/// Iterations each plan is replayed for under the DES backend.
const DES_ITERS: u64 = 200;

fn main() {
    let cfg = ExperimentConfig::fast();
    let use_des = std::env::var("RECSHARD_BACKEND").is_ok_and(|v| v == "des");
    let mut times: HashMap<(RmKind, Strategy), f64> = HashMap::new();
    for kind in [RmKind::Rm1, RmKind::Rm2, RmKind::Rm3] {
        if use_des {
            let setup = cfg.setup(kind);
            for s in Strategy::all() {
                // Lightly loaded arrivals: the p50 sojourn is the strategy's
                // service + exchange time, free of queueing divergence.
                let plan = setup.plan(s);
                let interval = setup.arrival_interval_ms(&plan, 3.0);
                let summary = setup.des_summary(
                    &plan,
                    cfg.des_config(
                        DES_ITERS,
                        ArrivalProcess::FixedRate {
                            interval_ms: interval,
                        },
                    ),
                );
                times.insert((kind, s), summary.p50_ms);
            }
        } else {
            let cmp = compare_strategies(kind, &cfg);
            for (s, _, r) in &cmp.results {
                times.insert((kind, *s), r.iteration_time_ms());
            }
        }
    }

    let backend = if use_des {
        "discrete-event cluster sim"
    } else {
        "trace sim"
    };
    println!(
        "# Figure 13: max EMB iteration-time slowdown as the model scales from RM1 ({backend})"
    );
    println!("| strategy | 2x model (RM2 / RM1) | 4x model (RM3 / RM1) |");
    println!("|----------|----------------------|----------------------|");
    for s in Strategy::all() {
        let base = times[&(RmKind::Rm1, s)];
        println!(
            "| {} | {:.2}x | {:.2}x |",
            s.label(),
            times[&(RmKind::Rm2, s)] / base,
            times[&(RmKind::Rm3, s)] / base
        );
    }
    let baseline_avg_4x: f64 = [
        Strategy::SizeBased,
        Strategy::LookupBased,
        Strategy::SizeLookupBased,
    ]
    .iter()
    .map(|&s| times[&(RmKind::Rm3, s)] / times[&(RmKind::Rm1, s)])
    .sum::<f64>()
        / 3.0;
    let recshard_4x =
        times[&(RmKind::Rm3, Strategy::RecShard)] / times[&(RmKind::Rm1, Strategy::RecShard)];
    println!();
    println!(
        "Baselines slow down by {baseline_avg_4x:.2}x on average going to the 4x model while \
         RecShard slows down by only {recshard_4x:.2}x — the paper reports 3.07x vs 1.2x, because \
         the extra capacity added by larger hash sizes is rarely accessed and RecShard leaves it in UVM."
    );
}
