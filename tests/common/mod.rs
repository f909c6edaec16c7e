//! Fixtures shared by the integration tests.

use recshard_bench::{skewed_model, Strategy};
use recshard_des::{ArrivalProcess, ClusterConfig, ClusterSimulator};
use recshard_sharding::SystemSpec;
use recshard_stats::DatasetProfiler;

/// Committed fingerprints of [`skewed_des_simulator`]'s runs, in
/// `Strategy::all()` order (SB, LB, SBL, RecShard).
pub const SKEWED_DES_GOLDEN: [u64; 4] = [
    0xf292_4dba_a975_c232,
    0x4c2f_8cba_2b25_1d55,
    0x04dc_a2b2_47d4_d6cc,
    0x311f_1dea_5d96_d7c5,
];

/// The skewed 4-GPU DES configuration: 24 `skewed_model` tables under
/// capacity pressure (HBM holds ~1/3 of the model), a 32-sample traced
/// batch reported at the model's batch, and a fixed 2 ms arrival interval.
pub fn skewed_des_simulator<'obs>(strategy: Strategy) -> ClusterSimulator<'obs> {
    let model = skewed_model(24);
    let system = SystemSpec::uniform(
        4,
        model.total_bytes() / 12,
        model.total_bytes(),
        1555.0,
        16.0,
    );
    let profile = DatasetProfiler::profile_model(&model, 3_000, 0xA5F0);
    let plan = strategy.plan(&model, &profile, &system);
    let config = ClusterConfig {
        batch_size: 32,
        iterations: 400,
        seed: 0xA5F0,
        arrival: ArrivalProcess::FixedRate { interval_ms: 2.0 },
        kernel_overhead_us_per_table: 8.0,
        scale_to_batch: Some(model.batch_size()),
        ..ClusterConfig::default()
    };
    ClusterSimulator::new(&model, &plan, &profile, &system, config)
}
