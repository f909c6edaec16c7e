//! End-to-end integration test: profile → shard → remap → simulate on a
//! capacity-constrained system, checking the invariants every stage must
//! uphold together.

use recshard::{HierarchicalSolver, RecShard, RecShardConfig, RecShardError, StructuredSolver};
use recshard_bench::skewed_model;
use recshard_data::{FeatureId, ModelSpec};
use recshard_memsim::{EmbeddingOpSimulator, SimConfig};
use recshard_sharding::{
    GreedySharder, LookupCost, MemoryTier, NodeTopology, ShardingError, SizeLookupCost, SystemSpec,
};
use recshard_stats::{DatasetProfile, DatasetProfiler};

#[test]
fn full_pipeline_respects_all_invariants() {
    let model = ModelSpec::small(16, 101).with_batch_size(512);
    let system = SystemSpec::uniform(
        4,
        model.total_bytes() / 10,
        model.total_bytes(),
        1555.0,
        16.0,
    );
    let out = RecShard::new(RecShardConfig::default())
        .run(&model, &system, 3_000, 5)
        .expect("pipeline");

    // Plan structurally valid and within capacity.
    out.plan.validate(&model, &system).expect("plan valid");
    // Every table got a remap table covering every row exactly once.
    assert_eq!(out.remap_tables.len(), model.num_features());
    for (remap, placement) in out.remap_tables.iter().zip(out.plan.placements()) {
        assert_eq!(remap.total_rows(), placement.total_rows);
        assert_eq!(remap.uvm_rows(), placement.uvm_rows());
    }
    // Profiled hot rows of split tables are HBM-resident.
    for (t, prof) in out.profile.profiles().iter().enumerate() {
        let placement = &out.plan.placements()[t];
        if placement.hbm_rows > 0 && !prof.ranked_rows.is_empty() {
            assert_eq!(
                out.remap_tables[t].tier_of(prof.ranked_rows[0]),
                MemoryTier::Hbm
            );
        }
    }

    // Simulated accesses are conserved and mostly HBM-resident.
    let mut sim = EmbeddingOpSimulator::new(
        &model,
        &out.plan,
        &out.profile,
        &system,
        SimConfig {
            kernel_overhead_us_per_table: 0.0,
            scale_to_batch: None,
        },
    );
    let report = sim.run(3, 256, 9);
    assert!(report.mean_hbm_accesses_per_gpu() > 0.0);
    let uvm_share = report.uvm_access_fraction();
    assert!(
        uvm_share < 0.35,
        "RecShard should keep most accesses in HBM, got UVM share {uvm_share}"
    );
}

#[test]
fn pipeline_scales_with_gpu_count() {
    let model = ModelSpec::small(12, 55);
    for gpus in [1usize, 2, 4, 8] {
        let system = SystemSpec::uniform(
            gpus,
            (model.total_bytes() / (gpus as u64 * 2)).max(1024),
            model.total_bytes(),
            1555.0,
            16.0,
        );
        let out = RecShard::default()
            .run(&model, &system, 1_000, 3)
            .expect("pipeline");
        out.plan.validate(&model, &system).expect("plan valid");
        // Every GPU index used by the plan is within range.
        assert!(out.plan.placements().iter().all(|p| p.gpu < gpus));
    }
}

#[test]
fn exact_milp_and_structured_solver_agree_on_tiny_instances() {
    let model = ModelSpec::small(3, 77).with_batch_size(64);
    let system = SystemSpec::uniform(
        2,
        model.total_bytes() / 4,
        model.total_bytes() * 2,
        1555.0,
        16.0,
    );
    let profile = recshard_stats::DatasetProfiler::profile_model(&model, 1_000, 1);

    let exact_cfg = RecShardConfig::default()
        .with_exact_milp()
        .with_icdf_steps(5);
    let exact = RecShard::new(exact_cfg)
        .plan(&model, &profile, &system)
        .expect("exact plan");
    let structured = RecShard::new(RecShardConfig::default().with_icdf_steps(5))
        .plan(&model, &profile, &system)
        .expect("structured plan");

    exact.validate(&model, &system).unwrap();
    structured.validate(&model, &system).unwrap();
    // Both must serve the overwhelming majority of accesses from HBM.
    let est = recshard_memsim::AnalyticalEstimator::new(&profile, &system, 64);
    assert!(est.uvm_access_fraction(&exact) < 0.2);
    assert!(est.uvm_access_fraction(&structured) < 0.2);
}

#[test]
fn nan_coverage_and_pooling_are_typed_errors_in_every_solver() {
    // Every third table's coverage is NaN. The hierarchical solver's node
    // assignment sorts on traffic derived from it and the structured solver
    // prices it; each must return a typed error rather than panic in a sort.
    let model = skewed_model(300);
    let profile = DatasetProfiler::profile_model(&model, 200, 3);
    let with_nan = |edit: fn(&mut recshard_stats::FeatureProfile)| {
        let mut profiles = profile.profiles().to_vec();
        profiles.iter_mut().step_by(3).for_each(edit);
        DatasetProfile::new(profiles, profile.samples_profiled())
    };
    let nan_coverage = with_nan(|p| p.coverage = f64::NAN);
    let system = SystemSpec::uniform(
        16,
        model.total_bytes() / 48,
        model.total_bytes(),
        1555.0,
        16.0,
    );
    let nan_table = ShardingError::NonFiniteCost {
        table: FeatureId(0),
    };
    let config = RecShardConfig::default();
    assert_eq!(
        HierarchicalSolver::new(config, NodeTopology::new(4, 4)).solve(
            &model,
            &nan_coverage,
            &system
        ),
        Err(RecShardError::Sharding(nan_table.clone()))
    );
    assert_eq!(
        StructuredSolver::new(config).solve(&model, &nan_coverage, &system),
        Err(RecShardError::NonFiniteCost {
            table: 0,
            class: system.reference_class().name,
        })
    );
    // The greedy baselines' costs read the pooling factor, not the
    // coverage: they still plan on the NaN coverages, and reject NaN
    // pooling factors.
    let greedy = GreedySharder::new(SizeLookupCost).shard(&model, &nan_coverage, &system);
    assert!(greedy.is_ok_and(|plan| plan.validate(&model, &system).is_ok()));
    let nan_pooling = with_nan(|p| p.avg_pooling = f64::NAN);
    assert_eq!(
        GreedySharder::new(LookupCost).shard(&model, &nan_pooling, &system),
        Err(nan_table.clone())
    );
    assert_eq!(
        GreedySharder::new(SizeLookupCost).shard(&model, &nan_pooling, &system),
        Err(nan_table)
    );
}
