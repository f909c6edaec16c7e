//! Heterogeneous-cluster test suite: per-GPU capacity safety under mixed
//! device classes, within-class-only MILP decode canonicalisation, and the
//! `ClusterSpec::uniform` compatibility guarantee (byte-identical plans and
//! fingerprints versus the historical homogeneous `SystemSpec` path).

use proptest::prelude::*;
use recshard::{MilpFormulation, RecShardConfig, ScalableSolver, StructuredSolver};
use recshard_bench::solver_bench::plan_fingerprint;
use recshard_data::ModelSpec;
use recshard_milp::SolveOptions;
use recshard_sharding::{
    ClusterSpec, DeviceClass, GreedySharder, LookupCost, ShardingPlan, SizeCost, SizeLookupCost,
    SystemSpec,
};
use recshard_stats::{DatasetProfile, DatasetProfiler};

/// A two-class cluster: `big_gpus` fast large-HBM devices followed by
/// `small_gpus` slower small-HBM devices, sized against the model so the
/// small class is under real capacity pressure.
fn mixed_cluster(model_bytes: u64, big_gpus: usize, small_gpus: usize, denom: u64) -> ClusterSpec {
    let gpus = (big_gpus + small_gpus) as u64;
    let fair = (model_bytes / (gpus * denom)).max(1);
    let big = DeviceClass::new("big", fair * 3, model_bytes, 2039.0, 32.0);
    let small = DeviceClass::new("small", fair, model_bytes, 900.0, 16.0);
    ClusterSpec::mixed(&[(big, big_gpus), (small, small_gpus)])
}

fn setup(n_tables: usize, seed: u64, samples: usize) -> (ModelSpec, DatasetProfile) {
    let model = ModelSpec::small(n_tables, seed);
    let profile = DatasetProfiler::profile_model(&model, samples, seed ^ 0x8E7E);
    (model, profile)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// (a) No solver ever exceeds a GPU's *own* per-class capacity on mixed
    /// clusters, across random class splits and capacity pressure.
    #[test]
    fn per_gpu_capacity_never_exceeded_under_mixed_classes(
        n_tables in 4usize..12,
        seed in 0u64..200,
        big_gpus in 1usize..3,
        small_gpus in 1usize..3,
        denom in 1u64..6,
    ) {
        let (model, profile) = setup(n_tables, seed, 400);
        let system = mixed_cluster(model.total_bytes(), big_gpus, small_gpus, denom);
        let config = RecShardConfig::default();
        let plans = [
            GreedySharder::new(SizeCost).shard(&model, &profile, &system).ok(),
            GreedySharder::new(LookupCost).shard(&model, &profile, &system).ok(),
            GreedySharder::new(SizeLookupCost).shard(&model, &profile, &system).ok(),
            StructuredSolver::new(config).solve(&model, &profile, &system).ok(),
            ScalableSolver::new(config).solve(&model, &profile, &system).ok(),
        ];
        for plan in plans.into_iter().flatten() {
            prop_assert!(plan.validate(&model, &system).is_ok());
            for (gpu, &bytes) in plan.hbm_bytes_per_gpu().iter().enumerate() {
                prop_assert!(
                    bytes <= system.hbm_capacity(gpu),
                    "GPU {gpu} ({}) holds {bytes} HBM bytes over its {} cap",
                    system.device(gpu).name,
                    system.hbm_capacity(gpu)
                );
            }
            for (gpu, &bytes) in plan.uvm_bytes_per_gpu().iter().enumerate() {
                prop_assert!(bytes <= system.dram_capacity(gpu));
            }
        }
    }

    /// (b) MILP decode canonicalisation permutes GPU labels only *within* a
    /// device class. Two checkable consequences on mixed clusters, for both
    /// warm- and cold-started solves:
    ///
    /// * within every class, the GPU ids a plan actually uses are a prefix
    ///   of that class's sorted id list (labels are handed out per class in
    ///   first-ownership order — a cross-class relabel, as the historical
    ///   global canonicalisation would produce, breaks this immediately by
    ///   giving a small-class owner a big-class id);
    /// * warm and cold decodes agree on the optimum's max per-GPU cost and
    ///   both validate against every class's own capacity.
    ///
    /// The min-max objective is degenerate below the bottleneck GPU, so
    /// equally-optimal warm/cold solutions may group tables differently;
    /// strict warm==cold plan identity on *uniform* systems stays locked by
    /// `crates/core/tests/proptest_solver.rs`.
    #[test]
    fn milp_decode_canonicalises_within_class_only(
        seed in 0u64..60,
        n_tables in 3usize..5,
    ) {
        let (model, profile) = setup(n_tables, seed, 400);
        let model = model.with_batch_size(64);
        let system = mixed_cluster(model.total_bytes(), 1, 2, 2);
        let formulation = MilpFormulation::new(RecShardConfig::default().with_icdf_steps(4));
        let warm = formulation
            .solve_with(&model, &profile, &system, SolveOptions { warm_start: true });
        let cold = formulation
            .solve_with(&model, &profile, &system, SolveOptions { warm_start: false });
        match (warm, cold) {
            (Ok(warm), Ok(cold)) => {
                let evaluator = StructuredSolver::new(RecShardConfig::default());
                let mut max_costs = [0.0f64; 2];
                for (i, plan) in [&warm, &cold].into_iter().enumerate() {
                    prop_assert!(plan.validate(&model, &system).is_ok());
                    // Used ids per class must be a first-ownership prefix of
                    // the class's own id list.
                    for class in 0..system.num_classes() {
                        let ids = system.gpus_in_class(class);
                        let used: std::collections::HashSet<usize> = plan
                            .placements()
                            .iter()
                            .map(|p| p.gpu)
                            .filter(|&g| system.class_of(g) == class)
                            .collect();
                        let prefix: std::collections::HashSet<usize> =
                            ids.iter().copied().take(used.len()).collect();
                        prop_assert_eq!(
                            &used, &prefix,
                            "class {} uses ids {:?}, not the prefix of {:?}",
                            class, &used, &ids
                        );
                    }
                    max_costs[i] = evaluator
                        .gpu_costs_exact(&model, &profile, &system, plan)
                        .into_iter()
                        .fold(0.0f64, f64::max);
                }
                prop_assert!(
                    (max_costs[0] - max_costs[1]).abs() <= max_costs[1].abs() * 1e-9 + 1e-12,
                    "warm/cold optima must agree on the objective ({} vs {})",
                    max_costs[0],
                    max_costs[1]
                );
            }
            (Err(_), Err(_)) => {} // both infeasible: consistent
            (w, c) => prop_assert!(false, "warm/cold feasibility disagree: {w:?} vs {c:?}"),
        }
    }

    /// (c) `ClusterSpec::uniform` round-trips against an explicitly
    /// constructed single-class cluster: every solver produces byte-identical
    /// plans (and plan fingerprints) over both descriptions — the
    /// compatibility guarantee that keeps all historical golden fingerprints
    /// valid.
    #[test]
    fn uniform_round_trips_to_identical_plans_and_fingerprints(
        n_tables in 4usize..12,
        seed in 0u64..200,
        gpus in 2usize..5,
        denom in 1u64..8,
    ) {
        let (model, profile) = setup(n_tables, seed, 400);
        let hbm = (model.total_bytes() / (gpus as u64 * denom)).max(1);
        let via_uniform = SystemSpec::uniform(gpus, hbm, model.total_bytes(), 1555.0, 16.0);
        let via_classes = ClusterSpec::with_classes(
            vec![DeviceClass::new("gpu", hbm, model.total_bytes(), 1555.0, 16.0)],
            vec![0; gpus],
        );
        type PlanPath<'a> = &'a dyn Fn(&ClusterSpec) -> Option<ShardingPlan>;
        let config = RecShardConfig::default();
        let solve_both = |f: PlanPath| (f(&via_uniform), f(&via_classes));
        let paths: [PlanPath; 3] = [
            &|s| GreedySharder::new(SizeLookupCost).shard(&model, &profile, s).ok(),
            &|s| StructuredSolver::new(config).solve(&model, &profile, s).ok(),
            &|s| ScalableSolver::new(config).solve(&model, &profile, s).ok(),
        ];
        for f in paths {
            let (a, b) = solve_both(f);
            prop_assert_eq!(&a, &b, "uniform and single-class plans must be identical");
            if let (Some(a), Some(b)) = (a, b) {
                prop_assert_eq!(plan_fingerprint(&a), plan_fingerprint(&b));
            }
        }
    }
}

/// The uniform-compatibility guarantee extends through the discrete-event
/// simulator: the same plan replayed on a `ClusterSpec::uniform` system and
/// on its explicit single-class equivalent produces the identical seeded run
/// summary, event log fingerprint included.
#[test]
fn uniform_round_trip_preserves_des_fingerprints() {
    use recshard_des::{ClusterConfig, ClusterSimulator};
    let (model, profile) = setup(8, 5, 1_000);
    let hbm = u64::MAX / 8;
    let via_uniform = SystemSpec::uniform(4, hbm, hbm, 1555.0, 16.0);
    let via_classes = ClusterSpec::with_classes(
        vec![DeviceClass::new("gpu", hbm, hbm, 1555.0, 16.0)],
        vec![0; 4],
    );
    let plan = GreedySharder::new(SizeCost)
        .shard(&model, &profile, &via_uniform)
        .unwrap();
    let config = ClusterConfig {
        iterations: 150,
        batch_size: 32,
        ..ClusterConfig::default()
    };
    let a = ClusterSimulator::new(&model, &plan, &profile, &via_uniform, config).run();
    let b = ClusterSimulator::new(&model, &plan, &profile, &via_classes, config).run();
    assert_eq!(a, b, "DES summaries must be identical across descriptions");
    assert_eq!(a.fingerprint, b.fingerprint);
}

/// On a mixed cluster, the class-aware structured/scalable solvers place
/// strictly more work on the fast class than the class-blind greedy
/// baseline charges it for — and never lose to greedy on the max per-GPU
/// cost (the `hetero_scaling` bench asserts the strict version on the
/// committed seed).
#[test]
fn class_aware_solver_never_loses_to_class_blind_greedy_on_mixed_clusters() {
    for seed in [3u64, 7, 21] {
        let (model, profile) = setup(12, seed, 1_000);
        let system = mixed_cluster(model.total_bytes(), 2, 2, 3);
        let config = RecShardConfig::default();
        let evaluator = StructuredSolver::new(config);
        let max_cost = |plan: &ShardingPlan| {
            evaluator
                .gpu_costs_exact(&model, &profile, &system, plan)
                .into_iter()
                .fold(0.0f64, f64::max)
        };
        let greedy = GreedySharder::new(SizeLookupCost)
            .shard(&model, &profile, &system)
            .unwrap();
        let scalable = ScalableSolver::new(config)
            .solve(&model, &profile, &system)
            .unwrap();
        assert!(
            max_cost(&scalable) <= max_cost(&greedy) * (1.0 + 1e-9),
            "seed {seed}: class-aware {} vs class-blind greedy {}",
            max_cost(&scalable),
            max_cost(&greedy)
        );
    }
}
