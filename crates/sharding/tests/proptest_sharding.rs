//! Property-based tests for sharding plans, the greedy baselines, the
//! remapping tables and two-level (hierarchical) plans.

use proptest::prelude::*;
use recshard_data::{FeatureId, ModelSpec};
use recshard_sharding::{
    GreedySharder, LookupCost, MemoryTier, NodeAssigner, NodeTopology, RemapTable, ShardingPlan,
    SizeCost, SizeLookupCost, SystemSpec, TablePlacement,
};
use recshard_stats::{DatasetProfile, DatasetProfiler};

/// Builds a two-level plan entirely at the sharding layer: level 1 assigns
/// tables to nodes with [`NodeAssigner`], level 2 runs an independent greedy
/// shard per node over that node's tables, and the merged placements use
/// node-major global GPU ids (mirroring `recshard`'s hierarchical solver).
fn two_level_greedy(
    model: &ModelSpec,
    profile: &DatasetProfile,
    system: &SystemSpec,
    topology: NodeTopology,
) -> Option<ShardingPlan> {
    let assignment = NodeAssigner.assign(model, profile, system, topology).ok()?;
    let node_system = SystemSpec::uniform(
        topology.gpus_per_node,
        system.hbm_capacity(0),
        system.dram_capacity(0),
        system.hbm_bandwidth_gbps(0),
        system.uvm_bandwidth_gbps(0),
    );
    let mut placements: Vec<Option<TablePlacement>> = vec![None; model.num_features()];
    for node in 0..topology.num_nodes {
        let tables = assignment.tables_on_node(node);
        if tables.is_empty() {
            continue;
        }
        let features = tables
            .iter()
            .enumerate()
            .map(|(local, &t)| {
                let mut spec = model.features()[t].clone();
                spec.id = FeatureId(local as u32);
                spec
            })
            .collect();
        let profiles = tables
            .iter()
            .enumerate()
            .map(|(local, &t)| {
                let mut p = profile.profiles()[t].clone();
                p.id = FeatureId(local as u32);
                p
            })
            .collect();
        let sub_model = ModelSpec::new(
            "node-sub",
            recshard_data::RmKind::Custom,
            features,
            model.batch_size(),
        );
        let sub_profile = DatasetProfile::new(profiles, profile.samples_profiled());
        let sub_plan = GreedySharder::new(SizeLookupCost)
            .shard(&sub_model, &sub_profile, &node_system)
            .ok()?;
        for (local, p) in sub_plan.placements().iter().enumerate() {
            let global = tables[local];
            placements[global] = Some(TablePlacement {
                table: FeatureId(global as u32),
                gpu: node * topology.gpus_per_node + p.gpu,
                ..*p
            });
        }
    }
    let placements = placements.into_iter().collect::<Option<Vec<_>>>()?;
    Some(
        ShardingPlan::new("two-level-greedy", system.num_gpus(), placements)
            .with_topology(topology),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every row of a remapped table lands in exactly one tier with dense,
    /// unique slots per tier, regardless of the ranking or the HBM budget.
    #[test]
    fn remap_is_a_partition(
        total_rows in 1u64..400,
        hbm_budget in 0u64..500,
        ranking_seed in any::<u64>(),
    ) {
        // A pseudo-random permutation prefix as the "hottest rows" ranking.
        let mut ranked: Vec<u64> = (0..total_rows).collect();
        let mut state = ranking_seed | 1;
        for i in (1..ranked.len()).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ranked.swap(i, (state % (i as u64 + 1)) as usize);
        }
        let ranked_prefix = &ranked[..(ranked.len() / 2)];

        let placement = TablePlacement {
            table: FeatureId(0),
            gpu: 0,
            hbm_rows: hbm_budget.min(total_rows),
            total_rows,
            row_bytes: 64,
        };
        let remap = RemapTable::build(&placement, ranked_prefix);
        prop_assert_eq!(remap.total_rows(), total_rows);
        prop_assert_eq!(remap.hbm_rows() + remap.uvm_rows(), total_rows);
        prop_assert_eq!(remap.hbm_rows(), placement.hbm_rows);

        let mut hbm_slots = std::collections::HashSet::new();
        let mut uvm_slots = std::collections::HashSet::new();
        for row in 0..total_rows {
            let r = remap.lookup(row);
            match r.tier {
                MemoryTier::Hbm => prop_assert!(hbm_slots.insert(r.slot) && r.slot < remap.hbm_rows()),
                MemoryTier::Uvm => prop_assert!(uvm_slots.insert(r.slot) && r.slot < remap.uvm_rows()),
            }
        }
    }

    /// Greedy baseline plans are always structurally valid and within
    /// capacity whenever the sharder succeeds, for all three cost functions.
    #[test]
    fn greedy_plans_are_valid(
        n_tables in 2usize..12,
        seed in 0u64..200,
        gpus in 1usize..5,
        hbm_denominator in 1u64..12,
    ) {
        let model = ModelSpec::small(n_tables, seed);
        let profile = DatasetProfiler::profile_model(&model, 300, seed ^ 0xF00D);
        let system = SystemSpec::uniform(
            gpus,
            (model.total_bytes() / (gpus as u64 * hbm_denominator)).max(1),
            model.total_bytes() * 2,
            1555.0,
            16.0,
        );
        for plan in [
            GreedySharder::new(SizeCost).shard(&model, &profile, &system),
            GreedySharder::new(LookupCost).shard(&model, &profile, &system),
            GreedySharder::new(SizeLookupCost).shard(&model, &profile, &system),
        ]
        .into_iter()
        .flatten()
        {
            prop_assert!(plan.validate(&model, &system).is_ok());
            // Baselines never split a table.
            for p in plan.placements() {
                prop_assert!(p.hbm_rows == 0 || p.hbm_rows == p.total_rows);
            }
        }
    }

    /// Plan accounting identities: per-GPU byte sums equal the model total,
    /// and UVM row fractions stay in [0, 1].
    #[test]
    fn plan_accounting_identities(n_tables in 2usize..10, seed in 0u64..200, gpus in 1usize..4) {
        let model = ModelSpec::small(n_tables, seed);
        let profile = DatasetProfiler::profile_model(&model, 200, seed);
        let system = SystemSpec::uniform(gpus, model.total_bytes(), model.total_bytes(), 1555.0, 16.0);
        let plan = GreedySharder::new(SizeCost).shard(&model, &profile, &system).unwrap();
        let hbm: u64 = plan.hbm_bytes_per_gpu().iter().sum();
        let uvm: u64 = plan.uvm_bytes_per_gpu().iter().sum();
        prop_assert_eq!(hbm + uvm, model.total_bytes());
        prop_assert!((0.0..=1.0).contains(&plan.uvm_row_fraction()));
        prop_assert!((0.0..=1.0).contains(&plan.mean_table_uvm_fraction()));
    }

    /// Every plan places every table exactly once: the per-GPU table lists
    /// partition the model's feature set (no table lost, none duplicated),
    /// and the routing vector agrees with the placements.
    #[test]
    fn plans_place_every_table_exactly_once(
        n_tables in 2usize..14,
        seed in 0u64..300,
        gpus in 1usize..5,
        hbm_denominator in 1u64..10,
    ) {
        let model = ModelSpec::small(n_tables, seed);
        let profile = DatasetProfiler::profile_model(&model, 250, seed ^ 0xACE);
        let system = SystemSpec::uniform(
            gpus,
            (model.total_bytes() / (gpus as u64 * hbm_denominator)).max(1),
            model.total_bytes() * 2,
            1555.0,
            16.0,
        );
        let plan = GreedySharder::new(SizeLookupCost).shard(&model, &profile, &system).unwrap();
        let mut seen = std::collections::HashSet::new();
        for gpu in 0..gpus {
            for table in plan.tables_on_gpu(gpu) {
                prop_assert!(seen.insert(table), "table {table} placed twice");
            }
        }
        prop_assert_eq!(seen.len(), model.num_features());
        let routing = plan.gpu_assignments();
        prop_assert_eq!(routing.len(), model.num_features());
        for (t, p) in plan.placements().iter().enumerate() {
            prop_assert_eq!(routing[t], p.gpu);
            prop_assert!(p.gpu < gpus);
        }
    }

    /// No successful plan ever exceeds a GPU's HBM (or DRAM) capacity, even
    /// one byte, across random capacity pressure.
    #[test]
    fn per_gpu_capacity_is_never_exceeded(
        n_tables in 2usize..12,
        seed in 0u64..300,
        gpus in 1usize..5,
        hbm_denominator in 1u64..16,
    ) {
        let model = ModelSpec::small(n_tables, seed);
        let profile = DatasetProfiler::profile_model(&model, 250, seed);
        let system = SystemSpec::uniform(
            gpus,
            (model.total_bytes() / (gpus as u64 * hbm_denominator)).max(1),
            model.total_bytes() * 2,
            1555.0,
            16.0,
        );
        for plan in [
            GreedySharder::new(SizeCost).shard(&model, &profile, &system),
            GreedySharder::new(LookupCost).shard(&model, &profile, &system),
        ]
        .into_iter()
        .flatten()
        {
            for &bytes in &plan.hbm_bytes_per_gpu() {
                prop_assert!(bytes <= system.hbm_capacity(0));
            }
            for &bytes in &plan.uvm_bytes_per_gpu() {
                prop_assert!(bytes <= system.dram_capacity(0));
            }
        }
    }

    /// Two-level plans place every table exactly once across (node, GPU)
    /// pairs, and the node derived from the global GPU id agrees with the
    /// level-1 assignment.
    #[test]
    fn hierarchical_plans_place_exactly_once_across_node_gpu_pairs(
        n_tables in 4usize..16,
        seed in 0u64..200,
        nodes in 2usize..4,
        gpus_per_node in 1usize..3,
    ) {
        let topology = NodeTopology::new(nodes, gpus_per_node);
        let model = ModelSpec::small(n_tables, seed);
        let profile = DatasetProfiler::profile_model(&model, 300, seed ^ 0x2077);
        let system = SystemSpec::uniform(
            topology.num_gpus(),
            (model.total_bytes() / topology.num_gpus() as u64).max(1),
            model.total_bytes() * 2,
            1555.0,
            16.0,
        );
        let Some(plan) = two_level_greedy(&model, &profile, &system, topology) else { continue };
        prop_assert!(plan.validate(&model, &system).is_ok());
        prop_assert_eq!(plan.topology(), Some(topology));

        let mut seen = std::collections::HashSet::new();
        for node in 0..nodes {
            for gpu in topology.gpus_of_node(node) {
                for table in plan.tables_on_gpu(gpu) {
                    prop_assert!(seen.insert(table), "table {table} placed twice");
                }
            }
        }
        prop_assert_eq!(seen.len(), model.num_features());
        // The per-node table lists partition the model as well.
        let per_node: usize = (0..nodes).map(|n| plan.tables_on_node(n).len()).sum();
        prop_assert_eq!(per_node, model.num_features());
    }

    /// Two-level plans never exceed per-GPU capacity, and therefore never
    /// exceed per-node capacity (each node's budget is the sum of its GPUs');
    /// both are asserted independently against the accounting helpers.
    #[test]
    fn hierarchical_per_node_and_per_gpu_capacity_never_exceeded(
        n_tables in 4usize..14,
        seed in 0u64..200,
        nodes in 2usize..4,
        hbm_denominator in 1u64..8,
    ) {
        let topology = NodeTopology::new(nodes, 2);
        let model = ModelSpec::small(n_tables, seed);
        let profile = DatasetProfiler::profile_model(&model, 300, seed ^ 0xF1E1D);
        let system = SystemSpec::uniform(
            topology.num_gpus(),
            (model.total_bytes() / (topology.num_gpus() as u64 * hbm_denominator)).max(1),
            model.total_bytes() * 2,
            1555.0,
            16.0,
        );
        let Some(plan) = two_level_greedy(&model, &profile, &system, topology) else { continue };
        for &bytes in &plan.hbm_bytes_per_gpu() {
            prop_assert!(bytes <= system.hbm_capacity(0));
        }
        for &bytes in &plan.uvm_bytes_per_gpu() {
            prop_assert!(bytes <= system.dram_capacity(0));
        }
        let node_hbm_cap = system.hbm_capacity(0) * topology.gpus_per_node as u64;
        let node_dram_cap = system.dram_capacity(0) * topology.gpus_per_node as u64;
        let (hbm_per_gpu, uvm_per_gpu) = (plan.hbm_bytes_per_gpu(), plan.uvm_bytes_per_gpu());
        for node in 0..nodes {
            let gpus = topology.gpus_of_node(node);
            prop_assert!(gpus.clone().map(|g| hbm_per_gpu[g]).sum::<u64>() <= node_hbm_cap);
            prop_assert!(gpus.map(|g| uvm_per_gpu[g]).sum::<u64>() <= node_dram_cap);
        }
    }

    /// Flattening a two-level plan yields a valid single-level plan with
    /// identical placements (global GPU ids already encode the node-major
    /// layout).
    #[test]
    fn flattening_two_level_plan_yields_valid_single_level_plan(
        n_tables in 4usize..14,
        seed in 0u64..200,
        nodes in 2usize..4,
    ) {
        let topology = NodeTopology::new(nodes, 2);
        let model = ModelSpec::small(n_tables, seed);
        let profile = DatasetProfiler::profile_model(&model, 300, seed ^ 0xFA7);
        let system = SystemSpec::uniform(
            topology.num_gpus(),
            (model.total_bytes() / topology.num_gpus() as u64).max(1),
            model.total_bytes() * 2,
            1555.0,
            16.0,
        );
        let Some(plan) = two_level_greedy(&model, &profile, &system, topology) else { continue };
        let flat = plan.flatten();
        prop_assert_eq!(flat.topology(), None);
        prop_assert!(flat.validate(&model, &system).is_ok());
        prop_assert_eq!(flat.placements(), plan.placements());
        // A flat plan's node view degenerates to one all-covering node.
        prop_assert_eq!(flat.tables_on_node(0).len(), model.num_features());
        prop_assert_eq!(flat.effective_topology(), NodeTopology::single(system.num_gpus()));
    }

    /// Remap *transitions* are valid permutations: re-sharding a table from
    /// plan A's split to plan B's split maps every row's old location to
    /// exactly one new location — no row lost, none duplicated — because
    /// each side's remap is a bijection row ↔ (tier, slot).
    #[test]
    fn remap_transitions_are_valid_permutations(
        total_rows in 1u64..300,
        budget_a in 0u64..300,
        budget_b in 0u64..300,
        ranking_seed in any::<u64>(),
    ) {
        let mut ranked: Vec<u64> = (0..total_rows).collect();
        let mut state = ranking_seed | 1;
        for i in (1..ranked.len()).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ranked.swap(i, (state % (i as u64 + 1)) as usize);
        }
        let mk = |budget: u64| {
            let placement = TablePlacement {
                table: FeatureId(0),
                gpu: 0,
                hbm_rows: budget.min(total_rows),
                total_rows,
                row_bytes: 32,
            };
            RemapTable::build(&placement, &ranked)
        };
        let a = mk(budget_a);
        let b = mk(budget_b);

        // The transition map old-location -> new-location, keyed by row.
        let mut old_locations = std::collections::HashSet::new();
        let mut new_locations = std::collections::HashSet::new();
        for row in 0..total_rows {
            prop_assert!(old_locations.insert(a.lookup(row)), "row {row} duplicated in A");
            prop_assert!(new_locations.insert(b.lookup(row)), "row {row} duplicated in B");
        }
        // Both sides cover every row exactly once with consistent tier sums:
        // the composed transition is a permutation of the table's rows.
        prop_assert_eq!(old_locations.len() as u64, total_rows);
        prop_assert_eq!(new_locations.len() as u64, total_rows);
        prop_assert_eq!(a.hbm_rows() + a.uvm_rows(), total_rows);
        prop_assert_eq!(b.hbm_rows() + b.uvm_rows(), total_rows);
        // Slots within each tier are dense prefixes, so equal-sized splits
        // produce exactly the same location sets (a permutation in the
        // strictest sense).
        if a.hbm_rows() == b.hbm_rows() {
            prop_assert_eq!(old_locations, new_locations);
        }
    }
}
