//! The exact MILP formulation of Section 4.2.
//!
//! The paper states the placement problem as a MILP over binary variables
//! `p_{m,j}` (table `j` is owned by GPU `m`) and `x_{i,j}` (table `j` selects
//! ICDF step `i`), with per-GPU HBM/DRAM capacity constraints and a min-max
//! objective over per-GPU coverage-weighted costs. Constraints 9–12 as
//! written multiply `p_{m,j}` with quantities derived from `x_{i,j}`, which is
//! a product of binaries; commercial solvers linearise this automatically.
//! [`MilpFormulation`] performs the standard linearisation explicitly by
//! introducing `y_{m,i,j} = p_{m,j} * x_{i,j}` with the usual three
//! inequalities, then hands the model to `recshard-milp`'s branch-and-bound.
//!
//! The formulation grows as `O(M * J * steps)` binaries, so it is only
//! practical for small instances; its role in this reproduction is to provide
//! *ground truth* against which the structured placement solver
//! ([`StructuredSolver`](crate::solver::StructuredSolver), unbucketed or
//! bucketed) is validated.

use crate::config::RecShardConfig;
use crate::cost::TableCostModel;
use crate::error::RecShardError;
use recshard_data::ModelSpec;
use recshard_milp::{ConstraintSense, Model as MilpModel, Sense, VarId};
use recshard_sharding::{ShardingPlan, SystemSpec, TablePlacement};
use recshard_stats::DatasetProfile;

/// Builder/decoder for the exact RecShard MILP.
#[derive(Debug)]
pub struct MilpFormulation {
    config: RecShardConfig,
}

/// Handles to the decision variables of a built MILP.
#[derive(Debug, Clone)]
pub struct MilpVariables {
    /// `p[m][j]`: table `j` owned by GPU `m`.
    pub p: Vec<Vec<VarId>>,
    /// `x[j][i]`: table `j` selects ICDF step `i`.
    pub x: Vec<Vec<VarId>>,
    /// The max-cost variable `C`.
    pub c_max: VarId,
    /// Factor the cost coefficients were multiplied by for conditioning; the
    /// solved objective must be divided by it to recover milliseconds.
    pub cost_scale: f64,
}

impl MilpFormulation {
    /// Creates a formulation with the given configuration. Small ICDF step
    /// counts (e.g. 5–20) keep the model tractable for the exact solver.
    pub fn new(config: RecShardConfig) -> Self {
        Self { config }
    }

    /// Builds the MILP for a model/profile/system triple.
    ///
    /// # Errors
    ///
    /// Returns [`RecShardError::ProfileMismatch`] when the profile does not
    /// cover the model or [`RecShardError::InvalidConfig`] for a bad config.
    pub fn build(
        &self,
        model: &ModelSpec,
        profile: &DatasetProfile,
        system: &SystemSpec,
    ) -> Result<(MilpModel, MilpVariables, Vec<TableCostModel>), RecShardError> {
        self.config
            .validate()
            .map_err(RecShardError::InvalidConfig)?;
        if profile.num_features() != model.num_features() {
            return Err(RecShardError::ProfileMismatch(format!(
                "profile covers {} features, model has {}",
                profile.num_features(),
                model.num_features()
            )));
        }
        let num_tables = model.num_features();
        let num_gpus = system.num_gpus();
        let steps = self.config.icdf_steps;
        let batch = model.batch_size();

        // One cost menu per (device class, table): GPU `m`'s cost rows are
        // priced under its own class's bandwidths. Menu geometry (bytes per
        // step) is class-invariant, so the reference class's menus describe
        // the split shapes for everyone.
        let costs_by_class: Vec<Vec<TableCostModel>> = system
            .classes()
            .iter()
            .map(|device| {
                profile
                    .profiles()
                    .iter()
                    .enumerate()
                    .map(|(t, p)| TableCostModel::build(t, p, device, batch, &self.config))
                    .collect()
            })
            .collect();
        let costs: &Vec<TableCostModel> = &costs_by_class[0];

        // Normalise coefficient magnitudes so the sparse solver's basis
        // inverse stays well conditioned for its absolute pivot and
        // feasibility tolerances (raw byte counts and costs differ by many
        // orders of magnitude): memory constraints are expressed relative to
        // the largest per-option HBM footprint and costs relative to the
        // largest per-option weighted cost (over every device class).
        let mem_scale = 1.0
            / costs
                .iter()
                .flat_map(|c| c.options.iter())
                .map(|o| o.hbm_bytes.max(o.uvm_bytes) as f64)
                .fold(1.0f64, f64::max);
        let cost_scale = 1.0
            / costs_by_class
                .iter()
                .flat_map(|menus| menus.iter())
                .flat_map(|c| c.options.iter())
                .map(|o| o.weighted_cost)
                .fold(1e-12f64, f64::max);

        let mut milp = MilpModel::new(Sense::Minimize);
        // Objective: minimize C (constraint 1 ties per-GPU costs to it).
        let c_max = milp.add_continuous("C", 1.0);

        // p_{m,j} and x_{j,i}.
        let p: Vec<Vec<VarId>> = (0..num_gpus)
            .map(|m| {
                (0..num_tables)
                    .map(|j| milp.add_binary(format!("p_{m}_{j}"), 0.0))
                    .collect()
            })
            .collect();
        let x: Vec<Vec<VarId>> = (0..num_tables)
            .map(|j| {
                (0..=steps)
                    .map(|i| milp.add_binary(format!("x_{j}_{i}"), 0.0))
                    .collect()
            })
            .collect();
        // Linearisation variables y_{m,j,i} = p_{m,j} * x_{j,i}.
        let y: Vec<Vec<Vec<VarId>>> = (0..num_gpus)
            .map(|m| {
                (0..num_tables)
                    .map(|j| {
                        (0..=steps)
                            .map(|i| milp.add_binary(format!("y_{m}_{j}_{i}"), 0.0))
                            .collect()
                    })
                    .collect()
            })
            .collect();

        // Constraint 2: each table owned by exactly one GPU.
        for j in 0..num_tables {
            let terms = (0..num_gpus).map(|m| (p[m][j], 1.0)).collect();
            milp.add_constraint(format!("own_{j}"), terms, ConstraintSense::Eq, 1.0);
        }
        // Constraint 6: each table selects exactly one ICDF step.
        for j in 0..num_tables {
            let terms = (0..=steps).map(|i| (x[j][i], 1.0)).collect();
            milp.add_constraint(format!("step_{j}"), terms, ConstraintSense::Eq, 1.0);
        }
        // Linearisation: y <= p, y <= x, y >= p + x - 1.
        for m in 0..num_gpus {
            for j in 0..num_tables {
                for i in 0..=steps {
                    milp.add_constraint(
                        format!("y_le_p_{m}_{j}_{i}"),
                        vec![(y[m][j][i], 1.0), (p[m][j], -1.0)],
                        ConstraintSense::Le,
                        0.0,
                    );
                    milp.add_constraint(
                        format!("y_le_x_{m}_{j}_{i}"),
                        vec![(y[m][j][i], 1.0), (x[j][i], -1.0)],
                        ConstraintSense::Le,
                        0.0,
                    );
                    milp.add_constraint(
                        format!("y_ge_px_{m}_{j}_{i}"),
                        vec![(y[m][j][i], 1.0), (p[m][j], -1.0), (x[j][i], -1.0)],
                        ConstraintSense::Ge,
                        -1.0,
                    );
                }
            }
        }
        // Constraint 9: per-GPU HBM capacity.  sum_j sum_i y * hbm_bytes(j,i) <= CapD.
        for m in 0..num_gpus {
            let mut terms = Vec::new();
            for j in 0..num_tables {
                for i in 0..=steps {
                    let bytes = costs[j].options[i].hbm_bytes as f64 * mem_scale;
                    if bytes != 0.0 {
                        terms.push((y[m][j][i], bytes));
                    }
                }
            }
            milp.add_constraint(
                format!("hbm_cap_{m}"),
                terms,
                ConstraintSense::Le,
                system.hbm_capacity(m) as f64 * mem_scale,
            );
        }
        // Constraint 10: per-GPU host DRAM capacity for the UVM remainder.
        for m in 0..num_gpus {
            let mut terms = Vec::new();
            for j in 0..num_tables {
                for i in 0..=steps {
                    let bytes = costs[j].options[i].uvm_bytes as f64 * mem_scale;
                    if bytes != 0.0 {
                        terms.push((y[m][j][i], bytes));
                    }
                }
            }
            milp.add_constraint(
                format!("dram_cap_{m}"),
                terms,
                ConstraintSense::Le,
                system.dram_capacity(m) as f64 * mem_scale,
            );
        }
        // Constraints 11+12+1: per-GPU coverage-weighted cost <= C. The C
        // variable absorbs the cost normalisation, so the reported objective
        // must be divided by `cost_scale` to recover milliseconds.
        for m in 0..num_gpus {
            let menus = &costs_by_class[system.class_of(m)];
            let mut terms = Vec::new();
            for j in 0..num_tables {
                for i in 0..=steps {
                    let cost = menus[j].options[i].weighted_cost * cost_scale;
                    if cost != 0.0 {
                        terms.push((y[m][j][i], cost));
                    }
                }
            }
            terms.push((c_max, -1.0));
            milp.add_constraint(format!("cost_{m}"), terms, ConstraintSense::Le, 0.0);
        }

        let costs = costs_by_class
            .into_iter()
            .next()
            // recshard-lint: allow(unwrap) -- a SystemSpec has at least one
            // device class: its constructor rejects an empty class list.
            .expect("at least one device class");
        Ok((
            milp,
            MilpVariables {
                p,
                x,
                c_max,
                cost_scale,
            },
            costs,
        ))
    }

    /// Builds, solves and decodes the MILP into a sharding plan.
    ///
    /// # Errors
    ///
    /// Propagates build errors and solver errors ([`RecShardError::Milp`]).
    pub fn solve(
        &self,
        model: &ModelSpec,
        profile: &DatasetProfile,
        system: &SystemSpec,
    ) -> Result<ShardingPlan, RecShardError> {
        self.solve_with(
            model,
            profile,
            system,
            recshard_milp::SolveOptions::default(),
        )
    }

    /// Like [`solve`](Self::solve) with explicit branch-and-bound options
    /// (e.g. warm starts disabled, to cross-check the warm-start path).
    ///
    /// The decoded plan's GPU labels are *canonicalised*: within each device
    /// class, GPUs are renumbered onto that class's sorted id list in order
    /// of first table ownership. The MILP's optimum set is closed under
    /// permutations of *identical* GPUs only, so symmetry breaking is
    /// restricted to those within-class permutation groups — relabelling
    /// never moves a table onto a GPU with different capacities or
    /// bandwidths, and equally-optimal symmetric solutions still decode to
    /// the identical plan (warm- and cold-started solves compare equal). On
    /// a uniform cluster there is one class covering every GPU, reproducing
    /// the historical global renumbering exactly.
    ///
    /// # Errors
    ///
    /// Propagates build errors and solver errors ([`RecShardError::Milp`]).
    pub fn solve_with(
        &self,
        model: &ModelSpec,
        profile: &DatasetProfile,
        system: &SystemSpec,
        options: recshard_milp::SolveOptions,
    ) -> Result<ShardingPlan, RecShardError> {
        self.solve_observed(
            model,
            profile,
            system,
            options,
            &mut recshard_obs::ObsHandle::noop(),
        )
    }

    /// Like [`solve_with`](Self::solve_with), forwarding branch-and-bound
    /// trace events (LP solves, node opens, prunes, incumbents) to `obs`.
    /// The solve itself is observation-independent.
    ///
    /// # Errors
    ///
    /// See [`solve_with`](Self::solve_with).
    pub fn solve_observed(
        &self,
        model: &ModelSpec,
        profile: &DatasetProfile,
        system: &SystemSpec,
        options: recshard_milp::SolveOptions,
        obs: &mut recshard_obs::ObsHandle<'_>,
    ) -> Result<ShardingPlan, RecShardError> {
        let (milp, vars, costs) = self.build(model, profile, system)?;
        let solution = milp.solve_observed(options, obs)?;
        let num_tables = model.num_features();
        let num_gpus = system.num_gpus();
        let steps = self.config.icdf_steps;

        let mut placements = Vec::with_capacity(num_tables);
        // Within-class canonical relabelling: each class hands out its own
        // sorted GPU ids in order of first table ownership.
        let mut canonical_of = vec![usize::MAX; num_gpus];
        let class_ids: Vec<Vec<usize>> = (0..system.num_classes())
            .map(|c| system.gpus_in_class(c))
            .collect();
        let mut next_in_class = vec![0usize; system.num_classes()];
        for (j, spec) in model.features().iter().enumerate() {
            let gpu = arg_max(num_gpus, |m| solution.value(vars.p[m][j]));
            if canonical_of[gpu] == usize::MAX {
                let class = system.class_of(gpu);
                canonical_of[gpu] = class_ids[class][next_in_class[class]];
                next_in_class[class] += 1;
            }
            let step = arg_max(steps + 1, |i| solution.value(vars.x[j][i]));
            placements.push(TablePlacement {
                table: spec.id,
                gpu: canonical_of[gpu],
                hbm_rows: costs[j].options[step].hbm_rows,
                total_rows: spec.hash_size,
                row_bytes: spec.row_bytes(),
            });
        }
        Ok(ShardingPlan::new("recshard-milp", num_gpus, placements))
    }
}

/// The index in `0..n` with the largest `value`, the last on ties and
/// treating incomparable values as tied (as `Iterator::max_by` does); 0
/// when `n` is 0.
fn arg_max(n: usize, value: impl Fn(usize) -> f64) -> usize {
    (1..n).fold(0, |best, i| match value(best).partial_cmp(&value(i)) {
        Some(std::cmp::Ordering::Greater) => best,
        _ => i,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RecShardConfig;
    use crate::solver::StructuredSolver;
    use recshard_data::ModelSpec;
    use recshard_stats::DatasetProfiler;

    fn tiny_setup(
        tables: usize,
        seed: u64,
    ) -> (ModelSpec, DatasetProfile, SystemSpec, RecShardConfig) {
        let model = ModelSpec::small(tables, seed).with_batch_size(128);
        let profile = DatasetProfiler::profile_model(&model, 1_500, seed + 9);
        // Tight HBM so placement actually matters.
        let system = SystemSpec::uniform(
            2,
            model.total_bytes() / 5,
            model.total_bytes() * 2,
            1555.0,
            16.0,
        );
        let config = RecShardConfig::default().with_icdf_steps(6);
        (model, profile, system, config)
    }

    #[test]
    fn milp_variable_count_matches_structure() {
        let (model, profile, system, config) = tiny_setup(3, 41);
        let formulation = MilpFormulation::new(config);
        let (milp, vars, _) = formulation.build(&model, &profile, &system).unwrap();
        let steps = config.icdf_steps + 1;
        // 1 (C) + M*J (p) + J*steps (x) + M*J*steps (y)
        let expected = 1 + 2 * 3 + 3 * steps + 2 * 3 * steps;
        assert_eq!(milp.num_vars(), expected);
        assert_eq!(vars.p.len(), 2);
        assert_eq!(vars.x.len(), 3);
    }

    #[test]
    fn exact_plan_is_valid_and_splits_under_pressure() {
        let (model, profile, system, config) = tiny_setup(3, 42);
        let plan = MilpFormulation::new(config)
            .solve(&model, &profile, &system)
            .unwrap();
        plan.validate(&model, &system).unwrap();
        assert!(
            plan.total_uvm_rows() > 0,
            "tight HBM must push some rows to UVM"
        );
        assert_eq!(plan.strategy(), "recshard-milp");
    }

    #[test]
    fn structured_solver_close_to_exact_optimum() {
        let (model, profile, system, config) = tiny_setup(4, 43);
        let (milp, vars, _) = MilpFormulation::new(config)
            .build(&model, &profile, &system)
            .unwrap();
        let exact_obj = milp.solve().unwrap().objective() / vars.cost_scale;

        let mut structured_cfg = config;
        structured_cfg.hbm_slack = 0.0;
        let solver = StructuredSolver::new(structured_cfg);
        let plan = solver.solve(&model, &profile, &system).unwrap();
        let structured_obj = solver
            .gpu_costs_exact(&model, &profile, &system, &plan)
            .into_iter()
            .fold(0.0f64, f64::max);

        assert!(
            structured_obj <= exact_obj * 1.35 + 1e-9,
            "structured solver objective {structured_obj} too far from exact optimum {exact_obj}"
        );
        // And the exact optimum can never beat a relaxation of itself by definition.
        assert!(exact_obj <= structured_obj + 1e-9);
    }
}
