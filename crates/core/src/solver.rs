//! The RecShard placement solver.
//!
//! The paper's MILP has a very particular structure: each table independently
//! chooses one point on its ICDF (a split between HBM and UVM rows), each
//! table is owned by exactly one GPU, and the objective is the *maximum* over
//! GPUs of the sum of coverage-weighted table costs, subject to per-GPU HBM
//! and DRAM capacities. [`StructuredSolver`] exploits that structure:
//!
//! 1. **Split selection** — start with every bucket of tables at its
//!    cheapest (most HBM-hungry) option and repeatedly downgrade the split
//!    with the lowest marginal cost increase per HBM byte freed until the
//!    aggregate HBM demand fits the fleet (a greedy that is optimal for the
//!    continuous knapsack / Lagrangian relaxation of the split-selection
//!    subproblem).
//! 2. **Assignment** — Longest-Processing-Time greedy of every table onto
//!    the GPU with the lowest accumulated cost that still has capacity,
//!    optionally warm-started from a previous plan's assignment. The LPT
//!    order is one sort of a `u64` per table (its cost key, with the table
//!    index in the low bits) plus a re-sort of any run whose high bits tie.
//!    The GPUs are the leaves of a tournament tree keyed by their loads, so
//!    placing a table costs `O(log m)` when the least-loaded GPU can hold
//!    it; only when it cannot are all `m` GPUs scanned.
//! 3. **Refinement** — alternate a local search on the bottleneck GPU
//!    (moves that re-pick the moved table's split for its new GPU, then
//!    swaps) with a backfill that spends each GPU's leftover HBM on its own
//!    tables' splits, until neither improves.
//!
//! **Lazy menus.** A bucket's [`TableCostModel`] (one split option per
//! ICDF step) is built the first time the solve needs a step below the
//! bucket's top one — a phase-1 downgrade, a phase-2 capacity fallback, or
//! a phase-3 move onto a GPU that cannot hold the top step — and is kept
//! for the rest of the solve. Until then the top option comes from
//! [`TableCostModel::top_option`], which reads no cumulative count. When
//! every table's profiled-hot rows fit in HBM, phase 1 has nothing to
//! downgrade and the solve builds few menus or none, so the
//! `O(tables × icdf_steps)` cost of building them is paid only when HBM
//! binds.
//!
//! **One price per table.** The pass that prices the top options also
//! keeps each table's rate (bytes per iteration and coverage). From then
//! on a table that is its own bucket's representative is charged its menu
//! option's stored cost on every GPU whose class has the reference class's
//! bandwidths (the same bits), and its rate at the option's stored HBM
//! fraction elsewhere; only a bucket member that is not the representative
//! reads its own CDF again. A solve on ample HBM therefore reads each
//! profile once.
//!
//! **Bucketing.** The unbucketed solver ([`StructuredSolver::new`], the
//! default) treats every table as a bucket of its own. The bucketed
//! configuration ([`ScalableSolver::new`](crate::scalable::ScalableSolver::new))
//! first groups near-identical tables with [`TableBuckets`], prices one
//! menu per bucket representative, and lets each phase-1 downgrade free
//! `members × bytes` at once — shrinking the menu-building term, when HBM
//! binds, by the compression ratio. Assignment and refinement place every table
//! individually and price it exactly from its own CDF either way, so both
//! configurations emit equally granular plans.
//!
//! **Finite costs.** Before phase 1 the solve checks that every table's
//! cost is finite under every device class of the system, and otherwise
//! fails with [`RecShardError::NonFiniteCost`]; so no NaN reaches
//! the LPT sort or the GPU pick, whose orders are `partial_cmp`'s only
//! without one.
//!
//! **Heterogeneous clusters.** Split selection prices downgrades under the
//! cluster's reference class; from phase 2 on every GPU is charged the cost
//! of a table under *its own* device class's bandwidths and checked against
//! its own capacities, so fast big-memory GPUs naturally attract more (and
//! hotter) tables.
//!
//! Property tests in this module and the integration suite check the solver
//! against the exact MILP on small instances and verify capacity safety on
//! random ones.

use crate::bucketing::TableBuckets;
use crate::config::RecShardConfig;
use crate::cost::{Bandwidths, SplitOption, TableCostModel, TableRate};
use crate::error::RecShardError;
use recshard_data::ModelSpec;
use recshard_sharding::{DeviceClass, ShardingPlan, SystemSpec, TablePlacement};
use recshard_stats::DatasetProfile;
use std::cell::OnceCell;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Rounds of phase-3 refinement (bottleneck local search, then HBM
/// backfill); each round's local search makes at most 8× this many moves.
const REFINEMENT_PASSES: usize = 4;

/// The RecShard placement solver, unbucketed or bucketed.
#[derive(Debug, Clone)]
pub struct StructuredSolver {
    config: RecShardConfig,
    bucketed: bool,
}

/// A solve plus the bucketing statistics the benches report.
#[derive(Debug, Clone)]
pub struct SolveReport {
    /// The placement plan.
    pub plan: ShardingPlan,
    /// Number of tables in the model.
    pub tables: usize,
    /// Number of buckets split selection ran over (`tables` when unbucketed).
    pub buckets: usize,
    /// `tables / buckets` (1.0 when unbucketed).
    pub compression_ratio: f64,
}

/// A phase-1 downgrade of one bucket from step `from` to `to`, the next
/// step down that frees HBM. The heap pops the lowest marginal cost per
/// freed byte first, ties going to the lowest bucket index.
#[derive(PartialEq)]
struct Downgrade {
    ratio: f64,
    bucket: usize,
    from: usize,
    to: usize,
}

impl Downgrade {
    /// The next downgrade of `bucket` (priced by its menu `options`) from
    /// step `from`, if any step below it frees bytes (plateaus are skipped).
    fn of(options: &[SplitOption], bucket: usize, from: usize) -> Option<Self> {
        let cur = &options[from];
        let to = options[..from]
            .iter()
            .rposition(|o| o.hbm_bytes < cur.hbm_bytes)?;
        let next = &options[to];
        let extra_cost = (next.weighted_cost - cur.weighted_cost).max(0.0);
        Some(Self {
            // Per-byte marginal cost is member-count invariant: each member
            // frees the same bytes and pays the same extra cost.
            ratio: extra_cost / (cur.hbm_bytes - next.hbm_bytes) as f64,
            bucket,
            from,
            to,
        })
    }
}

impl Eq for Downgrade {}

impl PartialOrd for Downgrade {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Downgrade {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .ratio
            .partial_cmp(&self.ratio)
            .unwrap_or(Ordering::Equal)
            .then(other.bucket.cmp(&self.bucket))
    }
}

/// The split menus and table prices of one solve. Menus are one per
/// bucket, priced under the cluster's reference class; without bucketing
/// every table is its own bucket. A bucket's menu is built the first time
/// the solve needs a step below its top one, and kept for the rest of the
/// solve. Until then its top option, which is all the solve reads of a
/// bucket while HBM does not bind, comes from
/// [`TableCostModel::top_option`].
struct Menus<'a> {
    /// `None`: one bucket per table.
    buckets: Option<&'a TableBuckets>,
    profile: &'a DatasetProfile,
    reference: DeviceClass,
    reference_bw: Bandwidths,
    batch: u32,
    config: &'a RecShardConfig,
    /// Per table: its bytes per iteration and coverage.
    rates: Vec<TableRate>,
    /// Per GPU: its class's bandwidths, and whether they are the reference
    /// class's bits.
    gpus: Vec<(Bandwidths, bool)>,
    tops: Vec<SplitOption>,
    built: Vec<OnceCell<Box<[SplitOption]>>>,
}

impl<'a> Menus<'a> {
    /// Prices every table's rate, and every bucket's top option, in one
    /// pass over the tables.
    fn new(
        buckets: Option<&'a TableBuckets>,
        profile: &'a DatasetProfile,
        system: &SystemSpec,
        batch: u32,
        config: &'a RecShardConfig,
    ) -> Self {
        let reference = *system.reference_class();
        let reference_bw = Bandwidths::of(&reference);
        let num_buckets = buckets.map_or(profile.num_features(), TableBuckets::num_buckets);
        let mut rates = Vec::with_capacity(profile.num_features());
        let mut tops = Vec::with_capacity(num_buckets);
        for (t, p) in profile.profiles().iter().enumerate() {
            let rate = TableRate::new(p, batch, config);
            // Representatives come in ascending table order.
            let b = tops.len();
            if b < num_buckets && buckets.map_or(b, |bk| bk.buckets()[b].representative) == t {
                tops.push(rate.top_option(&reference_bw, p, config.icdf_steps));
            }
            rates.push(rate);
        }
        let gpus = (0..system.num_gpus())
            .map(|g| {
                let bw = Bandwidths::of(system.device(g));
                (bw, bw.prices_like(&reference_bw))
            })
            .collect();
        Self {
            buckets,
            profile,
            reference,
            reference_bw,
            batch,
            config,
            rates,
            gpus,
            tops,
            built: (0..num_buckets).map(|_| OnceCell::new()).collect(),
        }
    }

    /// Fails on the first table whose cost is not finite under one of the
    /// system's classes. A cost is linear in the fraction of accesses HBM
    /// serves, so its values at 0 and 1 bound every split's; with both
    /// finite, no NaN reaches the LPT sort or the GPU pick.
    fn check_finite(&self, system: &SystemSpec) -> Result<(), RecShardError> {
        for class in system.classes() {
            let bw = Bandwidths::of(class);
            for (table, rate) in self.rates.iter().enumerate() {
                if !(rate.cost_ms(&bw, 0.0).is_finite() && rate.cost_ms(&bw, 1.0).is_finite()) {
                    return Err(RecShardError::NonFiniteCost {
                        table,
                        class: class.name,
                    });
                }
            }
        }
        Ok(())
    }

    fn num_buckets(&self) -> usize {
        self.tops.len()
    }

    /// The bucket table `t` belongs to.
    fn bucket_of(&self, t: usize) -> usize {
        self.buckets.map_or(t, |bk| bk.bucket_of_table()[t])
    }

    /// The table whose menu stands in for bucket `b`.
    fn representative(&self, b: usize) -> usize {
        self.buckets.map_or(b, |bk| bk.buckets()[b].representative)
    }

    /// Number of tables in bucket `b`.
    fn members(&self, b: usize) -> u64 {
        self.buckets
            .map_or(1, |bk| bk.buckets()[b].members.len() as u64)
    }

    /// Bucket `b`'s full menu, built on first use.
    fn menu(&self, b: usize) -> &[SplitOption] {
        self.built[b].get_or_init(|| {
            let rep = self.representative(b);
            TableCostModel::build(
                rep,
                &self.profile.profiles()[rep],
                &self.reference,
                self.batch,
                self.config,
            )
            .options
            .into_boxed_slice()
        })
    }

    /// Bucket `b`'s option at `step`; only a step below the top one
    /// (`icdf_steps`, the most HBM-hungry) builds the menu.
    fn option(&self, b: usize, step: usize) -> &SplitOption {
        if step == self.config.icdf_steps {
            &self.tops[b]
        } else {
            &self.menu(b)[step]
        }
    }

    /// The exact cost of table `t` at `opt`, an option of its bucket's
    /// menu, under the reference class (`gpu` `None`) or GPU `gpu`'s class:
    /// the option's own cost when `t` is its bucket's representative and
    /// the class prices like the reference class, and otherwise `t`'s rate
    /// at the fraction of `t`'s accesses the option's rows serve.
    fn cost(&self, t: usize, opt: &SplitOption, gpu: Option<usize>) -> f64 {
        let (bandwidths, like_reference) = gpu.map_or((self.reference_bw, true), |g| self.gpus[g]);
        let is_rep = self.representative(self.bucket_of(t)) == t;
        if is_rep && like_reference {
            return opt.weighted_cost;
        }
        let pct = if is_rep {
            opt.hbm_access_fraction
        } else {
            let p = &self.profile.profiles()[t];
            p.cdf.access_fraction(opt.hbm_rows.min(p.hash_size))
        };
        self.rates[t].cost_ms(&bandwidths, pct)
    }
}

/// The bits of `c` as a key that ascends with its value: `-0.0` and `+0.0`
/// share a key, and without a NaN the order of keys is `partial_cmp`'s.
fn ascending_key(c: f64) -> u64 {
    // `+ 0.0` makes -0.0 the +0.0 it compares equal to; the bits of the
    // rest, sign-flipped, ascend with the value.
    let bits = (c + 0.0).to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}

/// The tables in LPT order: costliest first, ties to the lower table. No
/// cost may be NaN (`Menus::check_finite`).
///
/// Each table is one `u64`: its descending cost key with the low
/// `⌈log2 n⌉` bits replaced by its index. Sorting those puts the tables
/// in order wherever their keys differ above the low bits; a run of
/// tables whose keys agree there comes out in table order, and is
/// re-sorted on the full keys.
fn lpt_order(cost_of: &[f64]) -> Vec<usize> {
    let n = cost_of.len();
    // The low bits hold every index below `n`; none when `n` is at most 1.
    let low = u64::MAX
        .checked_shr((n.saturating_sub(1) as u64).leading_zeros())
        .unwrap_or(0);
    let key = |t: u64| !ascending_key(cost_of[t as usize]);
    let mut packed: Vec<u64> = (0..n as u64).map(|t| key(t) & !low | t).collect();
    packed.sort_unstable();
    for run in packed.chunk_by_mut(|a, b| a & !low == b & !low) {
        if run.len() > 1 {
            run.sort_unstable_by_key(|&p| (key(p & low), p & low));
        }
    }
    packed.into_iter().map(|p| (p & low) as usize).collect()
}

/// Phase 2's choice of GPU for a table: the least-loaded GPU that can hold
/// it, ties to the lower index, as `(0..m).filter(fits).min_by(by_cost.then(index))`
/// picks it while no load is NaN. The GPUs are the leaves of a tournament
/// tree keyed by `(ascending_key(load), gpu)`, so a load update costs
/// `O(log m)`. When the top GPU fits, it is the pick; otherwise the GPUs are
/// scanned.
struct GpuPick {
    /// The tree's nodes as `(key, gpu)`, node 1 the root and node `i`'s
    /// children `2i` and `2i + 1`. Leaf `leaves + g` is GPU `g`; the leaves
    /// past the last GPU hold `u64::MAX` and lose every tie, so the root is
    /// always a GPU.
    nodes: Vec<(u64, usize)>,
    gpus: usize,
}

impl GpuPick {
    /// `gpus` GPUs, at least one, each with load 0.
    fn new(gpus: usize) -> Self {
        let leaves = gpus.next_power_of_two();
        let mut nodes = vec![(0, 0); leaves];
        nodes.extend((0..leaves).map(|g| {
            let key = if g < gpus {
                ascending_key(0.0)
            } else {
                u64::MAX
            };
            (key, g)
        }));
        for node in (1..leaves).rev() {
            nodes[node] = Self::winner(nodes[2 * node], nodes[2 * node + 1]);
        }
        Self { nodes, gpus }
    }

    /// The lower key of two siblings. Every leaf under the left one precedes
    /// every leaf under the right one, so a tie goes to the lower GPU.
    fn winner(left: (u64, usize), right: (u64, usize)) -> (u64, usize) {
        if right.0 < left.0 {
            right
        } else {
            left
        }
    }

    /// Sets GPU `g`'s load.
    fn set(&mut self, g: usize, load: f64) {
        let mut node = self.nodes.len() / 2 + g;
        self.nodes[node].0 = ascending_key(load);
        while node > 1 {
            node /= 2;
            self.nodes[node] = Self::winner(self.nodes[2 * node], self.nodes[2 * node + 1]);
        }
    }

    /// The least-loaded GPU for which `fits` holds, ties to the lower index.
    fn pick(&self, fits: impl Fn(usize) -> bool) -> Option<usize> {
        let top = self.nodes[1].1;
        if fits(top) {
            return Some(top);
        }
        let leaves = &self.nodes[self.nodes.len() / 2..][..self.gpus];
        leaves
            .iter()
            .filter(|&&(_, g)| fits(g))
            .min_by_key(|&&(key, _)| key)
            .map(|&(_, g)| g)
    }
}

/// Orders GPUs by accumulated cost.
fn by_cost(gpu_cost: &[f64], a: usize, b: usize) -> Ordering {
    gpu_cost[a]
        .partial_cmp(&gpu_cost[b])
        .unwrap_or(Ordering::Equal)
}

impl StructuredSolver {
    /// Creates the unbucketed solver: one bucket per table.
    pub fn new(config: RecShardConfig) -> Self {
        Self {
            config,
            bucketed: false,
        }
    }

    /// Creates the bucketed solver: split selection runs over the buckets
    /// [`TableBuckets::build`] groups the tables into.
    pub(crate) fn with_bucketing(config: RecShardConfig) -> Self {
        Self {
            config,
            bucketed: true,
        }
    }

    /// Produces a RecShard placement plan.
    ///
    /// # Errors
    ///
    /// Returns [`RecShardError::InvalidConfig`] for an invalid solver
    /// configuration, [`RecShardError::CapacityExceeded`] if the
    /// model cannot fit in the system at all,
    /// [`RecShardError::ProfileMismatch`] if the profile does not cover the
    /// model, and [`RecShardError::NonFiniteCost`] if a table's cost is not
    /// finite under one of the system's device classes.
    pub fn solve(
        &self,
        model: &ModelSpec,
        profile: &DatasetProfile,
        system: &SystemSpec,
    ) -> Result<ShardingPlan, RecShardError> {
        Ok(self.solve_report(model, profile, system)?.plan)
    }

    /// Re-solves after a drift/re-sharding event, warm-started from the
    /// previous plan: phase-2 assignment first tries to keep every table on
    /// its previous GPU (minimising migration churn), and the usual
    /// bottleneck local search then only moves tables when that strictly
    /// improves the max per-GPU cost. The result is *gated* against a cold
    /// solve on the exact objective ([`gpu_costs_exact`](Self::gpu_costs_exact)):
    /// the returned plan is never costlier than the cold re-solve, and on
    /// ties the warm (migration-friendly) plan wins.
    ///
    /// A `previous` plan whose GPU count or table count no longer matches
    /// the inputs is ignored (plain cold solve).
    ///
    /// # Errors
    ///
    /// As [`solve`](Self::solve).
    pub fn solve_seeded(
        &self,
        model: &ModelSpec,
        profile: &DatasetProfile,
        system: &SystemSpec,
        previous: &ShardingPlan,
    ) -> Result<ShardingPlan, RecShardError> {
        let cold = self.solve_report_impl(model, profile, system, None)?;
        if previous.num_gpus() != system.num_gpus()
            || previous.placements().len() != model.num_features()
        {
            return Ok(cold.plan);
        }
        let seed = previous.gpu_assignments();
        // A seed can wedge the packing (pinning large tables to their old
        // GPUs may leave a later table nowhere to go); the cold plan in
        // hand is feasible, so an infeasible warm attempt falls back to it
        // rather than failing the re-solve.
        let Ok(warm) = self.solve_report_impl(model, profile, system, Some(&seed)) else {
            return Ok(cold.plan);
        };
        let max_cost = |plan: &ShardingPlan| {
            self.gpu_costs_exact(model, profile, system, plan)
                .into_iter()
                .fold(0.0f64, f64::max)
        };
        if max_cost(&warm.plan) <= max_cost(&cold.plan) * (1.0 + 1e-9) {
            Ok(warm.plan)
        } else {
            Ok(cold.plan)
        }
    }

    /// Produces a placement plan plus bucketing statistics.
    ///
    /// # Errors
    ///
    /// As [`solve`](Self::solve).
    pub fn solve_report(
        &self,
        model: &ModelSpec,
        profile: &DatasetProfile,
        system: &SystemSpec,
    ) -> Result<SolveReport, RecShardError> {
        self.solve_report_impl(model, profile, system, None)
    }

    /// Like [`solve_report`](Self::solve_report), recording a
    /// [`TraceEvent::Bucketing`](recshard_obs::TraceEvent::Bucketing) event
    /// with the preprocessor's compression ratio into `obs`. The solve
    /// itself is observation-independent.
    ///
    /// # Errors
    ///
    /// As [`solve`](Self::solve).
    pub fn solve_report_observed(
        &self,
        model: &ModelSpec,
        profile: &DatasetProfile,
        system: &SystemSpec,
        obs: &mut recshard_obs::ObsHandle<'_>,
    ) -> Result<SolveReport, RecShardError> {
        let report = self.solve_report_impl(model, profile, system, None)?;
        obs.record(
            0,
            recshard_obs::TraceEvent::Bucketing {
                tables: report.tables as u64,
                buckets: report.buckets as u64,
                compression: report.compression_ratio,
            },
        );
        Ok(report)
    }

    fn solve_report_impl(
        &self,
        model: &ModelSpec,
        profile: &DatasetProfile,
        system: &SystemSpec,
        seed_assignment: Option<&[usize]>,
    ) -> Result<SolveReport, RecShardError> {
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
        if model.total_bytes() > system.total_capacity() {
            return Err(RecShardError::CapacityExceeded {
                required_bytes: model.total_bytes(),
                available_bytes: system.total_capacity(),
            });
        }

        let num_tables = model.num_features();
        let buckets = self.bucketed.then(|| TableBuckets::build(model, profile));
        // One cost menu per bucket representative, priced under the
        // cluster's reference class (class 0): phase-1 split selection needs
        // a single shared price per downgrade. Per-GPU costs during
        // assignment and refinement are charged under the owning GPU's own
        // device class (see `Menus::cost`), so heterogeneity only ever
        // sharpens the balancing.
        let menus = Menus::new(
            buckets.as_ref(),
            profile,
            system,
            model.batch_size(),
            &self.config,
        );
        menus.check_finite(system)?;
        let top = self.config.icdf_steps;

        // ---- Phase 1: split selection over buckets ----
        let budget = (system.total_hbm_capacity() as f64 * (1.0 - self.config.hbm_slack)) as u64;
        let mut bucket_step = vec![top; menus.num_buckets()];
        let mut hbm_demand: u64 = (0..menus.num_buckets())
            .map(|b| menus.option(b, top).hbm_bytes * menus.members(b))
            .sum();
        // Pricing every bucket's first downgrade builds every menu, so the
        // heap is built only when the top steps overrun the budget; when
        // they fit, the loop would pop nothing.
        if hbm_demand > budget {
            let mut heap: BinaryHeap<Downgrade> = (0..menus.num_buckets())
                .filter_map(|b| Downgrade::of(menus.menu(b), b, top))
                .collect();
            while hbm_demand > budget {
                let Some(d) = heap.pop() else { break };
                if d.from != bucket_step[d.bucket] {
                    continue; // stale entry
                }
                let menu = menus.menu(d.bucket);
                let freed_each = menu[d.from].hbm_bytes - menu[d.to].hbm_bytes;
                bucket_step[d.bucket] = d.to;
                hbm_demand -= freed_each * menus.members(d.bucket);
                if let Some(next) = Downgrade::of(menu, d.bucket, d.to) {
                    heap.push(next);
                }
            }
        }

        // Per-table steps seeded from the bucket decision; assignment and
        // backfill refine them individually from here on. The shared menus
        // supply step geometry (row counts, bytes); each table's *cost* at
        // its current step is exact for the table itself (`Menus::cost`),
        // so balancing never pays the merge tolerance.
        let mut step: Vec<usize> = (0..num_tables)
            .map(|t| bucket_step[menus.bucket_of(t)])
            .collect();
        // Table `t`'s option at its current step.
        let option_of = |t: usize, step: usize| menus.option(menus.bucket_of(t), step);
        // `cost_of[t]` is the cost of `t` at its current split under its
        // *current owner's* class once assigned (reference class before).
        let mut cost_of: Vec<f64> = (0..num_tables)
            .map(|t| menus.cost(t, option_of(t, step[t]), None))
            .collect();

        // ---- Phase 2: min-max assignment (LPT + capacity) ----
        let m = system.num_gpus();
        let mut gpu_cost = vec![0.0f64; m];
        let mut pick = GpuPick::new(m);
        let mut hbm_free: Vec<u64> = (0..m).map(|g| system.hbm_capacity(g)).collect();
        let mut dram_free: Vec<u64> = (0..m).map(|g| system.dram_capacity(g)).collect();
        // Every entry is written below, or the solve fails.
        let mut assignment: Vec<usize> = vec![0; num_tables];

        for t in lpt_order(&cost_of) {
            // Warm start: keep the table on its previous GPU when it still
            // fits there at the current split; the gated local search below
            // moves it only if that strictly improves the bottleneck.
            let seeded = seed_assignment.map(|seed| seed[t]).filter(|&g| {
                let opt = option_of(t, step[t]);
                hbm_free[g] >= opt.hbm_bytes && dram_free[g] >= opt.uvm_bytes
            });
            // Otherwise the cheapest-loaded GPU that can hold the table at
            // its current split; if none can, progressively downgrade the
            // split until one fits.
            let g = loop {
                let opt = option_of(t, step[t]);
                let candidate = seeded.or_else(|| {
                    pick.pick(|g| hbm_free[g] >= opt.hbm_bytes && dram_free[g] >= opt.uvm_bytes)
                });
                if let Some(g) = candidate {
                    hbm_free[g] -= opt.hbm_bytes;
                    dram_free[g] -= opt.uvm_bytes;
                    cost_of[t] = menus.cost(t, opt, Some(g));
                    break g;
                }
                if step[t] == 0 {
                    return Err(RecShardError::CapacityExceeded {
                        required_bytes: opt.uvm_bytes,
                        available_bytes: dram_free.iter().copied().max().unwrap_or(0),
                    });
                }
                step[t] -= 1;
                cost_of[t] = menus.cost(t, option_of(t, step[t]), None);
            };
            gpu_cost[g] += cost_of[t];
            pick.set(g, gpu_cost[g]);
            assignment[t] = g;
        }

        // Each GPU's tables in ascending order, kept so across moves and
        // swaps.
        let mut tables_on: Vec<Vec<usize>> = vec![Vec::new(); m];
        for (t, &g) in assignment.iter().enumerate() {
            tables_on[g].push(t);
        }
        let relocate = |tables_on: &mut [Vec<usize>], t: usize, from: usize, to: usize| {
            let src = &mut tables_on[from];
            if let Ok(at) = src.binary_search(&t) {
                src.remove(at);
            }
            let dst = &mut tables_on[to];
            let at = dst.partition_point(|&x| x < t);
            dst.insert(at, t);
        };

        // ---- Phase 3: alternate bottleneck local search and HBM backfill ----
        // The bottleneck's tables at the start of a local-search round.
        let mut tables_on_bottleneck: Vec<usize> = Vec::new();
        // Phase-1 downgrades land coarser than a per-GPU optimum (and
        // bucket-granular ones coarser still), so a single search+backfill
        // pass leaves a percent-level gap; alternating the two (each strictly
        // improving) until a joint fixpoint recovers it.
        for _round in 0..REFINEMENT_PASSES {
            let mut any_change = false;

            // -- 3a: move-with-resplit local search on the bottleneck GPU --
            // A table moved off the bottleneck re-picks its split step to the
            // largest one the target GPU can hold (options are cost-monotone
            // in HBM rows), so moves are never blocked by a split chosen for
            // the wrong GPU. Moves and swaps strictly reduce the max per-GPU
            // cost, so more passes can only help; the cap bounds worst-case
            // work.
            for _ in 0..REFINEMENT_PASSES * 8 {
                let Some(bottleneck) = (0..m).max_by(|&a, &b| by_cost(&gpu_cost, a, b)) else {
                    break;
                };
                let mut improved = false;
                tables_on_bottleneck.clone_from(&tables_on[bottleneck]);
                for &t in &tables_on_bottleneck {
                    let b = menus.bucket_of(t);
                    let opt = menus.option(b, step[t]);
                    let top_opt = menus.option(b, top);
                    let mut best: Option<(usize, usize, f64, f64)> = None; // (gpu, step, cost, new_max)
                    for g in 0..m {
                        if g == bottleneck {
                            continue;
                        }
                        // Largest split the target can hold. HBM bytes are
                        // non-decreasing and UVM bytes non-increasing over
                        // the options, so the feasible steps form a
                        // contiguous range found by two partition points.
                        // It ends at the top step when that fits, and then
                        // the menu need not be built.
                        let s = if hbm_free[g] >= top_opt.hbm_bytes
                            && dram_free[g] >= top_opt.uvm_bytes
                        {
                            top
                        } else {
                            let options = menus.menu(b);
                            let hi = options.partition_point(|o| o.hbm_bytes <= hbm_free[g]);
                            let lo = options.partition_point(|o| o.uvm_bytes > dram_free[g]);
                            if hi == 0 || lo >= hi {
                                continue;
                            }
                            hi - 1
                        };
                        let moved_cost = menus.cost(t, menus.option(b, s), Some(g));
                        let new_src = gpu_cost[bottleneck] - cost_of[t];
                        let new_dst = gpu_cost[g] + moved_cost;
                        // `new_max` is at least `new_dst`: skip its O(m)
                        // scan when `new_dst` alone rules the move out.
                        if new_dst + 1e-12 >= gpu_cost[bottleneck] {
                            continue;
                        }
                        let new_max = (0..m)
                            .map(|x| {
                                if x == bottleneck {
                                    new_src
                                } else if x == g {
                                    new_dst
                                } else {
                                    gpu_cost[x]
                                }
                            })
                            .fold(0.0f64, f64::max);
                        if new_max + 1e-12 < gpu_cost[bottleneck]
                            && best.is_none_or(|(_, _, _, b)| new_max < b)
                        {
                            best = Some((g, s, moved_cost, new_max));
                        }
                    }
                    if let Some((g, s, moved_cost, _)) = best {
                        let dst_opt = menus.option(b, s);
                        hbm_free[bottleneck] += opt.hbm_bytes;
                        dram_free[bottleneck] += opt.uvm_bytes;
                        hbm_free[g] -= dst_opt.hbm_bytes;
                        dram_free[g] -= dst_opt.uvm_bytes;
                        gpu_cost[bottleneck] -= cost_of[t];
                        gpu_cost[g] += moved_cost;
                        assignment[t] = g;
                        relocate(&mut tables_on, t, bottleneck, g);
                        step[t] = s;
                        cost_of[t] = moved_cost;
                        improved = true;
                        any_change = true;
                    }
                }

                // Moves alone cannot fix LPT packing noise (every GPU near
                // the max); exchange a bottleneck table against a cheaper
                // table elsewhere when the trade lowers the maximum. The
                // O(T_bottleneck × T) scan only pays off while a real
                // imbalance exists — within 0.1% of the mean it would just
                // chase noise, so skip it.
                let mean_cost = gpu_cost.iter().sum::<f64>() / m as f64;
                if !improved && gpu_cost[bottleneck] > mean_cost * 1.001 {
                    'swap: for &t1 in &tables_on_bottleneck {
                        if assignment[t1] != bottleneck {
                            continue;
                        }
                        let o1 = option_of(t1, step[t1]);
                        for t2 in 0..num_tables {
                            let g = assignment[t2];
                            if g == bottleneck || cost_of[t2] + 1e-15 >= cost_of[t1] {
                                continue;
                            }
                            let o2 = option_of(t2, step[t2]);
                            let hbm_ok = hbm_free[bottleneck] + o1.hbm_bytes >= o2.hbm_bytes
                                && hbm_free[g] + o2.hbm_bytes >= o1.hbm_bytes;
                            let dram_ok = dram_free[bottleneck] + o1.uvm_bytes >= o2.uvm_bytes
                                && dram_free[g] + o2.uvm_bytes >= o1.uvm_bytes;
                            if !hbm_ok || !dram_ok {
                                continue;
                            }
                            // Each side's delta is priced under its own
                            // class; on a uniform cluster both reduce to
                            // `cost_of[t1] - cost_of[t2]`.
                            let t2_on_src = menus.cost(t2, o2, Some(bottleneck));
                            let t1_on_dst = menus.cost(t1, o1, Some(g));
                            let new_src = gpu_cost[bottleneck] - (cost_of[t1] - t2_on_src);
                            let new_dst = gpu_cost[g] + (t1_on_dst - cost_of[t2]);
                            if new_src.max(new_dst) + 1e-12 >= gpu_cost[bottleneck] {
                                continue;
                            }
                            hbm_free[bottleneck] =
                                hbm_free[bottleneck] + o1.hbm_bytes - o2.hbm_bytes;
                            dram_free[bottleneck] =
                                dram_free[bottleneck] + o1.uvm_bytes - o2.uvm_bytes;
                            hbm_free[g] = hbm_free[g] + o2.hbm_bytes - o1.hbm_bytes;
                            dram_free[g] = dram_free[g] + o2.uvm_bytes - o1.uvm_bytes;
                            gpu_cost[bottleneck] = new_src;
                            gpu_cost[g] = new_dst;
                            cost_of[t1] = t1_on_dst;
                            cost_of[t2] = t2_on_src;
                            assignment[t1] = g;
                            assignment[t2] = bottleneck;
                            relocate(&mut tables_on, t1, bottleneck, g);
                            relocate(&mut tables_on, t2, g, bottleneck);
                            improved = true;
                            any_change = true;
                            break 'swap;
                        }
                    }
                }
                if !improved {
                    break;
                }
            }

            // -- 3b: backfill leftover per-GPU HBM by upgrading splits --
            // Candidate geometry comes from the shared menus; gains are
            // computed exactly per table. A table at its top step has no
            // candidates.
            for (g, tables) in tables_on.iter().enumerate() {
                loop {
                    let mut best: Option<(usize, usize, f64, u64)> = None; // (table, new_step, gain, extra)
                    for &t in tables {
                        let b = menus.bucket_of(t);
                        let cur = menus.option(b, step[t]);
                        for s in (step[t] + 1)..=top {
                            let cand = menus.option(b, s);
                            let extra = cand.hbm_bytes.saturating_sub(cur.hbm_bytes);
                            if extra > hbm_free[g] {
                                break;
                            }
                            let gain = cost_of[t] - menus.cost(t, cand, Some(g));
                            if gain > 1e-15 && best.is_none_or(|(_, _, bg, _)| gain > bg) {
                                best = Some((t, s, gain, extra));
                            }
                        }
                    }
                    let Some((t, s, gain, extra)) = best else {
                        break;
                    };
                    hbm_free[g] -= extra;
                    dram_free[g] += option_of(t, step[t]).uvm_bytes - option_of(t, s).uvm_bytes;
                    gpu_cost[g] -= gain;
                    step[t] = s;
                    cost_of[t] -= gain;
                    any_change = true;
                }
            }

            if !any_change {
                break;
            }
        }

        // ---- Materialise the plan ----
        let placements = model
            .features()
            .iter()
            .enumerate()
            .map(|(t, spec)| TablePlacement {
                table: spec.id,
                gpu: assignment[t],
                // The representative's split row count, clamped to this
                // table's geometry (identical within a bucket by
                // construction, the clamp is belt-and-braces).
                hbm_rows: option_of(t, step[t]).hbm_rows.min(spec.hash_size),
                total_rows: spec.hash_size,
                row_bytes: spec.row_bytes(),
            })
            .collect();
        let strategy = if self.bucketed {
            "recshard-scalable"
        } else {
            "recshard"
        };
        let plan = ShardingPlan::new(strategy, m, placements);
        debug_assert!(plan.validate(model, system).is_ok());
        Ok(SolveReport {
            plan,
            tables: num_tables,
            buckets: menus.num_buckets(),
            compression_ratio: buckets
                .as_ref()
                .map_or(1.0, TableBuckets::compression_ratio),
        })
    }

    /// The exact per-GPU cost vector of a plan: every table charged its
    /// coverage-weighted analytical cost at the *actual* placed row count
    /// ([`TableCostModel::weighted_cost_at`]) under the owning GPU's device
    /// class, with no rounding onto any ICDF grid. This is the objective
    /// every solver and baseline plan is scored on.
    pub fn gpu_costs_exact(
        &self,
        model: &ModelSpec,
        profile: &DatasetProfile,
        system: &SystemSpec,
        plan: &ShardingPlan,
    ) -> Vec<f64> {
        let batch = model.batch_size();
        let mut gpu_cost = vec![0.0f64; plan.num_gpus()];
        for (t, p) in plan.placements().iter().enumerate() {
            gpu_cost[p.gpu] += TableCostModel::weighted_cost_at(
                &profile.profiles()[t],
                system.device(p.gpu),
                batch,
                &self.config,
                p.hbm_rows,
            );
        }
        gpu_cost
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scalable::ScalableSolver;
    use recshard_data::ModelSpec;
    use recshard_stats::DatasetProfiler;

    fn setup(n: usize, seed: u64) -> (ModelSpec, DatasetProfile) {
        let model = ModelSpec::small(n, seed);
        let profile = DatasetProfiler::profile_model(&model, 2_000, seed + 1);
        (model, profile)
    }

    /// A uniform system whose per-GPU HBM holds `1/hbm_denom` of the model.
    fn pressured(model: &ModelSpec, gpus: usize, hbm_denom: u64) -> SystemSpec {
        SystemSpec::uniform(
            gpus,
            model.total_bytes() / hbm_denom,
            model.total_bytes(),
            1555.0,
            16.0,
        )
    }

    fn max_cost(
        model: &ModelSpec,
        profile: &DatasetProfile,
        system: &SystemSpec,
        plan: &ShardingPlan,
    ) -> f64 {
        StructuredSolver::new(RecShardConfig::default())
            .gpu_costs_exact(model, profile, system, plan)
            .into_iter()
            .fold(0.0f64, f64::max)
    }

    #[test]
    fn ample_capacity_keeps_accessed_rows_in_hbm() {
        let (model, profile) = setup(8, 3);
        let system = SystemSpec::uniform(2, model.total_bytes(), model.total_bytes(), 1555.0, 16.0);
        let plan = StructuredSolver::new(RecShardConfig::default())
            .solve(&model, &profile, &system)
            .unwrap();
        plan.validate(&model, &system).unwrap();
        for (p, prof) in plan.placements().iter().zip(profile.profiles()) {
            assert!(
                p.hbm_rows >= prof.cdf.full_coverage_rows(),
                "all accessed rows should be in HBM"
            );
        }
    }

    #[test]
    fn capacity_pressure_moves_cold_rows_to_uvm() {
        let (model, profile) = setup(12, 7);
        let system = pressured(&model, 2, 8);
        let plan = StructuredSolver::new(RecShardConfig::default())
            .solve(&model, &profile, &system)
            .unwrap();
        plan.validate(&model, &system).unwrap();
        assert!(plan.total_uvm_rows() > 0);
        // HBM usage never exceeds per-GPU capacity (validate also checks this).
        for (g, &bytes) in plan.hbm_bytes_per_gpu().iter().enumerate() {
            assert!(bytes <= system.hbm_capacity(g));
        }
    }

    #[test]
    fn unbucketed_report_has_one_bucket_per_table() {
        let (model, profile) = setup(12, 7);
        let system = pressured(&model, 2, 8);
        let config = RecShardConfig::default();
        let (unbucketed, bucketed) = (StructuredSolver::new(config), ScalableSolver::new(config));
        let report = unbucketed.solve_report(&model, &profile, &system).unwrap();
        assert_eq!(report.buckets, report.tables);
        assert_eq!(report.compression_ratio, 1.0);
        assert_eq!(report.plan.strategy(), "recshard");
        let report = bucketed.solve_report(&model, &profile, &system).unwrap();
        assert_eq!(report.plan.strategy(), "recshard-scalable");
    }

    #[test]
    fn tighter_capacity_never_decreases_estimated_cost() {
        let (model, profile) = setup(8, 11);
        let solver = StructuredSolver::new(RecShardConfig::default());
        let mut prev_cost = 0.0;
        for denom in [1u64, 4, 8, 16] {
            let system = SystemSpec::uniform(
                2,
                (model.total_bytes() / denom).max(1),
                model.total_bytes() * 2,
                1555.0,
                16.0,
            );
            let plan = solver.solve(&model, &profile, &system).unwrap();
            let max_cost = max_cost(&model, &profile, &system, &plan);
            assert!(
                max_cost + 1e-9 >= prev_cost,
                "less HBM should never make the plan cheaper ({max_cost} vs {prev_cost})"
            );
            prev_cost = max_cost;
        }
    }

    #[test]
    fn rejects_impossible_models() {
        let (model, profile) = setup(4, 5);
        let system = SystemSpec::uniform(1, 16, 16, 1555.0, 16.0);
        assert!(matches!(
            StructuredSolver::new(RecShardConfig::default()).solve(&model, &profile, &system),
            Err(RecShardError::CapacityExceeded { .. })
        ));
    }

    #[test]
    fn deterministic() {
        let (model, profile) = setup(9, 13);
        let system = pressured(&model, 3, 5);
        let solver = StructuredSolver::new(RecShardConfig::default());
        let a = solver.solve(&model, &profile, &system).unwrap();
        let b = solver.solve(&model, &profile, &system).unwrap();
        assert_eq!(a, b);
    }

    /// The LPT order as a stable sort of the tables under `partial_cmp` of
    /// their costs, descending, then table index.
    fn lpt_order_by_comparator(cost_of: &[f64]) -> Vec<usize> {
        let mut order: Vec<usize> = (0..cost_of.len()).collect();
        order.sort_by(|&a, &b| {
            cost_of[b]
                .partial_cmp(&cost_of[a])
                .unwrap_or(Ordering::Equal)
                .then(a.cmp(&b))
        });
        order
    }

    /// The GPU phase 2 picked before `GpuPick`: a scan of every GPU.
    fn pick_by_scan(gpu_cost: &[f64], fits: impl Fn(usize) -> bool) -> Option<usize> {
        (0..gpu_cost.len())
            .filter(|&g| fits(g))
            .min_by(|&a, &b| by_cost(gpu_cost, a, b).then(a.cmp(&b)))
    }

    /// A cost of kind `kind`: zeros of both signs, infinities, integers and
    /// values a few ulps from 500 or -500.
    fn edge_cost(kind: usize, x: f64, ulps: u64) -> f64 {
        match kind {
            0 => 0.0,
            1 => -0.0,
            2 => f64::INFINITY,
            3 => f64::NEG_INFINITY,
            4 => -x,
            5 => x.floor(),
            6 => f64::MIN_POSITIVE / 4.0,
            7 => f64::from_bits(500.0f64.to_bits() + ulps),
            8 => -f64::from_bits(500.0f64.to_bits() + ulps),
            _ => x,
        }
    }

    proptest::proptest! {
        /// The keyed LPT order equals the comparator sort on costs with
        /// ties, signed zeros, infinities, subnormals and costs that differ
        /// only in their low key bits, at table counts `2^k - 1`, `2^k` and
        /// `2^k + 1`.
        #[test]
        fn lpt_order_equals_the_comparator_sort(
            k in 0u32..11,
            extra in 0usize..3,
            picks in proptest::collection::vec((0usize..11, 0.0f64..1e3, 0u64..16), 1025),
        ) {
            let n = (1usize << k) - 1 + extra;
            let costs: Vec<f64> = picks[..n]
                .iter()
                .map(|&(kind, x, ulps)| edge_cost(kind, x, ulps))
                .collect();
            proptest::prop_assert_eq!(lpt_order(&costs), lpt_order_by_comparator(&costs));
        }

        /// `GpuPick` picks the GPU the filtered scan picks, through loads
        /// with ties, signed zeros and infinities, capacity misses of the
        /// top GPU and updates of GPUs that are not the top.
        #[test]
        fn gpu_pick_equals_the_scan(
            gpus in 1usize..20,
            steps in proptest::collection::vec(
                (0usize..11, 0.0f64..1e3, 0u64..16, (0usize..4, 0usize..20, 0u64..1 << 20)),
                0..200,
            ),
        ) {
            let mut loads = vec![0.0f64; gpus];
            let mut pick = GpuPick::new(gpus);
            for (kind, x, ulps, (mode, other, mask)) in steps {
                // Mode 0 misses the top GPU, mode 1 fits only the GPUs in
                // `mask`, and the others fit every GPU.
                let top = pick_by_scan(&loads, |_| true).unwrap();
                let fits = |g: usize| match mode {
                    0 => g != top,
                    1 => mask >> g & 1 == 1,
                    _ => true,
                };
                let expected = pick_by_scan(&loads, fits);
                proptest::prop_assert_eq!(pick.pick(fits), expected);
                // Mode 2 charges another GPU, as a warm-start seed does.
                let g = if mode == 2 { other % gpus } else { expected.unwrap_or(top) };
                let load = if kind == 9 { loads[g] + x } else { edge_cost(kind, x, ulps) };
                loads[g] = load;
                pick.set(g, load);
            }
        }
    }

    #[test]
    fn lpt_order_edge_cases() {
        for costs in [
            &[][..],
            &[0.0, -0.0, 0.0],
            &[f64::INFINITY, -1.0, f64::NEG_INFINITY, 3.0, 3.0],
            &[1.0, f64::from_bits(1.0f64.to_bits() + 1)],
        ] {
            assert_eq!(lpt_order(costs), lpt_order_by_comparator(costs));
        }
        assert_eq!(lpt_order(&[1.0, 3.0, 2.0, 3.0]), vec![1, 3, 2, 0]);
    }

    /// Solves `profile` on `system` with the default solver.
    fn solve_err(
        model: &ModelSpec,
        profile: &DatasetProfile,
        system: &SystemSpec,
    ) -> RecShardError {
        StructuredSolver::new(RecShardConfig::default())
            .solve(model, profile, system)
            .unwrap_err()
    }

    #[test]
    fn non_finite_costs_are_rejected_before_the_solve() {
        let (model, profile) = setup(6, 5);
        let system = pressured(&model, 2, 4);
        let with = |t: usize, edit: fn(&mut recshard_stats::FeatureProfile)| {
            let mut profiles = profile.profiles().to_vec();
            edit(&mut profiles[t]);
            DatasetProfile::new(profiles, profile.samples_profiled())
        };
        let name = system.reference_class().name;
        let nan_coverage = with(3, |p| p.coverage = f64::NAN);
        assert_eq!(
            solve_err(&model, &nan_coverage, &system),
            RecShardError::NonFiniteCost {
                table: 3,
                class: name
            }
        );
        let infinite_pooling = with(4, |p| {
            p.avg_pooling = f64::INFINITY;
            p.coverage = 0.0;
        });
        assert_eq!(
            solve_err(&model, &infinite_pooling, &system),
            RecShardError::NonFiniteCost {
                table: 4,
                class: name
            }
        );
        // A class without HBM bandwidth prices step 0 at 0 / 0.
        let reference = *system.reference_class();
        let stalled = DeviceClass {
            name: "stalled",
            hbm_bandwidth_gbps: 0.0,
            ..reference
        };
        let mixed = SystemSpec::mixed(&[(reference, 1), (stalled, 1)]);
        assert_eq!(
            solve_err(&model, &profile, &mixed),
            RecShardError::NonFiniteCost {
                table: 0,
                class: "stalled"
            }
        );
        // The bucketed solver checks every table too.
        assert!(matches!(
            ScalableSolver::new(RecShardConfig::default()).solve(&model, &nan_coverage, &system),
            Err(RecShardError::NonFiniteCost { table: 3, .. })
        ));
    }

    #[test]
    fn load_balance_beats_naive_round_robin_under_skew() {
        // Construct a model whose tables have wildly different bandwidth
        // demand and check the solver's per-GPU cost spread is tighter than a
        // round-robin full-HBM assignment.
        let (model, profile) = setup(12, 21);
        let system = SystemSpec::uniform(4, model.total_bytes(), model.total_bytes(), 1555.0, 16.0);
        let plan = StructuredSolver::new(RecShardConfig::default())
            .solve(&model, &profile, &system)
            .unwrap();
        let max = max_cost(&model, &profile, &system, &plan);

        let rr_placements = model
            .features()
            .iter()
            .map(|f| TablePlacement {
                table: f.id,
                gpu: f.id.index() % 4,
                hbm_rows: f.hash_size,
                total_rows: f.hash_size,
                row_bytes: f.row_bytes(),
            })
            .collect();
        let rr = ShardingPlan::new("round-robin", 4, rr_placements);
        let rr_max = max_cost(&model, &profile, &system, &rr);
        assert!(
            max <= rr_max + 1e-9,
            "RecShard max per-GPU cost {max} should not exceed round-robin {rr_max}"
        );
    }
}
