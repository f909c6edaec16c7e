//! Cache policies and the statistics-guided admission/pinning plan.
//!
//! The paper's core observation — per-table access CDFs are heavily skewed,
//! so a small head of rows sources most accesses (Figure 5) — applies to
//! inference traffic exactly as it does to training. [`StatGuide`] turns a
//! [`DatasetProfile`] into a serving-cache
//! policy:
//!
//! * **Pinning** — each table's rows above the [CDF knee]
//!   (`recshard_stats::AccessCdf::knee_rank`) are pin candidates; candidates
//!   are ranked globally by profiled access rate and pinned until the
//!   configured fraction of the shard's capacity is used. Pinned rows are
//!   pre-loaded and never evicted, so the head's hit rate cannot be churned
//!   away by tail traffic.
//! * **Admission filtering** — rows that profiling never observed are
//!   refused admission on their *first* miss (the cache's doorkeeper
//!   admits them on a repeat access). Under a power law an unobserved row
//!   is overwhelmingly likely to be a one-hit wonder; letting it straight
//!   in would evict a warmer row (cache pollution, the classic failure
//!   mode of plain LRU under skew), while the second-chance rule keeps
//!   genuinely warm unprofiled rows cacheable at the cost of one miss.
//!
//! The admission filter is one bit per row of each owned table, sized from
//! the table's profiled `hash_size`, so a miss answers it with one bit test
//! and the cache sizes its doorkeeper's bitsets to match.
//!
//! [CDF knee]: recshard_stats::AccessCdf::knee_rank

use crate::cache::TableBits;
use recshard_stats::DatasetProfile;

/// The eviction/admission policy of a serving cache shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PolicyKind {
    /// Evict the least-recently-used row; admit everything.
    Lru,
    /// Evict the least-frequently-used row (ties by recency); admit
    /// everything.
    Lfu,
    /// LRU over the unpinned region, with profile-driven pinning and
    /// admission (see [`StatGuide`]).
    StatGuided,
}

impl PolicyKind {
    /// All policies, in the order the serving benchmark reports them.
    pub fn all() -> [PolicyKind; 3] {
        [PolicyKind::Lru, PolicyKind::Lfu, PolicyKind::StatGuided]
    }

    /// Human-readable label.
    pub fn label(&self) -> &'static str {
        match self {
            PolicyKind::Lru => "LRU",
            PolicyKind::Lfu => "LFU",
            PolicyKind::StatGuided => "StatGuided",
        }
    }
}

impl std::fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.label())
    }
}

/// Tunables of the stat-guided policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StatGuidedConfig {
    /// Fraction of the shard's capacity reserved for pinned knee rows; the
    /// remainder is the LRU-managed region for the admitted tail.
    pub pin_capacity_fraction: f64,
}

impl Default for StatGuidedConfig {
    fn default() -> Self {
        Self {
            pin_capacity_fraction: 0.8,
        }
    }
}

/// The materialised stat-guided plan for one GPU shard: which rows to pin
/// and which rows a miss may admit.
#[derive(Debug, Clone, PartialEq)]
pub struct StatGuide {
    /// `(table, row, bytes)` pins, hottest first, within the pin budget.
    pins: Vec<(u32, u64, u64)>,
    /// Per table, the rows profiling observed (admissible on a miss): one
    /// bit per row of each owned table, none for the others.
    admit: TableBits,
}

impl StatGuide {
    /// Builds the guide for one GPU shard.
    ///
    /// `gpu_of[t]` is the owning GPU of table `t` (the sharding plan's
    /// routing); only tables owned by `gpu` contribute. The pin budget is
    /// `config.pin_capacity_fraction * capacity_bytes`, with the fraction
    /// clamped to `[0, 1]` (a NaN fraction pins nothing;
    /// [`InferenceServer::try_run`](crate::InferenceServer::try_run)
    /// rejects both with a typed error).
    ///
    /// # Panics
    ///
    /// Panics if `gpu_of` and the profile disagree on the table count.
    pub fn for_gpu(
        gpu: usize,
        gpu_of: &[usize],
        profile: &DatasetProfile,
        capacity_bytes: u64,
        config: &StatGuidedConfig,
    ) -> Self {
        assert_eq!(
            gpu_of.len(),
            profile.num_features(),
            "routing/profile mismatch"
        );
        let budget = (capacity_bytes as f64 * config.pin_capacity_fraction.clamp(0.0, 1.0)) as u64;

        // Pin candidates: each owned table's rows above its CDF knee, with
        // the profiled per-row access rate (accesses per profiled sample) as
        // the global ranking key.
        let mut candidates: Vec<(f64, u32, u64, u64)> = Vec::new();
        let owned = |t: usize| gpu_of[t] == gpu;
        let profiles = profile.profiles().iter().enumerate();
        let mut admit =
            TableBits::with_rows(
                profiles
                    .clone()
                    .map(|(t, prof)| if owned(t) { prof.hash_size } else { 0 }),
            );
        for (t, prof) in profiles.filter(|&(t, _)| owned(t)) {
            let table = t as u32;
            for &row in &prof.ranked_rows {
                admit.insert(table, row);
            }
            let knee = prof.cdf.knee_rank();
            let total = prof.total_lookups as f64;
            let row_bytes = prof.row_bytes();
            for (rank, &row) in prof.ranked_rows.iter().take(knee as usize).enumerate() {
                let rank = rank as u64;
                let marginal = prof.cdf.access_fraction(rank + 1) - prof.cdf.access_fraction(rank);
                candidates.push((marginal * total, table, row, row_bytes));
            }
        }
        // Hottest first; deterministic tie-break on (table, row).
        candidates.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2)));

        let mut pins = Vec::new();
        let mut pinned_bytes = 0u64;
        for (_, table, row, bytes) in candidates {
            if pinned_bytes + bytes > budget {
                break;
            }
            pinned_bytes += bytes;
            pins.push((table, row, bytes));
        }
        Self { pins, admit }
    }

    /// Builds a guide directly from parts, for the cache tests. The pins are
    /// not capped: the cache warms them in order while they fit, so they may
    /// fill it entirely.
    #[cfg(test)]
    pub(crate) fn from_parts(
        pins: Vec<(u32, u64, u64)>,
        admit: impl IntoIterator<Item = (u32, Vec<u64>)>,
    ) -> Self {
        let mut bits = TableBits::default();
        for (table, rows) in admit {
            for row in rows {
                bits.insert(table, row);
            }
        }
        Self { pins, admit: bits }
    }

    /// Whether a missed row may be admitted into the cache.
    #[inline]
    pub fn admits(&self, table: u32, row: u64) -> bool {
        self.admit.contains(table, row)
    }

    /// The admission filter's bitsets.
    pub(crate) fn admission(&self) -> &TableBits {
        &self.admit
    }

    /// The pinned rows, hottest first.
    pub fn pins(&self) -> &[(u32, u64, u64)] {
        &self.pins
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recshard_data::ModelSpec;
    use recshard_stats::DatasetProfiler;

    fn profiled() -> (ModelSpec, DatasetProfile) {
        let model = ModelSpec::small(6, 3);
        let profile = DatasetProfiler::profile_model(&model, 2_000, 9);
        (model, profile)
    }

    #[test]
    fn pins_respect_the_budget_and_rank_hottest_first() {
        let (model, profile) = profiled();
        let gpu_of = vec![0; model.num_features()];
        let capacity = 1 << 16;
        let cfg = StatGuidedConfig::default();
        let guide = StatGuide::for_gpu(0, &gpu_of, &profile, capacity, &cfg);
        let pinned: u64 = guide.pins().iter().map(|&(_, _, b)| b).sum();
        assert!(pinned <= (capacity as f64 * cfg.pin_capacity_fraction) as u64);
        assert!(!guide.pins().is_empty(), "skewed tables must pin a head");
        // Every pinned row must be admissible (it was observed).
        for &(t, r, _) in guide.pins() {
            assert!(guide.admits(t, r));
        }
    }

    #[test]
    fn only_owned_tables_contribute() {
        let (model, profile) = profiled();
        let n = model.num_features();
        let gpu_of: Vec<usize> = (0..n).map(|t| t % 2).collect();
        let guide0 = StatGuide::for_gpu(0, &gpu_of, &profile, 1 << 20, &Default::default());
        let guide1 = StatGuide::for_gpu(1, &gpu_of, &profile, 1 << 20, &Default::default());
        for &(t, _, _) in guide0.pins() {
            assert_eq!(gpu_of[t as usize], 0);
        }
        for &(t, _, _) in guide1.pins() {
            assert_eq!(gpu_of[t as usize], 1);
        }
        assert!(!guide0.admits(1, 0) || gpu_of[1] == 0);
    }

    #[test]
    fn unobserved_rows_are_not_admitted() {
        let (model, profile) = profiled();
        let gpu_of = vec![0; model.num_features()];
        let guide = StatGuide::for_gpu(0, &gpu_of, &profile, 1 << 20, &Default::default());
        for (t, prof) in profile.profiles().iter().enumerate() {
            let observed: std::collections::HashSet<u64> =
                prof.ranked_rows.iter().copied().collect();
            // Find a row the profile never saw, if any exists.
            if let Some(cold) = (0..prof.hash_size).find(|r| !observed.contains(r)) {
                assert!(!guide.admits(t as u32, cold));
            }
            if let Some(&hot) = prof.ranked_rows.first() {
                assert!(guide.admits(t as u32, hot));
            }
        }
    }

    #[test]
    fn zero_budget_pins_nothing() {
        let (model, profile) = profiled();
        let gpu_of = vec![0; model.num_features()];
        let cfg = StatGuidedConfig {
            pin_capacity_fraction: 0.0,
        };
        let guide = StatGuide::for_gpu(0, &gpu_of, &profile, 1 << 20, &cfg);
        assert!(guide.pins().is_empty());
    }

    #[test]
    fn policy_labels_are_unique() {
        let labels: std::collections::HashSet<_> =
            PolicyKind::all().iter().map(|p| p.label()).collect();
        assert_eq!(labels.len(), 3);
        assert_eq!(PolicyKind::StatGuided.to_string(), "StatGuided");
    }
}
