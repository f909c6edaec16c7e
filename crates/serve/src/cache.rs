//! The sharded HBM row cache.
//!
//! Online inference inverts the training-time placement problem: instead of
//! statically splitting each table into an HBM partition and a UVM partition
//! (the remap tables of Section 4.3), the serving layer keeps *every* row in
//! UVM-backed host memory and treats the GPU's HBM as a managed cache in
//! front of it. [`ShardedCache`] is one GPU's cache: lock-striped for
//! concurrent access (interior mutability behind `&self`), charged in bytes,
//! with the eviction/admission decision delegated to a pluggable
//! [`PolicyKind`](crate::PolicyKind).
//!
//! Victim selection uses a lazily invalidated min-heap: every touch pushes a
//! fresh `(priority, stamp, slot)` entry and bumps the entry's stamp, so
//! stale heap entries are recognised and discarded when popped. This keeps
//! both LRU (priority = last use) and LFU (priority = frequency, then last
//! use) O(log n) per operation with one mechanism, and keeps the whole
//! structure deterministic: a fixed operation sequence always produces the
//! same hits, evictions and occupancy.
//!
//! # Key hashing
//!
//! Every access probes a stripe's resident map and, under
//! [`PolicyKind::StatGuided`], the guide's admission set and the
//! doorkeeper's ghost set — one hash lookup per hit, several per miss.
//! Those maps hash their `(table, row)` keys with `KeyHasher`, one multiply
//! and one xor-shift per word, instead of std's per-process randomly keyed
//! SipHash.
//! The keys are simulator-chosen rows, not attacker input, so flooding
//! resistance buys nothing. The hasher is deterministic (same key, same
//! hash, in every process), but behaviour would not depend on it either
//! way: nothing iterates these maps, so the hash only decides where a key
//! is stored, never which keys are found or in what order anything runs.

use crate::policy::{PolicyKind, StatGuide};
use serde::{Deserialize, Serialize};
use std::collections::{BinaryHeap, HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Mutex;

/// A deterministic multiply-xorshift hasher for the cache's integer keys
/// (see the module doc). Each written word is folded in as
/// `h = (h ^ word) · K; h ^= h >> 32`, which carries every input bit into
/// both the low bits (the bucket index) and the high bits (the probe tag)
/// of the hash.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct KeyHasher(u64);

impl KeyHasher {
    /// An odd 64-bit multiplier (⌊2⁶⁴/φ⌋).
    const MUL: u64 = 0x9E37_79B9_7F4A_7C15;
}

impl Hasher for KeyHasher {
    #[inline]
    fn write_u64(&mut self, word: u64) {
        let h = (self.0 ^ word).wrapping_mul(Self::MUL);
        self.0 = h ^ (h >> 32);
    }

    #[inline]
    fn write_u32(&mut self, word: u32) {
        self.write_u64(u64::from(word));
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// The `BuildHasher` of the cache's maps.
type KeyHashBuilder = BuildHasherDefault<KeyHasher>;
/// A `HashMap` keyed through [`KeyHasher`].
pub(crate) type KeyMap<K, V> = HashMap<K, V, KeyHashBuilder>;
/// A `HashSet` keyed through [`KeyHasher`].
pub(crate) type KeySet<K> = HashSet<K, KeyHashBuilder>;

/// Geometry of one GPU shard's cache.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CacheConfig {
    /// Total HBM bytes this shard may cache.
    pub capacity_bytes: u64,
    /// Number of independent lock stripes (each owns an equal slice of the
    /// capacity). More stripes means less contention under concurrent access.
    pub stripes: usize,
}

impl CacheConfig {
    /// A cache of `capacity_bytes` with the default stripe count (8).
    pub fn new(capacity_bytes: u64) -> Self {
        Self {
            capacity_bytes,
            stripes: 8,
        }
    }

    /// Overrides the stripe count.
    pub fn with_stripes(mut self, stripes: usize) -> Self {
        assert!(stripes > 0, "cache needs at least one stripe");
        self.stripes = stripes;
        self
    }
}

/// Outcome of one row access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lookup {
    /// The row was resident in HBM.
    Hit,
    /// The row was fetched from UVM and admitted into the cache.
    MissInserted,
    /// The row was fetched from UVM and *not* admitted (rejected by the
    /// admission policy, or nothing evictable had room for it).
    MissBypassed,
}

impl Lookup {
    /// Whether the access was served from HBM.
    pub fn is_hit(self) -> bool {
        matches!(self, Lookup::Hit)
    }
}

/// Aggregated counters of one cache (or one stripe).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Accesses served from HBM.
    pub hits: u64,
    /// Misses that admitted the row.
    pub misses: u64,
    /// Misses that bypassed admission.
    pub bypasses: u64,
    /// Rows evicted to make room.
    pub evictions: u64,
    /// Bytes currently resident.
    pub used_bytes: u64,
    /// Bytes of pinned (never-evicted) rows currently resident.
    pub pinned_bytes: u64,
    /// Rows currently resident.
    pub entries: u64,
}

impl CacheStats {
    /// Fraction of all accesses served from HBM (0 when there were none).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses + self.bypasses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Folds another stats block into this one.
    pub fn merge(&mut self, other: &CacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.bypasses += other.bypasses;
        self.evictions += other.evictions;
        self.used_bytes += other.used_bytes;
        self.pinned_bytes += other.pinned_bytes;
        self.entries += other.entries;
    }
}

/// One resident row.
#[derive(Debug, Clone, Copy)]
struct Entry {
    table: u32,
    row: u64,
    bytes: u64,
    freq: u64,
    last_use: u64,
    /// Generation stamp of the most recent heap push for this slot; heap
    /// entries with an older stamp are stale.
    stamp: u64,
    pinned: bool,
    occupied: bool,
}

/// One lock stripe: an independent slice of the shard's capacity.
#[derive(Debug, Default)]
struct Stripe {
    capacity: u64,
    tick: u64,
    next_stamp: u64,
    map: KeyMap<(u32, u64), usize>,
    arena: Vec<Entry>,
    free: Vec<usize>,
    /// Min-heap of `(priority, tie, stamp, slot)` with lazy invalidation.
    heap: BinaryHeap<std::cmp::Reverse<(u64, u64, u64, usize)>>,
    /// Doorkeeper for guided admission: rows the guide rejected once. A
    /// second access proves the row is warm despite being unprofiled and
    /// admits it (one-hit wonders never pollute the cache; genuinely warm
    /// unprofiled rows pay exactly one extra miss).
    ghosts: KeySet<(u32, u64)>,
    stats: CacheStats,
}

impl Stripe {
    fn priority(policy: PolicyKind, e: &Entry) -> (u64, u64) {
        match policy {
            // Evict the least-recently used row first.
            PolicyKind::Lru | PolicyKind::StatGuided => (e.last_use, 0),
            // Evict the least-frequently used row first, breaking ties by
            // recency so a once-hot row eventually ages out.
            PolicyKind::Lfu => (e.freq, e.last_use),
        }
    }

    fn push_heap(&mut self, policy: PolicyKind, slot: usize) {
        self.next_stamp += 1;
        let e = &mut self.arena[slot];
        e.stamp = self.next_stamp;
        let (p, tie) = Self::priority(policy, e);
        self.heap
            .push(std::cmp::Reverse((p, tie, self.next_stamp, slot)));
    }

    /// Pops victims until `bytes` fit; returns false if the stripe cannot
    /// make room (everything evictable is gone).
    fn make_room(&mut self, bytes: u64) -> bool {
        while self.stats.used_bytes + bytes > self.capacity {
            let Some(std::cmp::Reverse((_, _, stamp, slot))) = self.heap.pop() else {
                return false;
            };
            let e = self.arena[slot];
            // Stale heap entry: the slot was re-touched or freed since.
            if !e.occupied || e.stamp != stamp || e.pinned {
                continue;
            }
            self.map.remove(&(e.table, e.row));
            self.arena[slot].occupied = false;
            self.free.push(slot);
            self.stats.used_bytes -= e.bytes;
            self.stats.entries -= 1;
            self.stats.evictions += 1;
        }
        true
    }

    fn insert(&mut self, policy: PolicyKind, table: u32, row: u64, bytes: u64, pinned: bool) {
        let now = self.tick;
        let entry = Entry {
            table,
            row,
            bytes,
            freq: 1,
            last_use: now,
            stamp: 0,
            pinned,
            occupied: true,
        };
        let slot = match self.free.pop() {
            Some(s) => {
                self.arena[s] = entry;
                s
            }
            None => {
                self.arena.push(entry);
                self.arena.len() - 1
            }
        };
        self.map.insert((table, row), slot);
        self.stats.used_bytes += bytes;
        self.stats.entries += 1;
        if pinned {
            self.stats.pinned_bytes += bytes;
        } else {
            self.push_heap(policy, slot);
        }
    }

    fn access(
        &mut self,
        policy: PolicyKind,
        guide: Option<&StatGuide>,
        table: u32,
        row: u64,
        bytes: u64,
    ) -> Lookup {
        self.tick += 1;
        if let Some(&slot) = self.map.get(&(table, row)) {
            let pinned = {
                let e = &mut self.arena[slot];
                e.freq += 1;
                e.last_use = self.tick;
                e.pinned
            };
            if !pinned {
                self.push_heap(policy, slot);
            }
            self.stats.hits += 1;
            return Lookup::Hit;
        }
        // Miss: admission control (with a second-chance doorkeeper for
        // rows the profile never observed), then eviction.
        let admit = match guide {
            Some(g) => {
                if g.admits(table, row) || self.ghosts.remove(&(table, row)) {
                    true
                } else {
                    self.ghosts.insert((table, row));
                    false
                }
            }
            None => true,
        };
        if !admit || bytes > self.capacity || !self.make_room(bytes) {
            self.stats.bypasses += 1;
            return Lookup::MissBypassed;
        }
        self.insert(policy, table, row, bytes, false);
        self.stats.misses += 1;
        Lookup::MissInserted
    }
}

/// One GPU shard's HBM cache: lock-striped, byte-budgeted, policy-driven.
///
/// The cache is `Sync` — `access` takes `&self` and stripes are independent
/// mutexes — so any number of worker threads can drive one shard
/// concurrently. The serving layer assigns one worker per GPU shard, which
/// additionally makes runs deterministic (each stripe sees one well-defined
/// operation order).
#[derive(Debug)]
pub struct ShardedCache {
    policy: PolicyKind,
    guide: Option<StatGuide>,
    stripes: Vec<Mutex<Stripe>>,
}

impl ShardedCache {
    /// Builds a cache with a plain (guide-free) policy.
    ///
    /// # Panics
    ///
    /// Panics if the configuration has zero stripes.
    pub fn new(policy: PolicyKind, config: CacheConfig) -> Self {
        assert!(config.stripes > 0, "cache needs at least one stripe");
        assert!(
            policy != PolicyKind::StatGuided,
            "StatGuided needs a guide; use ShardedCache::with_guide"
        );
        Self::build(policy, None, config)
    }

    /// Builds a [`PolicyKind::StatGuided`] cache: the guide's pinned rows are
    /// pre-loaded (warmed) and its admission filter gates every miss.
    pub fn with_guide(guide: StatGuide, config: CacheConfig) -> Self {
        let cache = Self::build(PolicyKind::StatGuided, Some(guide), config);
        cache.warm_pins();
        cache
    }

    fn build(policy: PolicyKind, guide: Option<StatGuide>, config: CacheConfig) -> Self {
        // Distribute the byte budget exactly: the first `remainder` stripes
        // take one extra byte, so the per-stripe capacities always sum to the
        // configured total (integer division alone would silently discard up
        // to `stripes - 1` bytes).
        let per_stripe = config.capacity_bytes / config.stripes as u64;
        let remainder = config.capacity_bytes % config.stripes as u64;
        Self {
            policy,
            guide,
            stripes: (0..config.stripes)
                .map(|i| {
                    Mutex::new(Stripe {
                        capacity: per_stripe + u64::from((i as u64) < remainder),
                        ..Stripe::default()
                    })
                })
                .collect(),
        }
    }

    /// Pre-loads the guide's pinned rows. The shard-level pin budget is
    /// enforced *per stripe* (`guide.pin_fraction()` of each stripe's
    /// capacity): the stripe hash can distribute pins unevenly, and a fully
    /// pinned stripe would permanently bypass every unpinned row that hashes
    /// into it, so each stripe is guaranteed an evictable remainder. Pins
    /// that would overflow a stripe's share are skipped, coldest first
    /// (pins arrive hottest-first).
    fn warm_pins(&self) {
        let Some(guide) = &self.guide else {
            return;
        };
        for &(table, row, bytes) in guide.pins() {
            let idx = self.stripe_of(table, row);
            let mut stripe = self.stripe(idx);
            let pin_budget = (stripe.capacity as f64 * guide.pin_fraction()) as u64;
            if stripe.stats.pinned_bytes + bytes <= pin_budget
                && stripe.stats.used_bytes + bytes <= stripe.capacity
                && !stripe.map.contains_key(&(table, row))
            {
                stripe.insert(PolicyKind::StatGuided, table, row, bytes, true);
            }
        }
    }

    /// The policy this cache evicts with.
    pub fn policy(&self) -> PolicyKind {
        self.policy
    }

    /// Locks stripe `idx`. The per-shard serving loop is the only writer and
    /// never panics while holding a stripe lock, so poisoning only follows a
    /// panic that already aborted the simulation; every lock acquisition is
    /// funnelled through here to keep that reasoning in one place.
    fn stripe(&self, idx: usize) -> std::sync::MutexGuard<'_, Stripe> {
        // recshard-lint: allow(unwrap) -- see above: poisoning implies a
        // worker already panicked, and propagating is the only option.
        self.stripes[idx].lock().expect("stripe poisoned")
    }

    #[inline]
    fn stripe_of(&self, table: u32, row: u64) -> usize {
        // FNV-1a over (table, row): deterministic, well-mixed striping.
        let mut h: u64 = 0xCBF2_9CE4_8422_2325;
        for word in [table as u64, row] {
            h ^= word;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        (h % self.stripes.len() as u64) as usize
    }

    /// Accesses one row of `bytes` width: a hit is served from HBM, a miss
    /// from UVM (and possibly admitted for next time).
    pub fn access(&self, table: u32, row: u64, bytes: u64) -> Lookup {
        let idx = self.stripe_of(table, row);
        let mut stripe = self.stripe(idx);
        stripe.access(self.policy, self.guide.as_ref(), table, row, bytes)
    }

    /// Whether a row is currently resident in HBM (does not touch recency).
    pub fn contains(&self, table: u32, row: u64) -> bool {
        let idx = self.stripe_of(table, row);
        let stripe = self.stripe(idx);
        stripe.map.contains_key(&(table, row))
    }

    /// Aggregated counters across all stripes.
    pub fn stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for i in 0..self.stripes.len() {
            total.merge(&self.stripe(i).stats);
        }
        total
    }

    /// Total capacity across all stripes, in bytes. Always equals the
    /// configured [`CacheConfig::capacity_bytes`], stripe count regardless.
    pub fn capacity_bytes(&self) -> u64 {
        (0..self.stripes.len())
            .map(|i| self.stripe(i).capacity)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::StatGuide;

    fn single_stripe(capacity: u64) -> CacheConfig {
        CacheConfig::new(capacity).with_stripes(1)
    }

    #[test]
    fn key_hasher_is_deterministic_and_spreads_dense_keys() {
        use std::hash::BuildHasher;
        let build = KeyHashBuilder::default();
        let hash = |key: (u32, u64)| build.hash_one(key);
        assert_eq!(
            hash((3, 17)),
            KeyHashBuilder::default().hash_one((3u32, 17u64))
        );
        assert_ne!(hash((3, 17)), hash((17, 3)));
        // 1,024 dense keys: about 1 − 1/e of 1,024 buckets filled when the
        // low bits are uniform, and every 7-bit probe tag in the high bits.
        let keys: Vec<(u32, u64)> = (0..4u32)
            .flat_map(|t| (0..256u64).map(move |r| (t, r)))
            .collect();
        let buckets: HashSet<u64> = keys.iter().map(|&k| hash(k) & 1023).collect();
        let tags: HashSet<u64> = keys.iter().map(|&k| hash(k) >> 57).collect();
        assert!(buckets.len() > 600, "{} buckets", buckets.len());
        assert!(tags.len() >= 120, "{} tags", tags.len());
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        // Room for exactly two 8-byte rows.
        let c = ShardedCache::new(PolicyKind::Lru, single_stripe(16));
        assert_eq!(c.access(0, 1, 8), Lookup::MissInserted);
        assert_eq!(c.access(0, 2, 8), Lookup::MissInserted);
        assert_eq!(c.access(0, 1, 8), Lookup::Hit); // row 2 is now LRU
        assert_eq!(c.access(0, 3, 8), Lookup::MissInserted); // evicts row 2
        assert!(c.contains(0, 1) && c.contains(0, 3) && !c.contains(0, 2));
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.evictions), (1, 3, 1));
        assert_eq!(s.used_bytes, 16);
    }

    #[test]
    fn lfu_keeps_frequent_rows() {
        let c = ShardedCache::new(PolicyKind::Lfu, single_stripe(16));
        c.access(0, 1, 8);
        c.access(0, 1, 8);
        c.access(0, 1, 8); // freq 3
        c.access(0, 2, 8); // freq 1
        c.access(0, 3, 8); // must evict row 2 (lowest freq), not hot row 1
        assert!(c.contains(0, 1) && c.contains(0, 3) && !c.contains(0, 2));
    }

    #[test]
    fn lru_would_drop_the_hot_row_where_lfu_does_not() {
        // Same sequence as above but recency-ordered: LRU evicts row 1.
        let c = ShardedCache::new(PolicyKind::Lru, single_stripe(16));
        c.access(0, 1, 8);
        c.access(0, 1, 8);
        c.access(0, 1, 8);
        c.access(0, 2, 8); // row 1 is now least recent
        c.access(0, 3, 8);
        assert!(!c.contains(0, 1) && c.contains(0, 2) && c.contains(0, 3));
    }

    #[test]
    fn capacity_is_never_exceeded() {
        let c = ShardedCache::new(PolicyKind::Lru, CacheConfig::new(64).with_stripes(2));
        for row in 0..100u64 {
            c.access(0, row, 8);
        }
        let s = c.stats();
        assert!(s.used_bytes <= 64);
        assert!(s.evictions > 0);
    }

    #[test]
    fn oversized_row_is_bypassed() {
        let c = ShardedCache::new(PolicyKind::Lru, single_stripe(16));
        assert_eq!(c.access(0, 1, 32), Lookup::MissBypassed);
        assert_eq!(c.stats().used_bytes, 0);
    }

    #[test]
    fn pinned_rows_survive_arbitrary_churn() {
        let guide = StatGuide::from_parts(vec![(0, 7, 8)], [(0u32, vec![7u64])]);
        let c = ShardedCache::with_guide(guide, single_stripe(16));
        assert!(c.contains(0, 7), "pin must be pre-loaded");
        // Churn with admissible rows? Only row 7 is admissible for table 0,
        // so use a second guide-free scenario: hammer the pinned cache with
        // bypassed rows and confirm the pin stays.
        for row in 0..50u64 {
            assert_eq!(c.access(0, row + 100, 8), Lookup::MissBypassed);
        }
        assert!(c.contains(0, 7));
        assert_eq!(c.access(0, 7, 8), Lookup::Hit);
        assert_eq!(c.stats().pinned_bytes, 8);
    }

    #[test]
    fn stat_guided_gates_unprofiled_rows_behind_the_doorkeeper() {
        let guide = StatGuide::from_parts(Vec::new(), [(0u32, vec![1u64, 2])]);
        let c = ShardedCache::with_guide(guide, single_stripe(64));
        assert_eq!(c.access(0, 1, 8), Lookup::MissInserted); // profiled: straight in
        assert_eq!(c.access(0, 9, 8), Lookup::MissBypassed); // one-hit wonder: out
        assert_eq!(c.access(1, 1, 8), Lookup::MissBypassed); // unknown table: out
        assert_eq!(c.access(0, 1, 8), Lookup::Hit);
        // A second access proves row 9 is warm: the doorkeeper admits it.
        assert_eq!(c.access(0, 9, 8), Lookup::MissInserted);
        assert_eq!(c.access(0, 9, 8), Lookup::Hit);
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.bypasses), (2, 2, 2));
    }

    #[test]
    fn deterministic_for_identical_sequences() {
        let run = || {
            let c = ShardedCache::new(PolicyKind::Lfu, CacheConfig::new(256).with_stripes(4));
            let mut outcomes = Vec::new();
            for i in 0..500u64 {
                outcomes.push(c.access((i % 3) as u32, i * 7 % 40, 16));
            }
            (outcomes, c.stats())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn concurrent_access_is_safe_and_conserves_counts() {
        let c = ShardedCache::new(PolicyKind::Lru, CacheConfig::new(1 << 12).with_stripes(8));
        let per_thread = 2_000u64;
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let cache = &c;
                s.spawn(move || {
                    for i in 0..per_thread {
                        cache.access((t % 2) as u32, (i * 13 + t) % 512, 32);
                    }
                });
            }
        });
        let stats = c.stats();
        assert_eq!(stats.hits + stats.misses + stats.bypasses, 4 * per_thread);
        assert!(stats.used_bytes <= 1 << 12);
        assert_eq!(stats.entries * 32, stats.used_bytes);
    }

    #[test]
    fn pins_never_consume_a_stripe_entirely() {
        // Four 8-byte pin candidates, but the guide allows pins to occupy at
        // most half of the (single) 32-byte stripe: exactly two are warmed,
        // and the remainder stays evictable for admitted traffic.
        let pins = vec![(0u32, 1u64, 8u64), (0, 2, 8), (0, 3, 8), (0, 4, 8)];
        let guide = StatGuide::from_parts(pins, [(0u32, vec![1u64, 2, 3, 4, 10, 11, 12])])
            .with_pin_fraction(0.5);
        let c = ShardedCache::with_guide(guide, single_stripe(32));
        let s = c.stats();
        assert_eq!(s.pinned_bytes, 16, "pins must stop at the stripe budget");
        // The unpinned remainder still admits and evicts normally.
        assert_eq!(c.access(0, 10, 8), Lookup::MissInserted);
        assert_eq!(c.access(0, 11, 8), Lookup::MissInserted);
        assert_eq!(c.access(0, 12, 8), Lookup::MissInserted); // evicts 10 or 11
        let s = c.stats();
        assert_eq!(s.used_bytes, 32);
        assert_eq!(s.evictions, 1);
        assert_eq!(s.pinned_bytes, 16, "evictions never touch pins");
    }

    #[test]
    #[should_panic(expected = "StatGuided needs a guide")]
    fn stat_guided_without_guide_rejected() {
        let _ = ShardedCache::new(PolicyKind::StatGuided, CacheConfig::new(64));
    }

    #[test]
    fn non_divisible_capacity_is_fully_distributed() {
        // 103 bytes over 8 stripes: integer division would keep 8×12 = 96
        // bytes and silently drop 7. The remainder must be spread across the
        // first stripes and `capacity_bytes()` must report the exact total.
        let c = ShardedCache::new(PolicyKind::Lru, CacheConfig::new(103).with_stripes(8));
        assert_eq!(c.capacity_bytes(), 103);
        let per_stripe: Vec<u64> = (0..c.stripes.len()).map(|i| c.stripe(i).capacity).collect();
        assert_eq!(per_stripe.iter().sum::<u64>(), 103);
        assert!(per_stripe.iter().all(|&c| c == 12 || c == 13));
        assert_eq!(per_stripe.iter().filter(|&&c| c == 13).count(), 7);
        // Divisible capacities still split evenly.
        let even = ShardedCache::new(PolicyKind::Lru, CacheConfig::new(64).with_stripes(8));
        assert_eq!(even.capacity_bytes(), 64);
    }
}
