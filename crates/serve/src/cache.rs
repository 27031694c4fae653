//! The fold-in cache: repeated fold-ins of the same unseen item answer
//! from memory instead of re-running the Gibbs chain.
//!
//! Fold-in is the runtime's only *expensive* query class (a full local
//! Gibbs chain per item, ~three orders of magnitude above a table
//! lookup), and real query streams repeat — the same fresh document
//! gets profiled by several downstream applications, the same new user
//! re-queries her profile on every page load. Because a fold-in answer
//! is **deterministic given `(item, seed, snapshot)`** (see
//! [`FoldIn`](crate::FoldIn)), it is perfectly cacheable: the cache key
//! is an FNV-1a content hash over the item's documents, friends and
//! seed, mixed with the snapshot **generation** so a hot-reload
//! atomically invalidates every cached profile without touching the
//! entries (stale keys can never match; [`FoldCache::invalidate`]
//! additionally frees the memory).
//!
//! The store is a fixed number of independently locked shards (selected
//! by the key's high bits, which FNV mixes well), each a small
//! tick-stamped map — lookups from different connections contend only
//! 1-in-[`N_SHARDS`] of the time, and eviction is an `O(shard)` scan
//! that is negligible next to the Gibbs chain it replaces.
//!
//! Each shard is a **segmented LRU** (Karedla, Love & Wherry, 1994): a
//! new entry starts in a *probation* segment, its first hit moves it to
//! a *protected* segment holding at most 4/5 of the shard (rounded
//! down), and a full shard evicts its least recently used probation
//! entry. When a promotion overfills the protected segment, its least
//! recently used entry goes back to probation as the most recently
//! used one there. The split is what makes the cache scan-resistant:
//! fold-in traffic mixes items that repeat (a profile page re-queried,
//! a document scored by several applications) with a stream of one-off
//! items that are never asked for again. Under a plain LRU every
//! one-off pushes a repeating entry one step closer to eviction; here
//! one-offs only ever displace each other in probation, while an entry
//! that has been hit once waits in the protected segment until
//! something that has also been hit displaces it. The capacity still
//! counts every entry of both segments.
//!
//! Hit / miss / eviction counts are recorded **directly** into
//! [`cpd_telemetry::Counter`] cells (one relaxed atomic op, the same
//! cost as the plain atomics they replaced). Build the cache with
//! [`FoldCache::with_counters`] to make registry series the cells —
//! the registry is then the single source of truth, with no
//! scrape-time mirroring — or with [`FoldCache::new`] for private
//! unregistered cells. [`CacheStats`] snapshots the same cells either
//! way.

use crate::foldin::{FoldInItem, FoldedProfile};
use cpd_telemetry::Counter;
use std::collections::HashMap;
use std::sync::Mutex;

/// Independently locked shards in a [`FoldCache`].
pub const N_SHARDS: usize = 8;

/// The most a shard's protected segment holds, as (numerator,
/// denominator) of the shard's capacity, rounded down: a shard of one
/// entry protects none and is a plain LRU.
const PROTECTED_SHARE: (usize, usize) = (4, 5);

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over the fold-in request's full identity: every document's
/// words (with per-document separators so `[[a, b]]` and `[[a], [b]]`
/// differ), the friend list, the per-request seed and the snapshot
/// generation. Two requests with equal keys get byte-identical answers,
/// so a (vanishingly unlikely) 64-bit collision degrades to a wrong
/// *profile*, never to corruption — the trade the ROADMAP's serving
/// item accepts for a fixed-width key.
pub fn fold_key(item: &FoldInItem, seed: u64, generation: u64) -> u64 {
    let mut h = FNV_OFFSET;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(FNV_PRIME);
        }
    };
    eat(item.docs.len() as u64);
    for doc in &item.docs {
        eat(doc.len() as u64);
        for w in doc {
            eat(w.index() as u64);
        }
    }
    eat(item.friends.len() as u64);
    for v in &item.friends {
        eat(v.index() as u64);
    }
    eat(seed);
    eat(generation);
    h
}

/// Cache counters, surfaced through
/// [`ServeDiagnostics`](crate::ServeDiagnostics).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CacheStats {
    /// Fold-in queries answered from the cache.
    pub hits: u64,
    /// Fold-in queries that ran the Gibbs chain (and then populated the
    /// cache).
    pub misses: u64,
    /// Entries displaced to make room (capacity pressure, not
    /// invalidation).
    pub evictions: u64,
    /// Entries resident right now.
    pub entries: u64,
}

impl CacheStats {
    /// Hit fraction of all cache-eligible queries (0 when idle).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// One entry: the profile plus its LRU tick, its segment and the
/// generation it was computed against (kept for targeted invalidation
/// sweeps).
struct Entry {
    tick: u64,
    generation: u64,
    /// In the protected segment (hit at least once since it last
    /// entered probation).
    protected: bool,
    profile: FoldedProfile,
}

#[derive(Default)]
struct Shard {
    map: HashMap<u64, Entry>,
    tick: u64,
    /// Entries of `map` in the protected segment.
    protected: usize,
}

impl Shard {
    fn next_tick(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    /// The least recently used key of the protected or the probation
    /// segment.
    fn oldest(&self, protected: bool) -> Option<u64> {
        self.map
            .iter()
            .filter(|(_, e)| e.protected == protected)
            .min_by_key(|(_, e)| e.tick)
            .map(|(&k, _)| k)
    }

    /// Move the least recently used protected entry to the most
    /// recently used end of probation.
    fn demote_oldest_protected(&mut self) {
        let tick = self.next_tick();
        if let Some(entry) = self.oldest(true).and_then(|k| self.map.get_mut(&k)) {
            entry.protected = false;
            entry.tick = tick;
            self.protected -= 1;
        }
    }
}

/// A sharded segmented LRU of [`FoldedProfile`]s keyed by [`fold_key`].
///
/// Capacity 0 disables the cache entirely: every lookup misses without
/// counting, so a cache-less runtime's diagnostics stay all-zero.
pub struct FoldCache {
    shards: Vec<Mutex<Shard>>,
    /// Max entries per shard (total capacity / [`N_SHARDS`], min 1).
    per_shard: usize,
    /// Max protected entries per shard (`PROTECTED_SHARE` of
    /// `per_shard`).
    protected_cap: usize,
    hits: Counter,
    misses: Counter,
    evictions: Counter,
}

impl FoldCache {
    /// A cache holding up to `capacity` profiles across [`N_SHARDS`]
    /// shards (0 disables caching), counting into private cells.
    pub fn new(capacity: usize) -> Self {
        Self::with_counters(capacity, Counter::new(), Counter::new(), Counter::new())
    }

    /// Like [`FoldCache::new`], but recording hits / misses /
    /// evictions straight into the given counter cells — pass
    /// registry-registered counters and the registry becomes the
    /// single source of truth for the cache series, no mirroring step
    /// involved.
    pub fn with_counters(
        capacity: usize,
        hits: Counter,
        misses: Counter,
        evictions: Counter,
    ) -> Self {
        let per_shard = if capacity == 0 {
            0
        } else {
            capacity.div_ceil(N_SHARDS).max(1)
        };
        let (num, den) = PROTECTED_SHARE;
        Self {
            shards: (0..N_SHARDS)
                .map(|_| Mutex::new(Shard::default()))
                .collect(),
            per_shard,
            protected_cap: per_shard * num / den,
            hits,
            misses,
            evictions,
        }
    }

    /// Whether the cache can ever hold an entry.
    pub fn enabled(&self) -> bool {
        self.per_shard > 0
    }

    fn shard(&self, key: u64) -> &Mutex<Shard> {
        // High bits: FNV-1a mixes them at least as well as the low ones
        // and they are independent of any HashMap bucket masking below.
        &self.shards[(key >> 61) as usize % N_SHARDS]
    }

    /// Look `key` up, counting a hit or miss (no-op when disabled). A
    /// hit on a probation entry promotes it to the protected segment.
    pub fn get(&self, key: u64) -> Option<FoldedProfile> {
        if !self.enabled() {
            return None;
        }
        let mut shard = lock(self.shard(key));
        let tick = shard.next_tick();
        let Some(entry) = shard.map.get_mut(&key) else {
            drop(shard);
            self.misses.inc();
            return None;
        };
        entry.tick = tick;
        let profile = entry.profile.clone();
        if !entry.protected {
            entry.protected = true;
            shard.protected += 1;
            if shard.protected > self.protected_cap {
                shard.demote_oldest_protected();
            }
        }
        drop(shard);
        self.hits.inc();
        Some(profile)
    }

    /// Insert the profile computed for `key` under snapshot
    /// `generation` into the shard's probation segment, evicting the
    /// least recently used probation entry if the shard is full (no-op
    /// when disabled). A key already present (two workers folding the
    /// same item at once) keeps its segment and takes the new value.
    pub fn insert(&self, key: u64, generation: u64, profile: FoldedProfile) {
        if !self.enabled() {
            return;
        }
        let mut shard = lock(self.shard(key));
        let tick = shard.next_tick();
        if let Some(entry) = shard.map.get_mut(&key) {
            entry.tick = tick;
            entry.generation = generation;
            entry.profile = profile;
            return;
        }
        if shard.map.len() >= self.per_shard {
            // O(shard) scan — shards are small (capacity / N_SHARDS)
            // and eviction only happens under capacity pressure, so
            // this never shows next to the Gibbs chain whose rerun it
            // saves. The protected segment never fills a shard, so
            // probation always has an entry to give up.
            if let Some(victim) = shard.oldest(false) {
                shard.map.remove(&victim);
                self.evictions.inc();
            }
        }
        shard.map.insert(
            key,
            Entry {
                tick,
                generation,
                protected: false,
                profile,
            },
        );
    }

    /// Drop every cached profile (called on snapshot swap: the
    /// generation-mixed keys already make old entries unreachable, this
    /// frees their memory immediately).
    pub fn invalidate(&self) {
        for shard in &self.shards {
            let mut shard = lock(shard);
            shard.map.clear();
            shard.protected = 0;
        }
    }

    /// Drop entries computed against generations **older than**
    /// `live`. Equivalent to [`FoldCache::invalidate`] right after a
    /// swap; `>=` (not `==`) so that when reloads race, a slower, older
    /// reload's late sweep cannot wipe the entries a newer generation
    /// already repopulated — stale entries it leaves behind are
    /// unreachable anyway (the generation is mixed into every key).
    pub fn retain_generation(&self, live: u64) {
        for shard in &self.shards {
            let mut shard = lock(shard);
            shard.map.retain(|_, e| e.generation >= live);
            shard.protected = shard.map.values().filter(|e| e.protected).count();
        }
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.get(),
            misses: self.misses.get(),
            evictions: self.evictions.get(),
            entries: self.shards.iter().map(|s| lock(s).map.len() as u64).sum(),
        }
    }
}

impl std::fmt::Debug for FoldCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FoldCache")
            .field("per_shard", &self.per_shard)
            .field("stats", &self.stats())
            .finish()
    }
}

/// Nothing in here panics while holding a shard lock, but recover from
/// poisoning anyway — a cache must never take the pool down.
fn lock(m: &Mutex<Shard>) -> std::sync::MutexGuard<'_, Shard> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use social_graph::{UserId, WordId};

    fn profile(tag: f64) -> FoldedProfile {
        FoldedProfile {
            membership: vec![tag],
            topics: vec![tag],
            doc_topics: vec![],
        }
    }

    #[test]
    fn key_distinguishes_doc_boundaries_seed_and_generation() {
        let split = FoldInItem {
            docs: vec![vec![WordId(1)], vec![WordId(2)]],
            friends: vec![],
        };
        let joined = FoldInItem {
            docs: vec![vec![WordId(1), WordId(2)]],
            friends: vec![],
        };
        assert_ne!(fold_key(&split, 0, 1), fold_key(&joined, 0, 1));
        assert_ne!(fold_key(&split, 0, 1), fold_key(&split, 1, 1));
        assert_ne!(fold_key(&split, 0, 1), fold_key(&split, 0, 2));
        let friended = FoldInItem {
            friends: vec![UserId(3)],
            ..split.clone()
        };
        assert_ne!(fold_key(&split, 0, 1), fold_key(&friended, 0, 1));
        assert_eq!(fold_key(&split, 0, 1), fold_key(&split.clone(), 0, 1));
    }

    #[test]
    fn lru_evicts_least_recently_used_and_counts() {
        let cache = FoldCache::new(2 * N_SHARDS); // two entries per shard
        let item = FoldInItem::doc(vec![WordId(0)]);
        // Find three keys landing in the same shard.
        let mut keys = Vec::new();
        let mut seed = 0u64;
        let shard0 = fold_key(&item, 0, 1) >> 61;
        while keys.len() < 3 {
            let k = fold_key(&item, seed, 1);
            if k >> 61 == shard0 {
                keys.push((k, seed));
            }
            seed += 1;
        }
        cache.insert(keys[0].0, 1, profile(0.0));
        cache.insert(keys[1].0, 1, profile(1.0));
        // Touch key 0 so key 1 is the LRU, then insert key 2.
        assert!(cache.get(keys[0].0).is_some());
        cache.insert(keys[2].0, 1, profile(2.0));
        assert!(cache.get(keys[0].0).is_some(), "recently used survives");
        assert!(cache.get(keys[1].0).is_none(), "LRU evicted");
        let stats = cache.stats();
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.hits, 2);
        assert_eq!(stats.misses, 1);
    }

    /// The `i`th key of shard `shard` (shards are picked by the top
    /// three bits).
    fn key_in(shard: u64, i: u64) -> u64 {
        shard << 61 | i
    }

    /// A shard's protected count, checked against its entries' flags.
    fn protected_in(cache: &FoldCache, shard: u64) -> usize {
        let shard = lock(&cache.shards[shard as usize]);
        let flagged = shard.map.values().filter(|e| e.protected).count();
        assert_eq!(shard.protected, flagged, "protected count drifted");
        flagged
    }

    #[test]
    fn one_off_inserts_do_not_evict_repeated_entries() {
        let per_shard = 8;
        let cache = FoldCache::new(per_shard * N_SHARDS);
        let hot: Vec<u64> = (0..4).map(|i| key_in(3, i)).collect();
        for &k in &hot {
            cache.insert(k, 1, profile(k as f64));
            assert!(cache.get(k).is_some());
        }
        // Ten shards' worth of one-off fold-ins, each a miss and an
        // insert as the runtime makes them. A plain LRU of 8 would have
        // dropped the hot entries after the first 8.
        for i in 0..10 * per_shard as u64 {
            let k = key_in(3, 1_000 + i);
            assert!(cache.get(k).is_none());
            cache.insert(k, 1, profile(0.0));
        }
        for &k in &hot {
            assert!(cache.get(k).is_some(), "hot entry {k:#x} evicted");
        }
        let stats = cache.stats();
        assert_eq!(stats.entries, per_shard as u64);
        assert_eq!(
            stats.evictions,
            (hot.len() + 10 * per_shard - per_shard) as u64
        );
        assert_eq!(protected_in(&cache, 3), hot.len());
    }

    #[test]
    fn promotion_past_the_protected_share_demotes_the_oldest_protected_entry() {
        // Ten entries a shard, at most eight protected.
        let cache = FoldCache::new(10 * N_SHARDS);
        let k: Vec<u64> = (0..12).map(|i| key_in(5, i)).collect();
        for &key in &k[..9] {
            cache.insert(key, 1, profile(0.0));
        }
        for &key in &k[..8] {
            assert!(cache.get(key).is_some());
        }
        cache.insert(k[9], 1, profile(0.0));
        assert_eq!(protected_in(&cache, 5), 8);
        // Promoting k8 overfills the segment: k0, the least recently
        // used protected entry, goes to the young end of probation,
        // behind k9 (which arrived after k0's last hit).
        assert!(cache.get(k[8]).is_some());
        assert_eq!(protected_in(&cache, 5), 8);
        assert!(!lock(&cache.shards[5]).map[&k[0]].protected);
        cache.insert(k[10], 1, profile(0.0));
        assert!(
            !lock(&cache.shards[5]).map.contains_key(&k[9]),
            "k9 evicted first"
        );
        cache.insert(k[11], 1, profile(0.0));
        assert!(!lock(&cache.shards[5]).map.contains_key(&k[0]), "then k0");
        for &key in &k[1..9] {
            assert!(cache.get(key).is_some(), "protected {key:#x} survives");
        }
        assert_eq!(cache.stats().evictions, 2);
    }

    #[test]
    fn invalidate_and_retain_generation_keep_the_protected_count() {
        let cache = FoldCache::new(10 * N_SHARDS);
        for i in 0..6 {
            let generation = 1 + i % 2;
            cache.insert(key_in(2, i), generation, profile(0.0));
            assert!(cache.get(key_in(2, i)).is_some());
        }
        cache.insert(key_in(2, 6), 2, profile(0.0));
        assert_eq!(protected_in(&cache, 2), 6);
        cache.retain_generation(2);
        assert_eq!(
            protected_in(&cache, 2),
            3,
            "keys 1, 3 and 5 remain protected"
        );
        // The segment still fills to exactly its cap: a stale count
        // would demote too early.
        for i in 10..15 {
            cache.insert(key_in(2, i), 2, profile(0.0));
            assert!(cache.get(key_in(2, i)).is_some());
        }
        assert_eq!(protected_in(&cache, 2), 8);
        cache.invalidate();
        assert_eq!(protected_in(&cache, 2), 0);
        assert_eq!(cache.stats().entries, 0);
        cache.insert(key_in(2, 20), 3, profile(0.0));
        assert!(cache.get(key_in(2, 20)).is_some());
        assert_eq!(protected_in(&cache, 2), 1);
    }

    #[test]
    fn zero_capacity_disables_without_counting() {
        let cache = FoldCache::new(0);
        cache.insert(7, 1, profile(0.5));
        assert!(cache.get(7).is_none());
        assert_eq!(cache.stats(), CacheStats::default());
    }

    #[test]
    fn invalidate_and_retain_generation() {
        let cache = FoldCache::new(64);
        cache.insert(1, 1, profile(0.1));
        cache.insert(2, 2, profile(0.2));
        cache.retain_generation(2);
        assert!(cache.get(1).is_none());
        assert!(cache.get(2).is_some());
        // A slower, *older* reload's late sweep must not wipe entries a
        // newer generation already repopulated.
        cache.insert(3, 3, profile(0.3));
        cache.retain_generation(2);
        assert!(cache.get(3).is_some(), "newer-generation entry survives");
        cache.invalidate();
        assert_eq!(cache.stats().entries, 0);
    }
}
