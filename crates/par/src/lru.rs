//! A generic sharded LRU cache.
//!
//! The one cache behind the GETT plan cache in `tce-tensor` and the
//! response-memo / compiled-synthesis caches of `tce serve`: the key hashes
//! to one of `S` shards, each shard is an independently locked LRU of
//! capacity `total/S` (the remainder spread one-per-shard from shard 0),
//! so concurrent requests for *different* expressions never contend on
//! one mutex.  The shard lock is held across the miss closure on purpose:
//! two threads racing on the *same* key run the (expensive) fill once,
//! while fills for other keys proceed on other shards.
//!
//! Recency is a `u64` stamp per entry (bumped on every hit); eviction scans
//! for the minimum stamp — O(capacity), which is trivial next to any fill
//! worth caching and keeps each shard a plain `HashMap`.
//!
//! Values are handed out as `Arc<V>` so a hit never clones the payload
//! and eviction never invalidates an in-flight user.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::convert::Infallible;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Hit/miss/eviction counters for one shard (or the whole cache).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that ran the fill closure.
    pub misses: u64,
    /// Entries displaced to respect the capacity bound.
    pub evictions: u64,
}

struct LruStore<K, V> {
    map: HashMap<K, (Arc<V>, u64)>,
    stamp: u64,
    capacity: usize,
}

impl<K: Hash + Eq + Clone, V> LruStore<K, V> {
    fn evict_oldest(&mut self) {
        if let Some(victim) = self
            .map
            .iter()
            .min_by_key(|(_, (_, stamp))| *stamp)
            .map(|(k, _)| k.clone())
        {
            self.map.remove(&victim);
        }
    }
}

/// One independently locked slice of the cache.  The counters are relaxed
/// atomics: statistics, read off the hot path.
struct Shard<K, V> {
    store: Mutex<LruStore<K, V>>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

/// A sharded LRU mapping `K` to `Arc<V>`.
pub struct ShardedLru<K, V> {
    shards: Vec<Shard<K, V>>,
    /// `[hits, misses, evictions]` trace-counter names, when mirrored.
    trace: Option<[&'static str; 3]>,
}

/// Shard `i`'s share of a total `capacity` split over `shards` shards.
fn shard_capacity(capacity: usize, shards: usize, i: usize) -> usize {
    capacity / shards + usize::from(i < capacity % shards)
}

impl<K: Hash + Eq + Clone, V> ShardedLru<K, V> {
    /// Build a cache holding at most `capacity` entries total, split over
    /// `shards` independently locked shards (both clamped to at least 1).
    /// Shards whose share of the capacity rounds to zero reject inserts,
    /// counting them as evictions, so the global bound is strict.
    #[must_use]
    pub fn new(capacity: usize, shards: usize) -> Self {
        let shards = shards.max(1);
        let built = (0..shards)
            .map(|i| Shard {
                store: Mutex::new(LruStore {
                    map: HashMap::new(),
                    stamp: 0,
                    capacity: shard_capacity(capacity, shards, i),
                }),
                hits: AtomicU64::new(0),
                misses: AtomicU64::new(0),
                evictions: AtomicU64::new(0),
            })
            .collect();
        Self {
            shards: built,
            trace: None,
        }
    }

    /// Mirror every hit, miss and eviction into the named `tce-trace`
    /// counters (`[hits, misses, evictions]`), so a traced run's profile
    /// shows this cache's traffic.
    #[must_use]
    pub fn with_trace_counters(mut self, names: [&'static str; 3]) -> Self {
        self.trace = Some(names);
        self
    }

    fn count(&self, counter: &AtomicU64, which: usize) {
        counter.fetch_add(1, Ordering::Relaxed);
        if let Some(names) = self.trace {
            tce_trace::counter(names[which], 1);
        }
    }

    fn shard_for(&self, key: &K) -> &Shard<K, V> {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[(h.finish() % self.shards.len() as u64) as usize]
    }

    /// Look `key` up; on a miss, run `fill` under the shard lock and cache
    /// the result.  Returns the value and whether it was a hit.
    pub fn get_or_insert_with<F: FnOnce() -> V>(&self, key: &K, fill: F) -> (Arc<V>, bool) {
        let Ok(found) = self.try_get_or_insert_with(key, || Ok::<V, Infallible>(fill()));
        found
    }

    /// [`ShardedLru::get_or_insert_with`] with a fallible `fill`: an `Err`
    /// is handed back and neither cached nor counted, so the next lookup
    /// of `key` runs `fill` again.
    ///
    /// # Errors
    /// `fill`'s error, on a miss whose fill fails.
    pub fn try_get_or_insert_with<E, F: FnOnce() -> Result<V, E>>(
        &self,
        key: &K,
        fill: F,
    ) -> Result<(Arc<V>, bool), E> {
        let shard = self.shard_for(key);
        let mut store = shard.store.lock().unwrap_or_else(|e| e.into_inner());
        store.stamp += 1;
        let stamp = store.stamp;
        if let Some((value, last)) = store.map.get_mut(key) {
            *last = stamp;
            self.count(&shard.hits, 0);
            return Ok((Arc::clone(value), true));
        }
        // Count the miss only once `fill` has produced a value: a
        // panicking fill must leave the counters consistent
        // (`len == misses - evictions`), not record a miss that never
        // inserted.  The poisoned shard lock is recovered on the next
        // access (`unwrap_or_else(into_inner)` above) and the store itself
        // was not modified, so the shard keeps serving.  A failed fill
        // leaves the store and the counters untouched the same way.
        let value = Arc::new(fill()?);
        self.count(&shard.misses, 1);
        if store.capacity == 0 {
            // This shard got no share of the capacity: the fresh value is
            // handed to the caller but not retained, which counts as an
            // eviction so `len == misses - evictions` stays an invariant.
            self.count(&shard.evictions, 2);
            return Ok((value, false));
        }
        if store.map.len() >= store.capacity {
            store.evict_oldest();
            self.count(&shard.evictions, 2);
        }
        store.map.insert(key.clone(), (Arc::clone(&value), stamp));
        Ok((value, false))
    }

    /// Current number of cached entries across all shards.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.store.lock().unwrap_or_else(|e| e.into_inner()).map.len())
            .sum()
    }

    /// Whether the cache currently holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of shards.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Aggregated counters over all shards.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.shard_stats()
            .into_iter()
            .fold(CacheStats::default(), |a, s| CacheStats {
                hits: a.hits + s.hits,
                misses: a.misses + s.misses,
                evictions: a.evictions + s.evictions,
            })
    }

    /// Per-shard counters, in shard order.
    #[must_use]
    pub fn shard_stats(&self) -> Vec<CacheStats> {
        self.shards
            .iter()
            .map(|s| CacheStats {
                hits: s.hits.load(Ordering::Relaxed),
                misses: s.misses.load(Ordering::Relaxed),
                evictions: s.evictions.load(Ordering::Relaxed),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn hit_returns_same_arc_without_refill() {
        let cache: ShardedLru<String, usize> = ShardedLru::new(8, 4);
        let fills = AtomicUsize::new(0);
        let fill = || {
            fills.fetch_add(1, Ordering::Relaxed);
            7usize
        };
        let (a, hit_a) = cache.get_or_insert_with(&"k".to_string(), fill);
        let (b, hit_b) = cache.get_or_insert_with(&"k".to_string(), fill);
        assert!(!hit_a);
        assert!(hit_b);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(fills.load(Ordering::Relaxed), 1);
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 1,
                misses: 1,
                evictions: 0
            }
        );
    }

    #[test]
    fn capacity_bound_is_global_and_strict() {
        for shards in [1, 3, 8, 64] {
            let cache: ShardedLru<u64, u64> = ShardedLru::new(4, shards);
            for k in 0..100u64 {
                cache.get_or_insert_with(&k, || k);
            }
            assert!(cache.len() <= 4, "{shards} shards: len {} > 4", cache.len());
            let s = cache.stats();
            assert_eq!(s.misses - s.evictions, cache.len() as u64);
        }
    }

    #[test]
    fn zero_capacity_caches_nothing() {
        let cache: ShardedLru<u64, u64> = ShardedLru::new(0, 4);
        for k in 0..10u64 {
            let (v, hit) = cache.get_or_insert_with(&k, || k * 2);
            assert_eq!(*v, k * 2);
            assert!(!hit);
        }
        assert!(cache.is_empty());
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.evictions), (0, 10, 10));
    }

    #[test]
    fn lru_keeps_the_recently_used_entry() {
        // One shard so the recency order is deterministic.
        let cache: ShardedLru<u64, u64> = ShardedLru::new(2, 1);
        cache.get_or_insert_with(&1, || 1);
        cache.get_or_insert_with(&2, || 2);
        cache.get_or_insert_with(&1, || 1); // refresh 1 → 2 is oldest
        cache.get_or_insert_with(&3, || 3); // evicts 2
        let (_, hit1) = cache.get_or_insert_with(&1, || 10);
        assert!(hit1, "recently used entry was evicted");
        let (_, hit2) = cache.get_or_insert_with(&2, || 20);
        assert!(!hit2, "LRU victim survived");
    }

    #[test]
    fn failed_fill_is_neither_cached_nor_counted() {
        let cache: ShardedLru<u64, u64> = ShardedLru::new(4, 1);
        assert_eq!(
            cache.try_get_or_insert_with(&1, || Err("refused")),
            Err("refused")
        );
        assert_eq!((cache.len(), cache.stats().misses), (0, 0));
        // The next lookup of the same key fills again.
        let (value, hit) = cache.try_get_or_insert_with(&1, || Ok::<_, ()>(7)).unwrap();
        assert_eq!((*value, hit), (7, false));
        assert_eq!((cache.len(), cache.stats().misses), (1, 1));
        let (value, hit) = cache.try_get_or_insert_with(&1, || Err(())).unwrap();
        assert_eq!((*value, hit), (7, true));
    }

    #[test]
    fn panicking_fill_leaves_shard_serving_with_exact_counters() {
        // Several threads race misses on the SAME key while the fill
        // panics for some of them: the shard lock gets poisoned and
        // recovered, no phantom miss is counted, and the shard keeps
        // serving hits and misses afterwards.
        let cache: Arc<ShardedLru<u64, u64>> = Arc::new(ShardedLru::new(8, 2));
        let panics = Arc::new(AtomicUsize::new(0));
        // The filling (odd) threads start only once every panicking (even)
        // thread has made its first lookup, so at least one fill always
        // panics however the threads are scheduled.
        let first_lookups_done = std::sync::Barrier::new(8);
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let cache = Arc::clone(&cache);
                let panics = Arc::clone(&panics);
                let first_lookups_done = &first_lookups_done;
                s.spawn(move || {
                    for i in 0..50u64 {
                        if i == u64::from(t % 2 == 0) {
                            first_lookups_done.wait();
                        }
                        let k = i % 4;
                        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            cache.get_or_insert_with(&k, || {
                                if t % 2 == 0 && i < 8 {
                                    panic!("injected fill failure");
                                }
                                k * 3
                            })
                        }));
                        match r {
                            Ok((v, _)) => assert_eq!(*v, k * 3),
                            Err(_) => {
                                panics.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }
                });
            }
        });
        assert!(panics.load(Ordering::Relaxed) > 0, "no fill ever panicked");
        let s = cache.stats();
        // Every successful lookup is exactly one hit or one miss; panicked
        // fills count as neither.
        assert_eq!(
            s.hits + s.misses + panics.load(Ordering::Relaxed) as u64,
            8 * 50
        );
        // The counter identity survives the poisoned/recovered lock.
        assert_eq!(s.misses - s.evictions, cache.len() as u64);
        // And the shard still serves: a fresh key misses, a repeat hits.
        let (_, hit) = cache.get_or_insert_with(&99, || 7);
        assert!(!hit);
        let (v, hit) = cache.get_or_insert_with(&99, || 7);
        assert!(hit);
        assert_eq!(*v, 7);
    }

    #[test]
    fn concurrent_mixed_keys_stay_consistent() {
        let cache: Arc<ShardedLru<u64, u64>> = Arc::new(ShardedLru::new(16, 8));
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let cache = Arc::clone(&cache);
                s.spawn(move || {
                    for i in 0..200u64 {
                        let k = (t * 7 + i) % 32;
                        let (v, _) = cache.get_or_insert_with(&k, || k * 3);
                        assert_eq!(*v, k * 3);
                    }
                });
            }
        });
        let s = cache.stats();
        assert_eq!(s.hits + s.misses, 8 * 200);
        assert_eq!(s.misses - s.evictions, cache.len() as u64);
        assert!(cache.len() <= 16);
    }
}
