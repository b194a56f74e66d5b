//! Size-class keyed buffer pool for tensor backing storage.
//!
//! The executors allocate (and drop) a fresh `Vec<f64>` for every
//! intermediate tensor and every GETT pack panel, so a `tce serve` process
//! fielding repeated requests round-trips the allocator thousands of times
//! for the same handful of sizes.  This module keeps released buffers in a
//! process-wide arena keyed by power-of-two *size class*, sharded like the
//! GETT plan cache so concurrent workers contend on 1/S of a mutex.
//!
//! * [`acquire(len)`](acquire) pops a buffer whose capacity covers `len`'s
//!   size class (a **hit**) or allocates one at the class capacity (a
//!   **miss**), and returns it zero-filled — callers see exactly what
//!   `vec![0.0; len]` would have given them.
//! * [`release`] files a buffer back under the largest power-of-two class
//!   its capacity covers, so buffers that were never pooled (or grew) are
//!   classified safely.  When accepting a buffer would push the retained
//!   element total over the cap, it is dropped instead (an **eviction**).
//!
//! The retained total is bounded by [`DEFAULT_BUFPOOL_CAP`] elements.
//! Hit/miss/evict counters mirror the plan cache's, both as process
//! globals (for `tce serve` stats) and as `bufpool.*` trace counters.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// Default retained-element bound: 1<<22 elements = 32 MiB of `f64`,
/// enough to recycle every intermediate of the benchmark scenarios while
/// bounding a long-running serve process.
pub const DEFAULT_BUFPOOL_CAP: u64 = 1 << 22;

/// Shard count (fixed; the pool's keys are size classes, of which a
/// program uses only a handful, so configurability buys nothing).
const BUFPOOL_SHARDS: usize = 8;

/// One independently locked slice of the pool: size class → free buffers.
struct Shard {
    classes: Mutex<HashMap<u64, Vec<Vec<f64>>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

struct BufPool {
    shards: Vec<Shard>,
    /// Retained-element bound.
    cap: u64,
    /// Elements currently retained across all shards.
    retained: AtomicU64,
}

static BUFPOOL: OnceLock<BufPool> = OnceLock::new();

fn pool() -> &'static BufPool {
    BUFPOOL.get_or_init(|| BufPool::new(DEFAULT_BUFPOOL_CAP))
}

/// The size class covering `len`: the next power of two (≥ 1).  Classing
/// by powers of two keeps the key space tiny (≤ 64 classes) and lets one
/// retained buffer serve every request within a 2× band.
fn class_of(len: usize) -> u64 {
    (len.max(1) as u64).next_power_of_two()
}

/// The class a buffer with `capacity` can be *filed under*: the largest
/// power of two it covers.  Using the floor (not the rounded-up class of
/// some original length) means any buffer — pooled origin or not — is
/// guaranteed to satisfy an acquire of its filed class.
fn file_class(capacity: usize) -> u64 {
    let c = capacity as u64;
    if c == 0 {
        0
    } else {
        1u64 << (63 - c.leading_zeros() as u64)
    }
}

impl BufPool {
    fn new(cap: u64) -> Self {
        BufPool {
            shards: (0..BUFPOOL_SHARDS)
                .map(|_| Shard {
                    classes: Mutex::new(HashMap::new()),
                    hits: AtomicU64::new(0),
                    misses: AtomicU64::new(0),
                    evictions: AtomicU64::new(0),
                })
                .collect(),
            cap,
            retained: AtomicU64::new(0),
        }
    }

    fn shard_for(&self, class: u64) -> &Shard {
        // Classes are powers of two; spread consecutive classes across shards.
        &self.shards[(class.trailing_zeros() as usize) % self.shards.len()]
    }

    fn acquire(&self, len: usize) -> Vec<f64> {
        let class = class_of(len);
        let shard = self.shard_for(class);
        let recycled = {
            let mut classes = shard.classes.lock().unwrap_or_else(|e| e.into_inner());
            classes.get_mut(&class).and_then(Vec::pop)
        };
        match recycled {
            Some(mut buf) => {
                self.retained.fetch_sub(class, Ordering::Relaxed);
                shard.hits.fetch_add(1, Ordering::Relaxed);
                tce_trace::counter("bufpool.hits", 1);
                debug_assert!(buf.capacity() as u64 >= class.min(usize::MAX as u64));
                buf.clear();
                buf.resize(len, 0.0);
                buf
            }
            None => {
                shard.misses.fetch_add(1, Ordering::Relaxed);
                tce_trace::counter("bufpool.misses", 1);
                let mut buf = Vec::with_capacity(class as usize);
                buf.resize(len, 0.0);
                buf
            }
        }
    }

    fn release(&self, buf: Vec<f64>) {
        let class = file_class(buf.capacity());
        if class == 0 {
            return; // zero-capacity vec: nothing worth filing
        }
        let shard = self.shard_for(class);
        // Reserve the retained budget optimistically; roll back on overflow.
        let prev = self.retained.fetch_add(class, Ordering::Relaxed);
        if prev + class > self.cap {
            self.retained.fetch_sub(class, Ordering::Relaxed);
            shard.evictions.fetch_add(1, Ordering::Relaxed);
            tce_trace::counter("bufpool.evictions", 1);
            return;
        }
        let mut classes = shard.classes.lock().unwrap_or_else(|e| e.into_inner());
        classes.entry(class).or_default().push(buf);
    }

    /// `(hits, misses, evictions)` summed over all shards.
    fn stats(&self) -> (u64, u64, u64) {
        self.shards.iter().fold((0, 0, 0), |acc, s| {
            (
                acc.0 + s.hits.load(Ordering::Relaxed),
                acc.1 + s.misses.load(Ordering::Relaxed),
                acc.2 + s.evictions.load(Ordering::Relaxed),
            )
        })
    }
}

/// A zero-filled buffer of exactly `len` elements, recycled from the pool
/// when a buffer of `len`'s size class is available.
pub fn acquire(len: usize) -> Vec<f64> {
    pool().acquire(len)
}

/// Return a buffer to the pool (dropping it when it is too small to file
/// or retaining it would exceed the cap).
pub fn release(buf: Vec<f64>) {
    pool().release(buf);
}

/// `(hits, misses, evictions)` summed over all shards.
pub fn bufpool_stats() -> (u64, u64, u64) {
    pool().stats()
}

/// Elements currently retained (each buffer accounted at its size class).
pub fn bufpool_retained_elements() -> u64 {
    pool().retained.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_classes_round_trip() {
        assert_eq!(class_of(0), 1);
        assert_eq!(class_of(1), 1);
        assert_eq!(class_of(5), 8);
        assert_eq!(class_of(8), 8);
        assert_eq!(file_class(8), 8);
        assert_eq!(file_class(9), 8);
        assert_eq!(file_class(15), 8);
        assert_eq!(file_class(0), 0);
        // Invariant: an acquire of class c is satisfied by any buffer
        // filed under c (its capacity is ≥ c by floor classification).
        for capacity in 1..200usize {
            let fc = file_class(capacity);
            assert!(capacity as u64 >= fc);
        }
    }

    /// The process-wide pool is shared with every other unit test that
    /// runs the GETT engine, so only race-safe assertions use it; exact
    /// counts use a private pool.
    #[test]
    fn acquire_always_returns_zero_filled_buffers() {
        let mut a = acquire(100);
        a.iter_mut().for_each(|x| *x = 7.5);
        release(a);
        for len in [1usize, 100, 1000] {
            let b = acquire(len);
            assert_eq!(b.len(), len);
            assert!(b.iter().all(|&x| x == 0.0), "buffer not zeroed");
            release(b);
        }
    }

    #[test]
    fn tight_cap_under_contention_keeps_counters_and_bound() {
        // Cap at 4096 elements: the mixed working set below wants far more,
        // so threads constantly race hits, misses, and cap-overflow evictions.
        let pool = BufPool::new(4096);
        let (threads, rounds) = (8, 200);
        // Several size classes (16 … 4096 elements), so several shards are
        // in play.
        let lens = [16usize, 64, 512, 1024, 4096];
        std::thread::scope(|s| {
            for t in 0..threads {
                let pool = &pool;
                s.spawn(move || {
                    for r in 0..rounds {
                        let mut buf = pool.acquire(lens[(t + r) % lens.len()]);
                        // Recycled buffers must come back zeroed no matter
                        // how the previous owner dirtied them.
                        assert!(buf.iter().all(|&x| x == 0.0), "pooled buffer not zeroed");
                        buf.iter_mut().for_each(|x| *x = t as f64);
                        pool.release(buf);
                    }
                });
            }
        });

        // Every acquire was counted exactly once, as a hit or a miss.
        let (hits, misses, _) = pool.stats();
        assert_eq!(hits + misses, (threads * rounds) as u64);
        assert!(hits > 0, "a hot loop over 5 sizes never hit the pool");
        // The cap is a hard bound on what the pool retains.
        let retained = pool.retained.load(Ordering::Relaxed);
        assert!(retained <= 4096, "retained {retained} elements > cap 4096");

        // A released buffer is reused by the next acquire of its class.
        pool.release(pool.acquire(64));
        let before = pool.stats();
        let reused = pool.acquire(64);
        assert_eq!(pool.stats().0, before.0 + 1, "recycled buffer not reused");
        pool.release(reused);
    }
}
