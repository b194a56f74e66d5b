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
//! The retained total is bounded by [`DEFAULT_BUFPOOL_CAP`] elements
//! ([`set_bufpool_capacity`] changes it at run time).  A cap of **0
//! disables pooling**: every
//! acquire is a plain allocation (counted as a miss) and every release a
//! drop (not counted as an eviction — nothing was ever retained).
//! Hit/miss/evict counters mirror the plan cache's, both as process
//! globals (for `tce serve` stats) and as `bufpool.*` trace counters.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// Default retained-element bound: 1<<22 elements = 32 MiB of `f64`,
/// enough to recycle every intermediate of the benchmark scenarios while
/// bounding a long-running serve process.  [`set_bufpool_capacity`]
/// changes it at run time; 0 disables pooling.
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
    /// Retained-element bound (0 = pooling disabled).
    cap: AtomicU64,
    /// Elements currently retained across all shards.
    retained: AtomicU64,
}

static BUFPOOL: OnceLock<BufPool> = OnceLock::new();

fn pool() -> &'static BufPool {
    BUFPOOL.get_or_init(|| BufPool {
        shards: (0..BUFPOOL_SHARDS)
            .map(|_| Shard {
                classes: Mutex::new(HashMap::new()),
                hits: AtomicU64::new(0),
                misses: AtomicU64::new(0),
                evictions: AtomicU64::new(0),
            })
            .collect(),
        cap: AtomicU64::new(DEFAULT_BUFPOOL_CAP),
        retained: AtomicU64::new(0),
    })
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

fn shard_for(class: u64) -> &'static Shard {
    let p = pool();
    // Classes are powers of two; spread consecutive classes across shards.
    &p.shards[(class.trailing_zeros() as usize) % p.shards.len()]
}

/// A zero-filled buffer of exactly `len` elements, recycled from the pool
/// when a buffer of `len`'s size class is available.
pub fn acquire(len: usize) -> Vec<f64> {
    let p = pool();
    if p.cap.load(Ordering::Relaxed) == 0 {
        // Pooling disabled: plain allocation, counted as a miss so the
        // hit-rate denominator stays meaningful.
        let shard = shard_for(class_of(len));
        shard.misses.fetch_add(1, Ordering::Relaxed);
        tce_trace::counter("bufpool.misses", 1);
        return vec![0.0; len];
    }
    let class = class_of(len);
    let shard = shard_for(class);
    let recycled = {
        let mut classes = shard.classes.lock().unwrap_or_else(|e| e.into_inner());
        classes.get_mut(&class).and_then(Vec::pop)
    };
    match recycled {
        Some(mut buf) => {
            p.retained.fetch_sub(class, Ordering::Relaxed);
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

/// Return a buffer to the pool (dropping it when pooling is disabled, the
/// buffer is too small to file, or retaining it would exceed the cap).
pub fn release(buf: Vec<f64>) {
    let p = pool();
    let cap = p.cap.load(Ordering::Relaxed);
    if cap == 0 {
        return; // pooling disabled: plain drop, nothing was retained
    }
    let class = file_class(buf.capacity());
    if class == 0 {
        return; // zero-capacity vec: nothing worth filing
    }
    // Reserve the retained budget optimistically; roll back on overflow.
    let prev = p.retained.fetch_add(class, Ordering::Relaxed);
    if prev + class > cap {
        p.retained.fetch_sub(class, Ordering::Relaxed);
        let shard = shard_for(class);
        shard.evictions.fetch_add(1, Ordering::Relaxed);
        tce_trace::counter("bufpool.evictions", 1);
        return;
    }
    let shard = shard_for(class);
    let mut classes = shard.classes.lock().unwrap_or_else(|e| e.into_inner());
    classes.entry(class).or_default().push(buf);
}

/// `(hits, misses, evictions)` summed over all shards.
pub fn bufpool_stats() -> (u64, u64, u64) {
    pool().shards.iter().fold((0, 0, 0), |acc, s| {
        (
            acc.0 + s.hits.load(Ordering::Relaxed),
            acc.1 + s.misses.load(Ordering::Relaxed),
            acc.2 + s.evictions.load(Ordering::Relaxed),
        )
    })
}

/// Per-shard `(hits, misses, evictions)`.
pub fn bufpool_shard_stats() -> Vec<(u64, u64, u64)> {
    pool()
        .shards
        .iter()
        .map(|s| {
            (
                s.hits.load(Ordering::Relaxed),
                s.misses.load(Ordering::Relaxed),
                s.evictions.load(Ordering::Relaxed),
            )
        })
        .collect()
}

/// Buffers currently retained across all shards.
pub fn bufpool_len() -> usize {
    pool()
        .shards
        .iter()
        .map(|s| {
            s.classes
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .values()
                .map(Vec::len)
                .sum::<usize>()
        })
        .sum()
}

/// Elements currently retained (each buffer accounted at its size class).
pub fn bufpool_retained_elements() -> u64 {
    pool().retained.load(Ordering::Relaxed)
}

/// Set the retained-element cap (0 disables pooling), dropping retained
/// buffers immediately if over the new bound; returns the previous cap.
pub fn set_bufpool_capacity(cap: u64) -> u64 {
    let p = pool();
    let old = p.cap.swap(cap, Ordering::Relaxed);
    for shard in &p.shards {
        let mut classes = shard.classes.lock().unwrap_or_else(|e| e.into_inner());
        // Drop largest-first until the retained total fits.
        let mut order: Vec<u64> = classes.keys().copied().collect();
        order.sort_unstable_by(|a, b| b.cmp(a));
        for class in order {
            while p.retained.load(Ordering::Relaxed) > cap {
                let Some(bufs) = classes.get_mut(&class) else {
                    break;
                };
                if bufs.pop().is_none() {
                    break;
                }
                p.retained.fetch_sub(class, Ordering::Relaxed);
                shard.evictions.fetch_add(1, Ordering::Relaxed);
                tce_trace::counter("bufpool.evictions", 1);
            }
        }
        classes.retain(|_, bufs| !bufs.is_empty());
    }
    old
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

    /// Only race-safe assertions live here: the pool is process-global
    /// and other tensor unit tests use it concurrently through the GETT
    /// engine, so exact length/counter checks belong to the isolated
    /// integration stress test (tests/bufpool_stress.rs).
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
}
