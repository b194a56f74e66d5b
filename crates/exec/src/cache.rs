//! LRU memory-hierarchy simulator.
//!
//! The data-locality cost model of paper §6 estimates "the number of cache
//! misses as a function of tile sizes and loop bounds" by counting distinct
//! elements accessed per loop scope.  This module provides the measured
//! counterpart: a fully associative LRU cache (element granularity, with an
//! optional line size) fed by the interpreter's access stream, used to
//! validate the analytic model in the regimes it claims to cover — and to
//! drive the Fig. 4 tile-size sweep where "expensive paging in and out of
//! disk will be required" once the working set exceeds a level's capacity.

use crate::interp::AccessSink;
use std::collections::HashMap;

/// One level of the hierarchy: a fully associative LRU cache.
#[derive(Debug)]
pub struct LruCache {
    /// Capacity in lines.
    capacity: usize,
    /// Line size in elements (1 = element granularity, the paper's model).
    line: usize,
    /// line address → last-use stamp.
    resident: HashMap<u64, u64>,
    /// stamp → line address (ordered for eviction).
    order: std::collections::BTreeMap<u64, u64>,
    clock: u64,
    /// Total accesses.
    pub accesses: u64,
    /// Misses (fills).
    pub misses: u64,
}

impl LruCache {
    /// A cache holding `capacity_elements` elements with the given line
    /// size (in elements).
    ///
    /// # Panics
    /// Panics if `capacity_elements < line_elements` or `line_elements == 0`.
    pub fn new(capacity_elements: usize, line_elements: usize) -> Self {
        assert!(line_elements > 0, "line size must be positive");
        assert!(
            capacity_elements >= line_elements,
            "capacity below one line"
        );
        Self {
            capacity: capacity_elements / line_elements,
            line: line_elements,
            resident: HashMap::new(),
            order: std::collections::BTreeMap::new(),
            clock: 0,
            accesses: 0,
            misses: 0,
        }
    }

    /// Touch one element address.
    pub fn touch(&mut self, addr: u64) {
        self.accesses += 1;
        self.clock += 1;
        let line = addr / self.line as u64;
        if let Some(stamp) = self.resident.insert(line, self.clock) {
            self.order.remove(&stamp);
            self.order.insert(self.clock, line);
            return;
        }
        self.misses += 1;
        self.order.insert(self.clock, line);
        if self.resident.len() > self.capacity {
            let (&old_stamp, &victim) = self.order.iter().next().expect("nonempty");
            self.order.remove(&old_stamp);
            self.resident.remove(&victim);
        }
    }

    /// Reset counters and contents.
    pub fn clear(&mut self) {
        self.resident.clear();
        self.order.clear();
        self.clock = 0;
        self.accesses = 0;
        self.misses = 0;
    }
}

/// An [`AccessSink`] that maps `(array, offset)` pairs into a flat address
/// space (arrays padded to disjoint regions) and feeds an [`LruCache`].
pub struct CacheSink {
    /// The simulated cache.
    pub cache: LruCache,
    /// Base address per array id.
    bases: Vec<u64>,
}

impl CacheSink {
    /// Build from per-array element counts (index = array id).
    pub fn new(cache: LruCache, array_sizes: &[usize]) -> Self {
        let mut bases = Vec::with_capacity(array_sizes.len());
        let mut next = 0u64;
        for &s in array_sizes {
            bases.push(next);
            next += s as u64;
        }
        Self { cache, bases }
    }
}

impl AccessSink for CacheSink {
    fn access(&mut self, array: u32, offset: usize) {
        let base = self.bases[array as usize];
        self.cache.touch(base + offset as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_within_capacity_misses_once_per_element() {
        let mut c = LruCache::new(100, 1);
        for pass in 0..3 {
            for a in 0..50u64 {
                c.touch(a);
            }
            let _ = pass;
        }
        assert_eq!(c.accesses, 150);
        assert_eq!(c.misses, 50); // only cold misses
    }

    #[test]
    fn working_set_beyond_capacity_thrashes_under_lru() {
        // Classic LRU worst case: cyclic sweep over capacity+1 lines
        // misses on every access after warmup.
        let mut c = LruCache::new(10, 1);
        for _ in 0..5 {
            for a in 0..11u64 {
                c.touch(a);
            }
        }
        assert_eq!(c.misses, 55); // every access misses
    }

    #[test]
    fn line_size_amortizes_spatial_locality() {
        let mut c = LruCache::new(64, 8);
        for a in 0..64u64 {
            c.touch(a);
        }
        assert_eq!(c.misses, 8); // one per line
    }

    #[test]
    fn lru_keeps_recent() {
        let mut c = LruCache::new(2, 1);
        c.touch(1);
        c.touch(2);
        c.touch(1); // 1 most recent
        c.touch(3); // evicts 2
        c.touch(1);
        assert_eq!(c.misses, 3); // 1, 2, 3 cold; final 1 hits
    }

    #[test]
    fn clear_resets() {
        let mut c = LruCache::new(4, 1);
        c.touch(1);
        c.clear();
        assert_eq!(c.accesses, 0);
        c.touch(1);
        assert_eq!(c.misses, 1);
    }

    #[test]
    fn cache_sink_separates_arrays() {
        let cache = LruCache::new(100, 1);
        let mut sink = CacheSink::new(cache, &[10, 10]);
        use crate::interp::AccessSink;
        sink.access(0, 5);
        sink.access(1, 5); // different global address
        assert_eq!(sink.cache.misses, 2);
        sink.access(0, 5);
        assert_eq!(sink.cache.misses, 2);
    }
}
