//! # tce-par — parallel substrate
//!
//! Shared-memory data-parallel primitives (block-partitioned
//! parallel-for/map on a persistent worker pool, [`pool`]), the one
//! sharded LRU behind the plan and serve caches ([`lru`]), and logical
//! processor-grid arithmetic with the paper's `myrange` block ownership
//! ([`grid`]).
//! `tce-exec` uses the pool to run synthesized contractions in parallel;
//! `tce-dist` uses the grid both for its communication cost model and for
//! the simulated distributed machine that validates it.
//!
//! ```
//! use tce_par::{myrange, parallel_map, ProcessorGrid};
//!
//! let squares = parallel_map(1000, 4, |i| i as u64 * i as u64);
//! assert_eq!(squares[999], 999 * 999);
//! let grid = ProcessorGrid::new(vec![2, 4, 8]);
//! assert_eq!(grid.num_processors(), 64);
//! assert_eq!(myrange(1, 100, 4), 25..50);
//! ```

#![warn(missing_docs)]

pub mod grid;
pub mod lru;
pub mod pool;

pub use grid::{myrange, owner_of, ProcessorGrid};
pub use lru::{CacheStats, ShardedLru};
pub use pool::{
    block_ranges, default_threads, parallel_chunks_mut, parallel_for, parallel_map,
    threads_env_requested, Pool, SharedCounter,
};
