//! # tce-locality — data locality optimization
//!
//! The paper's Data Locality Optimization module (§6): an analytic
//! cache-miss cost model computed bottom-up over the loop AST ([`model`]),
//! loop blocking of perfect contraction nests, and the doubling tile-size
//! search that minimizes the modeled cost ([`tilesearch`]).  The same
//! model applies per memory-hierarchy level (cache, physical memory,
//! disk) via [`model::MemoryHierarchy`].
//!
//! ```
//! use tce_locality::access_cost;
//! use tce_ir::IndexSpace;
//! use tce_loops::{ARef, ArrayKind, LoopProgram, Stmt, Sub, VarRange};
//!
//! // for i { X[i] += X[i] · X[i] } over N = 100.
//! let mut sp = IndexSpace::new();
//! let n = sp.add_range("N", 100);
//! let i = sp.add_var("i", n);
//! let mut p = LoopProgram::new();
//! let vi = p.add_var("i", VarRange::Full(i));
//! let x = p.add_array("X", vec![VarRange::Full(i)], ArrayKind::Output);
//! let r = ARef { array: x, subs: vec![Sub::Var(vi)] };
//! p.body.push(Stmt::Loop {
//!     var: vi,
//!     body: vec![Stmt::Accum { lhs: r.clone(), rhs: vec![r.clone(), r], coeff: 1.0 }],
//! });
//! // Fits a big cache: cost = distinct elements (100).
//! assert_eq!(access_cost(&p, &sp, 1_000), 100);
//! ```

#![warn(missing_docs)]

pub mod model;
pub mod tilesearch;

pub use model::{access_cost, MemoryHierarchy, MemoryLevel};
pub use tilesearch::{
    nest_is_tileable, perfect_nests, search_nest_tiles, search_nest_tiles_hierarchy, tile_nest,
    HierarchyTileResult, PerfectNest, TileSearchResult,
};
