//! # tce-spacetime — space-time trade-off optimization
//!
//! The paper's Space-Time Transformation module (§5): when loop fusion
//! alone cannot fit the temporaries in memory, trade recomputation for
//! space.  A pareto dynamic program over (memory, operations) extends
//! fusion with *redundant loops* ([`dp`]); tile-size search over the
//! recomputation indices then recovers reuse within a memory budget
//! ([`tiling`]) — the progression of paper Figs. 2 → 3 → 4.
//!
//! ```
//! use tce_spacetime::spacetime_dp;
//! use tce_ir::{IndexSet, IndexSpace, OpTree};
//!
//! // E = Σ_{c,e} f1(c,e)·f2(c,e): both integral leaves share all loop
//! // indices, so fusion alone reaches scalar temporaries.
//! let mut sp = IndexSpace::new();
//! let v = sp.add_range("V", 10);
//! let c = sp.add_var("c", v);
//! let e = sp.add_var("e", v);
//! let mut tree = OpTree::new();
//! let f1 = tree.leaf_func("f1", vec![c, e], 100);
//! let f2 = tree.leaf_func("f2", vec![c, e], 100);
//! tree.contract(f1, f2, IndexSet::EMPTY);
//! let front = spacetime_dp(&tree, &sp, usize::MAX).unwrap();
//! assert_eq!(front.min_mem().unwrap().mem, 2); // two scalars
//! ```

#![warn(missing_docs)]

pub mod codegen;
pub mod dp;
pub mod pareto;
pub mod tiling;

pub use codegen::spacetime_program;
pub use dp::{spacetime_dp, SpaceTimeConfig, SpaceTimeFrontier};
pub use pareto::{Pareto, ParetoPoint};
pub use tiling::{
    block_of, doubling_candidates, search_tiles, spacetime_optimize, spacetime_optimize_rated,
    tiled_memory, tiled_ops, Blocks, TilingResult,
};
