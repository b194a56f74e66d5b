//! # tce-dist — data distribution and communication minimization
//!
//! The paper's Data Distribution & Partitioning module (§7): distribution
//! n-tuples over a logical processor grid ([`tuple`]), closed-form
//! communication/computation/reduction cost models ([`cost`]), the
//! `Cost(u, α)` dynamic program with traceback ([`dp`]), a sharded
//! executor that runs a chosen plan rank-parallel with block-transfer
//! redistribution and tree reduction ([`exec`]), and an element-wise
//! simulated machine kept as the small-extent oracle the executor is
//! differentially tested against ([`sim`]).
//!
//! ```
//! use tce_dist::{move_cost, DistEntry, DistTuple};
//! use tce_ir::IndexSpace;
//! use tce_par::ProcessorGrid;
//!
//! let mut sp = IndexSpace::new();
//! let n = sp.add_range("N", 16);
//! let j = sp.add_var("j", n);
//! let t = sp.add_var("t", n);
//! let grid = ProcessorGrid::new(vec![2, 4, 8]);
//! // The paper's example: ⟨j,*,1⟩ → ⟨j,t,1⟩ needs no communication.
//! let from = DistTuple(vec![DistEntry::Idx(j), DistEntry::Replicate, DistEntry::One]);
//! let to = DistTuple(vec![DistEntry::Idx(j), DistEntry::Idx(t), DistEntry::One]);
//! assert_eq!(move_cost(&[j, t], &sp, &grid, &from, &to), 0);
//! ```

#![warn(missing_docs)]

pub mod cost;
pub mod dp;
pub mod error;
pub mod exec;
pub mod sim;
pub mod tuple;

pub use cost::{after_reduction, calc_cost, move_cost, reduce_cost, ReduceMode};
pub use dp::{optimize_distribution, DistPlan, Machine, DEFAULT_WORD_COST};
pub use error::DistError;
pub use exec::{
    contract_sharded, execute_plan_sharded, gather, redistribute, reduce_partial_sums, scatter,
    validate_bindings, ShardExecReport, ShardedTensor,
};
pub use sim::{
    move_cost_elementwise, simulate_contraction, simulate_plan, PlanSimReport, SimStats,
};
pub use tuple::{enumerate_tuples, DistEntry, DistTuple};
