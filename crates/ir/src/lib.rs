//! # tce-ir — shared intermediate representation
//!
//! Core data model for the tensor-contraction optimization framework of
//! Baumgartner et al., *"A Performance Optimization Framework for
//! Compilation of Tensor Contraction Expressions into Parallel Programs"*
//! (IPDPS 2002):
//!
//! * [`index`] — index variables, ranges and interned index sets;
//! * [`poly`] — symbolic cost polynomials over range extents;
//! * [`tensor`] — dense tensor declarations (names and dimension ranges);
//! * [`expr`] — sum-of-products input expressions (the high-level language
//!   AST after semantic analysis);
//! * [`optree`] — operator trees (formula sequences of binary
//!   contractions), the representation every optimization stage consumes;
//! * [`rng`] — the deterministic pseudo-random generator used by tests and
//!   benchmark inputs (the workspace builds hermetically, without `rand`).

#![warn(missing_docs)]

pub mod expr;
pub mod index;
pub mod optree;
pub mod poly;
pub mod rng;
pub mod tensor;

pub use expr::{Assignment, Factor, FuncEval, Product, Program, TensorRef};
pub use index::{IndexSet, IndexSpace, IndexVar, RangeId};
pub use optree::{Leaf, NodeId, OpKind, OpNode, OpTree};
pub use poly::CostPoly;
pub use tensor::{fits_f64_buffer, TensorDecl, TensorId, TensorTable};
