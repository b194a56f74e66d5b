//! # tce-opmin — algebraic transformations (operation minimization)
//!
//! The first optimization stage of the synthesis system (paper §2, §4):
//! rewrite a sum-of-products tensor expression, using commutativity,
//! associativity and distributivity, into the sequence of binary
//! contractions with minimal arithmetic cost.
//!
//! * [`single`] — the single-term search (a subset DP over the
//!   operations/intermediate-size frontier) and its exhaustive oracle;
//! * [`multi`] — common-subexpression factorization across the terms'
//!   operation-minimal trees.
//!
//! ```
//! use tce_opmin::{optimize_pareto, OpMinProblem};
//! use tce_ir::{IndexSet, IndexSpace, Leaf, TensorDecl, TensorTable};
//!
//! // A[i,j]·B[j,k]·C[k,l] with a skewed middle dimension.
//! let mut sp = IndexSpace::new();
//! let big = sp.add_range("BIG", 100);
//! let small = sp.add_range("SML", 2);
//! let i = sp.add_var("i", small);
//! let j = sp.add_var("j", big);
//! let k = sp.add_var("k", small);
//! let l = sp.add_var("l", big);
//! let mut tab = TensorTable::new();
//! let a = tab.add(TensorDecl::dense("A", vec![small, big]));
//! let b = tab.add(TensorDecl::dense("B", vec![big, small]));
//! let c = tab.add(TensorDecl::dense("C", vec![small, big]));
//! let p = OpMinProblem {
//!     output: IndexSet::from_vars([i, l]),
//!     factors: vec![
//!         Leaf::Input { tensor: a, indices: vec![i, j] },
//!         Leaf::Input { tensor: b, indices: vec![j, k] },
//!         Leaf::Input { tensor: c, indices: vec![k, l] },
//!     ],
//! };
//! let frontier = optimize_pareto(&p, &sp);
//! // The first point is operation-minimal: (A·B)·C, 2·(2·100·2) +
//! // 2·(2·2·100) flops.
//! assert_eq!(frontier[0].ops, 1600);
//! ```

#![warn(missing_docs)]

pub mod multi;
pub mod single;

pub use multi::{optimize_assignment, MultiResult};
pub use single::{
    leaf_indices, optimize_exhaustive, optimize_pareto, OpMinProblem, OptResult, ParetoTree,
    TermError, MAX_FACTORS,
};
