//! # tce-loops — imperfectly-nested loop IR and analyses
//!
//! The concrete output representation of the synthesis system: loop nests
//! with init/accumulate/function-evaluation statements ([`ir`]), builders
//! from operator trees ([`build`]), the paper-style pseudocode printer
//! ([`print`]) and the static analyses (memory, operations,
//! distinct-elements-accessed) that power the cost models ([`analysis`]).
//!
//! ```
//! use tce_ir::{IndexSet, IndexSpace, OpTree, TensorDecl, TensorTable};
//! use tce_loops::{op_counts, pretty, unfused_program};
//!
//! let mut sp = IndexSpace::new();
//! let n = sp.add_range("N", 8);
//! let i = sp.add_var("i", n);
//! let j = sp.add_var("j", n);
//! let k = sp.add_var("k", n);
//! let mut tab = TensorTable::new();
//! let a = tab.add(TensorDecl::dense("A", vec![n, n]));
//! let b = tab.add(TensorDecl::dense("B", vec![n, n]));
//! let mut tree = OpTree::new();
//! let la = tree.leaf_input(a, vec![i, k]);
//! let lb = tree.leaf_input(b, vec![k, j]);
//! tree.contract(la, lb, IndexSet::from_vars([i, j]));
//! let built = unfused_program(&tree, &sp, &tab, "C");
//! assert!(pretty(&built.program).contains("C[i,j] += A[i,k] * B[k,j]"));
//! assert_eq!(op_counts(&built.program, &sp).contraction_flops, 2 * 512);
//! ```

#![warn(missing_docs)]

pub mod analysis;
pub mod build;
pub mod ir;
pub mod print;

pub use analysis::{distinct_accesses, memory_report, op_counts, MemoryReport, OpCounts};
pub use build::{canonical_dims, nest, unfused_program, BuiltProgram};
pub use ir::{
    ARef, ArrayId, ArrayInfo, ArrayKind, FuncId, FuncInfo, LoopProgram, LoopVarId, LoopVarInfo,
    Stmt, Sub, VarRange,
};
pub use print::pretty;
