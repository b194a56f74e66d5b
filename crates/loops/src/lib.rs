//! # tce-loops — imperfectly-nested loop IR and analyses
//!
//! The concrete output representation of the synthesis system: loop nests
//! with init/accumulate/function-evaluation statements ([`ir`]), the
//! shapes every lowering builds ([`build`]), the paper-style pseudocode
//! printer ([`print`]) and the static analyses (memory, operations,
//! distinct-elements-accessed) that power the cost models ([`analysis`]).
//! Programs are built from operator trees by `tce_fusion::lowered_program`.
//!
//! ```
//! use tce_ir::{IndexSpace, TensorDecl, TensorTable};
//! use tce_loops::{nest, op_counts, pretty, ARef, ArrayKind, LoopProgram, Stmt, Sub, VarRange};
//!
//! let mut sp = IndexSpace::new();
//! let n = sp.add_range("N", 8);
//! let [i, j, k] = ["i", "j", "k"].map(|v| sp.add_var(v, n));
//! let mut tab = TensorTable::new();
//! let mut p = LoopProgram::new();
//! let [vi, vj, vk] = [i, j, k].map(|v| p.add_var(sp.var_name(v), VarRange::Full(v)));
//! let mut array = |name: &str, dims: [_; 2], kind| {
//!     let dims = dims.iter().map(|&v| VarRange::Full(v)).collect();
//!     p.add_array(name, dims, kind)
//! };
//! let a = array("A", [i, k], ArrayKind::Input(tab.add(TensorDecl::dense("A", vec![n, n]))));
//! let b = array("B", [k, j], ArrayKind::Input(tab.add(TensorDecl::dense("B", vec![n, n]))));
//! let c = array("C", [i, j], ArrayKind::Output);
//! let at = |array, subs: [_; 2]| ARef { array, subs: subs.map(Sub::Var).to_vec() };
//! let stmt = Stmt::Accum { lhs: at(c, [vi, vj]), rhs: vec![at(a, [vi, vk]), at(b, [vk, vj])], coeff: 1.0 };
//! p.body = vec![Stmt::Init { array: c }, nest(vec![vi, vj, vk], vec![stmt])];
//! assert!(pretty(&p).contains("C[i,j] += A[i,k] * B[k,j]"));
//! assert_eq!(op_counts(&p, &sp).contraction_flops, 2 * 512);
//! ```

#![warn(missing_docs)]

pub mod analysis;
pub mod build;
pub mod ir;
pub mod print;

pub use analysis::{distinct_accesses, memory_report, op_counts, MemoryReport, OpCounts};
pub use build::{nest, BuiltProgram};
pub use ir::{
    ARef, ArrayId, ArrayInfo, ArrayKind, FuncId, FuncInfo, LoopProgram, LoopVarId, LoopVarInfo,
    Stmt, Sub, VarRange,
};
pub use print::pretty;
