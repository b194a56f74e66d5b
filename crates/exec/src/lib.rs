//! # tce-exec — execution substrate
//!
//! Runs synthesized programs on real data: the loop-program interpreter
//! with operation/access counters ([`interp`]) — the semantic oracle every
//! transformation is verified against — the LRU memory-hierarchy simulator
//! validating the §6 locality cost model ([`cache`]), and the one
//! operator-tree walker: the fused-slice executor ([`fusedexec`]) that
//! realizes a fusion configuration with sliced GETT kernel calls at the
//! model-predicted live-set, its arrays living by the schedule's
//! lifetimes.  Direct (array-at-a-time) execution ([`treeexec`]) is a
//! lowering onto it — the configuration with no edge fused — and also
//! owns the [`ExecOptions`] every executor takes.  Binding and validation
//! failures are reported as typed [`ExecError`]s.
//!
//! ```
//! use std::collections::HashMap;
//! use tce_exec::{Interpreter, NoSink};
//! use tce_fusion::{lowered_program, Lowering};
//! use tce_ir::{IndexSet, IndexSpace, OpTree, TensorDecl, TensorTable};
//! use tce_tensor::Tensor;
//!
//! let mut sp = IndexSpace::new();
//! let n = sp.add_range("N", 4);
//! let i = sp.add_var("i", n);
//! let j = sp.add_var("j", n);
//! let mut tab = TensorTable::new();
//! let a = tab.add(TensorDecl::dense("A", vec![n, n]));
//! let mut tree = OpTree::new();
//! let la = tree.leaf_input(a, vec![i, j]);
//! let one = tree.leaf_one();
//! tree.contract(la, one, IndexSet::EMPTY); // Σ_ij A[i,j]
//! let built = lowered_program(&tree, &sp, &tab, &Lowering::unfused(&tree), "S");
//! let data = Tensor::random(&[4, 4], 7);
//! let mut inputs = HashMap::new();
//! inputs.insert(a, &data);
//! let mut interp = Interpreter::new(&built.program, &sp, &inputs, &HashMap::new()).unwrap();
//! interp.run(&mut NoSink);
//! assert!((interp.output().get(&[]) - data.sum()).abs() < 1e-12);
//! ```

#![warn(missing_docs)]

pub mod cache;
pub mod error;
pub mod fusedexec;
pub mod interp;
pub mod treeexec;

pub use cache::{CacheSink, LruCache};
pub use error::ExecError;
pub use fusedexec::{execute_tree_fused, execute_tree_lowered, FusedExecReport};
pub use interp::{AccessSink, ExecStats, Interpreter, NoSink};
pub use treeexec::{
    execute_tree, execute_tree_distributed, execute_tree_opts, ExecOptions, Schedule,
};
