//! # tce-fusion — loop fusion for memory minimization
//!
//! The paper's Memory Minimization module (§5): fusion chains, the one
//! legality rule every fusion configuration passes ([`Lowering::new`]),
//! the bottom-up dynamic program that finds the configuration minimizing
//! total intermediate storage (without changing the operation count), and
//! code generation of the fused imperfectly-nested loop program.
//!
//! ```
//! use tce_fusion::memmin_dp;
//! use tce_ir::{IndexSet, IndexSpace, OpTree, TensorDecl, TensorTable};
//!
//! // T[i] = Σ_j A[i,j]·B[j]; S = Σ_i T[i]·C[i] — T fuses to a scalar.
//! let mut sp = IndexSpace::new();
//! let n = sp.add_range("N", 100);
//! let i = sp.add_var("i", n);
//! let j = sp.add_var("j", n);
//! let mut tab = TensorTable::new();
//! let a = tab.add(TensorDecl::dense("A", vec![n, n]));
//! let b = tab.add(TensorDecl::dense("B", vec![n]));
//! let c = tab.add(TensorDecl::dense("C", vec![n]));
//! let mut tree = OpTree::new();
//! let la = tree.leaf_input(a, vec![i, j]);
//! let lb = tree.leaf_input(b, vec![j]);
//! let t = tree.contract(la, lb, i.singleton());
//! let lc = tree.leaf_input(c, vec![i]);
//! tree.contract(t, lc, IndexSet::EMPTY);
//! let r = memmin_dp(&tree, &sp);
//! assert_eq!(r.memory, 1); // T reduced from 100 elements to a scalar
//! ```

#![warn(missing_docs)]

pub mod chains;
pub mod codegen;
pub mod config;
pub mod memmin;
pub mod nest;
pub mod schedule;

pub use chains::{chains_of, Chain};
pub use codegen::{fused_program, lowered_program};
pub use config::{
    fusable_set, is_fusable_producer, redundant_candidates, FusionConfig, Illegal, Lowering,
};
pub use memmin::{enumerate_legal_configs, memmin_bruteforce, memmin_dp, MemMinResult};
pub use nest::{derive_child_state_options, derive_child_states, encode_state, NestState};
pub use schedule::{fusion_schedule, FusionSchedule, ScheduleStep};
