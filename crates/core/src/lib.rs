//! # tce-core — the synthesis system
//!
//! End-to-end reproduction of Baumgartner et al., *"A Performance
//! Optimization Framework for Compilation of Tensor Contraction
//! Expressions into Parallel Programs"* (IPDPS 2002): compile a high-level
//! tensor-contraction specification and run every optimization stage of
//! the paper's Fig. 5 — operation minimization, fusion-based memory
//! minimization, space-time trade-off, data-locality blocking, and data
//! distribution — producing an executable loop program plus per-stage
//! reports.
//!
//! ```
//! use tce_core::{synthesize, SynthesisConfig};
//! let syn = synthesize("
//!     range N = 4;
//!     index i, j, k : N;
//!     tensor A(N, N); tensor B(N, N); tensor S(N, N);
//!     S[i,j] = sum[k] A[i,k] * B[k,j];
//! ", &SynthesisConfig::default()).unwrap();
//! assert_eq!(syn.plans.len(), 1);
//! ```

#![warn(missing_docs)]

pub mod pipeline;
pub mod scenarios;
pub mod serve;

pub use pipeline::{
    hierarchy_from_rates, record_prediction, synthesize, synthesize_program, DistExecSummary,
    FusedExecSummary, FusedTermReport, Synthesis, SynthesisConfig, SynthesisError, TermPlan,
    MAX_GRID_RANK,
};
pub use tce_exec::{ExecError, ExecOptions, Schedule};

// Re-export the stage crates so downstream users need only one dependency.
pub use tce_calib as calib;
pub use tce_dist as dist;
pub use tce_exec as exec;
pub use tce_fusion as fusion;
pub use tce_ir as ir;
pub use tce_lang as lang;
pub use tce_locality as locality;
pub use tce_loops as loops;
pub use tce_opmin as opmin;
pub use tce_par as par;
pub use tce_serve as serving;
pub use tce_spacetime as spacetime;
pub use tce_tensor as tensor;
