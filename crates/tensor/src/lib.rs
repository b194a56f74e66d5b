//! # tce-tensor — dense tensor substrate
//!
//! Storage and kernels the synthesized tensor-contraction programs execute
//! on: dense row-major tensors ([`dense`]), a naive reference einsum used
//! as the correctness oracle ([`einsum`]), the binary-contraction
//! description and its naive oracle ([`contract`]), the packed GETT engine
//! every executor contracts on ([`gett`]), and the synthetic
//! expensive-integral functions standing in for the paper's `f1`/`f2`
//! two-electron integrals ([`integrals`]).  Every tensor is stored
//! densely: there is no packed-symmetric or sparse storage (DESIGN §1).
//!
//! ```
//! use tce_tensor::{contract_gett, contract_naive, BinaryContraction, Tensor};
//! use tce_ir::IndexSpace;
//!
//! let mut sp = IndexSpace::new();
//! let n = sp.add_range("N", 4);
//! let i = sp.add_var("i", n);
//! let j = sp.add_var("j", n);
//! let k = sp.add_var("k", n);
//! let spec = BinaryContraction { a: vec![i, k], b: vec![k, j], out: vec![i, j] };
//! let a = Tensor::random(&[4, 4], 1);
//! let b = Tensor::random(&[4, 4], 2);
//! let c = contract_gett(&spec, &sp, &a, &b, 2);
//! assert!(c.approx_eq(&contract_naive(&spec, &sp, &a, &b), 1e-10));
//! ```

#![warn(missing_docs)]

pub mod bufpool;
pub mod contract;
pub mod dense;
pub mod einsum;
pub mod gett;
pub mod integrals;
pub mod kernels;
pub mod nest;

pub use bufpool::{bufpool_retained_elements, bufpool_stats};
pub use contract::{contract_naive, reduce_exclusive, BinaryContraction, ExclusiveReduction};
pub use dense::Tensor;
pub use einsum::EinsumSpec;
pub use gett::{
    contract_gett, contract_gett_with_variant, plan_cache_shard_stats, plan_cache_shards,
    plan_cache_stats, plan_for, plan_for_strided, plan_for_variant, ContractionPlan, SliceOverrun,
};
pub use integrals::IntegralFn;
pub use kernels::{BlockSizes, CacheInfo, KernelConfig, KernelVariant};
pub use nest::{NestArray, NestArrays};
