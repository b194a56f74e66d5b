//! Typed errors for the distributed executors.
//!
//! The sharded executor ([`crate::exec`]) and the element-wise simulator
//! ([`crate::sim`]) walk an operator tree against a [`crate::dp::DistPlan`];
//! a malformed pairing — a plan that does not assign every contraction, a
//! missing or mis-shaped input, a missing function binding — surfaces as a
//! [`DistError`], which `tce-exec` converts into its `ExecError` so the
//! pipeline and CLI report it as a one-line diagnostic.  The binding checks
//! ([`crate::exec::validate_bindings`]) are the one validation pass every
//! executor in `tce-exec` shares.

use std::fmt;
use tce_ir::TensorId;

/// A failure while executing or simulating a distribution plan, or while
/// validating an operator tree's bindings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DistError {
    /// No tensor was bound for an input leaf.
    MissingInput {
        /// Id of the unbound input tensor (tce-dist has no name table).
        tensor: TensorId,
    },
    /// A bound input tensor's shape disagrees with its leaf's index
    /// extents.
    InputShapeMismatch {
        /// Id of the mis-shaped input tensor.
        tensor: TensorId,
        /// Shape the leaf's index extents require.
        expect: Vec<usize>,
        /// Shape of the bound tensor.
        got: Vec<usize>,
    },
    /// No implementation was bound for a function leaf.
    MissingFunction {
        /// Name of the unbound function.
        name: String,
    },
    /// The plan does not assign a (γ, reduce-mode) pair to a contraction
    /// node of the tree.
    UnassignedContraction {
        /// Flat node id within the operator tree.
        node: u32,
    },
    /// The plan does not assign a result distribution to the tree root.
    UnassignedRoot,
}

impl fmt::Display for DistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DistError::MissingInput { tensor } => {
                write!(f, "no binding for input tensor id {}", tensor.0)
            }
            DistError::InputShapeMismatch {
                tensor,
                expect,
                got,
            } => write!(
                f,
                "input tensor id {} has shape {got:?}, expected {expect:?}",
                tensor.0
            ),
            DistError::MissingFunction { name } => {
                write!(f, "no binding for function `{name}`")
            }
            DistError::UnassignedContraction { node } => write!(
                f,
                "distribution plan assigns no (γ, mode) to contraction node {node}"
            ),
            DistError::UnassignedRoot => {
                write!(f, "distribution plan assigns no distribution to the root")
            }
        }
    }
}

impl std::error::Error for DistError {}
