//! Typed execution errors.
//!
//! Every executor entry point (`execute_tree*`, the interpreter, the
//! fused-slice executor) reports missing bindings, shape mismatches and
//! malformed programs as [`ExecError`] values instead of panicking, so
//! the pipeline and the `tce` CLI can surface them as one-line
//! diagnostics with a nonzero exit status.

use std::fmt;

/// An execution failure (bad bindings or a malformed program).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// No tensor was bound for a declared input.
    MissingInput {
        /// Name (or id) of the unbound input tensor.
        name: String,
    },
    /// A bound input tensor's shape disagrees with its declaration.
    InputShapeMismatch {
        /// Name (or id) of the input tensor.
        name: String,
        /// Shape required by the declaration.
        expect: Vec<usize>,
        /// Shape of the bound tensor.
        got: Vec<usize>,
    },
    /// No implementation was bound for a primitive function.
    MissingFunction {
        /// Name of the unbound function.
        name: String,
    },
    /// The loop program (or fusion configuration) is malformed.
    InvalidProgram {
        /// What failed to validate.
        reason: String,
    },
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::MissingInput { name } => {
                write!(f, "no binding for input tensor `{name}`")
            }
            ExecError::InputShapeMismatch { name, expect, got } => write!(
                f,
                "input tensor `{name}` has shape {got:?}, expected {expect:?}"
            ),
            ExecError::MissingFunction { name } => {
                write!(f, "no binding for function `{name}`")
            }
            ExecError::InvalidProgram { reason } => {
                write!(f, "invalid program: {reason}")
            }
        }
    }
}

impl std::error::Error for ExecError {}

impl From<tce_dist::DistError> for ExecError {
    fn from(e: tce_dist::DistError) -> Self {
        match e {
            tce_dist::DistError::MissingInput { tensor } => ExecError::MissingInput {
                name: format!("tensor id {}", tensor.0),
            },
            tce_dist::DistError::InputShapeMismatch {
                tensor,
                expect,
                got,
            } => ExecError::InputShapeMismatch {
                name: format!("tensor id {}", tensor.0),
                expect,
                got,
            },
            tce_dist::DistError::MissingFunction { name } => ExecError::MissingFunction { name },
            other => ExecError::InvalidProgram {
                reason: other.to_string(),
            },
        }
    }
}
