//! # tce-lang — the high-level specification language
//!
//! Front end of the synthesis system (paper §4): a small declarative
//! language for tensor contraction expressions with index-range
//! declarations.  [`compile`] takes source text to a validated
//! [`tce_ir::Program`] ready for the optimization pipeline; a range extent
//! of 0 is rejected.  The paper's symmetry and sparsity declarations are
//! not part of the language: nothing downstream would execute them, so
//! such an annotation is a parse error (DESIGN §1).
//!
//! ```
//! let prog = tce_lang::compile("
//!     range N = 10;
//!     index i, j, k : N;
//!     tensor A(N, N); tensor B(N, N); tensor S(N, N);
//!     S[i,j] = sum[k] A[i,k] * B[k,j];
//! ").unwrap();
//! assert_eq!(prog.stmts.len(), 1);
//! ```

#![warn(missing_docs)]

pub mod ast;
pub mod lower;
pub mod parser;
pub mod token;
pub mod unparse;

pub use lower::lower;
pub use parser::parse;
pub use token::{lex, LangError};
pub use unparse::unparse;

/// Parse and lower in one step.
pub fn compile(src: &str) -> Result<tce_ir::Program, LangError> {
    lower(&parse(src)?)
}
