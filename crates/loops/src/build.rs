//! The loop-program shapes shared by every lowering: [`BuiltProgram`]
//! (a program plus the arrays of its tree's nodes) and [`nest`].  The
//! direct implementation of a tree (paper Fig. 1(b), Fig. 2) is
//! `tce_fusion::lowered_program` under the unfused lowering.

use crate::ir::{ArrayId, LoopProgram, LoopVarId, Stmt};
use std::collections::HashMap;

/// Result of building a program from a tree: the program plus the mapping
/// from tree nodes to the arrays holding their values.
#[derive(Debug, Clone)]
pub struct BuiltProgram {
    /// The loop program.
    pub program: LoopProgram,
    /// Array produced by each tree node (indexed by `NodeId.0`).
    pub node_array: Vec<ArrayId>,
    /// Loop variable for each source index used (by `IndexVar.0`).
    pub index_var: HashMap<u8, LoopVarId>,
}

/// Wrap statements in a loop nest over `vars` (outermost first).
pub fn nest(vars: Vec<LoopVarId>, mut body: Vec<Stmt>) -> Stmt {
    assert!(!vars.is_empty(), "empty loop nest");
    for &v in vars.iter().rev() {
        body = vec![Stmt::Loop { var: v, body }];
    }
    match body.pop() {
        Some(s) => s,
        None => unreachable!(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{ArrayKind, VarRange};
    use tce_ir::IndexSpace;

    #[test]
    fn nest_wraps_outermost_first() {
        let mut p = LoopProgram::new();
        let mut space = IndexSpace::new();
        let n = space.add_range("N", 2);
        let i = space.add_var("i", n);
        let j = space.add_var("j", n);
        let vi = p.add_var("i", VarRange::Full(i));
        let vj = p.add_var("j", VarRange::Full(j));
        let arr = p.add_array("X", vec![], ArrayKind::Intermediate);
        let s = nest(vec![vi, vj], vec![Stmt::Init { array: arr }]);
        match s {
            Stmt::Loop { var, body } => {
                assert_eq!(var, vi);
                match &body[0] {
                    Stmt::Loop { var, .. } => assert_eq!(*var, vj),
                    other => panic!("expected inner loop, got {other:?}"),
                }
            }
            other => panic!("expected loop, got {other:?}"),
        }
    }
}
