//! Multi-term optimization and common-subexpression factorization.
//!
//! A statement may sum several product terms (the paper's `A3A` energy
//! expression sums six `X·Y` contributions).  [`optimize_assignment`]
//! takes the operation-minimal tree of each term (the first point of
//! [`optimize_pareto`], which synthesis plans unless a memory limit
//! intervenes) and identifies identical
//! intermediates across the terms' trees by canonical hashing (exploiting
//! commutativity: `X·Y` and `Y·X` share a key) so shared contractions and
//! shared expensive function evaluations are only paid once.  Execution
//! does not share them yet.  This is the distributivity-aware
//! part of the paper's "Algebraic Transformations" module: it searches
//! over term-local parenthesizations and then *factors* the common
//! subexpressions the search exposes.

use crate::single::{optimize_pareto, OpMinProblem};
use std::collections::HashMap;
use tce_ir::{Assignment, IndexSpace, Leaf, NodeId, OpKind, OpTree};

/// The optimized form of one statement.
#[derive(Debug, Clone)]
pub struct MultiResult {
    /// Per-term optimal trees with their coefficients, in source order.
    pub terms: Vec<(f64, OpTree)>,
    /// Contraction + function flops if every term is evaluated
    /// independently.
    pub ops_independent: u128,
    /// Flops when common subexpressions across terms are evaluated once.
    pub ops_with_cse: u128,
    /// Number of distinct intermediate values (contraction nodes) across
    /// all terms after sharing.
    pub unique_intermediates: usize,
    /// Total intermediate count before sharing.
    pub total_intermediates: usize,
}

/// Canonical structural key of a subtree, insensitive to operand order.
fn canon_key(tree: &OpTree, id: NodeId, memo: &mut Vec<Option<String>>) -> String {
    if let Some(k) = &memo[id.0 as usize] {
        return k.clone();
    }
    let key = match &tree.node(id).kind {
        OpKind::Leaf(Leaf::Input { tensor, indices }) => {
            let idx: Vec<String> = indices.iter().map(|v| v.0.to_string()).collect();
            format!("I{}[{}]", tensor.0, idx.join(","))
        }
        OpKind::Leaf(Leaf::Func { name, indices, .. }) => {
            let idx: Vec<String> = indices.iter().map(|v| v.0.to_string()).collect();
            format!("F{}[{}]", name, idx.join(","))
        }
        OpKind::Leaf(Leaf::One) => "1".to_string(),
        OpKind::Contract { left, right } => {
            let mut lk = canon_key(tree, *left, memo);
            let mut rk = canon_key(tree, *right, memo);
            if rk < lk {
                std::mem::swap(&mut lk, &mut rk);
            }
            format!("C({lk},{rk})->{:x}", tree.node(id).indices.0)
        }
    };
    memo[id.0 as usize] = Some(key.clone());
    key
}

/// Optimize every term of `stmt` and compute sharing statistics.
///
/// # Errors
/// Returns an error if a term is empty, has more than
/// [`MAX_FACTORS`](crate::single::MAX_FACTORS) factors, or lacks an index
/// of the statement's output.
pub fn optimize_assignment(stmt: &Assignment, space: &IndexSpace) -> Result<MultiResult, String> {
    let output = stmt.lhs.index_set();
    let mut terms = Vec::with_capacity(stmt.terms.len());
    for term in &stmt.terms {
        // Every term is asked for the statement's whole output: a term
        // that lacks one of its indices would have to broadcast, and is
        // rejected.
        let p = OpMinProblem::from_term(output, term).map_err(|e| e.describe(space))?;
        let best = optimize_pareto(&p, space).swap_remove(0);
        terms.push((term.coeff, best.tree));
    }
    Ok(MultiResult::count(terms, space))
}

impl MultiResult {
    /// Sharing statistics of already-chosen term trees (one per term, in
    /// source order): every tree's operations, and the operations left
    /// when each distinct subtree is evaluated once.
    fn count(terms: Vec<(f64, OpTree)>, space: &IndexSpace) -> Self {
        let mut ops_independent: u128 = 0;
        let mut ops_with_cse: u128 = 0;
        let mut seen: HashMap<String, ()> = HashMap::new();
        let mut unique = 0usize;
        let mut total = 0usize;
        for (_, tree) in &terms {
            let mut memo = vec![None; tree.len()];
            for id in tree.postorder() {
                let node_ops = tree.node_ops(id, space);
                ops_independent = ops_independent.saturating_add(node_ops);
                let is_contract = matches!(tree.node(id).kind, OpKind::Contract { .. });
                if is_contract {
                    total += 1;
                }
                let key = canon_key(tree, id, &mut memo);
                if seen.insert(key, ()).is_none() {
                    ops_with_cse = ops_with_cse.saturating_add(node_ops);
                    if is_contract {
                        unique += 1;
                    }
                }
            }
        }
        Self {
            terms,
            ops_independent,
            ops_with_cse,
            unique_intermediates: unique,
            total_intermediates: total,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tce_ir::{Factor, Product, TensorDecl, TensorRef, TensorTable};

    fn small_space() -> (IndexSpace, TensorTable) {
        let mut space = IndexSpace::new();
        let n = space.add_range("N", 6);
        space.add_vars("i j k l", n);
        let mut tensors = TensorTable::new();
        tensors.add(TensorDecl::dense("A", vec![n, n]));
        tensors.add(TensorDecl::dense("B", vec![n, n]));
        tensors.add(TensorDecl::dense("S", vec![n, n]));
        (space, tensors)
    }

    fn v(space: &IndexSpace, n: &str) -> tce_ir::IndexVar {
        space.var_by_name(n).unwrap()
    }

    #[test]
    fn shares_identical_terms() {
        // S[i,j] = Σ_k A[i,k]B[k,j] + A[i,k]B[k,j]: the two terms are
        // identical, so CSE halves the contraction work.
        let (space, tensors) = small_space();
        let (i, j, k) = (v(&space, "i"), v(&space, "j"), v(&space, "k"));
        let a = tensors.by_name("A").unwrap();
        let b = tensors.by_name("B").unwrap();
        let s = tensors.by_name("S").unwrap();
        let term = Product::of(vec![
            Factor::Tensor(TensorRef::new(a, vec![i, k])),
            Factor::Tensor(TensorRef::new(b, vec![k, j])),
        ]);
        let stmt = Assignment {
            lhs: TensorRef::new(s, vec![i, j]),
            accumulate: false,
            sum_indices: k.singleton(),
            terms: vec![term.clone(), term],
        };
        let r = optimize_assignment(&stmt, &space).unwrap();
        assert_eq!(r.terms.len(), 2);
        assert_eq!(r.total_intermediates, 2);
        assert_eq!(r.unique_intermediates, 1);
        assert_eq!(r.ops_with_cse * 2, r.ops_independent);
    }

    #[test]
    fn commuted_operands_share() {
        // A[i,k]·B[k,j] and B[k,j]·A[i,k] must hash identically.
        let (space, tensors) = small_space();
        let (i, j, k) = (v(&space, "i"), v(&space, "j"), v(&space, "k"));
        let a = tensors.by_name("A").unwrap();
        let b = tensors.by_name("B").unwrap();
        let s = tensors.by_name("S").unwrap();
        let t1 = Product::of(vec![
            Factor::Tensor(TensorRef::new(a, vec![i, k])),
            Factor::Tensor(TensorRef::new(b, vec![k, j])),
        ]);
        let t2 = Product::of(vec![
            Factor::Tensor(TensorRef::new(b, vec![k, j])),
            Factor::Tensor(TensorRef::new(a, vec![i, k])),
        ]);
        let stmt = Assignment {
            lhs: TensorRef::new(s, vec![i, j]),
            accumulate: false,
            sum_indices: k.singleton(),
            terms: vec![t1, t2],
        };
        let r = optimize_assignment(&stmt, &space).unwrap();
        assert_eq!(r.unique_intermediates, 1);
    }

    #[test]
    fn distinct_terms_do_not_share() {
        // A·B vs A·A over different index patterns: no sharing beyond leaves.
        let (space, tensors) = small_space();
        let (i, j, k) = (v(&space, "i"), v(&space, "j"), v(&space, "k"));
        let a = tensors.by_name("A").unwrap();
        let b = tensors.by_name("B").unwrap();
        let s = tensors.by_name("S").unwrap();
        let t1 = Product::of(vec![
            Factor::Tensor(TensorRef::new(a, vec![i, k])),
            Factor::Tensor(TensorRef::new(b, vec![k, j])),
        ]);
        let t2 = Product::of(vec![
            Factor::Tensor(TensorRef::new(a, vec![i, k])),
            Factor::Tensor(TensorRef::new(a, vec![k, j])),
        ]);
        let stmt = Assignment {
            lhs: TensorRef::new(s, vec![i, j]),
            accumulate: false,
            sum_indices: k.singleton(),
            terms: vec![t1, t2],
        };
        let r = optimize_assignment(&stmt, &space).unwrap();
        assert_eq!(r.unique_intermediates, 2);
        assert_eq!(r.ops_with_cse, r.ops_independent);
    }

    #[test]
    fn shared_function_leaves_counted_once() {
        // Two terms both evaluating f(i,k): the expensive evaluation is
        // charged once under CSE.
        let (space, tensors) = small_space();
        let (i, j, k) = (v(&space, "i"), v(&space, "j"), v(&space, "k"));
        let s = tensors.by_name("S").unwrap();
        let b = tensors.by_name("B").unwrap();
        let f = |name: &str| {
            Factor::Func(tce_ir::FuncEval {
                name: name.into(),
                indices: vec![i, k],
                cost_per_eval: 500,
            })
        };
        let t1 = Product::of(vec![f("g"), Factor::Tensor(TensorRef::new(b, vec![k, j]))]);
        let t2 = Product::of(vec![f("g"), Factor::Tensor(TensorRef::new(b, vec![k, j]))]);
        let stmt = Assignment {
            lhs: TensorRef::new(s, vec![i, j]),
            accumulate: false,
            sum_indices: k.singleton(),
            terms: vec![t1, t2],
        };
        let r = optimize_assignment(&stmt, &space).unwrap();
        let func_cost = 500u128 * 36;
        // Independent: 2×(func + contraction); CSE: 1×func + 1×contraction.
        assert_eq!(r.ops_independent, 2 * (func_cost + 2 * 216));
        assert_eq!(r.ops_with_cse, func_cost + 2 * 216);
    }
}
