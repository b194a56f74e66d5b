//! Operator trees: sequences of binary tensor contractions.
//!
//! The algebraic-transformation module rewrites a sum-of-products expression
//! into a *formula sequence* (paper Fig. 1(a)) — a binary tree whose leaves
//! are input tensors or primitive function evaluations and whose internal
//! nodes each multiply two operands and sum over the indices that appear in
//! the operands but not in the node's result.  All later optimization
//! stages (fusion, space-time trade-off, locality, distribution) operate on
//! this tree.

use crate::index::{IndexSet, IndexSpace, IndexVar};
use crate::poly::CostPoly;
use crate::tensor::TensorId;
use std::fmt;

/// Identifier of a node within one [`OpTree`] arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

/// What a leaf node evaluates to.
#[derive(Debug, Clone, PartialEq)]
pub enum Leaf {
    /// A stored input tensor (already materialized; zero production cost).
    Input {
        /// The declared tensor.
        tensor: TensorId,
        /// Dimension-order index variables of the reference.
        indices: Vec<IndexVar>,
    },
    /// An expensive primitive function evaluated pointwise over its index
    /// space (the paper's `f1`, `f2` integral evaluations).
    Func {
        /// Function name.
        name: String,
        /// Argument index variables.
        indices: Vec<IndexVar>,
        /// Arithmetic cost of a single evaluation (`C_i`).
        cost_per_eval: u64,
    },
    /// The scalar multiplicative identity.  Used to express pure reductions
    /// (`Σ_i A[i]` has the tree `Contract(A, One)`) so contraction nodes can
    /// stay binary.
    One,
}

/// Node payload.
#[derive(Debug, Clone, PartialEq)]
pub enum OpKind {
    /// Leaf: input tensor or function evaluation.
    Leaf(Leaf),
    /// Binary contraction: multiply `left` and `right` elementwise over
    /// their shared iteration space and sum over all indices not in this
    /// node's result set.
    Contract {
        /// Left operand.
        left: NodeId,
        /// Right operand.
        right: NodeId,
    },
}

/// One node of an operator tree.
#[derive(Debug, Clone, PartialEq)]
pub struct OpNode {
    /// Payload.
    pub kind: OpKind,
    /// Result index set (the dimensions of the value this node produces;
    /// empty for scalars).
    pub indices: IndexSet,
}

/// An operator tree stored as an arena; `root` is the final result.
#[derive(Debug, Clone, PartialEq)]
pub struct OpTree {
    /// Arena of nodes; children always precede parents.
    pub nodes: Vec<OpNode>,
    /// The root node (the statement's LHS value).
    pub root: NodeId,
}

impl OpTree {
    /// Create an empty tree (root is patched by the builder methods).
    pub fn new() -> Self {
        Self {
            nodes: Vec::new(),
            root: NodeId(0),
        }
    }

    /// Add an input-tensor leaf.
    pub fn leaf_input(&mut self, tensor: TensorId, indices: Vec<IndexVar>) -> NodeId {
        let set = IndexSet::from_vars(indices.iter().copied());
        self.push(OpNode {
            kind: OpKind::Leaf(Leaf::Input { tensor, indices }),
            indices: set,
        })
    }

    /// Add a unit (scalar one) leaf.
    pub fn leaf_one(&mut self) -> NodeId {
        self.push(OpNode {
            kind: OpKind::Leaf(Leaf::One),
            indices: IndexSet::EMPTY,
        })
    }

    /// Add a function-evaluation leaf.
    pub fn leaf_func(&mut self, name: &str, indices: Vec<IndexVar>, cost_per_eval: u64) -> NodeId {
        let set = IndexSet::from_vars(indices.iter().copied());
        self.push(OpNode {
            kind: OpKind::Leaf(Leaf::Func {
                name: name.to_string(),
                indices,
                cost_per_eval,
            }),
            indices: set,
        })
    }

    /// Add a contraction node producing `result` indices and make it the
    /// current root.
    ///
    /// # Panics
    /// Panics if `result` is not a subset of the operands' combined indices.
    pub fn contract(&mut self, left: NodeId, right: NodeId, result: IndexSet) -> NodeId {
        let combined = self.node(left).indices.union(self.node(right).indices);
        assert!(
            result.is_subset(combined),
            "contraction result {result:?} not a subset of operand indices {combined:?}"
        );
        let id = self.push(OpNode {
            kind: OpKind::Contract { left, right },
            indices: result,
        });
        self.root = id;
        id
    }

    fn push(&mut self, node: OpNode) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(node);
        self.root = id;
        id
    }

    /// Access a node.
    #[inline]
    pub fn node(&self, id: NodeId) -> &OpNode {
        &self.nodes[id.0 as usize]
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if the tree has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Children of a node (empty for leaves).
    pub fn children(&self, id: NodeId) -> Vec<NodeId> {
        match self.node(id).kind {
            OpKind::Leaf(_) => Vec::new(),
            OpKind::Contract { left, right } => vec![left, right],
        }
    }

    /// The summation indices of a node: `(I(l) ∪ I(r)) − I(node)`.
    /// Empty for leaves.
    pub fn sum_indices(&self, id: NodeId) -> IndexSet {
        match self.node(id).kind {
            OpKind::Leaf(_) => IndexSet::EMPTY,
            OpKind::Contract { left, right } => self
                .node(left)
                .indices
                .union(self.node(right).indices)
                .minus(self.node(id).indices),
        }
    }

    /// The full loop-index set of the node's computation: result indices ∪
    /// summation indices (for leaves, the leaf's own indices).  This is the
    /// set of vertices the node contributes to the fusion graph.
    pub fn loop_indices(&self, id: NodeId) -> IndexSet {
        self.node(id).indices.union(self.sum_indices(id))
    }

    /// Post-order traversal from the root (children before parents).
    pub fn postorder(&self) -> Vec<NodeId> {
        let mut out = Vec::with_capacity(self.nodes.len());
        let mut stack = vec![(self.root, false)];
        while let Some((id, expanded)) = stack.pop() {
            if expanded {
                out.push(id);
            } else {
                stack.push((id, true));
                // Reverse push order so the traversal visits left before
                // right.
                for c in self.children(id).into_iter().rev() {
                    stack.push((c, false));
                }
            }
        }
        out
    }

    /// Parent of each node reachable from the root (`None` for the root).
    pub fn parents(&self) -> Vec<Option<NodeId>> {
        let mut parent = vec![None; self.nodes.len()];
        for id in self.postorder() {
            for c in self.children(id) {
                parent[c.0 as usize] = Some(id);
            }
        }
        parent
    }

    /// Internal (contraction) nodes, in post order.
    pub fn internal_postorder(&self) -> Vec<NodeId> {
        self.postorder()
            .into_iter()
            .filter(|&id| matches!(self.node(id).kind, OpKind::Contract { .. }))
            .collect()
    }

    /// Structural validation: children precede parents, result sets are
    /// subsets of operand unions, every node is reachable exactly once from
    /// the root (it is a tree, not a DAG).
    pub fn validate(&self) -> Result<(), String> {
        if self.nodes.is_empty() {
            return Err("empty tree".into());
        }
        let mut visits = vec![0usize; self.nodes.len()];
        for id in self.postorder() {
            visits[id.0 as usize] += 1;
            if let OpKind::Contract { left, right } = self.node(id).kind {
                if left.0 >= id.0 || right.0 >= id.0 {
                    return Err("child does not precede parent".into());
                }
                let combined = self.node(left).indices.union(self.node(right).indices);
                if !self.node(id).indices.is_subset(combined) {
                    return Err("result indices not a subset of operand indices".into());
                }
            }
        }
        if visits.iter().any(|&v| v > 1) {
            return Err("node reachable via two paths (DAG, not a tree)".into());
        }
        Ok(())
    }

    /// Arithmetic operation count of evaluating the whole tree, in flops:
    /// every contraction node performs one multiply and one add per point of
    /// its combined operand iteration space; every `Func` leaf performs
    /// `cost_per_eval` flops per point of its index space.
    pub fn total_ops(&self, space: &IndexSpace) -> u128 {
        self.postorder()
            .into_iter()
            .map(|id| self.node_ops(id, space))
            .fold(0u128, u128::saturating_add)
    }

    /// Per-node operation count (see [`OpTree::total_ops`]).
    pub fn node_ops(&self, id: NodeId, space: &IndexSpace) -> u128 {
        match &self.node(id).kind {
            OpKind::Leaf(Leaf::Input { .. }) | OpKind::Leaf(Leaf::One) => 0,
            OpKind::Leaf(Leaf::Func { cost_per_eval, .. }) => space
                .iteration_points(self.node(id).indices)
                .saturating_mul(*cost_per_eval as u128),
            OpKind::Contract { left, right } => {
                let iter = self.node(*left).indices.union(self.node(*right).indices);
                space.iteration_points(iter).saturating_mul(2)
            }
        }
    }

    /// Symbolic operation count as a polynomial in the range extents.
    pub fn total_ops_poly(&self, space: &IndexSpace) -> CostPoly {
        let mut total = CostPoly::zero();
        for id in self.postorder() {
            total.add_assign(&self.node_ops_poly(id, space));
        }
        total
    }

    /// Per-node symbolic operation count.
    pub fn node_ops_poly(&self, id: NodeId, space: &IndexSpace) -> CostPoly {
        match &self.node(id).kind {
            OpKind::Leaf(Leaf::Input { .. }) | OpKind::Leaf(Leaf::One) => CostPoly::zero(),
            OpKind::Leaf(Leaf::Func { cost_per_eval, .. }) => {
                CostPoly::extent_product(self.node(id).indices, space).scale(*cost_per_eval as f64)
            }
            OpKind::Contract { left, right } => {
                let iter = self.node(*left).indices.union(self.node(*right).indices);
                CostPoly::extent_product(iter, space).scale(2.0)
            }
        }
    }

    /// Render as a formula sequence like paper Fig. 1(a):
    /// ```text
    /// T1[b,c,d,f] = sum[e,l] B * D
    /// T2[b,c,j,k] = sum[d,f] T1 * C
    /// S[a,b,i,j]  = sum[c,k] T2 * A
    /// ```
    /// Leaf names come from `leaf_name`; intermediates are `T1, T2, …` in
    /// post order and the root is `result_name`.
    pub fn formula_sequence(
        &self,
        space: &IndexSpace,
        result_name: &str,
        leaf_name: &dyn Fn(TensorId) -> String,
    ) -> String {
        let mut names: Vec<String> = vec![String::new(); self.nodes.len()];
        let mut out = String::new();
        let mut counter = 0usize;
        for id in self.postorder() {
            match &self.node(id).kind {
                OpKind::Leaf(Leaf::Input { tensor, .. }) => {
                    names[id.0 as usize] = leaf_name(*tensor);
                }
                OpKind::Leaf(Leaf::Func { name, .. }) => {
                    names[id.0 as usize] = name.clone();
                }
                OpKind::Leaf(Leaf::One) => {
                    names[id.0 as usize] = "1".to_string();
                }
                OpKind::Contract { left, right } => {
                    let name = if id == self.root {
                        result_name.to_string()
                    } else {
                        counter += 1;
                        format!("T{counter}")
                    };
                    use fmt::Write;
                    let sums = self.sum_indices(id);
                    let _ = writeln!(
                        out,
                        "{}[{}] = {}{} * {}",
                        name,
                        space.set_to_string(self.node(id).indices),
                        if sums.is_empty() {
                            String::new()
                        } else {
                            format!("sum[{}] ", space.set_to_string(sums))
                        },
                        names[left.0 as usize],
                        names[right.0 as usize],
                    );
                    names[id.0 as usize] = name;
                }
            }
        }
        out
    }
}

impl Default for OpTree {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::IndexSpace;
    use crate::tensor::{TensorDecl, TensorTable};

    /// The operation-reduced BDCA tree of paper §2 / Fig. 1(a):
    /// `T1_bcdf = Σ_el B·D ; T2_bcjk = Σ_df T1·C ; S_abij = Σ_ck T2·A`.
    pub(crate) fn fig1_tree() -> (IndexSpace, TensorTable, OpTree) {
        let mut space = IndexSpace::new();
        let n = space.add_range("N", 10);
        let vs = space.add_vars("a b c d e f i j k l", n);
        let (a, b, c, d, e, f, i, j, k, l) = (
            vs[0], vs[1], vs[2], vs[3], vs[4], vs[5], vs[6], vs[7], vs[8], vs[9],
        );
        let mut tensors = TensorTable::new();
        let ta = tensors.add(TensorDecl::dense("A", vec![n; 4]));
        let tb = tensors.add(TensorDecl::dense("B", vec![n; 4]));
        let tc = tensors.add(TensorDecl::dense("C", vec![n; 4]));
        let td = tensors.add(TensorDecl::dense("D", vec![n; 4]));

        let mut tree = OpTree::new();
        let lb = tree.leaf_input(tb, vec![b, e, f, l]);
        let ld = tree.leaf_input(td, vec![c, d, e, l]);
        let t1 = tree.contract(lb, ld, IndexSet::from_vars([b, c, d, f]));
        let lc = tree.leaf_input(tc, vec![d, f, j, k]);
        let t2 = tree.contract(t1, lc, IndexSet::from_vars([b, c, j, k]));
        let la = tree.leaf_input(ta, vec![a, c, i, k]);
        let _s = tree.contract(t2, la, IndexSet::from_vars([a, b, i, j]));
        (space, tensors, tree)
    }

    #[test]
    fn validates() {
        let (_, _, tree) = fig1_tree();
        tree.validate().unwrap();
        assert_eq!(tree.len(), 7);
        assert_eq!(tree.internal_postorder().len(), 3);
    }

    #[test]
    fn node_ops_charge_each_contraction_and_no_leaf() {
        let (space, _, tree) = fig1_tree();
        // Postorder B, D, T1, C, T2, A, S: leaves are free; each
        // contraction does its 2·N^6 (paper §2).
        let ops: Vec<u128> = (tree.postorder().into_iter())
            .map(|id| tree.node_ops(id, &space))
            .collect();
        let n6 = 2 * 10u128.pow(6);
        assert_eq!(ops, [0, 0, n6, 0, n6, 0, n6]);
    }

    #[test]
    fn sum_indices_per_node() {
        let (space, _, tree) = fig1_tree();
        let internals = tree.internal_postorder();
        // T1 sums over e,l; T2 over d,f; S over c,k.
        assert_eq!(space.set_to_string(tree.sum_indices(internals[0])), "e,l");
        assert_eq!(space.set_to_string(tree.sum_indices(internals[1])), "d,f");
        assert_eq!(space.set_to_string(tree.sum_indices(internals[2])), "c,k");
    }

    #[test]
    fn op_minimal_cost_is_6_n6() {
        // Paper §2: "This form only requires 6 × N^6 operations."
        let (space, _, tree) = fig1_tree();
        assert_eq!(tree.total_ops(&space), 6 * 10u128.pow(6));
        let poly = tree.total_ops_poly(&space);
        assert_eq!(format!("{}", poly.display(&space)), "6·N^6");
    }

    #[test]
    fn loop_indices_cover_result_and_sums() {
        let (space, _, tree) = fig1_tree();
        let t1 = tree.internal_postorder()[0];
        assert_eq!(space.set_to_string(tree.loop_indices(t1)), "b,c,d,e,f,l");
    }

    #[test]
    fn unfused_intermediates() {
        let (space, _, tree) = fig1_tree();
        // T1 is N^4, T2 is N^4; S (root) not counted.
        let sizes: Vec<u128> = tree
            .internal_postorder()
            .into_iter()
            .filter(|&id| id != tree.root)
            .map(|id| space.iteration_points(tree.node(id).indices))
            .collect();
        assert_eq!(sizes, [10u128.pow(4); 2]);
    }

    #[test]
    fn postorder_children_first() {
        let (_, _, tree) = fig1_tree();
        let order = tree.postorder();
        assert_eq!(order.len(), tree.len());
        let pos: Vec<usize> = {
            let mut p = vec![0; tree.len()];
            for (i, id) in order.iter().enumerate() {
                p[id.0 as usize] = i;
            }
            p
        };
        for id in tree.postorder() {
            for c in tree.children(id) {
                assert!(pos[c.0 as usize] < pos[id.0 as usize]);
            }
        }
        assert_eq!(*order.last().unwrap(), tree.root);
    }

    #[test]
    fn parents_map() {
        let (_, _, tree) = fig1_tree();
        let parents = tree.parents();
        assert_eq!(parents[tree.root.0 as usize], None);
        let mut child_count = 0;
        for (i, p) in parents.iter().enumerate() {
            if let Some(p) = p {
                assert!(tree.children(*p).contains(&NodeId(i as u32)));
                child_count += 1;
            }
        }
        assert_eq!(child_count, tree.len() - 1);
    }

    #[test]
    fn formula_sequence_matches_fig1a() {
        let (space, tensors, tree) = fig1_tree();
        let text = tree.formula_sequence(&space, "S", &|t| tensors.get(t).name.clone());
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0], "T1[b,c,d,f] = sum[e,l] B * D");
        assert_eq!(lines[1], "T2[b,c,j,k] = sum[d,f] T1 * C");
        assert_eq!(lines[2], "S[a,b,i,j] = sum[c,k] T2 * A");
    }

    #[test]
    fn func_leaf_cost() {
        let mut space = IndexSpace::new();
        let n = space.add_range("N", 10);
        let vs = space.add_vars("x y", n);
        let mut tree = OpTree::new();
        let f = tree.leaf_func("f1", vs.clone(), 1000);
        assert_eq!(tree.node_ops(f, &space), 1000 * 100);
        let p = tree.node_ops_poly(f, &space);
        assert_eq!(format!("{}", p.display(&space)), "1000·N^2");
    }

    #[test]
    #[should_panic(expected = "not a subset")]
    fn contract_rejects_bad_result() {
        let mut space = IndexSpace::new();
        let n = space.add_range("N", 4);
        let vs = space.add_vars("x y z", n);
        let mut tensors = TensorTable::new();
        let t = tensors.add(TensorDecl::dense("A", vec![n, n]));
        let mut tree = OpTree::new();
        let l1 = tree.leaf_input(t, vec![vs[0], vs[1]]);
        let l2 = tree.leaf_input(t, vec![vs[0], vs[1]]);
        tree.contract(l1, l2, IndexSet::from_vars([vs[2]]));
    }

    #[test]
    fn validate_rejects_shared_node() {
        // Manually build a DAG: one leaf used by two parents.
        let mut space = IndexSpace::new();
        let n = space.add_range("N", 4);
        let vs = space.add_vars("x y", n);
        let _ = &space;
        let mut tensors = TensorTable::new();
        let t = tensors.add(TensorDecl::dense("A", vec![n, n]));
        let mut tree = OpTree::new();
        let l = tree.leaf_input(t, vec![vs[0], vs[1]]);
        let c1 = tree.contract(l, l, IndexSet::from_vars([vs[0]]));
        let _c2 = tree.contract(c1, l, IndexSet::EMPTY);
        assert!(tree.validate().is_err());
    }
}
