//! Fusion configurations over operator trees.
//!
//! A *fusion configuration* assigns to every tree edge (child → parent) the
//! set of common loop indices fused along that edge.  Fusing an index
//! eliminates that dimension of the child's intermediate array (paper §2,
//! §5).  This module defines configurations, the *recursive set-based
//! legality conditions* equivalent to the paper's fusion-graph condition
//! ("the scope of any two fusion chains must either be disjoint or a
//! subset/superset of each other"), and the memory metric the
//! memory-minimization DP optimizes.
//!
//! Legality (no-recomputation fusion) at a node `u` with parent-edge fused
//! set `p` and child-edge fused sets `c₁, c₂`:
//!
//! 1. `cᵢ ⊆ I(childᵢ) ∩ loops(u)` — only common loops can fuse;
//! 2. **pattern comparability** — for every index `x ∈ p ∪ c₁ ∪ c₂`, form
//!    its membership pattern over the three incident edges,
//!    `pat(x) ⊆ {P, L, R}`; all patterns must be pairwise
//!    subset-comparable.  A fused index corresponds to a loop whose scope
//!    spans the nodes its chain of fused edges connects; two indices whose
//!    patterns are incomparable at `u` would need loops whose scopes
//!    partially overlap — exactly what the paper's fusion-graph condition
//!    ("the scope of any two fusion chains must either be disjoint or a
//!    subset/superset of each other", §5) forbids.  Note this *permits*
//!    `c ⊂ p` and `p ⊂ c` cases, realized by interleaving a child's
//!    emission with the opening of the parent's fused loops.
//!
//! Children without a producer nest (stored inputs, the constant 1) are
//! read in place: their edge is always `∅` and imposes no constraint.
//!
//! The equivalence of these local conditions with the paper's global
//! chain-scope condition is verified on randomized trees in `chains.rs`.

use tce_ir::{IndexSet, IndexSpace, NodeId, OpKind, OpTree};

/// Which nodes own a producer loop nest (and an intermediate array) that
/// fusion can shrink.
pub fn is_fusable_producer(tree: &OpTree, id: NodeId) -> bool {
    matches!(
        tree.node(id).kind,
        OpKind::Contract { .. } | OpKind::Leaf(tce_ir::Leaf::Func { .. })
    )
}

/// The largest index set that may be fused on the edge `child → parent`:
/// the child's result indices that are loop indices of the parent.
pub fn fusable_set(tree: &OpTree, child: NodeId, parent: NodeId) -> IndexSet {
    if !is_fusable_producer(tree, child) {
        return IndexSet::EMPTY;
    }
    tree.node(child).indices.inter(tree.loop_indices(parent))
}

/// A fusion configuration: `fused[n]` is the set fused on the edge from
/// node `n` to its parent (`∅` for the root and for never-fused edges).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FusionConfig {
    /// Per-node parent-edge fused sets, indexed by `NodeId.0`.
    pub fused: Vec<IndexSet>,
}

impl FusionConfig {
    /// The all-unfused configuration.
    pub fn unfused(tree: &OpTree) -> Self {
        Self {
            fused: vec![IndexSet::EMPTY; tree.len()],
        }
    }

    /// Fused set on a node's parent edge.
    pub fn get(&self, id: NodeId) -> IndexSet {
        self.fused[id.0 as usize]
    }

    /// Set the fused set on a node's parent edge.
    pub fn set(&mut self, id: NodeId, s: IndexSet) {
        self.fused[id.0 as usize] = s;
    }

    /// Check legality: basic well-formedness plus the paper's global
    /// chain-scope condition ("the scope of any two fusion chains must
    /// either be disjoint or a subset/superset of each other").  The local
    /// pattern test below is a fast necessary pre-filter; the chain
    /// condition is authoritative — nesting orders established at one node
    /// must stay consistent along whole chains, which no single-node test
    /// captures (see the ordered-state DP in [`crate::memmin`]).
    pub fn check(&self, tree: &OpTree) -> Result<(), String> {
        self.check_local(tree)?;
        crate::chains::check_scopes(tree, self).map_err(|overlap| overlap.to_string())
    }

    /// The local (per-node) pattern-comparability conditions — necessary
    /// but not sufficient; see [`FusionConfig::check`].
    pub fn check_local(&self, tree: &OpTree) -> Result<(), String> {
        if self.fused.len() != tree.len() {
            return Err("configuration size mismatch".into());
        }
        if !self.get(tree.root).is_empty() {
            return Err("root has no parent edge to fuse".into());
        }
        for id in tree.postorder() {
            let p = self.get(id);
            match tree.node(id).kind {
                OpKind::Leaf(_) => {
                    if !p.is_subset(tree.node(id).indices) {
                        return Err(format!("node {}: fused set exceeds leaf indices", id.0));
                    }
                    if !p.is_empty() && !is_fusable_producer(tree, id) {
                        return Err(format!(
                            "node {}: stored inputs cannot be fused (they are read in place)",
                            id.0
                        ));
                    }
                }
                OpKind::Contract { left, right } => {
                    let c1 = self.get(left);
                    let c2 = self.get(right);
                    for (child, c) in [(left, c1), (right, c2)] {
                        if !c.is_subset(fusable_set(tree, child, id)) {
                            return Err(format!(
                                "edge {}→{}: fused set {:?} not within the fusable set",
                                child.0, id.0, c
                            ));
                        }
                    }
                    // Pattern comparability: pat(x) over incident edges
                    // (bit 0 = parent, 1 = left child, 2 = right child).
                    let all = p.union(c1).union(c2);
                    let mut patterns: Vec<u8> = Vec::new();
                    for x in all.iter() {
                        let pat = (p.contains(x) as u8)
                            | ((c1.contains(x) as u8) << 1)
                            | ((c2.contains(x) as u8) << 2);
                        patterns.push(pat);
                    }
                    for (i, &a) in patterns.iter().enumerate() {
                        for &b in &patterns[i + 1..] {
                            if a & b != a && a & b != b {
                                return Err(format!(
                                    "node {}: incomparable fusion patterns — the fused loops' \
                                     scopes would partially overlap (chains cannot nest)",
                                    id.0
                                ));
                            }
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Remaining dimensions of the array produced by `id` under this
    /// configuration.
    pub fn array_indices(&self, tree: &OpTree, id: NodeId) -> IndexSet {
        tree.node(id).indices.minus(self.get(id))
    }

    /// The paper's memory metric: total elements of all temporary arrays —
    /// function-leaf materializations and non-root intermediates — after
    /// fusion.  Stored inputs and the root result are excluded (their sizes
    /// are fixed by the problem).
    pub fn temp_memory(&self, tree: &OpTree, space: &IndexSpace) -> u128 {
        let mut total = 0u128;
        for id in tree.postorder() {
            if id == tree.root || !is_fusable_producer(tree, id) {
                continue;
            }
            total = total.saturating_add(space.iteration_points(self.array_indices(tree, id)));
        }
        total
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use tce_ir::{IndexSpace, TensorDecl, TensorTable};

    /// Fig 1(a) tree at extent `n`; returns (space, tree, [t1, t2] node ids).
    pub(crate) fn fig1(n_ext: usize) -> (IndexSpace, OpTree, NodeId, NodeId) {
        let (space, _, tree, t1, t2) = fig1_with_tensors(n_ext);
        (space, tree, t1, t2)
    }

    /// [`fig1`] plus the tensor table its stored inputs are declared in.
    pub(crate) fn fig1_with_tensors(
        n_ext: usize,
    ) -> (IndexSpace, TensorTable, OpTree, NodeId, NodeId) {
        let mut space = IndexSpace::new();
        let n = space.add_range("N", n_ext);
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
        tree.contract(t2, la, IndexSet::from_vars([a, b, i, j]));
        (space, tensors, tree, t1, t2)
    }

    #[test]
    fn unfused_is_legal_with_full_memory() {
        let (space, tree, _, _) = fig1(10);
        let cfg = FusionConfig::unfused(&tree);
        cfg.check(&tree).unwrap();
        // T1 and T2 at N^4 each.
        assert_eq!(cfg.temp_memory(&tree, &space), 2 * 10u128.pow(4));
    }

    #[test]
    fn fig1c_configuration_is_legal() {
        // Paper Fig 1(c): T1 fused on {b,c,d,f} (scalar), T2 on {b,c} (2-D).
        let (space, tree, t1, t2) = fig1(10);
        let mut cfg = FusionConfig::unfused(&tree);
        cfg.set(t1, space.parse_set("b,c,d,f").unwrap());
        cfg.set(t2, space.parse_set("b,c").unwrap());
        cfg.check(&tree).unwrap();
        assert_eq!(cfg.temp_memory(&tree, &space), 1 + 100);
        assert_eq!(cfg.array_indices(&tree, t1), IndexSet::EMPTY);
        assert_eq!(
            cfg.array_indices(&tree, t2),
            space.parse_set("j,k").unwrap()
        );
    }

    #[test]
    fn parent_fusion_must_be_contained_in_child_fusion() {
        // Fuse T2 into S on {b,c,j,k} (legal alone) — then T1 cannot fuse on
        // {b,c,d,f} because j,k ∉ I(T1).
        let (space, tree, t1, t2) = fig1(10);
        let mut cfg = FusionConfig::unfused(&tree);
        cfg.set(t2, space.parse_set("b,c,j,k").unwrap());
        cfg.check(&tree).unwrap(); // T1 unfused: fine
        cfg.set(t1, space.parse_set("b,c,d,f").unwrap());
        let err = cfg.check(&tree).unwrap_err();
        assert!(err.contains("incomparable"), "{err}");
    }

    #[test]
    fn fused_set_limited_to_common_indices() {
        let (space, tree, t1, _) = fig1(10);
        let mut cfg = FusionConfig::unfused(&tree);
        // `a` is not an index of T1.
        cfg.set(t1, space.parse_set("a").unwrap());
        assert!(cfg.check(&tree).is_err());
    }

    #[test]
    fn root_must_be_unfused() {
        let (space, tree, _, _) = fig1(10);
        let mut cfg = FusionConfig::unfused(&tree);
        cfg.set(tree.root, space.parse_set("a").unwrap());
        assert!(cfg.check(&tree).is_err());
    }

    #[test]
    fn input_leaves_cannot_fuse() {
        let (space, tree, _, _) = fig1(10);
        let mut cfg = FusionConfig::unfused(&tree);
        // Node 0 is the B input leaf.
        cfg.set(NodeId(0), space.parse_set("b").unwrap());
        let err = cfg.check(&tree).unwrap_err();
        assert!(err.contains("read in place"), "{err}");
    }

    #[test]
    fn sibling_fusions_must_nest() {
        // Tree: R = (X·Y) where X = A·B over {i}, Y = C·D over {j}; R
        // output {}; loops(R) = {i, j}. Fusing X on {i} and Y on {j} gives
        // incomparable sibling sets — illegal (partially-overlapping
        // chains in the paper's fusion graph).
        let mut space = IndexSpace::new();
        let n = space.add_range("N", 4);
        let i = space.add_var("i", n);
        let j = space.add_var("j", n);
        let mut tensors = TensorTable::new();
        let t = |tab: &mut TensorTable, nm: &str| tab.add(TensorDecl::dense(nm, vec![n]));
        let (ta, tb, tc, td) = (
            t(&mut tensors, "A"),
            t(&mut tensors, "B"),
            t(&mut tensors, "C"),
            t(&mut tensors, "D"),
        );
        let mut tree = OpTree::new();
        let la = tree.leaf_input(ta, vec![i]);
        let lb = tree.leaf_input(tb, vec![i]);
        let x = tree.contract(la, lb, i.singleton());
        let lc = tree.leaf_input(tc, vec![j]);
        let ld = tree.leaf_input(td, vec![j]);
        let y = tree.contract(lc, ld, j.singleton());
        tree.contract(x, y, IndexSet::EMPTY);
        let mut cfg = FusionConfig::unfused(&tree);
        cfg.set(x, i.singleton());
        cfg.check(&tree).unwrap(); // one side alone is fine
        cfg.set(y, j.singleton());
        let err = cfg.check(&tree).unwrap_err();
        assert!(err.contains("cannot nest"), "{err}");
        // Equal sibling sets on a shared index are fine.
        cfg.set(x, i.singleton());
        cfg.set(y, i.singleton());
        assert!(cfg.check(&tree).is_err()); // i not an index of Y
        let _ = &space;
        // Fusing Y on a subset of X's set is fine (∅ ⊆ {i}).
        cfg.set(y, IndexSet::EMPTY);
        cfg.check(&tree).unwrap();
    }

    #[test]
    fn func_leaf_edges_can_fuse() {
        // E = Σ_ce f1(c,e)·f2(c,e): both function leaves fused to scalars.
        let mut space = IndexSpace::new();
        let n = space.add_range("V", 5);
        let c = space.add_var("c", n);
        let e = space.add_var("e", n);
        let mut tree = OpTree::new();
        let f1 = tree.leaf_func("f1", vec![c, e], 1000);
        let f2 = tree.leaf_func("f2", vec![c, e], 1000);
        tree.contract(f1, f2, IndexSet::EMPTY);
        let mut cfg = FusionConfig::unfused(&tree);
        cfg.set(f1, IndexSet::from_vars([c, e]));
        cfg.set(f2, IndexSet::from_vars([c, e]));
        cfg.check(&tree).unwrap();
        assert_eq!(cfg.temp_memory(&tree, &space), 2); // two scalars
                                                       // Unfused: two 5×5 arrays.
        let unf = FusionConfig::unfused(&tree);
        assert_eq!(unf.temp_memory(&tree, &space), 50);
    }
}
