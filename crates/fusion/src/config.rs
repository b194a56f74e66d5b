//! Fusion configurations over operator trees, and the one rule that
//! decides which are legal.
//!
//! A *fusion configuration* assigns to every tree edge (child → parent) the
//! set of common loop indices fused along that edge.  Fusing an index
//! eliminates that dimension of the child's intermediate array (paper §2,
//! §5).  A space-time configuration adds, per edge, *redundant* indices:
//! parent loops the child lacks, placed around the child's nest so that it
//! is recomputed once per iteration (the redundant vertices of paper
//! Fig. 7).
//!
//! [`Lowering::new`] is the legality rule every stage calls — memory
//! minimization, space-time selection, code generation and the fused
//! executor.  A configuration is legal when
//!
//! 1. each fused set lies within its edge's fusable set ([`fusable_set`]:
//!    the child's result indices that are parent loops — stored inputs,
//!    read in place, have none);
//! 2. each redundant set lies within [`redundant_candidates`] (parent
//!    loops the child lacks);
//! 3. the chain scopes of the per-edge labels fused ∪ redundant are
//!    nested: "the scope of any two fusion chains … must either be
//!    disjoint or a subset/superset of each other" (§5).
//!
//! Condition 3 also covers every per-node test one might state: two fused
//! indices whose edge patterns at a node are incomparable are two chains
//! through that node, each holding a node the other lacks.
//!
//! A legal configuration comes back as a [`Lowering`]: the chain labels
//! (fused ∪ redundant per edge, which shape the loops) beside the array
//! configuration (the fused part alone, which shapes the arrays).  The
//! lowerings — [`crate::schedule`], [`crate::codegen`] and the fused
//! executor — take nothing else, so no unchecked configuration reaches
//! them.

use crate::chains::chains_of;
use tce_ir::{IndexSet, IndexSpace, IndexVar, NodeId, OpKind, OpTree};

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

/// The largest redundant set on the edge `child → parent`: parent loops
/// the child does not have (paper Fig. 7's redundant vertices; only
/// producers can be recomputed).
pub fn redundant_candidates(tree: &OpTree, child: NodeId, parent: NodeId) -> IndexSet {
    if !is_fusable_producer(tree, child) {
        return IndexSet::EMPTY;
    }
    tree.loop_indices(parent).minus(tree.loop_indices(child))
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

    /// This configuration as a [`Lowering`] (no redundant loops), if the
    /// legality rule admits it.
    pub fn lowering(&self, tree: &OpTree) -> Result<Lowering, Illegal> {
        Lowering::new(tree, &self.fused, &[])
    }

    /// Check legality with [`Lowering::new`] (no redundant loops).
    pub fn check(&self, tree: &OpTree) -> Result<(), String> {
        self.lowering(tree).map(drop).map_err(|e| e.to_string())
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

/// The first rule an illegal configuration breaks (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Illegal {
    /// The configuration does not hold one set per tree node.
    SizeMismatch,
    /// The root, which has no parent edge, carries a label.
    RootLabelled,
    /// A stored input, read in place, carries a label.
    StoredInput(NodeId),
    /// The edge from this node fuses an index outside its fusable set.
    NotFusable(NodeId, IndexVar),
    /// The edge from this node repeats an index that is not a parent loop
    /// the node lacks.
    NotRedundant(NodeId, IndexVar),
    /// The chains on these two indices have partially overlapping scopes.
    Overlap(IndexVar, IndexVar),
}

impl Illegal {
    /// The one-line diagnostic, naming indices from `space`.
    pub fn describe(self, space: &IndexSpace) -> String {
        self.render(&|x| space.var_name(x).to_string())
    }

    fn render(self, name: &dyn Fn(IndexVar) -> String) -> String {
        match self {
            Illegal::SizeMismatch => "configuration size mismatch".into(),
            Illegal::RootLabelled => "root has no parent edge to fuse".into(),
            Illegal::StoredInput(n) => format!(
                "node {}: stored inputs cannot be fused (they are read in place)",
                n.0
            ),
            Illegal::NotFusable(n, x) => {
                format!("node {}: `{}` is not within the fusable set", n.0, name(x))
            }
            Illegal::NotRedundant(n, x) => format!(
                "node {}: redundant `{}` is not a parent loop the node lacks",
                n.0,
                name(x)
            ),
            Illegal::Overlap(a, b) => format!(
                "chains on `{}` and `{}` have partially overlapping scopes",
                name(a),
                name(b)
            ),
        }
    }
}

/// Without an index space to name them, indices print as `#id`.
impl std::fmt::Display for Illegal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.render(&|x| format!("#{}", x.0)))
    }
}

/// A legal configuration in the form every lowering takes: the *chain
/// labels* — fused ∪ redundant per edge, which define the loop structure —
/// and the *array configuration* — the fused part alone, which defines the
/// array shapes and the modeled memory.  For plain fusion the two are the
/// same.  Only [`Lowering::new`] builds one, so holding a `Lowering` means
/// the configuration was checked.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lowering {
    chain_labels: FusionConfig,
    array_config: FusionConfig,
}

impl Lowering {
    /// The legality rule (see the module docs): per node, `fused` is the
    /// parent edge's fused set and `redundant` its redundant set; an empty
    /// `redundant` slice means no recomputation anywhere.
    ///
    /// # Errors
    /// The first rule the configuration breaks.
    pub fn new(tree: &OpTree, fused: &[IndexSet], redundant: &[IndexSet]) -> Result<Self, Illegal> {
        let n = tree.len();
        if fused.len() != n || !(redundant.is_empty() || redundant.len() == n) {
            return Err(Illegal::SizeMismatch);
        }
        let redundant_at = |q: usize| redundant.get(q).copied().unwrap_or_default();
        let label = |q: usize| fused[q].union(redundant_at(q));
        let parents = tree.parents();
        for id in tree.postorder() {
            let q = id.0 as usize;
            let Some(u) = parents[q] else {
                if !label(q).is_empty() {
                    return Err(Illegal::RootLabelled);
                }
                continue;
            };
            if !is_fusable_producer(tree, id) && !label(q).is_empty() {
                return Err(Illegal::StoredInput(id));
            }
            if let Some(x) = fused[q].minus(fusable_set(tree, id, u)).iter().next() {
                return Err(Illegal::NotFusable(id, x));
            }
            let repeated = redundant_at(q).minus(redundant_candidates(tree, id, u));
            if let Some(x) = repeated.iter().next() {
                return Err(Illegal::NotRedundant(id, x));
            }
        }
        let chain_labels = FusionConfig {
            fused: (0..n).map(label).collect(),
        };
        let chains = chains_of(tree, &chain_labels);
        for (i, a) in chains.iter().enumerate() {
            for b in &chains[i + 1..] {
                let inter = a.scope_mask() & b.scope_mask();
                if inter != 0 && inter != a.scope_mask() && inter != b.scope_mask() {
                    return Err(Illegal::Overlap(a.index, b.index));
                }
            }
        }
        let array_config = FusionConfig {
            fused: fused.to_vec(),
        };
        Ok(Self {
            chain_labels,
            array_config,
        })
    }

    /// The all-unfused lowering (always legal).
    pub fn unfused(tree: &OpTree) -> Self {
        Self {
            chain_labels: FusionConfig::unfused(tree),
            array_config: FusionConfig::unfused(tree),
        }
    }

    /// Per-edge fused ∪ redundant sets: the loop structure.
    pub fn chain_labels(&self) -> &FusionConfig {
        &self.chain_labels
    }

    /// Per-edge fused sets: the array shapes.
    pub fn array_config(&self) -> &FusionConfig {
        &self.array_config
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
        assert!(err.contains("partially overlapping scopes"), "{err}");
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
        assert!(err.contains("partially overlapping scopes"), "{err}");
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
