//! Fusion + recomputation pareto dynamic program (paper §5, first step).
//!
//! Extends the memory-minimization DP with *redundant loops*: an edge's
//! label now has a fused part `c ⊆ I(child) ∩ loops(parent)` (eliminating
//! array dimensions, as in `tce-fusion`) and a redundant part
//! `r ⊆ loops(parent) ∖ loops(child)` — extra parent loops placed around
//! the child's nest, re-executing the child's whole subtree once per
//! iteration (the "redundant vertices" of paper Figs. 3 and 7).  The DP
//! keeps a pareto frontier of (memory, operations) per (node, label)
//! state; recomputation multiplies a child subtree's operations by the
//! redundant extents.
//!
//! The DP threads `tce-fusion`'s nesting states over the *structural*
//! labels `c ∪ r` — with the parent's redundant part excluded, because a
//! loop that is redundant for this node wraps its whole emission
//! transparently and constrains nothing below it.  Whether a configuration
//! is legal is decided by `tce-fusion`'s one legality rule, which
//! [`SpaceTimeConfig::lowering_configs`] applies before anything lowers it.

#![allow(clippy::type_complexity, clippy::too_many_arguments)]

use crate::pareto::Pareto;
use std::collections::HashMap;
use std::ops::ControlFlow;
use tce_fusion::config::{fusable_set, is_fusable_producer, redundant_candidates};
use tce_fusion::nest::for_each_child_state_option;
use tce_fusion::{Illegal, Lowering};
use tce_ir::{IndexSet, IndexSpace, NodeId, OpKind, OpTree};

/// A fusion/recomputation configuration: per node, the fused and redundant
/// parts of its parent-edge label.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpaceTimeConfig {
    /// Fused sets per node (parent edge), indexed by `NodeId.0`.
    pub fused: Vec<IndexSet>,
    /// Redundant sets per node (parent edge), indexed by `NodeId.0`.
    pub redundant: Vec<IndexSet>,
}

impl SpaceTimeConfig {
    /// The all-unfused, no-recomputation configuration.
    pub fn unfused(tree: &OpTree) -> Self {
        Self {
            fused: vec![IndexSet::EMPTY; tree.len()],
            redundant: vec![IndexSet::EMPTY; tree.len()],
        }
    }

    /// Union of all redundant indices (the candidates for tiling).
    pub fn recomputation_indices(&self) -> IndexSet {
        self.redundant
            .iter()
            .fold(IndexSet::EMPTY, |s, &r| s.union(r))
    }

    /// The configuration as every lowering takes it, if `tce-fusion`'s
    /// legality rule ([`Lowering::new`]) admits it: the chain labels —
    /// fused ∪ redundant per edge — beside the array configuration, the
    /// fused part alone.
    ///
    /// # Errors
    /// The first rule the configuration breaks.
    pub fn lowering_configs(&self, tree: &OpTree) -> Result<Lowering, Illegal> {
        Lowering::new(tree, &self.fused, &self.redundant)
    }

    /// Remaining array dimensions of node `id` (fused dims eliminated).
    pub fn array_indices(&self, tree: &OpTree, id: NodeId) -> IndexSet {
        tree.node(id).indices.minus(self.fused[id.0 as usize])
    }

    /// Total temporary memory without tiling (every fused dim fully
    /// eliminated) — the `B = 1` point of the tiling model.
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

    /// Total operations including recomputation, without tiling
    /// (each redundant index contributes its full extent).
    pub fn total_ops(&self, tree: &OpTree, space: &IndexSpace) -> u128 {
        self.total_ops_with(tree, space, &|r| space.iteration_points(r))
    }

    /// Total operations with a custom redundancy factor per edge (used by
    /// the tiling model, where a tiled redundant index contributes its
    /// tile count rather than its extent).
    pub fn total_ops_with(
        &self,
        tree: &OpTree,
        space: &IndexSpace,
        factor_of: &dyn Fn(IndexSet) -> u128,
    ) -> u128 {
        fn go(
            cfg: &SpaceTimeConfig,
            tree: &OpTree,
            space: &IndexSpace,
            factor_of: &dyn Fn(IndexSet) -> u128,
            u: NodeId,
            mult: u128,
        ) -> u128 {
            let own = mult.saturating_mul(tree.node_ops(u, space));
            let mut total = own;
            for child in tree.children(u) {
                let f = factor_of(cfg.redundant[child.0 as usize]).max(1);
                total = total.saturating_add(go(
                    cfg,
                    tree,
                    space,
                    factor_of,
                    child,
                    mult.saturating_mul(f),
                ));
            }
            total
        }
        go(self, tree, space, factor_of, tree.root, 1)
    }
}

/// Result of the space-time DP: the root pareto frontier, each point
/// tagged with its configuration.
pub type SpaceTimeFrontier = Pareto<SpaceTimeConfig>;

/// Run the fusion/recomputation pareto DP.  `max_points` bounds each
/// state's frontier (the paper notes pruning keeps solution sets small);
/// pass `usize::MAX` for exact frontiers on small trees.
///
/// Returns an error (instead of panicking) if the traceback cannot
/// reconstruct a configuration for a frontier point — e.g. when frontier
/// pruning drops the child points a root point was built from.
pub fn spacetime_dp(
    tree: &OpTree,
    space: &IndexSpace,
    max_points: usize,
) -> Result<SpaceTimeFrontier, String> {
    let mut dp = Dp {
        tree,
        space,
        max_points,
        keys: vec![HashMap::new(); tree.len()],
        frontiers: Vec::new(),
        label_pairs: 0,
    };
    let root = dp.solve(tree.root, &[]);
    tce_trace::counter("spacetime.label_pairs", dp.label_pairs);

    // Reconstruct a full configuration for each root point by replaying
    // the DP choices.  (Frontiers are small; replay is cheap.)
    let mut result: SpaceTimeFrontier = Pareto::new();
    for point in dp.frontiers[root].points() {
        let mut cfg = SpaceTimeConfig::unfused(tree);
        dp.trace(
            tree.root,
            &[],
            IndexSet::EMPTY,
            point.mem,
            point.ops,
            &mut cfg,
        )?;
        // Validate the reconstruction reproduces the point.
        debug_assert_eq!(cfg.temp_memory(tree, space), point.mem);
        debug_assert_eq!(cfg.total_ops(tree, space), point.ops);
        result.insert(point.mem, point.ops, cfg);
    }
    Ok(result)
}

/// The child labels `(c1, r1, c2, r2)` a frontier point was built from.
type Tag = (IndexSet, IndexSet, IndexSet, IndexSet);

/// State = (node, nesting state over the *fused* part of the parent
/// label).  The parent's redundant part is transparent (it wraps the whole
/// subtree emission) and enters only through the ops factor the parent
/// applies; the nesting state threads chain-scope legality (see
/// tce-fusion::nest).
struct Dp<'a> {
    tree: &'a OpTree,
    space: &'a IndexSpace,
    max_points: usize,
    /// Per node, memo key → index into `frontiers`.  A contraction's key is
    /// its nesting state; a leaf's is its fused set alone, since nothing
    /// below it reads the nesting.
    keys: Vec<HashMap<Vec<IndexSet>, usize>>,
    frontiers: Vec<Pareto<Tag>>,
    /// `(left, right)` edge-label pairs walked.
    label_pairs: u64,
}

impl Dp<'_> {
    /// The memo key of node `u` at nesting `state`.
    fn key<'s>(&self, u: NodeId, state: &'s [IndexSet], fused: &'s IndexSet) -> &'s [IndexSet] {
        match self.tree.node(u).kind {
            OpKind::Contract { .. } => state,
            OpKind::Leaf(_) => std::slice::from_ref(fused),
        }
    }

    /// Memory of `u`'s own result array with `fused` dims eliminated.
    fn own_mem(&self, u: NodeId, fused: IndexSet) -> u128 {
        if u == self.tree.root || !is_fusable_producer(self.tree, u) {
            0
        } else {
            self.space
                .iteration_points(self.tree.node(u).indices.minus(fused))
        }
    }

    /// The frontier of `u` at nesting `state`, as an index into
    /// `frontiers`.
    fn solve(&mut self, u: NodeId, state: &[IndexSet]) -> usize {
        let (tree, space) = (self.tree, self.space);
        let fused = union(state);
        if let Some(&i) = self.keys[u.0 as usize].get(self.key(u, state, &fused)) {
            return i;
        }
        let own_mem = self.own_mem(u, fused);
        let own_ops = tree.node_ops(u, space);
        let mut out: Pareto<Tag> = Pareto::new();
        match tree.node(u).kind {
            OpKind::Leaf(_) => out.insert(own_mem, own_ops, Default::default()),
            OpKind::Contract { left: l, right: r } => {
                let right_labels: Vec<_> = edge_labels(tree, r, u)
                    .into_iter()
                    .map(|(c2, r2)| (c2, r2, self.leaf_frontier(r, c2)))
                    .collect();
                // Child frontier pairs already combined under the current
                // labels: refinements that lead to the same two keys add
                // the same points, which `Pareto::insert` would reject.
                let mut expanded: Vec<(usize, usize)> = Vec::new();
                for (c1, r1) in edge_labels(tree, l, u) {
                    let leaf1 = self.leaf_frontier(l, c1);
                    for &(c2, r2, leaf2) in &right_labels {
                        self.label_pairs += 1;
                        expanded.clear();
                        let f1 = space.iteration_points(r1).max(1);
                        let f2 = space.iteration_points(r2).max(1);
                        // Legality over the structural labels c ∪ r; a
                        // label pair can admit several nesting refinements
                        // (shared classes ordered at this node), each a
                        // separate DP branch.
                        for_each_child_state_option(state, c1.union(r1), c2.union(r2), |s1, s2| {
                            // Children see only the fused part of their
                            // label; redundant loops are transparent below.
                            let mut buf = [IndexSet::EMPTY; MAX];
                            let p1 = leaf1.unwrap_or_else(|| {
                                self.solve(l, strip_transparent(s1, c1, &mut buf))
                            });
                            let p2 = leaf2.unwrap_or_else(|| {
                                self.solve(r, strip_transparent(s2, c2, &mut buf))
                            });
                            if !expanded.contains(&(p1, p2)) {
                                expanded.push((p1, p2));
                                for a in self.frontiers[p1].points() {
                                    for b in self.frontiers[p2].points() {
                                        let mem =
                                            own_mem.saturating_add(a.mem).saturating_add(b.mem);
                                        let ops = own_ops
                                            .saturating_add(f1.saturating_mul(a.ops))
                                            .saturating_add(f2.saturating_mul(b.ops));
                                        out.insert(mem, ops, (c1, r1, c2, r2));
                                    }
                                }
                            }
                            // Two leaves meet the same two frontiers under
                            // every refinement.
                            if leaf1.is_some() && leaf2.is_some() {
                                ControlFlow::Break(())
                            } else {
                                ControlFlow::Continue(())
                            }
                        });
                    }
                }
            }
        }
        // Optional width bound: keep the lowest-memory and lowest-ops ends.
        if out.len() > self.max_points {
            let pts = out.points().to_vec();
            let mut trimmed = Pareto::new();
            let stride = pts.len().div_ceil(self.max_points);
            for (i, p) in pts.iter().enumerate() {
                if i % stride == 0 || i == pts.len() - 1 {
                    trimmed.insert(p.mem, p.ops, p.tag);
                }
            }
            out = trimmed;
        }
        let key = self.key(u, state, &fused).to_vec();
        self.frontiers.push(out);
        self.keys[u.0 as usize].insert(key, self.frontiers.len() - 1);
        self.frontiers.len() - 1
    }

    /// The frontier of child `u` under an edge whose fused part is `c`
    /// when `u` is a leaf: its key is `c` whatever nesting the refinement
    /// derives.
    fn leaf_frontier(&mut self, u: NodeId, c: IndexSet) -> Option<usize> {
        match self.tree.node(u).kind {
            OpKind::Leaf(_) => Some(self.solve(u, std::slice::from_ref(&c))),
            OpKind::Contract { .. } => None,
        }
    }

    /// The memoized frontier of `u` at nesting `state`, if solved.
    fn frontier(&self, u: NodeId, state: &[IndexSet]) -> Option<&Pareto<Tag>> {
        let fused = union(state);
        let i = self.keys[u.0 as usize].get(self.key(u, state, &fused))?;
        Some(&self.frontiers[*i])
    }

    /// Replay the DP to find the child labels that realize `(mem, ops)` at
    /// state `(u, state, redundant)`, filling `cfg`.  Errors (naming the
    /// offending node) instead of panicking when no consistent replay
    /// exists.
    fn trace(
        &self,
        u: NodeId,
        state: &[IndexSet],
        redundant: IndexSet,
        mem: u128,
        ops: u128,
        cfg: &mut SpaceTimeConfig,
    ) -> Result<(), String> {
        let fused = union(state);
        cfg.fused[u.0 as usize] = fused;
        cfg.redundant[u.0 as usize] = redundant;
        let OpKind::Contract { left, right } = self.tree.node(u).kind else {
            return Ok(());
        };
        let front = self
            .frontier(u, state)
            .ok_or_else(|| format!("spacetime traceback: no memoized frontier at node #{}", u.0))?;
        let point = front
            .points()
            .iter()
            .find(|p| p.mem == mem && p.ops == ops)
            .ok_or_else(|| {
                format!(
                    "spacetime traceback: no frontier point (mem={mem}, ops={ops}) at node #{}",
                    u.0
                )
            })?;
        let (c1, r1, c2, r2) = point.tag;
        let own_mem = self.own_mem(u, fused);
        let own_ops = self.tree.node_ops(u, self.space);
        let f1 = self.space.iteration_points(r1).max(1);
        let f2 = self.space.iteration_points(r2).max(1);
        // The tag records the labels but not which nesting refinement the
        // point came from; try each candidate against the memo.
        let (mut derivable, mut traced) = (false, None);
        for_each_child_state_option(state, c1.union(r1), c2.union(r2), |s1, s2| {
            derivable = true;
            let (mut b1, mut b2) = ([IndexSet::EMPTY; MAX], [IndexSet::EMPTY; MAX]);
            let (s1, s2) = (
                strip_transparent(s1, c1, &mut b1),
                strip_transparent(s2, c2, &mut b2),
            );
            let (Some(p1), Some(p2)) = (self.frontier(left, s1), self.frontier(right, s2)) else {
                return ControlFlow::Continue(());
            };
            // Find the child points consistent with this total.
            for a in p1.points() {
                for b in p2.points() {
                    if own_mem.saturating_add(a.mem).saturating_add(b.mem) == mem
                        && own_ops
                            .saturating_add(f1.saturating_mul(a.ops))
                            .saturating_add(f2.saturating_mul(b.ops))
                            == ops
                    {
                        traced = Some(
                            self.trace(left, s1, r1, a.mem, a.ops, cfg)
                                .and_then(|()| self.trace(right, s2, r2, b.mem, b.ops, cfg)),
                        );
                        return ControlFlow::Break(());
                    }
                }
            }
            ControlFlow::Continue(())
        });
        if !derivable {
            return Err(format!(
                "spacetime traceback: chosen labels not derivable at node #{}",
                u.0
            ));
        }
        traced.unwrap_or_else(|| {
            Err(format!(
                "spacetime traceback: no consistent child points for (mem={mem}, ops={ops}) \
                 at contraction node #{} (children #{}, #{}) — frontier pruning may have \
                 dropped the realizing points; retry with a larger max_points",
                u.0, left.0, right.0
            ))
        })
    }
}

/// Most classes a nesting state can hold: one per index variable.
const MAX: usize = IndexSet::MAX_VARS;

/// The fused set a nesting state orders.
fn union(state: &[IndexSet]) -> IndexSet {
    state.iter().fold(IndexSet::EMPTY, |s, &c| s.union(c))
}

/// All (fused, redundant) label pairs for an edge.
fn edge_labels(tree: &OpTree, child: NodeId, parent: NodeId) -> Vec<(IndexSet, IndexSet)> {
    if !is_fusable_producer(tree, child) {
        return vec![(IndexSet::EMPTY, IndexSet::EMPTY)];
    }
    let fs = fusable_set(tree, child, parent);
    let rs = redundant_candidates(tree, child, parent);
    let mut out = Vec::new();
    for c in fs.subsets() {
        for r in rs.subsets() {
            // Redundant loops only pay off when they enable fusion — but
            // enumerate all; pareto pruning discards useless ones.
            out.push((c, r));
        }
    }
    out
}

/// Drop transparent (redundant) indices from a derived state, keeping
/// only the fused part `c`; empty classes vanish.  Writes into `buf`.
fn strip_transparent<'b>(
    state: &[IndexSet],
    c: IndexSet,
    buf: &'b mut [IndexSet; MAX],
) -> &'b [IndexSet] {
    let mut n = 0;
    for cl in state {
        let kept = cl.inter(c);
        if !kept.is_empty() {
            buf[n] = kept;
            n += 1;
        }
    }
    &buf[..n]
}

/// Brute-force oracle: enumerate every `(fused, redundant)` label
/// assignment, keep those the legality rule admits, and collect the exact
/// pareto frontier.  Exponential — tiny trees only.
pub fn spacetime_bruteforce(tree: &OpTree, space: &IndexSpace) -> Pareto<SpaceTimeConfig> {
    let parents = tree.parents();
    let edges: Vec<(NodeId, IndexSet, IndexSet)> = tree
        .postorder()
        .into_iter()
        .filter(|&id| id != tree.root && is_fusable_producer(tree, id))
        .map(|id| {
            let u = parents[id.0 as usize].unwrap();
            (
                id,
                fusable_set(tree, id, u),
                redundant_candidates(tree, id, u),
            )
        })
        .collect();
    let mut front: Pareto<SpaceTimeConfig> = Pareto::new();
    let mut cfg = SpaceTimeConfig::unfused(tree);

    fn rec(
        tree: &OpTree,
        space: &IndexSpace,
        edges: &[(NodeId, IndexSet, IndexSet)],
        i: usize,
        cfg: &mut SpaceTimeConfig,
        front: &mut Pareto<SpaceTimeConfig>,
    ) {
        if i == edges.len() {
            if cfg.lowering_configs(tree).is_ok() {
                front.insert(
                    cfg.temp_memory(tree, space),
                    cfg.total_ops(tree, space),
                    cfg.clone(),
                );
            }
            return;
        }
        let (node, fs, rs) = edges[i];
        for c in fs.subsets() {
            for r in rs.subsets() {
                cfg.fused[node.0 as usize] = c;
                cfg.redundant[node.0 as usize] = r;
                rec(tree, space, edges, i + 1, cfg, front);
            }
        }
        cfg.fused[node.0 as usize] = IndexSet::EMPTY;
        cfg.redundant[node.0 as usize] = IndexSet::EMPTY;
    }
    rec(tree, space, &edges, 0, &mut cfg, &mut front);
    front
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The A3A-style pair: E = Σ_ce f1(c,e,b,k)-ish toy at small scale —
    /// build E = Σ_{c,e,a,f} X[c,e,a,f]·Y[c,e,a,f] with Y = Σ_{b,k}
    /// T1(c,e,b,k)·T2(a,f,b,k), T1/T2 function leaves.
    fn a3a_like(
        v_ext: usize,
        o_ext: usize,
        ci: u64,
    ) -> (IndexSpace, OpTree, NodeId, NodeId, NodeId) {
        let mut space = IndexSpace::new();
        let v = space.add_range("V", v_ext);
        let o = space.add_range("O", o_ext);
        let (a, c, e, f, b) = (
            space.add_var("a", v),
            space.add_var("c", v),
            space.add_var("e", v),
            space.add_var("f", v),
            space.add_var("b", v),
        );
        let k = space.add_var("k", o);
        let mut tree = OpTree::new();
        let t1 = tree.leaf_func("f1", vec![c, e, b, k], ci);
        let t2 = tree.leaf_func("f2", vec![a, f, b, k], ci);
        let y = tree.contract(t1, t2, IndexSet::from_vars([c, e, a, f]));
        let x = tree.leaf_func("fx", vec![a, e, c, f], 1);
        let root = tree.contract(y, x, IndexSet::EMPTY);
        let _ = root;
        (space, tree, t1, t2, y)
    }

    #[test]
    fn frontier_contains_unfused_and_fully_fused_extremes() {
        let (space, tree, t1, t2, y) = a3a_like(4, 2, 100);
        let front = spacetime_dp(&tree, &space, usize::MAX).unwrap();
        assert!(!front.is_empty());
        // Max-memory end: everything unfused — memory = T1 + T2 + Y + X.
        let unfused_mem = SpaceTimeConfig::unfused(&tree).temp_memory(&tree, &space);
        let unfused_ops = SpaceTimeConfig::unfused(&tree).total_ops(&tree, &space);
        // The frontier's cheapest-ops point must cost exactly the
        // no-recomputation total and use at most the unfused memory
        // (fusion alone may already shrink some arrays for free).
        let best_ops = front.points().iter().map(|p| p.ops).min().unwrap();
        assert_eq!(best_ops, unfused_ops);
        // Min-memory end: full fusion with redundancy — all temporaries
        // scalars (memory = 4: T1, T2, Y, X).
        let min = front.min_mem().unwrap();
        assert_eq!(min.mem, 4);
        assert!(min.ops > unfused_ops, "full fusion must pay recomputation");
        assert!(min.mem < unfused_mem);
        let _ = (t1, t2, y);
    }

    #[test]
    fn fig3_full_fusion_costs_match_paper_formulas() {
        // Paper Fig 3: with everything reduced to scalars, T1/T2 cost
        // C_i·V^5·O (factor V² of redundant recomputation over the paper's
        // C_i·V^3·O baseline).
        let (v_ext, o_ext, ci) = (4usize, 2usize, 100u64);
        let (space, tree, t1, t2, _) = a3a_like(v_ext, o_ext, ci);
        let front = spacetime_dp(&tree, &space, usize::MAX).unwrap();
        let min = front.min_mem().unwrap();
        let cfg = &min.tag;
        // T1 and T2 fully fused (scalar) with 2 redundant indices each.
        assert_eq!(cfg.array_indices(&tree, t1), IndexSet::EMPTY);
        assert_eq!(cfg.array_indices(&tree, t2), IndexSet::EMPTY);
        assert_eq!(cfg.redundant[t1.0 as usize].len(), 2);
        assert_eq!(cfg.redundant[t2.0 as usize].len(), 2);
        let (vv, oo, c) = (v_ext as u128, o_ext as u128, ci as u128);
        // Expected ops: T1 = T2 = C_i·V^5·O; Y contraction = 2·V^5·O... (V
        // here indexes a,c,e,f,b all extent V, k extent O):
        // T1 evals: V^3·O points × C_i, ×V² redundancy = C·V^5·O.
        let t1_ops = c * vv.pow(5) * oo;
        // Y: iteration space {c,e,a,f,b,k} = V^5·O, 2 flops each.
        let y_ops = 2 * vv.pow(5) * oo;
        // X evals: V^4 × cost 1; E: V^4 × 2.
        let expect = 2 * t1_ops + y_ops + vv.pow(4) + 2 * vv.pow(4);
        assert_eq!(min.ops, expect);
    }

    #[test]
    fn recomputation_indices_collected() {
        let (space, tree, _, _, _) = a3a_like(4, 2, 50);
        let front = spacetime_dp(&tree, &space, usize::MAX).unwrap();
        let min = front.min_mem().unwrap();
        // a,f redundant for T1; c,e for T2 → four tiling candidates.
        assert_eq!(min.tag.recomputation_indices().len(), 4);
    }

    #[test]
    fn frontier_is_monotone() {
        let (space, tree, _, _, _) = a3a_like(3, 2, 10);
        let front = spacetime_dp(&tree, &space, usize::MAX).unwrap();
        for w in front.points().windows(2) {
            assert!(w[0].mem < w[1].mem && w[0].ops > w[1].ops);
        }
        // Every tagged config reproduces its point.
        for p in front.points() {
            assert_eq!(p.tag.temp_memory(&tree, &space), p.mem);
            assert_eq!(p.tag.total_ops(&tree, &space), p.ops);
        }
    }

    #[test]
    fn width_bound_trims_but_keeps_extremes() {
        let (space, tree, _, _, _) = a3a_like(4, 2, 100);
        let exact = spacetime_dp(&tree, &space, usize::MAX).unwrap();
        let trimmed = spacetime_dp(&tree, &space, 2).unwrap();
        assert!(trimmed.len() <= exact.len());
        assert_eq!(trimmed.min_mem().unwrap().mem, exact.min_mem().unwrap().mem);
    }

    #[test]
    fn traceback_survives_pareto_point_ties() {
        // Symmetric tree: E = Σ_ij f(i,j)·g(i,j).  Fusing either leaf (or
        // both) yields coinciding (mem, ops) points, so the frontier holds
        // tied entries whose tags must still replay consistently — this
        // shape previously tripped the traceback panic under pruning.
        let mut space = IndexSpace::new();
        let n = space.add_range("N", 6);
        let i = space.add_var("i", n);
        let j = space.add_var("j", n);
        let mut tree = OpTree::new();
        let lf = tree.leaf_func("f", vec![i, j], 3);
        let lg = tree.leaf_func("g", vec![i, j], 3);
        tree.contract(lf, lg, IndexSet::EMPTY);
        let front = spacetime_dp(&tree, &space, usize::MAX).expect("tied points must trace back");
        assert!(!front.is_empty());
        for p in front.points() {
            assert_eq!(p.tag.temp_memory(&tree, &space), p.mem);
            assert_eq!(p.tag.total_ops(&tree, &space), p.ops);
        }
        // Aggressive pruning must degrade to a typed error or a consistent
        // frontier — never a panic.
        for width in 1..4 {
            match spacetime_dp(&tree, &space, width) {
                Ok(f) => {
                    for p in f.points() {
                        assert_eq!(p.tag.temp_memory(&tree, &space), p.mem);
                    }
                }
                Err(e) => assert!(e.contains("traceback"), "unexpected error: {e}"),
            }
        }
    }

    /// The seeded random trees of up to three function leaves the DP is
    /// checked on against brute force and the per-state memo.
    fn random_trees() -> Vec<(IndexSpace, OpTree)> {
        use tce_ir::rng::Rng;
        let mut rng = Rng::new(99_2002);
        let mut out = Vec::new();
        for trial in 0..16 {
            let mut space = IndexSpace::new();
            let r1 = space.add_range("P", rng.usize_in(2..4));
            let r2 = space.add_range("Q", rng.usize_in(2..5));
            let vars: Vec<_> = (0..4)
                .map(|q| space.add_var(&format!("x{q}"), if q % 2 == 0 { r1 } else { r2 }))
                .collect();
            let mut tree = OpTree::new();
            let nleaves = 3;
            let mut nodes: Vec<NodeId> = (0..nleaves)
                .map(|li| {
                    let arity = rng.usize_in(1..3);
                    let mut set = IndexSet::EMPTY;
                    let mut idxs = Vec::new();
                    for _ in 0..arity {
                        let v = vars[rng.usize_in(0..vars.len())];
                        if !set.contains(v) {
                            set.insert(v);
                            idxs.push(v);
                        }
                    }
                    tree.leaf_func(&format!("f{trial}_{li}"), idxs, 7)
                })
                .collect();
            while nodes.len() > 1 {
                let a = nodes.swap_remove(rng.usize_in(0..nodes.len()));
                let b = nodes.swap_remove(rng.usize_in(0..nodes.len()));
                let combined = tree.node(a).indices.union(tree.node(b).indices);
                let mut keep = IndexSet::EMPTY;
                for v in combined.iter() {
                    if rng.bool_with(0.5) {
                        keep.insert(v);
                    }
                }
                nodes.push(tree.contract(a, b, keep));
            }
            out.push((space, tree));
        }
        out
    }

    #[test]
    fn dp_frontier_matches_bruteforce_on_random_trees() {
        for (trial, (space, tree)) in random_trees().into_iter().enumerate() {
            let dp = spacetime_dp(&tree, &space, usize::MAX).unwrap();
            let bf = spacetime_bruteforce(&tree, &space);
            let dpp: Vec<(u128, u128)> = dp.points().iter().map(|p| (p.mem, p.ops)).collect();
            let bfp: Vec<(u128, u128)> = bf.points().iter().map(|p| (p.mem, p.ops)).collect();
            assert_eq!(dpp, bfp, "trial {trial}");
        }
    }

    type MemoFrontier = Pareto<(IndexSet, IndexSet, IndexSet, IndexSet)>;
    type Memo = HashMap<(u32, Vec<u64>), MemoFrontier>;

    /// The DP memoized on every `(node, nesting state)`, leaves included,
    /// expanding every refinement of every label pair — the reference the
    /// keyed DP must reproduce point for point and configuration for
    /// configuration.
    fn memo_spacetime_dp(
        tree: &OpTree,
        space: &IndexSpace,
        max_points: usize,
    ) -> Result<SpaceTimeFrontier, String> {
        use tce_fusion::nest::{derive_child_state_options, encode_state, NestState};
        fn own_mem(tree: &OpTree, space: &IndexSpace, u: NodeId, fused: IndexSet) -> u128 {
            if u == tree.root || !is_fusable_producer(tree, u) {
                0
            } else {
                space.iteration_points(tree.node(u).indices.minus(fused))
            }
        }
        fn strip(state: &NestState, c: IndexSet) -> NestState {
            state
                .iter()
                .map(|cl| cl.inter(c))
                .filter(|cl| !cl.is_empty())
                .collect()
        }
        fn solve(
            tree: &OpTree,
            space: &IndexSpace,
            memo: &mut Memo,
            u: NodeId,
            state: &NestState,
            max_points: usize,
        ) -> MemoFrontier {
            let key = (u.0, encode_state(state));
            if let Some(p) = memo.get(&key) {
                return p.clone();
            }
            let own = own_mem(tree, space, u, union(state));
            let own_ops = tree.node_ops(u, space);
            let mut out = MemoFrontier::new();
            match tree.node(u).kind {
                OpKind::Leaf(_) => out.insert(own, own_ops, Default::default()),
                OpKind::Contract { left: l, right: r } => {
                    for (c1, r1) in edge_labels(tree, l, u) {
                        for (c2, r2) in edge_labels(tree, r, u) {
                            for (s1, s2) in
                                derive_child_state_options(state, c1.union(r1), c2.union(r2))
                            {
                                let (s1, s2) = (strip(&s1, c1), strip(&s2, c2));
                                let f1 = space.iteration_points(r1).max(1);
                                let f2 = space.iteration_points(r2).max(1);
                                let p1 = solve(tree, space, memo, l, &s1, max_points);
                                let p2 = solve(tree, space, memo, r, &s2, max_points);
                                for a in p1.points() {
                                    for b in p2.points() {
                                        out.insert(
                                            own.saturating_add(a.mem).saturating_add(b.mem),
                                            own_ops
                                                .saturating_add(f1.saturating_mul(a.ops))
                                                .saturating_add(f2.saturating_mul(b.ops)),
                                            (c1, r1, c2, r2),
                                        );
                                    }
                                }
                            }
                        }
                    }
                }
            }
            if out.len() > max_points {
                let pts = out.points().to_vec();
                let stride = pts.len().div_ceil(max_points);
                out = MemoFrontier::new();
                for (i, p) in pts.iter().enumerate() {
                    if i % stride == 0 || i == pts.len() - 1 {
                        out.insert(p.mem, p.ops, p.tag);
                    }
                }
            }
            memo.insert(key, out.clone());
            out
        }
        #[allow(clippy::too_many_arguments)]
        fn trace(
            tree: &OpTree,
            space: &IndexSpace,
            memo: &Memo,
            u: NodeId,
            state: &NestState,
            redundant: IndexSet,
            mem: u128,
            ops: u128,
            cfg: &mut SpaceTimeConfig,
        ) -> Result<(), String> {
            let fused = union(state);
            cfg.fused[u.0 as usize] = fused;
            cfg.redundant[u.0 as usize] = redundant;
            let OpKind::Contract { left, right } = tree.node(u).kind else {
                return Ok(());
            };
            let front = memo
                .get(&(u.0, encode_state(state)))
                .ok_or_else(|| format!("no memoized frontier at node #{}", u.0))?;
            let point = front
                .points()
                .iter()
                .find(|p| p.mem == mem && p.ops == ops)
                .ok_or_else(|| format!("no frontier point at node #{}", u.0))?;
            let (c1, r1, c2, r2) = point.tag;
            let own = own_mem(tree, space, u, fused);
            let own_ops = tree.node_ops(u, space);
            let f1 = space.iteration_points(r1).max(1);
            let f2 = space.iteration_points(r2).max(1);
            for (s1, s2) in derive_child_state_options(state, c1.union(r1), c2.union(r2)) {
                let (s1, s2) = (strip(&s1, c1), strip(&s2, c2));
                let (Some(p1), Some(p2)) = (
                    memo.get(&(left.0, encode_state(&s1))),
                    memo.get(&(right.0, encode_state(&s2))),
                ) else {
                    continue;
                };
                for a in p1.points() {
                    for b in p2.points() {
                        if own.saturating_add(a.mem).saturating_add(b.mem) == mem
                            && own_ops
                                .saturating_add(f1.saturating_mul(a.ops))
                                .saturating_add(f2.saturating_mul(b.ops))
                                == ops
                        {
                            trace(tree, space, memo, left, &s1, r1, a.mem, a.ops, cfg)?;
                            trace(tree, space, memo, right, &s2, r2, b.mem, b.ops, cfg)?;
                            return Ok(());
                        }
                    }
                }
            }
            Err(format!("no consistent child points at node #{}", u.0))
        }
        let mut memo = Memo::new();
        let root_front = solve(tree, space, &mut memo, tree.root, &Vec::new(), max_points);
        let mut result = SpaceTimeFrontier::new();
        for point in root_front.points() {
            let mut cfg = SpaceTimeConfig::unfused(tree);
            let (mem, ops) = (point.mem, point.ops);
            trace(
                tree,
                space,
                &memo,
                tree.root,
                &Vec::new(),
                IndexSet::EMPTY,
                mem,
                ops,
                &mut cfg,
            )?;
            result.insert(mem, ops, cfg);
        }
        Ok(result)
    }

    /// Every term tree the pipeline plans for a shipped spec, after `edit`.
    fn spec_trees(name: &str, edit: impl Fn(String) -> String) -> Vec<(IndexSpace, OpTree)> {
        let path = format!(
            "{}/../../examples/specs/{name}.tce",
            env!("CARGO_MANIFEST_DIR")
        );
        let src = edit(std::fs::read_to_string(&path).unwrap());
        let syn = tce_core::synthesize(&src, &Default::default()).unwrap();
        let space = &syn.program.space;
        syn.plans
            .iter()
            .map(|term| (space.clone(), term.tree.clone()))
            .collect()
    }

    #[test]
    fn keyed_dp_matches_the_per_state_memo() {
        let (space, tree, ..) = a3a_like(4, 2, 100);
        let mut cases = vec![("a3a_like".to_string(), space, tree)];
        let specs = [
            spec_trees("a3a_energy", |s| s),
            spec_trees("ccsd_section2", |s| {
                s.replace("range N = 6;", "range N = 4;")
            }),
            spec_trees("cc_doubles", |s| s),
        ];
        for (i, (space, tree)) in specs.into_iter().flatten().enumerate() {
            cases.push((format!("spec term {i}"), space, tree));
        }
        for (i, (space, tree)) in random_trees().into_iter().enumerate() {
            cases.push((format!("random trial {i}"), space, tree));
        }
        for (at, space, tree) in &cases {
            for width in [usize::MAX, 3, 2] {
                let got = spacetime_dp(tree, space, width).map(|f| f.points().to_vec());
                let want = memo_spacetime_dp(tree, space, width).map(|f| f.points().to_vec());
                match (got, want) {
                    (Ok(got), Ok(want)) => assert_eq!(got, want, "{at} width {width}"),
                    (got, want) => assert_eq!(got.is_ok(), want.is_ok(), "{at} width {width}"),
                }
            }
        }
    }
}
