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
//! Legality is the pattern-comparability rule of `tce-fusion`, applied to
//! the *structural* labels `c ∪ r` — with the parent's redundant part
//! excluded, because a loop that is redundant for this node wraps its whole
//! emission transparently and constrains nothing below it.

#![allow(clippy::type_complexity, clippy::too_many_arguments)]

use crate::pareto::Pareto;
use std::collections::HashMap;
use tce_fusion::chains::check_scopes;
use tce_fusion::config::{fusable_set, is_fusable_producer, FusionConfig};
use tce_fusion::nest::{derive_child_state_options, encode_state, NestState};
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

    /// The configuration as the two inputs every lowering takes
    /// (`fused_program_with_labels`, `execute_tree_fused_with_labels`):
    /// the *chain labels* — fused ∪ redundant per edge, which define the
    /// loop structure — and the *array configuration* — the fused part
    /// alone, which defines the array shapes and the modeled memory.
    ///
    /// # Errors
    /// Returns an error when the chain scopes are not nested (an illegal
    /// configuration — the DPs never produce one).
    pub fn lowering_configs(&self, tree: &OpTree) -> Result<(FusionConfig, FusionConfig), String> {
        let chain_labels = FusionConfig {
            fused: self
                .fused
                .iter()
                .zip(&self.redundant)
                .map(|(&f, &r)| f.union(r))
                .collect(),
        };
        let array_config = FusionConfig {
            fused: self.fused.clone(),
        };
        check_scopes(tree, &chain_labels)?;
        Ok((chain_labels, array_config))
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

/// Candidate redundant set for an edge: parent loops the child does not
/// have (only meaningful for producers).
pub fn redundant_candidates(tree: &OpTree, child: NodeId, parent: NodeId) -> IndexSet {
    if !is_fusable_producer(tree, child) {
        return IndexSet::EMPTY;
    }
    tree.loop_indices(parent).minus(tree.loop_indices(child))
}

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
    // State = (node, nesting state over the *fused* part of the parent
    // label).  The parent's redundant part is transparent (it wraps the
    // whole subtree emission) and enters only through the ops factor the
    // parent applies; the nesting state threads chain-scope legality (see
    // tce-fusion::nest).
    type Tag = (IndexSet, IndexSet, IndexSet, IndexSet);
    type Key = (u32, Vec<u64>);
    let mut memo: HashMap<Key, Pareto<Tag>> = HashMap::new();

    fn solve(
        tree: &OpTree,
        space: &IndexSpace,
        memo: &mut HashMap<(u32, Vec<u64>), Pareto<(IndexSet, IndexSet, IndexSet, IndexSet)>>,
        u: NodeId,
        state: &NestState,
        max_points: usize,
    ) -> Pareto<(IndexSet, IndexSet, IndexSet, IndexSet)> {
        let key = (u.0, encode_state(state));
        if let Some(p) = memo.get(&key) {
            return p.clone();
        }
        let fused = state.iter().fold(IndexSet::EMPTY, |s, &c| s.union(c));
        let own_mem = if u == tree.root || !is_fusable_producer(tree, u) {
            0
        } else {
            space.iteration_points(tree.node(u).indices.minus(fused))
        };
        let own_ops = tree.node_ops(u, space);
        let mut out: Pareto<(IndexSet, IndexSet, IndexSet, IndexSet)> = Pareto::new();
        match &tree.node(u).kind {
            OpKind::Leaf(_) => {
                out.insert(own_mem, own_ops, Default::default());
            }
            OpKind::Contract { left, right } => {
                let (l, r) = (*left, *right);
                for (c1, r1) in edge_labels(tree, l, u) {
                    for (c2, r2) in edge_labels(tree, r, u) {
                        // Legality over the structural labels c ∪ r; a
                        // label pair can admit several nesting refinements
                        // (shared classes ordered at this node), each a
                        // separate DP branch.
                        for (s1, s2) in
                            derive_child_state_options(state, c1.union(r1), c2.union(r2))
                        {
                            // Children see only the fused part of their
                            // label; redundant loops are transparent below.
                            let s1 = strip_transparent(&s1, c1);
                            let s2 = strip_transparent(&s2, c2);
                            let f1 = space.iteration_points(r1).max(1);
                            let f2 = space.iteration_points(r2).max(1);
                            let p1 = solve(tree, space, memo, l, &s1, max_points);
                            let p2 = solve(tree, space, memo, r, &s2, max_points);
                            for a in p1.points() {
                                for b in p2.points() {
                                    let mem = own_mem.saturating_add(a.mem).saturating_add(b.mem);
                                    let ops = own_ops
                                        .saturating_add(f1.saturating_mul(a.ops))
                                        .saturating_add(f2.saturating_mul(b.ops));
                                    out.insert(mem, ops, (c1, r1, c2, r2));
                                }
                            }
                        }
                    }
                }
            }
        }
        // Optional width bound: keep the lowest-memory and lowest-ops ends.
        let out = if out.len() > max_points {
            let pts = out.points().to_vec();
            let mut trimmed = Pareto::new();
            let stride = pts.len().div_ceil(max_points);
            for (i, p) in pts.iter().enumerate() {
                if i % stride == 0 || i == pts.len() - 1 {
                    trimmed.insert(p.mem, p.ops, p.tag);
                }
            }
            trimmed
        } else {
            out
        };
        memo.insert(key, out.clone());
        out
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
                // Redundant loops only pay off when they enable fusion —
                // but enumerate all; pareto pruning discards useless ones.
                out.push((c, r));
            }
        }
        out
    }

    let root_state: NestState = Vec::new();
    let root_front = solve(tree, space, &mut memo, tree.root, &root_state, max_points);

    // Reconstruct a full configuration for each root point by replaying
    // the DP choices.  (Frontiers are small; replay is cheap.)
    let mut result: SpaceTimeFrontier = Pareto::new();
    for point in root_front.points() {
        let mut cfg = SpaceTimeConfig::unfused(tree);
        trace(
            tree,
            space,
            &memo,
            tree.root,
            &root_state,
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

/// Drop transparent (redundant) indices from a derived state, keeping
/// only the fused part `c`; empty classes vanish.
fn strip_transparent(state: &NestState, c: IndexSet) -> NestState {
    state
        .iter()
        .map(|cl| cl.inter(c))
        .filter(|cl| !cl.is_empty())
        .collect()
}

/// Replay the DP to find the child labels that realize `(mem, ops)` at
/// state `(u, state, redundant)`, filling `cfg`.  Errors (naming the
/// offending node) instead of panicking when no consistent replay exists.
#[allow(clippy::too_many_arguments)]
fn trace(
    tree: &OpTree,
    space: &IndexSpace,
    memo: &HashMap<(u32, Vec<u64>), Pareto<(IndexSet, IndexSet, IndexSet, IndexSet)>>,
    u: NodeId,
    state: &NestState,
    redundant: IndexSet,
    mem: u128,
    ops: u128,
    cfg: &mut SpaceTimeConfig,
) -> Result<(), String> {
    let fused = state.iter().fold(IndexSet::EMPTY, |s, &c| s.union(c));
    cfg.fused[u.0 as usize] = fused;
    cfg.redundant[u.0 as usize] = redundant;
    if let OpKind::Contract { left, right } = tree.node(u).kind {
        let front = memo
            .get(&(u.0, encode_state(state)))
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
        let own_mem = if u == tree.root || !is_fusable_producer(tree, u) {
            0
        } else {
            space.iteration_points(tree.node(u).indices.minus(fused))
        };
        let own_ops = tree.node_ops(u, space);
        let f1 = space.iteration_points(r1).max(1);
        let f2 = space.iteration_points(r2).max(1);
        let candidates = derive_child_state_options(state, c1.union(r1), c2.union(r2));
        if candidates.is_empty() {
            return Err(format!(
                "spacetime traceback: chosen labels not derivable at node #{}",
                u.0
            ));
        }
        // The tag records the labels but not which nesting refinement the
        // point came from; try each candidate against the memo.
        for (s1, s2) in candidates {
            let (s1, s2) = (strip_transparent(&s1, c1), strip_transparent(&s2, c2));
            let (Some(p1), Some(p2)) = (
                memo.get(&(left.0, encode_state(&s1))),
                memo.get(&(right.0, encode_state(&s2))),
            ) else {
                continue;
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
                        trace(tree, space, memo, left, &s1, r1, a.mem, a.ops, cfg)?;
                        trace(tree, space, memo, right, &s2, r2, b.mem, b.ops, cfg)?;
                        return Ok(());
                    }
                }
            }
        }
        return Err(format!(
            "spacetime traceback: no consistent child points for (mem={mem}, ops={ops}) \
             at contraction node #{} (children #{}, #{}) — frontier pruning may have \
             dropped the realizing points; retry with a larger max_points",
            u.0, left.0, right.0
        ));
    }
    // Leaves: nothing further.
    let _ = space;
    Ok(())
}

/// Brute-force oracle: enumerate every `(fused, redundant)` label
/// assignment, check legality with the global chain-scope condition on the
/// structural labels, and collect the exact pareto frontier.  Exponential —
/// tiny trees only.
pub fn spacetime_bruteforce(tree: &OpTree, space: &IndexSpace) -> Pareto<SpaceTimeConfig> {
    use tce_fusion::chains::check_scopes;
    use tce_fusion::FusionConfig;
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
            // Legality: chain scopes on the structural labels c ∪ r.
            let mut labels = tce_fusion::FusionConfig::unfused(tree);
            for id in tree.postorder() {
                let q = id.0 as usize;
                labels.set(id, cfg.fused[q].union(cfg.redundant[q]));
            }
            if tce_fusion::chains::check_scopes(tree, &labels).is_ok() {
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
    let _ = (check_scopes as fn(&OpTree, &FusionConfig) -> Result<(), String>,);
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

    #[test]
    fn dp_frontier_matches_bruteforce_on_random_trees() {
        use tce_ir::rng::Rng;
        let mut rng = Rng::new(99_2002);
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
            let dp = spacetime_dp(&tree, &space, usize::MAX).unwrap();
            let bf = spacetime_bruteforce(&tree, &space);
            let dpp: Vec<(u128, u128)> = dp.points().iter().map(|p| (p.mem, p.ops)).collect();
            let bfp: Vec<(u128, u128)> = bf.points().iter().map(|p| (p.mem, p.ops)).collect();
            assert_eq!(dpp, bfp, "trial {trial}");
        }
    }
}
