//! Memory-minimization dynamic program.
//!
//! Finds the fusion configuration minimizing the total size of temporary
//! intermediate arrays (paper §5) without changing the operation count.
//! The paper describes a bottom-up DP over pareto-optimal
//! (memory, constraint) pairs; here the "constraint" metric is made
//! explicit as the DP state: `M(u, σ)` is the minimal temporary memory of
//! the subtree rooted at `u` given that `u`'s parent edge fuses the
//! indices of the *nesting state* `σ` (an ordered partition — see
//! [`crate::nest`] for why the ordering is part of the state).  At each
//! contraction node the children's fused sets `(c₁, c₂)` are enumerated
//! subject to the chain-nesting legality captured by
//! [`crate::nest::derive_child_states`].
//!
//! [`memmin_bruteforce`] enumerates every legal configuration outright
//! (checked with the legality rule, [`crate::config::Lowering::new`]) and is used as
//! the oracle in tests.

use crate::config::{fusable_set, is_fusable_producer, FusionConfig};
use crate::nest::{derive_child_state_options, encode_state, NestState};
use std::collections::HashMap;
use tce_ir::{IndexSet, IndexSpace, Leaf, NodeId, OpKind, OpTree};

/// Result of memory minimization.
#[derive(Debug, Clone)]
pub struct MemMinResult {
    /// The chosen configuration.
    pub config: FusionConfig,
    /// Total temporary-array elements under the configuration.
    pub memory: u128,
}

/// Exact memory minimization by dynamic programming over nesting states.
///
/// Complexity is exponential in the per-node index counts (subsets ×
/// ordered partitions), which the paper notes "is small enough" in
/// practical applications.
pub fn memmin_dp(tree: &OpTree, space: &IndexSpace) -> MemMinResult {
    // memo: (node, encoded state) → (memory, chosen child states).  The
    // child states are stored directly (not just the chosen `(c1, c2)`)
    // because one `(c1, c2)` pair can admit several nesting refinements —
    // see `derive_child_state_options` — and the traceback must replay the
    // exact one the minimum was computed with.
    type Key = (u32, Vec<u64>);
    let mut memo: HashMap<Key, (u128, NestState, NestState)> = HashMap::new();

    fn solve(
        tree: &OpTree,
        space: &IndexSpace,
        memo: &mut HashMap<(u32, Vec<u64>), (u128, NestState, NestState)>,
        u: NodeId,
        state: &NestState,
    ) -> u128 {
        let key = (u.0, encode_state(state));
        if let Some((m, _, _)) = memo.get(&key) {
            return *m;
        }
        let p = state.iter().fold(IndexSet::EMPTY, |s, &c| s.union(c));
        let own = |p: IndexSet| -> u128 {
            if u == tree.root {
                0
            } else {
                space.iteration_points(tree.node(u).indices.minus(p))
            }
        };
        let result = match &tree.node(u).kind {
            OpKind::Leaf(Leaf::Input { .. }) | OpKind::Leaf(Leaf::One) => {
                (0u128, NestState::new(), NestState::new())
            }
            OpKind::Leaf(Leaf::Func { .. }) => (own(p), NestState::new(), NestState::new()),
            OpKind::Contract { left, right } => {
                let (l, r) = (*left, *right);
                let f1 = fusable_set(tree, l, u);
                let f2 = fusable_set(tree, r, u);
                let mut best = (u128::MAX, NestState::new(), NestState::new());
                for c1 in f1.subsets() {
                    for c2 in f2.subsets() {
                        for (s1, s2) in derive_child_state_options(state, c1, c2) {
                            let m = solve(tree, space, memo, l, &s1)
                                .saturating_add(solve(tree, space, memo, r, &s2));
                            if m < best.0 {
                                best = (m, s1, s2);
                            }
                        }
                    }
                }
                (own(p).saturating_add(best.0), best.1, best.2)
            }
        };
        let m = result.0;
        memo.insert(key, result);
        m
    }

    let root_state: NestState = Vec::new();
    let memory = solve(tree, space, &mut memo, tree.root, &root_state);

    // Trace back the chosen child states.
    let mut config = FusionConfig::unfused(tree);
    let mut stack: Vec<(NodeId, NestState)> = vec![(tree.root, root_state)];
    while let Some((u, state)) = stack.pop() {
        let p = state.iter().fold(IndexSet::EMPTY, |s, &c| s.union(c));
        config.set(u, p);
        if let OpKind::Contract { left, right } = tree.node(u).kind {
            let (_, s1, s2) = memo
                .get(&(u.0, encode_state(&state)))
                .expect("traceback state must have been solved")
                .clone();
            stack.push((left, s1));
            stack.push((right, s2));
        }
    }
    debug_assert!(config.check(tree).is_ok());
    debug_assert_eq!(config.temp_memory(tree, space), memory);
    if tce_trace::enabled() {
        tce_trace::counter("fusion.memmin_states", memo.len() as u64);
        tce_trace::counter_u128("fusion.memmin_elements", memory);
    }
    MemMinResult { config, memory }
}

/// Enumerate every legal fusion configuration (oracle; exponential).
pub fn enumerate_legal_configs(tree: &OpTree, space: &IndexSpace) -> Vec<(FusionConfig, u128)> {
    let parents = tree.parents();
    let edges: Vec<(NodeId, IndexSet)> = tree
        .postorder()
        .into_iter()
        .filter(|&id| id != tree.root && is_fusable_producer(tree, id))
        .map(|id| (id, fusable_set(tree, id, parents[id.0 as usize].unwrap())))
        .collect();
    let mut out = Vec::new();
    let mut config = FusionConfig::unfused(tree);
    fn rec(
        tree: &OpTree,
        space: &IndexSpace,
        edges: &[(NodeId, IndexSet)],
        i: usize,
        config: &mut FusionConfig,
        out: &mut Vec<(FusionConfig, u128)>,
    ) {
        if i == edges.len() {
            if config.check(tree).is_ok() {
                out.push((config.clone(), config.temp_memory(tree, space)));
            }
            return;
        }
        let (node, fs) = edges[i];
        for c in fs.subsets() {
            config.set(node, c);
            rec(tree, space, edges, i + 1, config, out);
        }
        config.set(node, IndexSet::EMPTY);
    }
    rec(tree, space, &edges, 0, &mut config, &mut out);
    out
}

/// Oracle: minimum temporary memory over all legal configurations.
pub fn memmin_bruteforce(tree: &OpTree, space: &IndexSpace) -> MemMinResult {
    let all = enumerate_legal_configs(tree, space);
    let (config, memory) = all
        .into_iter()
        .min_by_key(|&(_, m)| m)
        .expect("the unfused configuration is always legal");
    MemMinResult { config, memory }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::tests::fig1;
    use tce_ir::{TensorDecl, TensorTable};

    #[test]
    fn fig1_memmin_reduces_t1_to_scalar_t2_to_2d() {
        // Paper §2: "T1 can be reduced to a scalar and T2 to a
        // 2-dimensional array, without changing the number of operations."
        let (space, tree, t1, t2) = fig1(10);
        let r = memmin_dp(&tree, &space);
        assert_eq!(r.memory, 1 + 100);
        assert_eq!(r.config.array_indices(&tree, t1).len(), 0);
        assert_eq!(r.config.array_indices(&tree, t2).len(), 2);
        assert_eq!(
            r.config.array_indices(&tree, t2),
            space.parse_set("j,k").unwrap()
        );
        // Operation count is untouched by fusion (same tree).
        assert_eq!(tree.total_ops(&space), 6 * 10u128.pow(6));
    }

    #[test]
    fn fig1_dp_matches_bruteforce() {
        for n in [5, 10] {
            let (space, tree, _, _) = fig1(n);
            let dp = memmin_dp(&tree, &space);
            let bf = memmin_bruteforce(&tree, &space);
            assert_eq!(dp.memory, bf.memory, "N = {n}");
        }
    }

    #[test]
    fn func_leaf_pair_fuses_to_scalars() {
        let mut space = IndexSpace::new();
        let n = space.add_range("V", 7);
        let c = space.add_var("c", n);
        let e = space.add_var("e", n);
        let mut tree = OpTree::new();
        let f1 = tree.leaf_func("f1", vec![c, e], 1000);
        let f2 = tree.leaf_func("f2", vec![c, e], 1000);
        tree.contract(f1, f2, IndexSet::EMPTY);
        let r = memmin_dp(&tree, &space);
        assert_eq!(r.memory, 2);
        assert_eq!(r.config.get(f1), IndexSet::from_vars([c, e]));
        assert_eq!(r.config.get(f2), IndexSet::from_vars([c, e]));
    }

    #[test]
    fn randomized_dp_matches_bruteforce() {
        use tce_ir::rng::Rng;
        let mut rng = Rng::new(55_2002);
        for trial in 0..40 {
            let mut space = IndexSpace::new();
            let r1 = space.add_range("P", rng.usize_in(2..5));
            let r2 = space.add_range("Q", rng.usize_in(2..9));
            let vars: Vec<_> = (0..5)
                .map(|q| space.add_var(&format!("x{q}"), if q % 2 == 0 { r1 } else { r2 }))
                .collect();
            let mut tensors = TensorTable::new();
            let mut tree = OpTree::new();
            let nleaves = rng.usize_in(3..5);
            let mut nodes: Vec<NodeId> = (0..nleaves)
                .map(|li| {
                    let arity = rng.usize_in(1..4);
                    let mut set = IndexSet::EMPTY;
                    let mut idxs = Vec::new();
                    for _ in 0..arity {
                        let v = vars[rng.usize_in(0..vars.len())];
                        if !set.contains(v) {
                            set.insert(v);
                            idxs.push(v);
                        }
                    }
                    if rng.bool_with(0.3) {
                        tree.leaf_func(&format!("f{trial}_{li}"), idxs, 100)
                    } else {
                        let dims = idxs.iter().map(|&v| space.range_of(v)).collect();
                        let t = tensors.add(TensorDecl::dense(&format!("T{trial}_{li}"), dims));
                        tree.leaf_input(t, idxs)
                    }
                })
                .collect();
            while nodes.len() > 1 {
                let a = nodes.swap_remove(rng.usize_in(0..nodes.len()));
                let b = nodes.swap_remove(rng.usize_in(0..nodes.len()));
                let combined = tree.node(a).indices.union(tree.node(b).indices);
                let mut keep = IndexSet::EMPTY;
                for v in combined.iter() {
                    if rng.bool_with(0.6) {
                        keep.insert(v);
                    }
                }
                nodes.push(tree.contract(a, b, keep));
            }
            let dp = memmin_dp(&tree, &space);
            let bf = memmin_bruteforce(&tree, &space);
            assert_eq!(dp.memory, bf.memory, "trial {trial}");
            dp.config.check(&tree).unwrap();
            assert_eq!(dp.config.temp_memory(&tree, &space), dp.memory);
        }
    }

    #[test]
    fn regression_shared_class_refined_inconsistently() {
        // tce-fuzz found a tree where the DP returned a configuration that
        // failed its own legality check: a nesting class flowing into both
        // children of the root was refined in opposite orders by the two
        // subtrees, composing into partially overlapping chain scopes.
        // Minimized repro (all extents 2).
        let mut space = IndexSpace::new();
        let r0 = space.add_range("r0", 2);
        let vs = space.add_vars("x0 x1 x2 x3", r0);
        let (x0, x1, x2, x3) = (vs[0], vs[1], vs[2], vs[3]);
        let mut tensors = TensorTable::new();
        let t0 = tensors.add(TensorDecl::dense("t0", vec![r0; 3]));
        let mut tree = OpTree::new();
        let g0 = tree.leaf_func("g0", vec![x3, x2, x0], 2);
        let one = tree.leaf_one();
        let n2 = tree.contract(g0, one, IndexSet::from_vars([x0, x2]));
        let l0 = tree.leaf_input(t0, vec![x0, x2, x1]);
        let n4 = tree.contract(n2, l0, IndexSet::from_vars([x0, x1, x2]));
        let g1 = tree.leaf_func("g1", vec![x0, x1], 3);
        let g2 = tree.leaf_func("g2", vec![x1], 14);
        let n7 = tree.contract(g1, g2, IndexSet::from_vars([x0, x1]));
        tree.contract(n4, n7, IndexSet::from_vars([x0, x1, x2]));
        let dp = memmin_dp(&tree, &space);
        dp.config.check(&tree).unwrap();
        let bf = memmin_bruteforce(&tree, &space);
        assert_eq!(dp.memory, bf.memory);
        assert_eq!(dp.config.temp_memory(&tree, &space), dp.memory);
    }

    #[test]
    fn memmin_never_worse_than_unfused() {
        let (space, tree, _, _) = fig1(6);
        let unfused = FusionConfig::unfused(&tree).temp_memory(&tree, &space);
        let r = memmin_dp(&tree, &space);
        assert!(r.memory <= unfused);
    }
}
