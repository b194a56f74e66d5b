//! Fusion chains and the paper's global scope-nesting condition.
//!
//! Fusing more than two loop nests on an index produces a *fusion chain*
//! (paper §5); the *scope* of a chain is the set of operator-tree nodes it
//! spans.  "The scope of any two fusion chains in a fusion graph must
//! either be disjoint or a subset/superset of each other.  Scopes of fusion
//! chains do not partially overlap because loops do not."
//!
//! [`chains_of`] extracts every chain of a configuration and
//! [`check_chainwise`] applies the global condition directly.  This is the
//! oracle the local pattern-comparability check in
//! [`crate::config::FusionConfig::check`] is validated against.

use crate::config::{fusable_set, FusionConfig};
use tce_ir::{IndexSet, IndexSpace, IndexVar, NodeId, OpTree};

/// One fusion chain: a maximal connected set of tree edges fused on the
/// same index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Chain {
    /// The fused index.
    pub index: IndexVar,
    /// The nodes the chain spans (its *scope*), as a sorted list.
    pub scope: Vec<NodeId>,
}

impl Chain {
    /// Scope as a bitmask over node ids (trees here are far smaller than
    /// 128 nodes).
    fn scope_mask(&self) -> u128 {
        self.scope.iter().fold(0u128, |m, n| m | (1u128 << n.0))
    }
}

/// Extract all fusion chains of `config`: for each index, the connected
/// components of the set of tree edges whose fused set contains it.
pub fn chains_of(tree: &OpTree, config: &FusionConfig) -> Vec<Chain> {
    assert!(tree.len() <= 128, "chain analysis limited to 128 nodes");
    let parents = tree.parents();
    let mut out = Vec::new();
    // Union-find over nodes, rebuilt per index (trees are small).
    let mut all_indices = IndexSet::EMPTY;
    for id in tree.postorder() {
        all_indices = all_indices.union(config.get(id));
    }
    for x in all_indices.iter() {
        let mut parent_uf: Vec<usize> = (0..tree.len()).collect();
        fn find(uf: &mut [usize], mut i: usize) -> usize {
            while uf[i] != i {
                uf[i] = uf[uf[i]];
                i = uf[i];
            }
            i
        }
        let mut involved = vec![false; tree.len()];
        for id in tree.postorder() {
            if config.get(id).contains(x) {
                let u = parents[id.0 as usize].expect("root cannot be fused");
                involved[id.0 as usize] = true;
                involved[u.0 as usize] = true;
                let (a, b) = (
                    find(&mut parent_uf, id.0 as usize),
                    find(&mut parent_uf, u.0 as usize),
                );
                parent_uf[a] = b;
            }
        }
        let mut groups: std::collections::HashMap<usize, Vec<NodeId>> = Default::default();
        for (i, &inv) in involved.iter().enumerate() {
            if inv {
                let r = find(&mut parent_uf, i);
                groups.entry(r).or_default().push(NodeId(i as u32));
            }
        }
        for (_, mut scope) in groups {
            scope.sort();
            out.push(Chain { index: x, scope });
        }
    }
    // Deterministic order: by index then first scope node.
    out.sort_by_key(|c| (c.index, c.scope.first().copied()));
    out
}

/// Two chains, on these indices, whose scopes partially overlap: the
/// configuration breaks the paper's global feasibility condition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScopeOverlap(pub IndexVar, pub IndexVar);

impl ScopeOverlap {
    /// The one-line diagnostic, naming both indices.
    pub fn describe(self, space: &IndexSpace) -> String {
        format!(
            "chains on `{}` and `{}` have partially overlapping scopes",
            space.var_name(self.0),
            space.var_name(self.1)
        )
    }
}

/// Without an index space to name them, the indices print as ids.
impl std::fmt::Display for ScopeOverlap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "chains on index ids {} and {} have partially overlapping scopes",
            self.0 .0, self.1 .0
        )
    }
}

/// Scope-nesting part of the feasibility condition only (no basic
/// well-formedness): every pair of chain scopes must be disjoint or
/// nested.
pub fn check_scopes(tree: &OpTree, config: &FusionConfig) -> Result<(), ScopeOverlap> {
    let chains = chains_of(tree, config);
    for (i, a) in chains.iter().enumerate() {
        let ma = a.scope_mask();
        for b in &chains[i + 1..] {
            let mb = b.scope_mask();
            let inter = ma & mb;
            if inter != 0 && inter != ma && inter != mb {
                return Err(ScopeOverlap(a.index, b.index));
            }
        }
    }
    Ok(())
}

/// The paper's global feasibility condition, checked directly: every pair
/// of chain scopes must be disjoint or nested.  Also re-checks that each
/// fused set is within the edge's fusable set.  Diagnostics name indices
/// from `space`.
pub fn check_chainwise(
    tree: &OpTree,
    config: &FusionConfig,
    space: &IndexSpace,
) -> Result<(), String> {
    if !config.get(tree.root).is_empty() {
        return Err("root has no parent edge to fuse".into());
    }
    let parents = tree.parents();
    for id in tree.postorder() {
        if id == tree.root {
            continue;
        }
        let u = parents[id.0 as usize].unwrap();
        if !config.get(id).is_subset(fusable_set(tree, id, u)) {
            return Err(format!(
                "edge {}→{}: fused set outside the fusable set",
                id.0, u.0
            ));
        }
    }
    check_scopes(tree, config).map_err(|overlap| overlap.describe(space))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::tests::fig1;
    use tce_ir::{IndexSpace, TensorDecl, TensorTable};

    #[test]
    fn chains_of_fig1c() {
        let (space, tree, t1, t2) = fig1(4);
        let mut cfg = FusionConfig::unfused(&tree);
        cfg.set(t1, space.parse_set("b,c,d,f").unwrap());
        cfg.set(t2, space.parse_set("b,c").unwrap());
        let chains = chains_of(&tree, &cfg);
        // b and c chains span T1→T2→S (scope of 3 nodes); d and f span
        // T1→T2 (2 nodes).
        assert_eq!(chains.len(), 4);
        let by_index: Vec<(u8, usize)> =
            chains.iter().map(|c| (c.index.0, c.scope.len())).collect();
        let b = space.var_by_name("b").unwrap().0;
        let c = space.var_by_name("c").unwrap().0;
        let d = space.var_by_name("d").unwrap().0;
        let f = space.var_by_name("f").unwrap().0;
        assert!(by_index.contains(&(b, 3)));
        assert!(by_index.contains(&(c, 3)));
        assert!(by_index.contains(&(d, 2)));
        assert!(by_index.contains(&(f, 2)));
        check_chainwise(&tree, &cfg, &space).unwrap();
    }

    #[test]
    fn partially_overlapping_scopes_rejected() {
        let (space, tree, t1, t2) = fig1(4);
        let mut cfg = FusionConfig::unfused(&tree);
        // T2 fused on j,k with S; T1 fused on d,f with T2: d/f chains span
        // {T1,T2}, j/k chains span {T2,S} — partial overlap at T2.
        cfg.set(t2, space.parse_set("j,k").unwrap());
        cfg.set(t1, space.parse_set("d,f").unwrap());
        let err = check_chainwise(&tree, &cfg, &space).unwrap_err();
        assert_eq!(
            err, "chains on `d` and `j` have partially overlapping scopes",
            "{err}"
        );
        // The local pattern check agrees.
        assert!(cfg.check(&tree).is_err());
    }

    #[test]
    fn disjoint_scopes_allowed() {
        // Two independent fused pairs in different subtrees.
        let mut space = IndexSpace::new();
        let n = space.add_range("N", 3);
        let i = space.add_var("i", n);
        let j = space.add_var("j", n);
        let mut tensors = TensorTable::new();
        let t =
            |tab: &mut TensorTable, nm: &str, k: usize| tab.add(TensorDecl::dense(nm, vec![n; k]));
        let (ta, tb, tc, td) = (
            t(&mut tensors, "A", 2),
            t(&mut tensors, "B", 2),
            t(&mut tensors, "C", 2),
            t(&mut tensors, "D", 2),
        );
        let mut tree = OpTree::new();
        // X[i] = Σ_j A[i,j]B[i,j]? — build X = A·B keeping {i}, Y = C·D
        // keeping {i}; R = Σ_i X·Y.
        let la = tree.leaf_input(ta, vec![i, j]);
        let lb = tree.leaf_input(tb, vec![i, j]);
        let x = tree.contract(la, lb, i.singleton());
        let lc = tree.leaf_input(tc, vec![i, j]);
        let ld = tree.leaf_input(td, vec![i, j]);
        let y = tree.contract(lc, ld, i.singleton());
        tree.contract(x, y, IndexSet::EMPTY);
        let mut cfg = FusionConfig::unfused(&tree);
        cfg.set(x, i.singleton());
        cfg.set(y, i.singleton());
        // One i-chain spanning {X, Y, root}: legal.
        check_chainwise(&tree, &cfg, &space).unwrap();
        cfg.check(&tree).unwrap();
        let chains = chains_of(&tree, &cfg);
        assert_eq!(chains.len(), 1);
        assert_eq!(chains[0].scope.len(), 3);
    }

    #[test]
    fn local_and_global_checks_agree_on_random_configs() {
        use tce_ir::rng::Rng;
        // Randomized equivalence: on random trees, enumerate random fused
        // sets per edge and compare the local pattern check with the
        // global chain-scope condition.
        let mut rng = Rng::new(7_2002);
        for trial in 0..200 {
            let mut space = IndexSpace::new();
            let n = space.add_range("N", 3);
            let vars: Vec<_> = (0..6).map(|q| space.add_var(&format!("x{q}"), n)).collect();
            let mut tensors = TensorTable::new();
            let mut tree = OpTree::new();
            // Random tree over 3-4 leaves.
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
                    let dims = idxs.iter().map(|&v| space.range_of(v)).collect();
                    let t = tensors.add(TensorDecl::dense(&format!("T{trial}_{li}"), dims));
                    tree.leaf_input(t, idxs)
                })
                .collect();
            while nodes.len() > 1 {
                let a = nodes.swap_remove(rng.usize_in(0..nodes.len()));
                let b = nodes.swap_remove(rng.usize_in(0..nodes.len()));
                let combined = tree.node(a).indices.union(tree.node(b).indices);
                // Keep a random subset of the combined indices.
                let mut keep = IndexSet::EMPTY;
                for v in combined.iter() {
                    if rng.bool_with(0.6) {
                        keep.insert(v);
                    }
                }
                nodes.push(tree.contract(a, b, keep));
            }
            // Random configuration.
            let parents = tree.parents();
            let mut cfg = FusionConfig::unfused(&tree);
            for id in tree.postorder() {
                if id == tree.root {
                    continue;
                }
                let u = parents[id.0 as usize].unwrap();
                let fs = fusable_set(&tree, id, u);
                let mut pick = IndexSet::EMPTY;
                for v in fs.iter() {
                    if rng.bool_with(0.5) {
                        pick.insert(v);
                    }
                }
                cfg.set(id, pick);
            }
            let local = cfg.check(&tree).is_ok();
            let global = check_chainwise(&tree, &cfg, &space).is_ok();
            assert_eq!(
                local, global,
                "trial {trial}: local={local} global={global} cfg={:?}",
                cfg.fused
            );
        }
    }
}
