//! Fusion chains (paper §5).
//!
//! Fusing more than two loop nests on an index produces a *fusion chain*;
//! the *scope* of a chain is the set of operator-tree nodes it spans.
//! "The scope of any two fusion chains in a fusion graph must either be
//! disjoint or a subset/superset of each other.  Scopes of fusion chains
//! do not partially overlap because loops do not."
//!
//! [`chains_of`] extracts every chain of a configuration; the legality
//! rule ([`crate::config::Lowering::new`]) tests their scopes, and the
//! schedule ([`crate::schedule`]) turns them into loops.

use crate::config::FusionConfig;
use tce_ir::{IndexSet, IndexVar, NodeId, OpTree};

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
    pub(crate) fn scope_mask(&self) -> u128 {
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
        cfg.check(&tree).unwrap();
    }

    #[test]
    fn partially_overlapping_scopes_rejected() {
        let (space, tree, t1, t2) = fig1(4);
        let mut cfg = FusionConfig::unfused(&tree);
        // T2 fused on j,k with S; T1 fused on d,f with T2: d/f chains span
        // {T1,T2}, j/k chains span {T2,S} — partial overlap at T2.
        cfg.set(t2, space.parse_set("j,k").unwrap());
        cfg.set(t1, space.parse_set("d,f").unwrap());
        let err = cfg.lowering(&tree).unwrap_err();
        assert_eq!(
            err.describe(&space),
            "chains on `d` and `j` have partially overlapping scopes"
        );
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
        cfg.check(&tree).unwrap();
        let chains = chains_of(&tree, &cfg);
        assert_eq!(chains.len(), 1);
        assert_eq!(chains[0].scope.len(), 3);
    }
}
