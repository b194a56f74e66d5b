//! Single-term operation minimization.
//!
//! Given one product term `Σ_{sum} F₁·F₂·…·Fₙ` with a required output index
//! set, find the binary contraction tree with the fewest arithmetic
//! operations.  This is the generalized matrix-chain problem of paper §2 —
//! NP-complete in general [Lam et al. 1997], solved exactly here by one
//! search plus an independent oracle:
//!
//! * [`optimize_pareto`] — dynamic programming over factor subsets that
//!   keeps, per subset, the (operations, largest intermediate) frontier;
//!   its first point is the operation-minimal tree.  Synthesis runs it for
//!   every term, and common-subexpression factorization reuses that first
//!   point;
//! * [`optimize_exhaustive`] — top-down enumeration of every split (oracle
//!   for tests; `n ≤ 12`).
//!
//! The *result indices* of any intermediate are fully determined by which
//! factors it covers: an index must be kept iff it appears in the output or
//! in a factor outside the subtree (keeping anything more only enlarges
//! every later iteration space, keeping less is incorrect), so the search
//! is over tree *shapes* only.

use tce_ir::{Factor, IndexSet, IndexSpace, Leaf, NodeId, OpTree, Product};

/// The most factors one term may have: [`optimize_pareto`] tabulates all
/// `2ⁿ` factor subsets, each with its own frontier.
pub const MAX_FACTORS: usize = 16;

/// A single-term optimization problem.
#[derive(Debug, Clone)]
pub struct OpMinProblem {
    /// Indices of the result (kept after all summations).
    pub output: IndexSet,
    /// The factors, as operator-tree leaves.
    pub factors: Vec<Leaf>,
}

/// Index set of a leaf.
pub fn leaf_indices(leaf: &Leaf) -> IndexSet {
    match leaf {
        Leaf::Input { indices, .. } | Leaf::Func { indices, .. } => {
            IndexSet::from_vars(indices.iter().copied())
        }
        Leaf::One => IndexSet::EMPTY,
    }
}

/// Why a product term is not a single-term optimization problem.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TermError {
    /// The term has no factors.
    Empty,
    /// The term has this many factors, more than [`MAX_FACTORS`].
    TooManyFactors(usize),
    /// These output indices appear in no factor of the term.
    MissingOutput(IndexSet),
}

impl TermError {
    /// The one-line diagnostic, naming missing indices as `space` does.
    #[must_use]
    pub fn describe(self, space: &IndexSpace) -> String {
        match self {
            Self::MissingOutput(set) => format!(
                "output index `{}` is missing from every factor",
                space.set_to_string(set)
            ),
            other => other.to_string(),
        }
    }
}

impl std::fmt::Display for TermError {
    /// Without an index space, missing indices are shown by number.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Empty => f.write_str("empty product"),
            Self::TooManyFactors(n) => write!(
                f,
                "a term has {n} factors, more than the {MAX_FACTORS} operation minimization supports"
            ),
            Self::MissingOutput(set) => {
                let ids: Vec<String> = set.iter().map(|v| format!("#{}", v.0)).collect();
                write!(f, "output index {} is missing from every factor", ids.join(","))
            }
        }
    }
}

impl From<TermError> for String {
    fn from(e: TermError) -> Self {
        e.to_string()
    }
}

impl OpMinProblem {
    /// Build a problem from a product term and the target's index set.
    ///
    /// # Errors
    /// The term is empty, has more than [`MAX_FACTORS`] factors, or lacks
    /// an output index.
    pub fn from_term(output: IndexSet, term: &Product) -> Result<Self, TermError> {
        if term.factors.is_empty() {
            return Err(TermError::Empty);
        }
        if term.factors.len() > MAX_FACTORS {
            return Err(TermError::TooManyFactors(term.factors.len()));
        }
        let factors: Vec<Leaf> = term
            .factors
            .iter()
            .map(|f| match f {
                Factor::Tensor(r) => Leaf::Input {
                    tensor: r.tensor,
                    indices: r.indices.clone(),
                },
                Factor::Func(func) => Leaf::Func {
                    name: func.name.clone(),
                    indices: func.indices.clone(),
                    cost_per_eval: func.cost_per_eval,
                },
            })
            .collect();
        let all = factors
            .iter()
            .fold(IndexSet::EMPTY, |s, f| s.union(leaf_indices(f)));
        if !output.is_subset(all) {
            return Err(TermError::MissingOutput(output.minus(all)));
        }
        Ok(Self { output, factors })
    }

    /// Number of factors.
    pub fn n(&self) -> usize {
        self.factors.len()
    }

    fn indices_of_mask(&self, mask: u32) -> IndexSet {
        let mut s = IndexSet::EMPTY;
        for (i, f) in self.factors.iter().enumerate() {
            if mask & (1 << i) != 0 {
                s = s.union(leaf_indices(f));
            }
        }
        s
    }

    /// The indices an intermediate covering exactly `mask` must retain:
    /// those of its factors that also appear in the output or in a factor
    /// outside `mask`.
    fn result_of_mask(&self, mask: u32) -> IndexSet {
        let full = (1u32 << self.n()) - 1;
        let needed = self.output.union(self.indices_of_mask(full & !mask));
        self.indices_of_mask(mask).inter(needed)
    }
}

/// An optimization outcome: the chosen tree and its contraction cost.
///
/// `contraction_ops` excludes leaf (integral-evaluation) cost, which is
/// identical for every tree shape; [`OpTree::total_ops`] on `tree` gives
/// the total including leaves.
#[derive(Debug, Clone)]
pub struct OptResult {
    /// The optimal operator tree.
    pub tree: OpTree,
    /// Flops spent in contraction nodes (2 per iteration point).
    pub contraction_ops: u128,
}

/// Append to `tree` the subtree described by `plan` (split choices per
/// mask), returning the subtree root.
fn build_tree(
    p: &OpMinProblem,
    tree: &mut OpTree,
    split: &dyn Fn(u32) -> u32,
    mask: u32,
) -> NodeId {
    if mask.count_ones() == 1 {
        let i = mask.trailing_zeros() as usize;
        let leaf = p.factors[i].clone();
        let id = match leaf {
            Leaf::Input { tensor, indices } => tree.leaf_input(tensor, indices),
            Leaf::Func {
                name,
                indices,
                cost_per_eval,
            } => tree.leaf_func(&name, indices, cost_per_eval),
            Leaf::One => tree.leaf_one(),
        };
        // Reduce immediately if the factor carries indices nothing else
        // needs (single-factor summation): Contract(leaf, 1).
        let want = p.result_of_mask(mask);
        if want != leaf_indices(&p.factors[i]) {
            let one = tree.leaf_one();
            return tree.contract(id, one, want);
        }
        return id;
    }
    let l_mask = split(mask);
    let r_mask = mask & !l_mask;
    let l = build_tree(p, tree, split, l_mask);
    let r = build_tree(p, tree, split, r_mask);
    tree.contract(l, r, p.result_of_mask(mask))
}

/// Cost (flops) of the contraction combining result sets `l` and `r`,
/// plus any singleton-reduction cost folded in by the caller.
fn combine_cost(space: &IndexSpace, l: IndexSet, r: IndexSet) -> u128 {
    space.iteration_points(l.union(r)).saturating_mul(2)
}

/// Cost of materializing a singleton factor (0 unless it needs an immediate
/// reduction).
fn singleton_cost(p: &OpMinProblem, space: &IndexSpace, i: usize) -> u128 {
    let ind = leaf_indices(&p.factors[i]);
    let want = p.result_of_mask(1 << i);
    if want == ind {
        0
    } else {
        space.iteration_points(ind).saturating_mul(2)
    }
}

/// Exhaustive enumeration of all binary trees (oracle).  Exponential; use
/// for `n ≤ 8`.
pub fn optimize_exhaustive(p: &OpMinProblem, space: &IndexSpace) -> OptResult {
    use std::collections::HashMap;
    let n = p.n();
    assert!(
        (1..=12).contains(&n),
        "exhaustive oracle limited to 12 factors"
    );
    let full: u32 = ((1u64 << n) - 1) as u32;

    // Recursive enumeration of the minimum over all splits — the same
    // recurrence as the frontier DP's first point, evaluated top-down and
    // keeping only the cost, so it serves as an independent implementation.
    fn go(
        p: &OpMinProblem,
        space: &IndexSpace,
        mask: u32,
        memo: &mut HashMap<u32, (u128, u32)>,
    ) -> u128 {
        if mask.count_ones() == 1 {
            return singleton_cost(p, space, mask.trailing_zeros() as usize);
        }
        if let Some(&(c, _)) = memo.get(&mask) {
            return c;
        }
        let low = mask & mask.wrapping_neg();
        let rest = mask & !low;
        let mut bestc = u128::MAX;
        let mut bestl = 0u32;
        let mut sub = rest;
        loop {
            let l_mask = sub | low;
            let r_mask = mask & !l_mask;
            if r_mask != 0 {
                let c = go(p, space, l_mask, memo)
                    .saturating_add(go(p, space, r_mask, memo))
                    .saturating_add(combine_cost(
                        space,
                        p.result_of_mask(l_mask),
                        p.result_of_mask(r_mask),
                    ));
                if c < bestc {
                    bestc = c;
                    bestl = l_mask;
                }
            }
            if sub == 0 {
                break;
            }
            sub = (sub - 1) & rest;
        }
        memo.insert(mask, (bestc, bestl));
        bestc
    }

    let mut memo = HashMap::new();
    let cost = go(p, space, full, &mut memo);
    let mut tree = OpTree::new();
    let split = |m: u32| memo.get(&m).map(|&(_, l)| l).unwrap_or(0);
    let root = build_tree(p, &mut tree, &split, full);
    tree.root = root;
    OptResult {
        tree,
        contraction_ops: cost,
    }
}

/// One point of the operations/memory trade-off over tree shapes.
#[derive(Debug, Clone)]
pub struct ParetoTree {
    /// The contraction tree.
    pub tree: OpTree,
    /// Contraction flops.
    pub ops: u128,
    /// Largest intermediate array (elements, unfused).
    pub max_intermediate: u128,
}

/// Pareto-optimal tree shapes over (operations, largest unfused
/// intermediate).  The paper's Fig. 5 feedback edge — "if no satisfactory
/// transformation is found, feedback is provided … causing it to seek a
/// different solution" — ultimately reaches the algebraic stage: a
/// slightly more expensive parenthesization may have fundamentally smaller
/// intermediates.  Returned sorted by increasing operations.
pub fn optimize_pareto(p: &OpMinProblem, space: &IndexSpace) -> Vec<ParetoTree> {
    let n = p.n();
    assert!(
        (1..=MAX_FACTORS).contains(&n),
        "pareto search limited to {MAX_FACTORS} factors"
    );
    let full: u32 = ((1u64 << n) - 1) as u32;

    /// (ops, max_intermediate, left split mask; 0 = leaf) plus indices of
    /// the child points used, for reconstruction.
    #[derive(Clone)]
    struct Point {
        ops: u128,
        mem: u128,
        split: u32,
        li: usize,
        ri: usize,
    }

    let mut table: Vec<Vec<Point>> = vec![Vec::new(); (full as usize) + 1];
    for i in 0..n {
        table[1usize << i] = vec![Point {
            ops: singleton_cost(p, space, i),
            mem: 0,
            split: 0,
            li: 0,
            ri: 0,
        }];
    }
    let mut result_cache = vec![IndexSet::EMPTY; (full as usize) + 1];
    for mask in 1..=full {
        result_cache[mask as usize] = p.result_of_mask(mask);
    }
    for mask in 1..=full {
        if mask.count_ones() <= 1 {
            continue;
        }
        let own_mem = if mask == full {
            0
        } else {
            space.iteration_points(result_cache[mask as usize])
        };
        let mut pts: Vec<Point> = Vec::new();
        let low = mask & mask.wrapping_neg();
        let rest = mask & !low;
        let mut sub = rest;
        loop {
            let l_mask = sub | low;
            let r_mask = mask & !l_mask;
            if r_mask != 0 {
                let combine = combine_cost(
                    space,
                    result_cache[l_mask as usize],
                    result_cache[r_mask as usize],
                );
                for (li, lp) in table[l_mask as usize].iter().enumerate() {
                    for (ri, rp) in table[r_mask as usize].iter().enumerate() {
                        let ops = lp.ops.saturating_add(rp.ops).saturating_add(combine);
                        let mem = lp.mem.max(rp.mem).max(own_mem);
                        pts.push(Point {
                            ops,
                            mem,
                            split: l_mask,
                            li,
                            ri,
                        });
                    }
                }
            }
            if sub == 0 {
                break;
            }
            sub = (sub - 1) & rest;
        }
        // Pareto-prune: sort by (ops, mem) and keep strictly improving mem.
        pts.sort_by_key(|q| (q.ops, q.mem));
        let mut front: Vec<Point> = Vec::new();
        let mut best_mem = u128::MAX;
        for q in pts {
            if q.mem < best_mem {
                best_mem = q.mem;
                front.push(q);
            }
        }
        table[mask as usize] = front;
    }

    // Materialize each root point's tree.
    fn build(
        p: &OpMinProblem,
        table: &[Vec<Point>],
        tree: &mut OpTree,
        mask: u32,
        pi: usize,
    ) -> NodeId {
        if mask.count_ones() == 1 {
            let split = |_m: u32| 0u32;
            return build_tree(p, tree, &split, mask);
        }
        let pt = &table[mask as usize][pi];
        let (l_mask, r_mask) = (pt.split, mask & !pt.split);
        let l = build(p, table, tree, l_mask, pt.li);
        let r = build(p, table, tree, r_mask, pt.ri);
        tree.contract(l, r, p.result_of_mask(mask))
    }

    let mut out = Vec::new();
    for (pi, pt) in table[full as usize].iter().enumerate() {
        let mut tree = OpTree::new();
        let root = build(p, &table, &mut tree, full, pi);
        tree.root = root;
        out.push(ParetoTree {
            tree,
            ops: pt.ops,
            max_intermediate: pt.mem,
        });
    }
    out
}

#[cfg(test)]
impl ParetoTree {
    fn mem_strictly_better(&self, prev: u128) -> bool {
        self.max_intermediate < prev
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tce_ir::{IndexSpace, TensorDecl, TensorTable};

    /// The §2 running example: S_abij = Σ_cdefkl A_acik B_befl C_dfjk D_cdel.
    fn section2(n_ext: usize) -> (IndexSpace, OpMinProblem) {
        let mut space = IndexSpace::new();
        let n = space.add_range("N", n_ext);
        let vs = space.add_vars("a b c d e f i j k l", n);
        let (a, b, c, d, e, f, i, j, k, l) = (
            vs[0], vs[1], vs[2], vs[3], vs[4], vs[5], vs[6], vs[7], vs[8], vs[9],
        );
        let mut tensors = TensorTable::new();
        let mk = |tab: &mut TensorTable, name: &str| tab.add(TensorDecl::dense(name, vec![n; 4]));
        let (ta, tb, tc, td) = (
            mk(&mut tensors, "A"),
            mk(&mut tensors, "B"),
            mk(&mut tensors, "C"),
            mk(&mut tensors, "D"),
        );
        let p = OpMinProblem {
            output: IndexSet::from_vars([a, b, i, j]),
            factors: vec![
                Leaf::Input {
                    tensor: ta,
                    indices: vec![a, c, i, k],
                },
                Leaf::Input {
                    tensor: tb,
                    indices: vec![b, e, f, l],
                },
                Leaf::Input {
                    tensor: tc,
                    indices: vec![d, f, j, k],
                },
                Leaf::Input {
                    tensor: td,
                    indices: vec![c, d, e, l],
                },
            ],
        };
        (space, p)
    }

    /// The operation-minimal tree: the frontier's first point.
    fn best(p: &OpMinProblem, space: &IndexSpace) -> ParetoTree {
        optimize_pareto(p, space).swap_remove(0)
    }

    #[test]
    fn finds_paper_6n6_optimum() {
        // Paper §2: the op-minimal BDCA form needs 6·N^6 operations.
        let (space, p) = section2(10);
        let dp = best(&p, &space);
        assert_eq!(dp.ops, 6 * 10u128.pow(6));
        dp.tree.validate().unwrap();
        assert_eq!(dp.tree.total_ops(&space), 6 * 10u128.pow(6));
    }

    #[test]
    fn all_three_methods_agree_on_section2() {
        for n in [4usize, 6, 7, 8, 10, 16, 30] {
            let (space, p) = section2(n);
            let dp = best(&p, &space);
            let ex = optimize_exhaustive(&p, &space);
            assert_eq!(dp.ops, ex.contraction_ops);
            assert_eq!(dp.ops, 6 * (n as u128).pow(6), "N = {n}");
            dp.tree.validate().unwrap();
            ex.tree.validate().unwrap();
            assert_eq!(ex.tree.total_ops(&space), ex.contraction_ops);
        }
    }

    #[test]
    fn matrix_chain_special_case() {
        // A[i,j]·B[j,k]·C[k,l] with skewed extents: classic matrix chain.
        // i:2, j:100, k:2, l:100 → (AB)C costs 2·(2·100·2) + 2·(2·2·100)
        // = 1600; A(BC) costs 2·(100·2·100)+2·(2·100·100) = 80000.
        let mut space = IndexSpace::new();
        let r2 = space.add_range("S", 2);
        let r100 = space.add_range("L", 100);
        let i = space.add_var("i", r2);
        let j = space.add_var("j", r100);
        let k = space.add_var("k", r2);
        let l = space.add_var("l", r100);
        let mut tensors = TensorTable::new();
        let ta = tensors.add(TensorDecl::dense("A", vec![r2, r100]));
        let tb = tensors.add(TensorDecl::dense("B", vec![r100, r2]));
        let tc = tensors.add(TensorDecl::dense("C", vec![r2, r100]));
        let p = OpMinProblem {
            output: IndexSet::from_vars([i, l]),
            factors: vec![
                Leaf::Input {
                    tensor: ta,
                    indices: vec![i, j],
                },
                Leaf::Input {
                    tensor: tb,
                    indices: vec![j, k],
                },
                Leaf::Input {
                    tensor: tc,
                    indices: vec![k, l],
                },
            ],
        };
        assert_eq!(best(&p, &space).ops, 1600);
        assert_eq!(optimize_exhaustive(&p, &space).contraction_ops, 1600);
    }

    #[test]
    fn single_factor_identity() {
        // Output = factor indices: tree is the bare leaf, zero cost.
        let mut space = IndexSpace::new();
        let n = space.add_range("N", 5);
        let i = space.add_var("i", n);
        let mut tensors = TensorTable::new();
        let ta = tensors.add(TensorDecl::dense("A", vec![n]));
        let p = OpMinProblem {
            output: i.singleton(),
            factors: vec![Leaf::Input {
                tensor: ta,
                indices: vec![i],
            }],
        };
        let dp = best(&p, &space);
        assert_eq!(dp.ops, 0);
        assert_eq!(dp.tree.len(), 1);
    }

    #[test]
    fn single_factor_reduction_uses_one_leaf() {
        // E = Σ_i A[i] — needs a unary reduction, expressed as A·1.
        let mut space = IndexSpace::new();
        let n = space.add_range("N", 5);
        let i = space.add_var("i", n);
        let mut tensors = TensorTable::new();
        let ta = tensors.add(TensorDecl::dense("A", vec![n]));
        let p = OpMinProblem {
            output: IndexSet::EMPTY,
            factors: vec![Leaf::Input {
                tensor: ta,
                indices: vec![i],
            }],
        };
        let dp = best(&p, &space);
        assert_eq!(dp.ops, 10); // 2·N
        dp.tree.validate().unwrap();
        assert_eq!(dp.tree.node(dp.tree.root).indices, IndexSet::EMPTY);
        assert!(dp
            .tree
            .nodes
            .iter()
            .any(|nd| matches!(nd.kind, tce_ir::OpKind::Leaf(Leaf::One))));
    }

    #[test]
    fn from_term_conversion_and_errors() {
        let (space, _) = section2(4);
        let a = space.var_by_name("a").unwrap();
        let z = IndexSet::from_vars([a]);
        let empty = tce_ir::Product {
            coeff: 1.0,
            factors: vec![],
        };
        assert_eq!(
            OpMinProblem::from_term(z, &empty).unwrap_err(),
            TermError::Empty
        );
        // An output index no factor carries is named.
        let (i, k) = (
            space.var_by_name("i").unwrap(),
            space.var_by_name("k").unwrap(),
        );
        let broadcast = tce_ir::Product {
            coeff: 1.0,
            factors: vec![Factor::Tensor(tce_ir::TensorRef::new(
                tce_ir::TensorId(0),
                vec![a, i],
            ))],
        };
        let err = OpMinProblem::from_term(IndexSet::from_vars([a, k]), &broadcast).unwrap_err();
        assert_eq!(
            err.describe(&space),
            "output index `k` is missing from every factor"
        );
    }

    #[test]
    fn from_term_rejects_more_than_max_factors() {
        // The chain S[x0,xn] = Σ A[x0,x1]·A[x1,x2]·…·A[x(n-1),xn]; only the
        // problem is built, no search runs.
        let mut space = IndexSpace::new();
        let r = space.add_range("N", 2);
        let xs: Vec<_> = (0..=MAX_FACTORS + 1)
            .map(|q| space.add_var(&format!("x{q}"), r))
            .collect();
        let mut tensors = TensorTable::new();
        let a = tensors.add(TensorDecl::dense("A", vec![r, r]));
        let chain = |n: usize| tce_ir::Product {
            coeff: 1.0,
            factors: (0..n)
                .map(|q| Factor::Tensor(tce_ir::TensorRef::new(a, vec![xs[q], xs[q + 1]])))
                .collect(),
        };
        let ends = |n: usize| IndexSet::from_vars([xs[0], xs[n]]);
        let p = OpMinProblem::from_term(ends(MAX_FACTORS), &chain(MAX_FACTORS)).unwrap();
        assert_eq!(p.n(), MAX_FACTORS);
        let err =
            OpMinProblem::from_term(ends(MAX_FACTORS + 1), &chain(MAX_FACTORS + 1)).unwrap_err();
        assert_eq!(
            err.describe(&space),
            "a term has 17 factors, more than the 16 operation minimization supports"
        );
    }

    #[test]
    fn randomized_dp_matches_oracle() {
        use tce_ir::rng::Rng;
        // Random 3-5 factor problems over 6 indices with mixed extents;
        // the frontier's first point must equal the exhaustive oracle.
        let mut rng = Rng::new(20020422);
        for trial in 0..60 {
            let mut space = IndexSpace::new();
            let r1 = space.add_range("P", rng.usize_in(2..6));
            let r2 = space.add_range("Q", rng.usize_in(2..12));
            let vars: Vec<_> = (0..6)
                .map(|q| space.add_var(&format!("x{q}"), if q % 2 == 0 { r1 } else { r2 }))
                .collect();
            let mut tensors = TensorTable::new();
            let nf = rng.usize_in(3..6);
            let mut factors = Vec::new();
            let mut used = IndexSet::EMPTY;
            for fi in 0..nf {
                let arity = rng.usize_in(1..4);
                let mut idxs = Vec::new();
                let mut set = IndexSet::EMPTY;
                for _ in 0..arity {
                    let v = vars[rng.usize_in(0..vars.len())];
                    if !set.contains(v) {
                        set.insert(v);
                        idxs.push(v);
                    }
                }
                used = used.union(set);
                let dims = idxs.iter().map(|&v| space.range_of(v)).collect();
                let t = tensors.add(TensorDecl::dense(&format!("T{trial}_{fi}"), dims));
                factors.push(Leaf::Input {
                    tensor: t,
                    indices: idxs,
                });
            }
            // Output: random subset of used indices.
            let mut output = IndexSet::EMPTY;
            for v in used.iter() {
                if rng.bool_with(0.4) {
                    output.insert(v);
                }
            }
            let p = OpMinProblem { output, factors };
            let dp = best(&p, &space);
            let ex = optimize_exhaustive(&p, &space);
            assert_eq!(dp.ops, ex.contraction_ops, "trial {trial}");
            dp.tree.validate().unwrap();
            ex.tree.validate().unwrap();
            assert_eq!(dp.tree.node(dp.tree.root).indices, output);
            assert_eq!(ex.tree.node(ex.tree.root).indices, output);
        }
    }

    #[test]
    fn intermediate_keeps_only_needed_indices() {
        let (space, p) = section2(10);
        let dp = best(&p, &space);
        // Every non-root internal node's indices must be needed later:
        // check none exceeds 4 dims (the paper's T1/T2 are 4-dim).
        for id in dp.tree.internal_postorder() {
            assert!(dp.tree.node(id).indices.len() <= 4);
        }
    }

    #[test]
    fn pareto_trees_sorted_and_valid() {
        let (space, p) = section2(10);
        let front = optimize_pareto(&p, &space);
        assert!(!front.is_empty());
        // First point is the operation-minimal tree (6·N^6).
        assert_eq!(front[0].ops, 6 * 10u128.pow(6));
        let mut last_ops = 0u128;
        let mut last_mem = u128::MAX;
        for pt in &front {
            pt.tree.validate().unwrap();
            assert!(pt.ops >= last_ops);
            assert!(pt.mem_strictly_better(last_mem));
            last_ops = pt.ops;
            last_mem = pt.max_intermediate;
            // The tree's actual costs match the point.
            assert_eq!(pt.tree.total_ops(&space), pt.ops);
            let max_inter = pt
                .tree
                .internal_postorder()
                .into_iter()
                .filter(|&id| id != pt.tree.root)
                .map(|id| space.iteration_points(pt.tree.node(id).indices))
                .max()
                .unwrap_or(0);
            assert_eq!(max_inter, pt.max_intermediate);
        }
    }

    #[test]
    fn pareto_can_trade_ops_for_smaller_intermediates() {
        // Skewed chain where the op-minimal tree has a big intermediate
        // and a costlier association avoids it: A[i,j]·B[j]·C[j,k] with
        // huge i,k.  (A·B)[i] then ·C is op-minimal with tiny temps; force
        // an interesting case instead: A[i,j]·B[j,k]·C[k] with i huge:
        // op-minimal is A·(B·C) (temp over {j}); the alternative (A·B)
        // has temp {i,k}.
        let mut space = IndexSpace::new();
        let big = space.add_range("BIG", 100);
        let small = space.add_range("SML", 2);
        let i = space.add_var("i", big);
        let j = space.add_var("j", small);
        let k = space.add_var("k", big);
        let mut tensors = TensorTable::new();
        let ta = tensors.add(TensorDecl::dense("A", vec![big, small]));
        let tb = tensors.add(TensorDecl::dense("B", vec![small, big]));
        let tc = tensors.add(TensorDecl::dense("C", vec![big]));
        let p = OpMinProblem {
            output: i.singleton(),
            factors: vec![
                Leaf::Input {
                    tensor: ta,
                    indices: vec![i, j],
                },
                Leaf::Input {
                    tensor: tb,
                    indices: vec![j, k],
                },
                Leaf::Input {
                    tensor: tc,
                    indices: vec![k],
                },
            ],
        };
        let front = optimize_pareto(&p, &space);
        // Both associations appear if neither dominates; the min-ops point
        // matches the exhaustive oracle.
        let ex = optimize_exhaustive(&p, &space);
        assert_eq!(front[0].ops, ex.contraction_ops);
        // Every non-first point has strictly smaller intermediates.
        for w in front.windows(2) {
            assert!(w[1].max_intermediate < w[0].max_intermediate);
            assert!(w[1].ops > w[0].ops);
        }
    }
}
