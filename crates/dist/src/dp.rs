//! The data-distribution dynamic program (paper §7).
//!
//! Bottom-up over the operator tree: for every node `u` and candidate
//! result distribution `α`, `Cost(u, α)` is the cheapest way to produce
//! `u`'s value distributed as `α`:
//!
//! * stored-input leaves start in any non-replicated distribution for
//!   free; replicated targets pay the cheapest broadcast
//!   (`Cost(v,α) = min_{NoReplicate(β)} MoveCost(v, β, α)`);
//! * function-evaluation leaves are computed in place under `α` (replicas
//!   recompute; no communication);
//! * a contraction chooses a loop-space distribution `γ`, pays the
//!   children at their implied operand distributions (`γ` projected onto
//!   each operand's indices), the per-processor computation, the
//!   partial-sum reduction when a summation index is distributed
//!   (combined to one processor or replicated — the paper's `min_{i=1,2}`),
//!   and a final redistribution to `α`.
//!
//! The chosen `γ`/mode per state is saved in `Dist(u, α)` and traced back
//! top-down, exactly as in the paper's step 3.  Complexity `O(q²·|T|)`
//! states×transitions with `q = O(mⁿ)` tuples.

use crate::cost::{after_reduction, calc_cost, move_cost, reduce_cost, ReduceMode};
use crate::tuple::{enumerate_tuples, DistTuple};
use std::collections::HashMap;
use tce_ir::{IndexSet, IndexSpace, IndexVar, Leaf, NodeId, OpKind, OpTree};
use tce_par::ProcessorGrid;

/// The conventional abstract communication price: moving one word costs
/// as much as 100 flops.  A machine still carrying this default adopts a
/// measured rate when a calibration profile is loaded; an explicit
/// non-default `word_cost` always wins.
pub const DEFAULT_WORD_COST: u128 = 100;

/// Machine model: the grid plus the cost (in flop units) of moving one
/// array element between processors.
#[derive(Debug, Clone)]
pub struct Machine {
    /// Logical processor grid.
    pub grid: ProcessorGrid,
    /// Flops-equivalent cost of communicating one element.
    pub word_cost: u128,
}

impl Machine {
    /// Conventional model: communication [`DEFAULT_WORD_COST`]× the cost
    /// of a flop.
    pub fn new(grid: ProcessorGrid) -> Self {
        Self {
            grid,
            word_cost: DEFAULT_WORD_COST,
        }
    }
}

/// The optimized plan.
#[derive(Debug, Clone)]
pub struct DistPlan {
    /// Total cost (per-processor flops + weighted communication).
    pub total_cost: u128,
    /// Distribution of each node's result, indexed by `NodeId.0`.
    pub node_dist: Vec<Option<DistTuple>>,
    /// Loop-space distribution and reduce mode per contraction node.
    pub node_gamma: Vec<Option<(DistTuple, ReduceMode)>>,
    /// For input leaves that must end up replicated: the non-replicated
    /// distribution they are read in before broadcasting.
    pub node_input_source: Vec<Option<DistTuple>>,
}

/// A node's distribution tuples, enumerated once: a tuple's id is its
/// position in [`enumerate_tuples`] order.
#[derive(Default)]
struct Tuples {
    list: Vec<DistTuple>,
    ids: HashMap<DistTuple, u32>,
}

impl Tuples {
    fn new(vars: IndexSet, rank: usize) -> Self {
        let list = enumerate_tuples(vars, rank);
        let ids = (0..).zip(&list).map(|(i, t)| (t.clone(), i)).collect();
        Self { list, ids }
    }

    fn id(&self, tuple: &DistTuple) -> u32 {
        self.ids[tuple]
    }
}

/// `move_cost` between tuple ids of one array shape, each pair priced on
/// first use and kept.  [`enumerate_tuples`] places variables by their
/// position in the array's dimension order, so nodes whose extent lists
/// agree map id-for-id onto one table.  Only priced pairs are stored: the
/// DP prices a small share of the q² pairs, and q grows like
/// `(n + 2)^rank` for an `n`-index array.
struct MoveTable {
    /// The dims of the first node of this shape, whose tuples are priced.
    node: NodeId,
    dims: Vec<IndexVar>,
    /// `(β, α)` → elements moved.
    cells: HashMap<(u32, u32), u128>,
}

#[derive(Clone, Copy)]
enum Choice {
    /// Read in this non-replicated tuple id, then broadcast.
    InputFrom(u32),
    /// Candidate index of the contraction.
    Compute(u32),
    None,
}

/// One way to produce a contraction node's value: loop distribution
/// `gamma` and reduce `mode`, costed (`pre`: children, computation,
/// reduction) up to the distribution `after` it leaves the result in —
/// everything of `Cost(u, α)` except the final move to `α`.
struct Candidate {
    /// Position in `(γ, mode)` enumeration order.
    index: usize,
    pre: u128,
    after: u32,
    gamma: DistTuple,
    mode: ReduceMode,
    /// γ's projections onto the left and right operands.
    left: u32,
    right: u32,
}

/// `Cost(u, α)` for every node and tuple id, computed bottom-up.
struct Dp<'a> {
    tree: &'a OpTree,
    space: &'a IndexSpace,
    machine: &'a Machine,
    tuples: Vec<Tuples>,
    /// Per node, the index of its [`MoveTable`]; 0, never read, for nodes
    /// whose array never moves.
    table_of: Vec<usize>,
    tables: Vec<MoveTable>,
    /// Per node and tuple id: the cost and the choice that realizes it.
    states: Vec<Vec<(u128, Choice)>>,
    /// Per contraction node, the α-independent part of `Cost(u, α)`: the
    /// cheapest candidate per `after` distribution (earliest on ties),
    /// ordered by enumeration index.
    candidates: Vec<Vec<Candidate>>,
}

impl<'a> Dp<'a> {
    fn new(tree: &'a OpTree, space: &'a IndexSpace, machine: &'a Machine) -> Self {
        let rank = machine.grid.rank();
        let mut tuples: Vec<Tuples> = (0..tree.len()).map(|_| Tuples::default()).collect();
        let mut table_of = vec![0; tree.len()];
        let mut tables: Vec<MoveTable> = Vec::new();
        let mut by_shape: HashMap<Vec<usize>, usize> = HashMap::new();
        for u in tree.postorder() {
            let node = tree.node(u);
            tuples[u.0 as usize] = Tuples::new(node.indices, rank);
            if !matches!(
                node.kind,
                OpKind::Contract { .. } | OpKind::Leaf(Leaf::Input { .. })
            ) {
                continue;
            }
            let dims: Vec<IndexVar> = node.indices.iter().collect();
            let shape = dims.iter().map(|&v| space.extent(v)).collect();
            table_of[u.0 as usize] = *by_shape.entry(shape).or_insert_with(|| {
                tables.push(MoveTable {
                    node: u,
                    dims,
                    cells: HashMap::new(),
                });
                tables.len() - 1
            });
        }
        Self {
            tree,
            space,
            machine,
            tuples,
            table_of,
            tables,
            states: vec![Vec::new(); tree.len()],
            candidates: (0..tree.len()).map(|_| Vec::new()).collect(),
        }
    }

    /// `MoveCost` of node `u`'s array from tuple id `beta` to `alpha`, in
    /// flop units.
    fn moved(&mut self, u: NodeId, beta: u32, alpha: u32) -> u128 {
        let (space, grid) = (self.space, &self.machine.grid);
        let table = &mut self.tables[self.table_of[u.0 as usize]];
        let list = &self.tuples[table.node.0 as usize].list;
        let elements = *table.cells.entry((beta, alpha)).or_insert_with(|| {
            let (b, a) = (&list[beta as usize], &list[alpha as usize]);
            move_cost(&table.dims, space, grid, b, a)
        });
        elements.saturating_mul(self.machine.word_cost)
    }

    /// `move_cost` evaluations so far: the pairs priced over all tables.
    fn move_cost_evals(&self) -> u64 {
        self.tables.iter().map(|t| t.cells.len() as u64).sum()
    }

    /// Fill `Cost(u, α)` for every α of `u`; its children are done.
    fn solve(&mut self, u: NodeId) {
        let tree = self.tree;
        let indices = tree.node(u).indices;
        let q = self.tuples[u.0 as usize].list.len() as u32;
        let states: Vec<(u128, Choice)> = match &tree.node(u).kind {
            OpKind::Leaf(Leaf::One) => vec![(0, Choice::None); q as usize],
            OpKind::Leaf(Leaf::Input { .. }) => {
                let list = &self.tuples[u.0 as usize].list;
                let plain: Vec<bool> = list.iter().map(|t| t.no_replicate(indices)).collect();
                let sources: Vec<u32> = (0..q).filter(|&b| plain[b as usize]).collect();
                (0..q)
                    .map(|alpha| {
                        if plain[alpha as usize] {
                            return (0, Choice::None);
                        }
                        let mut best = (u128::MAX, Choice::None);
                        for &beta in &sources {
                            let c = self.moved(u, beta, alpha);
                            if c < best.0 {
                                best = (c, Choice::InputFrom(beta));
                            }
                        }
                        best
                    })
                    .collect()
            }
            OpKind::Leaf(Leaf::Func { cost_per_eval, .. }) => self.tuples[u.0 as usize]
                .list
                .iter()
                .map(|alpha| {
                    let c = calc_cost(
                        indices,
                        *cost_per_eval as u128,
                        self.space,
                        &self.machine.grid,
                        alpha,
                    );
                    (c, Choice::None)
                })
                .collect(),
            &OpKind::Contract { left, right } => {
                let candidates = self.contraction_candidates(u, left, right);
                // Candidates sharing `after` differ only in `pre`, so the
                // first strict minimum over the kept ones is the first
                // strict minimum over all `(γ, mode)`: the least total,
                // earliest index on ties.  Visiting them cheapest `pre`
                // first, a `pre` above the best total ends the search.
                let mut by_pre: Vec<u32> = (0..candidates.len() as u32).collect();
                by_pre.sort_by_key(|&k| candidates[k as usize].pre);
                let states = (0..q)
                    .map(|alpha| {
                        let mut best = (u128::MAX, Choice::None);
                        for &k in &by_pre {
                            let cand = &candidates[k as usize];
                            let earlier = matches!(best.1, Choice::Compute(b) if k < b);
                            if cand.pre > best.0 {
                                break;
                            }
                            if cand.pre == best.0 && !earlier {
                                continue;
                            }
                            let c = cand.pre.saturating_add(self.moved(u, cand.after, alpha));
                            if c < best.0 || (c == best.0 && earlier) {
                                best = (c, Choice::Compute(k));
                            }
                        }
                        best
                    })
                    .collect();
                self.candidates[u.0 as usize] = candidates;
                states
            }
        };
        self.states[u.0 as usize] = states;
    }

    /// Every `(γ, mode)` of contraction node `u` costed once, then reduced
    /// to the cheapest per `after` distribution.
    fn contraction_candidates(&self, u: NodeId, l: NodeId, r: NodeId) -> Vec<Candidate> {
        let (space, grid, word_cost) = (self.space, &self.machine.grid, self.machine.word_cost);
        let indices = self.tree.node(u).indices;
        let loops = self.tree.loop_indices(u);
        let sums = self.tree.sum_indices(u);
        let at = |w: NodeId| (&self.tuples[w.0 as usize], &self.states[w.0 as usize]);
        let ((lt, ls), (rt, rs)) = (at(l), at(r));
        let own = &self.tuples[u.0 as usize];
        let mut kept: Vec<Candidate> = Vec::new();
        let mut by_after: Vec<Option<usize>> = vec![None; own.list.len()];
        let mut index = 0;
        for gamma in enumerate_tuples(loops, grid.rank()) {
            let left = lt.id(&gamma.project(self.tree.node(l).indices));
            let right = rt.id(&gamma.project(self.tree.node(r).indices));
            let base = ls[left as usize]
                .0
                .saturating_add(rs[right as usize].0)
                .saturating_add(calc_cost(loops, 2, space, grid, &gamma));
            let modes: &[ReduceMode] = if gamma.vars().inter(sums) != IndexSet::EMPTY {
                &[ReduceMode::Combine, ReduceMode::Replicate]
            } else {
                &[ReduceMode::Combine]
            };
            for &mode in modes {
                let after = own.id(&after_reduction(&gamma, indices, sums, mode));
                let pre = base.saturating_add(
                    reduce_cost(indices, sums, space, grid, &gamma, mode).saturating_mul(word_cost),
                );
                let slot = by_after[after as usize];
                if slot.is_none_or(|k| pre < kept[k].pre) {
                    let cand = Candidate {
                        index,
                        pre,
                        after,
                        gamma: gamma.clone(),
                        mode,
                        left,
                        right,
                    };
                    match slot {
                        Some(k) => kept[k] = cand,
                        None => {
                            by_after[after as usize] = Some(kept.len());
                            kept.push(cand);
                        }
                    }
                }
                index += 1;
            }
        }
        kept.sort_by_key(|c| c.index);
        kept
    }
}

/// Run the distribution DP and trace back the optimal assignment.
pub fn optimize_distribution(tree: &OpTree, space: &IndexSpace, machine: &Machine) -> DistPlan {
    let mut dp = Dp::new(tree, space, machine);
    for u in tree.postorder() {
        dp.solve(u);
    }
    tce_trace::counter("dist.move_cost_evals", dp.move_cost_evals());

    // Step 3: the cheapest root distribution, then the top-down traceback
    // of `Dist(u, α)`.
    let root = &dp.states[tree.root.0 as usize];
    let mut best = 0;
    for (alpha, state) in root.iter().enumerate() {
        if state.0 < root[best].0 {
            best = alpha;
        }
    }
    let total_cost = root[best].0;
    let mut node_dist: Vec<Option<DistTuple>> = vec![None; tree.len()];
    let mut node_gamma: Vec<Option<(DistTuple, ReduceMode)>> = vec![None; tree.len()];
    let mut node_input_source: Vec<Option<DistTuple>> = vec![None; tree.len()];
    let mut stack = vec![(tree.root, best as u32)];
    while let Some((u, alpha)) = stack.pop() {
        let (i, a) = (u.0 as usize, alpha as usize);
        node_dist[i] = Some(dp.tuples[i].list[a].clone());
        match dp.states[i][a].1 {
            Choice::Compute(k) => {
                let cand = &dp.candidates[i][k as usize];
                if let OpKind::Contract { left, right } = tree.node(u).kind {
                    stack.push((left, cand.left));
                    stack.push((right, cand.right));
                }
                node_gamma[i] = Some((cand.gamma.clone(), cand.mode));
            }
            Choice::InputFrom(beta) => {
                node_input_source[i] = Some(dp.tuples[i].list[beta as usize].clone());
            }
            Choice::None => {}
        }
    }
    DistPlan {
        total_cost,
        node_dist,
        node_gamma,
        node_input_source,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tce_ir::{TensorDecl, TensorId, TensorTable};

    /// C[i,j] = Σ_k A[i,k]·B[k,j].
    fn matmul(n: usize) -> (IndexSpace, OpTree) {
        let mut space = IndexSpace::new();
        let r = space.add_range("N", n);
        let (i, j, k) = (
            space.add_var("i", r),
            space.add_var("j", r),
            space.add_var("k", r),
        );
        let mut tensors = TensorTable::new();
        let ta = tensors.add(TensorDecl::dense("A", vec![r, r]));
        let tb = tensors.add(TensorDecl::dense("B", vec![r, r]));
        let mut tree = OpTree::new();
        let la = tree.leaf_input(ta, vec![i, k]);
        let lb = tree.leaf_input(tb, vec![k, j]);
        tree.contract(la, lb, IndexSet::from_vars([i, j]));
        (space, tree)
    }

    #[test]
    fn single_processor_grid_costs_sequential_flops() {
        let (space, tree) = matmul(8);
        let machine = Machine::new(ProcessorGrid::new(vec![1]));
        let plan = optimize_distribution(&tree, &space, &machine);
        // No communication possible or needed; cost = 2·N³.
        assert_eq!(plan.total_cost, 2 * 512);
    }

    #[test]
    fn distributing_a_parallel_dim_speeds_up_matmul() {
        let (space, tree) = matmul(16);
        let machine = Machine {
            grid: ProcessorGrid::new(vec![4]),
            word_cost: 0, // pure computation view
        };
        let plan = optimize_distribution(&tree, &space, &machine);
        // Best γ distributes i or j (free: operands start blocked), giving
        // 2·N³/4 per processor.
        assert_eq!(plan.total_cost, 2 * 16u128.pow(3) / 4);
        let (gamma, _) = plan.node_gamma[tree.root.0 as usize].as_ref().unwrap();
        // The distributed variable is a result index, not the contraction
        // index (which would force a reduction).
        let sums = tree.sum_indices(tree.root);
        assert!(gamma.vars().inter(sums).is_empty());
    }

    #[test]
    fn communication_cost_discourages_replication() {
        let (space, tree) = matmul(8);
        let cheap_comm = Machine {
            grid: ProcessorGrid::new(vec![8]),
            word_cost: 0,
        };
        let dear_comm = Machine {
            grid: ProcessorGrid::new(vec![8]),
            word_cost: 10_000,
        };
        let p1 = optimize_distribution(&tree, &space, &cheap_comm);
        let p2 = optimize_distribution(&tree, &space, &dear_comm);
        assert!(p1.total_cost <= p2.total_cost);
        // With free communication the full grid is used.
        assert_eq!(p1.total_cost, 2 * 512 / 8);
    }

    #[test]
    fn two_dim_grid_uses_both_dims() {
        let (space, tree) = matmul(16);
        let machine = Machine {
            grid: ProcessorGrid::new(vec![2, 2]),
            word_cost: 0,
        };
        let plan = optimize_distribution(&tree, &space, &machine);
        assert_eq!(plan.total_cost, 2 * 16u128.pow(3) / 4);
    }

    #[test]
    fn distributed_sum_requires_reduction_cost() {
        // Force γ to distribute only k by using a 1-D grid and making the
        // operands' free indices tiny: S = Σ_k a[k]·b[k] (dot product).
        let mut space = IndexSpace::new();
        let r = space.add_range("N", 64);
        let k = space.add_var("k", r);
        let mut tensors = TensorTable::new();
        let ta = tensors.add(TensorDecl::dense("a", vec![r]));
        let tb = tensors.add(TensorDecl::dense("b", vec![r]));
        let mut tree = OpTree::new();
        let la = tree.leaf_input(ta, vec![k]);
        let lb = tree.leaf_input(tb, vec![k]);
        tree.contract(la, lb, IndexSet::EMPTY);
        let machine = Machine {
            grid: ProcessorGrid::new(vec![4]),
            word_cost: 1,
        };
        let plan = optimize_distribution(&tree, &space, &machine);
        // Distribute k: calc 2·64/4 = 32, reduce scalar over p=4: 2 words.
        assert_eq!(plan.total_cost, 32 + 2);
        let (gamma, mode) = plan.node_gamma[tree.root.0 as usize].as_ref().unwrap();
        assert!(gamma.vars().contains(k));
        assert_eq!(*mode, ReduceMode::Combine);
    }

    #[test]
    fn plan_assigns_every_contract_node() {
        let (space, tree) = matmul(8);
        let machine = Machine::new(ProcessorGrid::new(vec![2, 2]));
        let plan = optimize_distribution(&tree, &space, &machine);
        for id in tree.internal_postorder() {
            assert!(plan.node_gamma[id.0 as usize].is_some());
            assert!(plan.node_dist[id.0 as usize].is_some());
        }
    }

    #[test]
    fn move_table_stores_only_the_pairs_it_prices() {
        // A 6-index array on a 4-D grid has over 2,000 tuples, so a dense
        // q×q table of u128 would take tens of MB per shape.
        let mut space = IndexSpace::new();
        let r = space.add_range("N", 8);
        let vars: Vec<IndexVar> = (0..6).map(|i| space.add_var(&format!("x{i}"), r)).collect();
        let mut tree = OpTree::new();
        let leaf = tree.leaf_input(TensorId(0), vars.clone());
        let one = tree.leaf_one();
        let root = tree.contract(leaf, one, IndexSet::from_vars(vars.iter().copied()));
        let machine = Machine::new(ProcessorGrid::new(vec![2, 2, 2, 2]));
        let mut dp = Dp::new(&tree, &space, &machine);
        let q = dp.tuples[leaf.0 as usize].list.len() as u32;
        assert!(q > 2000, "q = {q}");
        let list = dp.tuples[leaf.0 as usize].list.clone();
        for k in 0..100 {
            let (beta, alpha) = (k * 7, q - 1 - k);
            let want = move_cost(
                &vars,
                &space,
                &machine.grid,
                &list[beta as usize],
                &list[alpha as usize],
            );
            // The root shares the leaf's shape, and so its table.
            for u in [leaf, root, leaf] {
                assert_eq!(dp.moved(u, beta, alpha), want * DEFAULT_WORD_COST);
            }
        }
        assert_eq!(dp.tables.len(), 1);
        assert_eq!(dp.move_cost_evals(), 100);
        let bytes = dp.tables[0].cells.capacity() * std::mem::size_of::<((u32, u32), u128)>();
        assert!(bytes < 64 << 10, "{bytes} bytes for 100 pairs");
    }

    /// The DP as a top-down recursion memoized on `(node, tuple)`, each
    /// `move_cost` computed on demand — the reference the interned DP must
    /// reproduce plan for plan.
    struct MemoDp<'a> {
        tree: &'a OpTree,
        space: &'a IndexSpace,
        machine: &'a Machine,
        memo: HashMap<(u32, DistTuple), (u128, MemoChoice)>,
        /// Per contraction node, the cheapest candidate per `after`
        /// distribution, in enumeration order.
        candidates: HashMap<u32, Vec<MemoCandidate>>,
    }

    /// `(index, pre, after, γ, mode)` of one `(γ, mode)` candidate.
    type MemoCandidate = (usize, u128, DistTuple, DistTuple, ReduceMode);

    #[derive(Clone)]
    enum MemoChoice {
        InputFrom(DistTuple),
        Compute(DistTuple, ReduceMode),
        None,
    }

    fn dims_of(tree: &OpTree, u: NodeId) -> Vec<IndexVar> {
        tree.node(u).indices.iter().collect()
    }

    impl<'a> MemoDp<'a> {
        fn new(tree: &'a OpTree, space: &'a IndexSpace, machine: &'a Machine) -> Self {
            Self {
                tree,
                space,
                machine,
                memo: HashMap::new(),
                candidates: HashMap::new(),
            }
        }

        /// `Cost(u, α)` with the α-independent part of a contraction
        /// hoisted into its candidates.
        fn cost(&mut self, u: NodeId, alpha: &DistTuple) -> u128 {
            let key = (u.0, alpha.clone());
            if let Some(&(c, _)) = self.memo.get(&key) {
                return c;
            }
            let (space, grid, word_cost) = (self.space, &self.machine.grid, self.machine.word_cost);
            let indices = self.tree.node(u).indices;
            let dims = dims_of(self.tree, u);
            let result = match &self.tree.node(u).kind {
                OpKind::Leaf(Leaf::One) => (0, MemoChoice::None),
                OpKind::Leaf(Leaf::Input { .. }) if alpha.no_replicate(indices) => {
                    (0, MemoChoice::None)
                }
                OpKind::Leaf(Leaf::Input { .. }) => {
                    let mut best = (u128::MAX, MemoChoice::None);
                    for beta in enumerate_tuples(indices, grid.rank()) {
                        if !beta.no_replicate(indices) {
                            continue;
                        }
                        let c =
                            move_cost(&dims, space, grid, &beta, alpha).saturating_mul(word_cost);
                        if c < best.0 {
                            best = (c, MemoChoice::InputFrom(beta));
                        }
                    }
                    best
                }
                OpKind::Leaf(Leaf::Func { cost_per_eval, .. }) => (
                    calc_cost(indices, *cost_per_eval as u128, space, grid, alpha),
                    MemoChoice::None,
                ),
                OpKind::Contract { .. } => {
                    if !self.candidates.contains_key(&u.0) {
                        let candidates = self.contraction_candidates(u);
                        self.candidates.insert(u.0, candidates);
                    }
                    let mut best = (u128::MAX, MemoChoice::None);
                    for (_, pre, after, gamma, mode) in &self.candidates[&u.0] {
                        let c = pre.saturating_add(
                            move_cost(&dims, space, grid, after, alpha).saturating_mul(word_cost),
                        );
                        if c < best.0 {
                            best = (c, MemoChoice::Compute(gamma.clone(), *mode));
                        }
                    }
                    best
                }
            };
            self.memo.insert(key, result.clone());
            result.0
        }

        fn contraction_candidates(&mut self, u: NodeId) -> Vec<MemoCandidate> {
            let OpKind::Contract { left: l, right: r } = self.tree.node(u).kind else {
                unreachable!("contraction node");
            };
            let (space, grid, word_cost) = (self.space, &self.machine.grid, self.machine.word_cost);
            let indices = self.tree.node(u).indices;
            let loops = self.tree.loop_indices(u);
            let sums = self.tree.sum_indices(u);
            let mut kept: Vec<MemoCandidate> = Vec::new();
            let mut by_after: HashMap<DistTuple, usize> = HashMap::new();
            let mut index = 0;
            for gamma in enumerate_tuples(loops, grid.rank()) {
                let child_l = gamma.project(self.tree.node(l).indices);
                let child_r = gamma.project(self.tree.node(r).indices);
                let base = self
                    .cost(l, &child_l)
                    .saturating_add(self.cost(r, &child_r))
                    .saturating_add(calc_cost(loops, 2, space, grid, &gamma));
                let modes: &[ReduceMode] = if gamma.vars().inter(sums) != IndexSet::EMPTY {
                    &[ReduceMode::Combine, ReduceMode::Replicate]
                } else {
                    &[ReduceMode::Combine]
                };
                for &mode in modes {
                    let after = after_reduction(&gamma, indices, sums, mode);
                    let pre = base.saturating_add(
                        reduce_cost(indices, sums, space, grid, &gamma, mode)
                            .saturating_mul(word_cost),
                    );
                    let cand = (index, pre, after.clone(), gamma.clone(), mode);
                    index += 1;
                    match by_after.get(&after) {
                        Some(&k) if kept[k].1 <= pre => {}
                        Some(&k) => kept[k] = cand,
                        None => {
                            by_after.insert(after, kept.len());
                            kept.push(cand);
                        }
                    }
                }
            }
            kept.sort_by_key(|c| c.0);
            kept
        }
    }

    /// `Cost(u, α)` before the α-independent part was hoisted: every
    /// `(γ, mode)` of a contraction re-costed for every α.
    fn oracle_cost(dp: &mut MemoDp, u: NodeId, alpha: &DistTuple) -> u128 {
        let OpKind::Contract { left: l, right: r } = dp.tree.node(u).kind else {
            return dp.cost(u, alpha);
        };
        let key = (u.0, alpha.clone());
        if let Some(&(c, _)) = dp.memo.get(&key) {
            return c;
        }
        let (space, grid, word_cost) = (dp.space, &dp.machine.grid, dp.machine.word_cost);
        let indices = dp.tree.node(u).indices;
        let loops = dp.tree.loop_indices(u);
        let sums = dp.tree.sum_indices(u);
        let dims = dims_of(dp.tree, u);
        let mut best = (u128::MAX, MemoChoice::None);
        for gamma in enumerate_tuples(loops, grid.rank()) {
            let child_l = gamma.project(dp.tree.node(l).indices);
            let child_r = gamma.project(dp.tree.node(r).indices);
            let base = oracle_cost(dp, l, &child_l)
                .saturating_add(oracle_cost(dp, r, &child_r))
                .saturating_add(calc_cost(loops, 2, space, grid, &gamma));
            let modes: &[ReduceMode] = if gamma.vars().inter(sums) != IndexSet::EMPTY {
                &[ReduceMode::Combine, ReduceMode::Replicate]
            } else {
                &[ReduceMode::Combine]
            };
            for &mode in modes {
                let after = after_reduction(&gamma, indices, sums, mode);
                let c = base
                    .saturating_add(
                        reduce_cost(indices, sums, space, grid, &gamma, mode)
                            .saturating_mul(word_cost),
                    )
                    .saturating_add(
                        move_cost(&dims, space, grid, &after, alpha).saturating_mul(word_cost),
                    );
                if c < best.0 {
                    best = (c, MemoChoice::Compute(gamma.clone(), mode));
                }
            }
        }
        dp.memo.insert(key, best.clone());
        best.0
    }

    /// Step 3 and the traceback over the states `cost` memoised.
    fn memo_plan<'a>(
        dp: &mut MemoDp<'a>,
        cost: fn(&mut MemoDp<'a>, NodeId, &DistTuple) -> u128,
    ) -> DistPlan {
        let tree = dp.tree;
        let mut best: Option<(u128, DistTuple)> = None;
        for alpha in enumerate_tuples(tree.node(tree.root).indices, dp.machine.grid.rank()) {
            let c = cost(dp, tree.root, &alpha);
            if best.as_ref().map(|(b, _)| c < *b).unwrap_or(true) {
                best = Some((c, alpha));
            }
        }
        let (total_cost, root_alpha) = best.expect("at least one tuple exists");
        let mut node_dist: Vec<Option<DistTuple>> = vec![None; tree.len()];
        let mut node_gamma: Vec<Option<(DistTuple, ReduceMode)>> = vec![None; tree.len()];
        let mut node_input_source: Vec<Option<DistTuple>> = vec![None; tree.len()];
        let mut stack = vec![(tree.root, root_alpha)];
        while let Some((u, alpha)) = stack.pop() {
            let (_, choice) = dp.memo[&(u.0, alpha.clone())].clone();
            node_dist[u.0 as usize] = Some(alpha);
            match choice {
                MemoChoice::Compute(gamma, mode) => {
                    if let OpKind::Contract { left, right } = tree.node(u).kind {
                        stack.push((left, gamma.project(tree.node(left).indices)));
                        stack.push((right, gamma.project(tree.node(right).indices)));
                    }
                    node_gamma[u.0 as usize] = Some((gamma, mode));
                }
                MemoChoice::InputFrom(beta) => node_input_source[u.0 as usize] = Some(beta),
                MemoChoice::None => {}
            }
        }
        DistPlan {
            total_cost,
            node_dist,
            node_gamma,
            node_input_source,
        }
    }

    /// Every term tree the pipeline plans for each shipped spec.
    fn spec_trees(names: &[&str]) -> Vec<(String, IndexSpace, OpTree)> {
        let mut out = Vec::new();
        for name in names {
            let path = format!(
                "{}/../../examples/specs/{name}.tce",
                env!("CARGO_MANIFEST_DIR")
            );
            let src = std::fs::read_to_string(&path).unwrap();
            let syn = tce_core::synthesize(&src, &Default::default()).unwrap();
            for term in &syn.plans {
                let at = format!("{name} term {}", term.stmt_index);
                out.push((at, syn.program.space.clone(), term.tree.clone()));
            }
        }
        out
    }

    fn assert_same_plan(got: &DistPlan, want: &DistPlan, at: &str) {
        assert_eq!(got.total_cost, want.total_cost, "{at}");
        assert_eq!(got.node_dist, want.node_dist, "{at}");
        assert_eq!(got.node_gamma, want.node_gamma, "{at}");
        assert_eq!(got.node_input_source, want.node_input_source, "{at}");
    }

    #[test]
    fn hoisted_candidates_match_the_per_alpha_recursion() {
        for (at, space, tree) in spec_trees(&["ccsd_section2", "cc_doubles"]) {
            for dims in [vec![2, 2], vec![2, 4], vec![2, 2, 2]] {
                let machine = Machine::new(ProcessorGrid::new(dims.clone()));
                let got = optimize_distribution(&tree, &space, &machine);
                let want = memo_plan(&mut MemoDp::new(&tree, &space, &machine), oracle_cost);
                assert_same_plan(&got, &want, &format!("{at} grid {dims:?}"));
            }
        }
    }

    #[test]
    fn interned_dp_matches_the_memoized_recursion_on_every_spec() {
        // Rank 4 is left out: the memoized recursion takes seconds there.
        // Cheap words make many totals tie, so the earliest-index rule is
        // exercised as well as the minimum.
        let specs = ["a3a_energy", "cc_doubles", "ccsd_section2", "matrix_chain"];
        for (at, space, tree) in spec_trees(&specs) {
            for dims in [vec![2, 2], vec![2, 4], vec![2, 2, 2], vec![4]] {
                for word_cost in [DEFAULT_WORD_COST, 1, 0] {
                    let grid = ProcessorGrid::new(dims.clone());
                    let machine = Machine { grid, word_cost };
                    let got = optimize_distribution(&tree, &space, &machine);
                    let want = memo_plan(&mut MemoDp::new(&tree, &space, &machine), MemoDp::cost);
                    let at = format!("{at} grid {dims:?} word cost {word_cost}");
                    assert_same_plan(&got, &want, &at);
                }
            }
        }
    }

    #[test]
    fn interned_dp_matches_the_memoized_recursion_on_random_trees() {
        // Ragged extents, unit and odd grid dimensions and word costs of a
        // few flops: many totals tie, so the earliest-index rule decides.
        use tce_ir::rng::Rng;
        let mut rng = Rng::new(0x7d15);
        let grids = [
            vec![2],
            vec![3],
            vec![2, 2],
            vec![1, 3],
            vec![2, 3],
            vec![2, 1, 2],
        ];
        for trial in 0..60 {
            let mut space = IndexSpace::new();
            let vars: Vec<IndexVar> = (0..4)
                .map(|q| {
                    let r = space.add_range(&format!("R{q}"), rng.usize_in(1..6));
                    space.add_var(&format!("x{q}"), r)
                })
                .collect();
            let mut tree = OpTree::new();
            let mut nodes: Vec<NodeId> = (0..3)
                .map(|t| {
                    let idxs: Vec<IndexVar> = vars
                        .iter()
                        .copied()
                        .filter(|_| rng.bool_with(0.6))
                        .collect();
                    if rng.bool_with(0.3) {
                        tree.leaf_func(&format!("f{t}"), idxs, rng.usize_in(1..4) as u64)
                    } else {
                        tree.leaf_input(TensorId(t), idxs)
                    }
                })
                .collect();
            while nodes.len() > 1 {
                let a = nodes.swap_remove(rng.usize_in(0..nodes.len()));
                let b = nodes.swap_remove(rng.usize_in(0..nodes.len()));
                let both = tree.node(a).indices.union(tree.node(b).indices);
                let keep = IndexSet::from_vars(both.iter().filter(|_| rng.bool_with(0.5)));
                nodes.push(tree.contract(a, b, keep));
            }
            let dims = grids[rng.usize_in(0..grids.len())].clone();
            let word_cost = rng.usize_in(0..4) as u128;
            let machine = Machine {
                grid: ProcessorGrid::new(dims.clone()),
                word_cost,
            };
            let got = optimize_distribution(&tree, &space, &machine);
            let want = memo_plan(&mut MemoDp::new(&tree, &space, &machine), MemoDp::cost);
            let at = format!("trial {trial} grid {dims:?} word cost {word_cost}");
            assert_same_plan(&got, &want, &at);
        }
    }

    #[test]
    fn func_leaves_recompute_instead_of_broadcast() {
        // E = Σ_ce f(c,e)·g(c,e): function leaves are computed in place
        // under any distribution; the DP should finish without input moves.
        let mut space = IndexSpace::new();
        let r = space.add_range("V", 8);
        let c = space.add_var("c", r);
        let e = space.add_var("e", r);
        let mut tree = OpTree::new();
        let f1 = tree.leaf_func("f", vec![c, e], 100);
        let f2 = tree.leaf_func("g", vec![c, e], 100);
        tree.contract(f1, f2, IndexSet::EMPTY);
        let machine = Machine {
            grid: ProcessorGrid::new(vec![4]),
            word_cost: 1,
        };
        let plan = optimize_distribution(&tree, &space, &machine);
        // Distribute c (or e): per-proc evals 2·(8/4·8)·100 = 3200, calc
        // 2·16, reduce 2.
        assert_eq!(plan.total_cost, 2 * 100 * 16 + 2 * 16 + 2);
    }
}
