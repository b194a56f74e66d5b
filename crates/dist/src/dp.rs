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

impl DistPlan {
    /// Root result distribution.
    pub fn root_dist(&self, tree: &OpTree) -> &DistTuple {
        self.node_dist[tree.root.0 as usize]
            .as_ref()
            .expect("root always assigned")
    }
}

/// Canonical dimension order of a node's array.
fn dims_of(tree: &OpTree, u: NodeId) -> Vec<IndexVar> {
    tree.node(u).indices.iter().collect()
}

#[derive(Clone)]
enum Choice {
    InputFrom(DistTuple),
    Compute(DistTuple, ReduceMode),
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
    after: DistTuple,
    gamma: DistTuple,
    mode: ReduceMode,
}

struct Dp<'a> {
    tree: &'a OpTree,
    space: &'a IndexSpace,
    machine: &'a Machine,
    memo: HashMap<(u32, DistTuple), (u128, Choice)>,
    /// Per contraction node, the α-independent part of `Cost(u, α)`: the
    /// cheapest candidate per `after` distribution (earliest on ties),
    /// ordered by enumeration index.
    candidates: HashMap<u32, Vec<Candidate>>,
}

impl<'a> Dp<'a> {
    fn new(tree: &'a OpTree, space: &'a IndexSpace, machine: &'a Machine) -> Self {
        Self {
            tree,
            space,
            machine,
            memo: HashMap::new(),
            candidates: HashMap::new(),
        }
    }

    fn cost(&mut self, u: NodeId, alpha: &DistTuple) -> u128 {
        let key = (u.0, alpha.clone());
        if let Some(&(c, _)) = self.memo.get(&key) {
            return c;
        }
        let rank = self.machine.grid.rank();
        let indices = self.tree.node(u).indices;
        let result: (u128, Choice) = match &self.tree.node(u).kind {
            OpKind::Leaf(Leaf::One) => (0, Choice::None),
            OpKind::Leaf(Leaf::Input { .. }) => {
                if alpha.no_replicate(indices) {
                    (0, Choice::None)
                } else {
                    let dims = dims_of(self.tree, u);
                    let mut best = (u128::MAX, Choice::None);
                    for beta in enumerate_tuples(indices, rank) {
                        if !beta.no_replicate(indices) {
                            continue;
                        }
                        let c = move_cost(&dims, self.space, &self.machine.grid, &beta, alpha)
                            .saturating_mul(self.machine.word_cost);
                        if c < best.0 {
                            best = (c, Choice::InputFrom(beta));
                        }
                    }
                    best
                }
            }
            OpKind::Leaf(Leaf::Func { cost_per_eval, .. }) => (
                calc_cost(
                    indices,
                    *cost_per_eval as u128,
                    self.space,
                    &self.machine.grid,
                    alpha,
                ),
                Choice::None,
            ),
            OpKind::Contract { .. } => {
                if !self.candidates.contains_key(&u.0) {
                    let candidates = self.contraction_candidates(u);
                    self.candidates.insert(u.0, candidates);
                }
                // Candidates sharing `after` differ only in `pre`, so the
                // first strict minimum over the kept ones is the first
                // strict minimum over all `(γ, mode)`.
                let dims = dims_of(self.tree, u);
                let mut best = (u128::MAX, Choice::None);
                for cand in &self.candidates[&u.0] {
                    let c = cand.pre.saturating_add(
                        move_cost(&dims, self.space, &self.machine.grid, &cand.after, alpha)
                            .saturating_mul(self.machine.word_cost),
                    );
                    if c < best.0 {
                        best = (c, Choice::Compute(cand.gamma.clone(), cand.mode));
                    }
                }
                best
            }
        };
        self.memo.insert(key, result.clone());
        result.0
    }

    /// Every `(γ, mode)` of contraction node `u` costed once, then reduced
    /// to the cheapest per `after` distribution.
    fn contraction_candidates(&mut self, u: NodeId) -> Vec<Candidate> {
        let OpKind::Contract { left: l, right: r } = self.tree.node(u).kind else {
            unreachable!("contraction node");
        };
        let rank = self.machine.grid.rank();
        let indices = self.tree.node(u).indices;
        let loops = self.tree.loop_indices(u);
        let sums = self.tree.sum_indices(u);
        let mut kept: Vec<Candidate> = Vec::new();
        let mut by_after: HashMap<DistTuple, usize> = HashMap::new();
        let mut index = 0;
        for gamma in enumerate_tuples(loops, rank) {
            let child_l = gamma.project(self.tree.node(l).indices);
            let child_r = gamma.project(self.tree.node(r).indices);
            let base = self
                .cost(l, &child_l)
                .saturating_add(self.cost(r, &child_r))
                .saturating_add(calc_cost(loops, 2, self.space, &self.machine.grid, &gamma));
            let has_dist_sum = gamma.vars().inter(sums) != IndexSet::EMPTY;
            let modes: &[ReduceMode] = if has_dist_sum {
                &[ReduceMode::Combine, ReduceMode::Replicate]
            } else {
                &[ReduceMode::Combine]
            };
            for &mode in modes {
                let after = after_reduction(&gamma, indices, sums, mode);
                let pre = base.saturating_add(
                    reduce_cost(indices, sums, self.space, &self.machine.grid, &gamma, mode)
                        .saturating_mul(self.machine.word_cost),
                );
                let cand = Candidate {
                    index,
                    pre,
                    after,
                    gamma: gamma.clone(),
                    mode,
                };
                index += 1;
                match by_after.get(&cand.after) {
                    Some(&k) if kept[k].pre <= cand.pre => {}
                    Some(&k) => kept[k] = cand,
                    None => {
                        by_after.insert(cand.after.clone(), kept.len());
                        kept.push(cand);
                    }
                }
            }
        }
        kept.sort_by_key(|c| c.index);
        kept
    }
}

/// Run the distribution DP and trace back the optimal assignment.
pub fn optimize_distribution(tree: &OpTree, space: &IndexSpace, machine: &Machine) -> DistPlan {
    plan(&mut Dp::new(tree, space, machine), Dp::cost)
}

/// Step 3 — the cheapest root distribution under `cost` — and the
/// top-down traceback of `Dist(u, α)` from the states `cost` memoised.
fn plan<'a>(dp: &mut Dp<'a>, cost: fn(&mut Dp<'a>, NodeId, &DistTuple) -> u128) -> DistPlan {
    let tree = dp.tree;
    let rank = dp.machine.grid.rank();
    let mut best: Option<(u128, DistTuple)> = None;
    for alpha in enumerate_tuples(tree.node(tree.root).indices, rank) {
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
            Choice::Compute(gamma, mode) => {
                if let OpKind::Contract { left, right } = tree.node(u).kind {
                    stack.push((left, gamma.project(tree.node(left).indices)));
                    stack.push((right, gamma.project(tree.node(right).indices)));
                }
                node_gamma[u.0 as usize] = Some((gamma, mode));
            }
            Choice::InputFrom(beta) => {
                node_input_source[u.0 as usize] = Some(beta);
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

/// Number of `(node, tuple)` states the DP evaluates — `O(q·|T|)` storage,
/// with `O(q)` transitions each (the paper's `O(q²|T|)` time bound).
pub fn state_count(tree: &OpTree, machine: &Machine) -> usize {
    let rank = machine.grid.rank();
    tree.postorder()
        .into_iter()
        .map(|id| enumerate_tuples(tree.node(id).indices, rank).len())
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tce_ir::{TensorDecl, TensorTable};

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
    fn state_count_scales_with_tuple_count() {
        let (_, tree) = matmul(8);
        let m1 = Machine::new(ProcessorGrid::new(vec![2]));
        let m2 = Machine::new(ProcessorGrid::new(vec![2, 2]));
        assert!(state_count(&tree, &m2) > state_count(&tree, &m1));
    }

    /// `Cost(u, α)` before the α-independent part was hoisted: every
    /// `(γ, mode)` of a contraction re-costed for every α.
    fn oracle_cost(dp: &mut Dp, u: NodeId, alpha: &DistTuple) -> u128 {
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
        let mut best = (u128::MAX, Choice::None);
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
                    best = (c, Choice::Compute(gamma.clone(), mode));
                }
            }
        }
        dp.memo.insert(key, best.clone());
        best.0
    }

    #[test]
    fn hoisted_candidates_match_the_per_alpha_recursion() {
        for name in ["ccsd_section2", "cc_doubles"] {
            let path = format!(
                "{}/../../examples/specs/{name}.tce",
                env!("CARGO_MANIFEST_DIR")
            );
            let src = std::fs::read_to_string(&path).unwrap();
            let syn = tce_core::synthesize(&src, &Default::default()).unwrap();
            let space = &syn.program.space;
            for term in &syn.plans {
                for dims in [vec![2, 2], vec![2, 4], vec![2, 2, 2]] {
                    let machine = Machine::new(ProcessorGrid::new(dims.clone()));
                    let got = optimize_distribution(&term.tree, space, &machine);
                    let want = plan(&mut Dp::new(&term.tree, space, &machine), oracle_cost);
                    let at = format!("{name} term {} grid {dims:?}", term.stmt_index);
                    assert_eq!(got.total_cost, want.total_cost, "{at}");
                    assert_eq!(got.node_dist, want.node_dist, "{at}");
                    assert_eq!(got.node_gamma, want.node_gamma, "{at}");
                    assert_eq!(got.node_input_source, want.node_input_source, "{at}");
                }
            }
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
