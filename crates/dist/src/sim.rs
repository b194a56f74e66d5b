//! Simulated distributed-memory machine.
//!
//! Validates the §7 models against a literal simulation: ownership is
//! materialized element by element ([`move_cost_elementwise`] must agree
//! with the closed-form [`crate::cost::move_cost`]), and a contraction is
//! executed processor by processor over its γ-local iteration subspace
//! with explicit partial-sum combination ([`simulate_contraction`] must
//! agree with the sequential kernel).  This substitutes for the parallel
//! machine the paper assumes (see DESIGN.md "Substitutions"): the cost
//! model predicts communication volume and per-processor work, and this
//! module is the ground truth those predictions are checked against.

use crate::error::DistError;
use crate::tuple::{DistEntry, DistTuple};
use std::ops::Range;
use tce_ir::{IndexSet, IndexSpace, IndexVar};
use tce_par::ProcessorGrid;
use tce_tensor::Tensor;

/// Element-by-element redistribution count: for every processor, enumerate
/// every element multi-index and count those it needs under `alpha` but
/// does not hold under `beta`.  Exponential in array size — use at test
/// extents.
pub fn move_cost_elementwise(
    dims: &[IndexVar],
    space: &IndexSpace,
    grid: &ProcessorGrid,
    beta: &DistTuple,
    alpha: &DistTuple,
) -> u128 {
    let set = IndexSet::from_vars(dims.iter().copied());
    let shape: Vec<usize> = dims.iter().map(|&v| space.extent(v)).collect();
    let total: usize = shape.iter().product::<usize>().max(1);
    let mut count = 0u128;
    for id in grid.processors() {
        let z = grid.coords(id);
        // The block a tuple gives this processor; `None` when it holds
        // nothing.
        let owned = |tup: &DistTuple| -> Option<Vec<Range<usize>>> {
            tup.holds(set, &z).then(|| {
                dims.iter()
                    .map(|&v| tup.owned_range(v, space, grid, &z))
                    .collect()
            })
        };
        let inside = |block: &[Range<usize>], idx: &[usize]| {
            block.iter().zip(idx).all(|(r, i)| r.contains(i))
        };
        let Some(need) = owned(alpha) else {
            continue;
        };
        let have = owned(beta);
        let mut idx = vec![0usize; dims.len()];
        for _ in 0..total {
            if inside(&need, &idx) && !have.as_deref().is_some_and(|h| inside(h, &idx)) {
                count += 1;
            }
            Tensor::advance(&mut idx, &shape);
        }
    }
    count
}

/// Statistics from a simulated distributed contraction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Maximum multiply-add iterations executed by any processor.
    pub max_local_iterations: u128,
    /// Total iterations across processors (≥ the sequential count when
    /// replication recomputes).
    pub total_iterations: u128,
    /// Number of processors that produced a counted (representative)
    /// partial result.
    pub representatives: usize,
}

/// Execute `out[o…] (+)= Σ a·b` on the simulated grid under the loop-space
/// distribution `gamma`: every processor runs its γ-local iteration
/// subspace; partial results from *representative* processors (coordinate
/// 0 along every non-distributed grid dimension) are summed, mirroring the
/// combine step.  Returns the assembled global result.
#[allow(clippy::too_many_arguments)]
pub fn simulate_contraction(
    a_dims: &[IndexVar],
    b_dims: &[IndexVar],
    out_dims: &[IndexVar],
    space: &IndexSpace,
    grid: &ProcessorGrid,
    gamma: &DistTuple,
    a: &Tensor,
    b: &Tensor,
) -> (Tensor, SimStats) {
    let loops: Vec<IndexVar> = {
        let sa = IndexSet::from_vars(a_dims.iter().copied());
        let sb = IndexSet::from_vars(b_dims.iter().copied());
        sa.union(sb).iter().collect()
    };
    let out_shape: Vec<usize> = out_dims.iter().map(|&v| space.extent(v)).collect();
    let mut result = Tensor::zeros(&out_shape);
    let mut stats = SimStats::default();

    // A grid dim is "covering" when it distributes one of the loop
    // variables; along every other dim only coordinate 0 is
    // representative (others would duplicate the same work).
    let covering: Vec<bool> = gamma
        .0
        .iter()
        .map(|e| matches!(e, DistEntry::Idx(v) if loops.contains(v)))
        .collect();

    for id in grid.processors() {
        let z = grid.coords(id);
        let representative = z.iter().zip(&covering).all(|(&zd, &cov)| cov || zd == 0);
        // Local iteration ranges per loop variable.
        let ranges: Vec<std::ops::Range<usize>> = loops
            .iter()
            .map(|&v| gamma.owned_range(v, space, grid, &z))
            .collect();
        let local_points: u128 = ranges.iter().map(|r| r.len() as u128).product();
        stats.max_local_iterations = stats.max_local_iterations.max(local_points);
        stats.total_iterations += local_points;
        if !representative || local_points == 0 {
            continue;
        }
        stats.representatives += 1;

        // Odometer over the local subspace.
        let mut idx: Vec<usize> = ranges.iter().map(|r| r.start).collect();
        let pos = |dims: &[IndexVar], idx: &[usize]| -> Vec<usize> {
            dims.iter()
                .map(|v| {
                    let p = loops.iter().position(|l| l == v).expect("dim in loops");
                    idx[p]
                })
                .collect()
        };
        'outer: loop {
            let va = a.get(&pos(a_dims, &idx));
            let vb = b.get(&pos(b_dims, &idx));
            result.add_assign_at(&pos(out_dims, &idx), va * vb);
            // Advance within ranges.
            for d in (0..loops.len()).rev() {
                idx[d] += 1;
                if idx[d] < ranges[d].end {
                    continue 'outer;
                }
                idx[d] = ranges[d].start;
                if d == 0 {
                    break 'outer;
                }
            }
            if loops.is_empty() {
                break;
            }
        }
    }
    (result, stats)
}

/// Report from simulating a whole distribution plan over an operator
/// tree.
#[derive(Debug, Clone)]
pub struct PlanSimReport {
    /// The computed root value (assembled).
    pub result: Tensor,
    /// Redistribution volume measured element by element along the plan.
    pub measured_move_elements: u128,
    /// Redistribution volume the closed-form model predicts for the same
    /// plan (must equal the measured volume).
    pub predicted_move_elements: u128,
    /// Reduction volume (words) charged by the model for distributed
    /// summation indices.
    pub predicted_reduce_words: u128,
    /// Largest per-processor multiply-add count across all contractions —
    /// the plan's computational makespan.
    pub max_local_iterations: u128,
}

/// Execute a [`crate::dp::DistPlan`] on the simulated machine: every
/// contraction runs over its γ-local iteration subspaces, every
/// redistribution along the plan is counted both element-by-element and
/// with the closed-form model, and the assembled result is returned for
/// comparison against a sequential execution.
///
/// # Errors
/// [`DistError`] when a binding is missing or the plan does not cover the
/// tree (previously a panic deep in the walk).
pub fn simulate_plan(
    tree: &tce_ir::OpTree,
    space: &IndexSpace,
    plan: &crate::dp::DistPlan,
    machine: &crate::dp::Machine,
    inputs: &std::collections::HashMap<tce_ir::TensorId, &Tensor>,
    funcs: &std::collections::HashMap<String, tce_tensor::IntegralFn>,
) -> Result<PlanSimReport, DistError> {
    use crate::cost::{after_reduction, move_cost};
    use tce_ir::{Leaf, NodeId, OpKind};

    struct Ctx<'a> {
        tree: &'a tce_ir::OpTree,
        space: &'a IndexSpace,
        plan: &'a crate::dp::DistPlan,
        machine: &'a crate::dp::Machine,
        inputs: &'a std::collections::HashMap<tce_ir::TensorId, &'a Tensor>,
        funcs: &'a std::collections::HashMap<String, tce_tensor::IntegralFn>,
        measured: u128,
        predicted: u128,
        reduce_words: u128,
        max_iters: u128,
    }

    /// Count a redistribution both ways.
    fn account_move(ctx: &mut Ctx, dims: &[IndexVar], from: &DistTuple, to: &DistTuple) {
        let set = IndexSet::from_vars(dims.iter().copied());
        if from.normalize(set) == to.normalize(set) {
            return;
        }
        ctx.predicted += move_cost(dims, ctx.space, &ctx.machine.grid, from, to);
        ctx.measured += move_cost_elementwise(dims, ctx.space, &ctx.machine.grid, from, to);
    }

    /// Compute node `u`'s value with its result distributed as `alpha`.
    fn eval(ctx: &mut Ctx, u: NodeId, alpha: &DistTuple) -> Result<Tensor, DistError> {
        let indices = ctx.tree.node(u).indices;
        Ok(match &ctx.tree.node(u).kind {
            OpKind::Leaf(Leaf::One) => Tensor::from_elem(&[], 1.0),
            OpKind::Leaf(Leaf::Input {
                tensor,
                indices: dims,
            }) => {
                let value = (*ctx
                    .inputs
                    .get(tensor)
                    .ok_or(DistError::MissingInput { tensor: *tensor })?)
                .clone();
                if !alpha.no_replicate(indices) {
                    // Broadcast from the recorded non-replicated source.
                    let beta = ctx.plan.node_input_source[u.0 as usize]
                        .clone()
                        .unwrap_or_else(|| DistTuple::all_one(ctx.machine.grid.rank()));
                    account_move(ctx, dims, &beta, alpha);
                }
                value
            }
            OpKind::Leaf(Leaf::Func {
                name,
                indices: dims,
                ..
            }) => {
                // Computed in place (replicas recompute): no communication.
                let f = ctx
                    .funcs
                    .get(name)
                    .ok_or_else(|| DistError::MissingFunction { name: name.clone() })?;
                let shape: Vec<usize> = dims.iter().map(|&v| ctx.space.extent(v)).collect();
                Tensor::from_fn(&shape, |idx| f.eval(idx))
            }
            OpKind::Contract { left, right } => {
                let (l, r) = (*left, *right);
                let (gamma, mode) = ctx.plan.node_gamma[u.0 as usize]
                    .clone()
                    .ok_or(DistError::UnassignedContraction { node: u.0 })?;
                let child_l = gamma.project(ctx.tree.node(l).indices);
                let child_r = gamma.project(ctx.tree.node(r).indices);
                let lv = eval(ctx, l, &child_l)?;
                let rv = eval(ctx, r, &child_r)?;
                let dims_of = |n: NodeId| -> Vec<IndexVar> {
                    match &ctx.tree.node(n).kind {
                        OpKind::Leaf(Leaf::Input { indices, .. })
                        | OpKind::Leaf(Leaf::Func { indices, .. }) => indices.clone(),
                        _ => ctx.tree.node(n).indices.iter().collect(),
                    }
                };
                let out_dims: Vec<IndexVar> = indices.iter().collect();
                let (value, stats) = simulate_contraction(
                    &dims_of(l),
                    &dims_of(r),
                    &out_dims,
                    ctx.space,
                    &ctx.machine.grid,
                    &gamma,
                    &lv,
                    &rv,
                );
                ctx.max_iters = ctx.max_iters.max(stats.max_local_iterations);
                let sums = ctx.tree.sum_indices(u);
                ctx.reduce_words += crate::cost::reduce_cost(
                    indices,
                    sums,
                    ctx.space,
                    &ctx.machine.grid,
                    &gamma,
                    mode,
                );
                let after = after_reduction(&gamma, indices, sums, mode);
                account_move(ctx, &out_dims, &after, alpha);
                value
            }
        })
    }

    let root_alpha = plan.node_dist[tree.root.0 as usize]
        .clone()
        .ok_or(DistError::UnassignedRoot)?;
    let mut ctx = Ctx {
        tree,
        space,
        plan,
        machine,
        inputs,
        funcs,
        measured: 0,
        predicted: 0,
        reduce_words: 0,
        max_iters: 0,
    };
    let result = eval(&mut ctx, tree.root, &root_alpha)?;
    Ok(PlanSimReport {
        result,
        measured_move_elements: ctx.measured,
        predicted_move_elements: ctx.predicted,
        predicted_reduce_words: ctx.reduce_words,
        max_local_iterations: ctx.max_iters,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::move_cost;
    use crate::tuple::enumerate_tuples;
    use tce_tensor::BinaryContraction;

    fn setup(n: usize) -> (IndexSpace, IndexVar, IndexVar, IndexVar) {
        let mut sp = IndexSpace::new();
        let r = sp.add_range("N", n);
        let i = sp.add_var("i", r);
        let j = sp.add_var("j", r);
        let k = sp.add_var("k", r);
        (sp, i, j, k)
    }

    #[test]
    fn closed_form_move_cost_matches_elementwise_enumeration() {
        for (n, shape) in [(6, vec![2, 3]), (4, vec![2, 2])] {
            let (sp, i, j, _) = setup(n);
            let grid = ProcessorGrid::new(shape);
            let dims = [i, j];
            let set = IndexSet::from_vars(dims);
            let tuples = enumerate_tuples(set, 2);
            for beta in &tuples {
                for alpha in &tuples {
                    let fast = move_cost(&dims, &sp, &grid, beta, alpha);
                    let slow = move_cost_elementwise(&dims, &sp, &grid, beta, alpha);
                    assert_eq!(
                        fast,
                        slow,
                        "N={n} β={} α={}",
                        beta.display(&sp),
                        alpha.display(&sp)
                    );
                }
            }
        }
    }

    #[test]
    fn simulated_matmul_matches_sequential_for_all_gammas() {
        let (sp, i, j, k) = setup(4);
        let grid = ProcessorGrid::new(vec![2, 2]);
        let a = Tensor::random(&[4, 4], 1);
        let b = Tensor::random(&[4, 4], 2);
        let spec = BinaryContraction {
            a: vec![i, k],
            b: vec![k, j],
            out: vec![i, j],
        };
        let expect = tce_tensor::contract_naive(&spec, &sp, &a, &b);
        let loops = IndexSet::from_vars([i, j, k]);
        for gamma in enumerate_tuples(loops, 2) {
            let (got, stats) =
                simulate_contraction(&[i, k], &[k, j], &[i, j], &sp, &grid, &gamma, &a, &b);
            assert!(got.approx_eq(&expect, 1e-10), "γ = {}", gamma.display(&sp));
            assert!(stats.representatives >= 1);
        }
    }

    #[test]
    fn full_distribution_partitions_work_evenly() {
        let (sp, i, j, k) = setup(8);
        let grid = ProcessorGrid::new(vec![2, 2]);
        let a = Tensor::random(&[8, 8], 3);
        let b = Tensor::random(&[8, 8], 4);
        let gamma = DistTuple(vec![DistEntry::Idx(i), DistEntry::Idx(j)]);
        let (_, stats) =
            simulate_contraction(&[i, k], &[k, j], &[i, j], &sp, &grid, &gamma, &a, &b);
        // 512 iterations split over 4 processors.
        assert_eq!(stats.max_local_iterations, 128);
        assert_eq!(stats.total_iterations, 512);
        assert_eq!(stats.representatives, 4);
    }

    #[test]
    fn sequential_tuple_uses_one_processor() {
        let (sp, i, j, k) = setup(4);
        let grid = ProcessorGrid::new(vec![4]);
        let a = Tensor::random(&[4, 4], 5);
        let b = Tensor::random(&[4, 4], 6);
        let gamma = DistTuple::all_one(1);
        let (got, stats) =
            simulate_contraction(&[i, k], &[k, j], &[i, j], &sp, &grid, &gamma, &a, &b);
        assert_eq!(stats.representatives, 1);
        assert_eq!(stats.max_local_iterations, 64);
        let spec = BinaryContraction {
            a: vec![i, k],
            b: vec![k, j],
            out: vec![i, j],
        };
        assert!(got.approx_eq(&tce_tensor::contract_naive(&spec, &sp, &a, &b), 1e-10));
    }

    #[test]
    fn replication_duplicates_work_but_not_results() {
        let (sp, i, j, k) = setup(4);
        let grid = ProcessorGrid::new(vec![2]);
        let a = Tensor::random(&[4, 4], 7);
        let b = Tensor::random(&[4, 4], 8);
        let gamma = DistTuple::all_replicate(1);
        let (got, stats) =
            simulate_contraction(&[i, k], &[k, j], &[i, j], &sp, &grid, &gamma, &a, &b);
        // Both processors run everything; one representative counted.
        assert_eq!(stats.total_iterations, 2 * 64);
        assert_eq!(stats.representatives, 1);
        let spec = BinaryContraction {
            a: vec![i, k],
            b: vec![k, j],
            out: vec![i, j],
        };
        assert!(got.approx_eq(&tce_tensor::contract_naive(&spec, &sp, &a, &b), 1e-10));
    }

    #[test]
    fn plan_simulation_matches_sequential_and_model() {
        use crate::dp::{optimize_distribution, Machine};
        use tce_ir::{TensorDecl, TensorTable};
        // S[i,l] = Σ (A·B)·C on several machines.
        let (sp, i, j, k) = setup(6);
        let mut sp = sp;
        let r = sp.range_of(i);
        let l = sp.add_var("l", r);
        let mut tensors = TensorTable::new();
        let ta = tensors.add(TensorDecl::dense("A", vec![r, r]));
        let tb = tensors.add(TensorDecl::dense("B", vec![r, r]));
        let tc = tensors.add(TensorDecl::dense("C", vec![r, r]));
        let mut tree = tce_ir::OpTree::new();
        let la = tree.leaf_input(ta, vec![i, j]);
        let lb = tree.leaf_input(tb, vec![j, k]);
        let ab = tree.contract(la, lb, IndexSet::from_vars([i, k]));
        let lc = tree.leaf_input(tc, vec![k, l]);
        tree.contract(ab, lc, IndexSet::from_vars([i, l]));

        let a = Tensor::random(&[6, 6], 1);
        let b = Tensor::random(&[6, 6], 2);
        let c = Tensor::random(&[6, 6], 3);
        let mut inputs = std::collections::HashMap::new();
        inputs.insert(ta, &a);
        inputs.insert(tb, &b);
        inputs.insert(tc, &c);
        let expect = tce_exec_free_reference(&tree, &sp, &inputs);

        for (dims, word) in [(vec![2usize], 1u128), (vec![2, 2], 1), (vec![4], 50)] {
            let machine = Machine {
                grid: ProcessorGrid::new(dims),
                word_cost: word,
            };
            let plan = optimize_distribution(&tree, &sp, &machine);
            let report = simulate_plan(
                &tree,
                &sp,
                &plan,
                &machine,
                &inputs,
                &std::collections::HashMap::new(),
            )
            .expect("plan covers tree");
            assert!(report.result.approx_eq(&expect, 1e-9));
            assert_eq!(
                report.measured_move_elements, report.predicted_move_elements,
                "closed-form MoveCost must be exact along the plan"
            );
            // The plan's total cost decomposes consistently: communication
            // charged in the DP ≥ the plan's redistribution volume (the DP
            // also charges input broadcasts and reductions).
            let comm_weighted = report
                .predicted_move_elements
                .saturating_add(report.predicted_reduce_words)
                .saturating_mul(machine.word_cost);
            assert!(comm_weighted <= plan.total_cost + report.max_local_iterations * 2);
        }
    }

    /// Sequential reference without pulling in tce-exec (manual two-step).
    fn tce_exec_free_reference(
        tree: &tce_ir::OpTree,
        sp: &IndexSpace,
        inputs: &std::collections::HashMap<tce_ir::TensorId, &Tensor>,
    ) -> Tensor {
        use tce_ir::{Leaf, OpKind};
        let mut values: Vec<Option<Tensor>> = vec![None; tree.len()];
        for id in tree.postorder() {
            let v = match &tree.node(id).kind {
                OpKind::Leaf(Leaf::Input { tensor, .. }) => (*inputs[tensor]).clone(),
                OpKind::Leaf(Leaf::One) => Tensor::from_elem(&[], 1.0),
                OpKind::Leaf(Leaf::Func { .. }) => unreachable!(),
                OpKind::Contract { left, right } => {
                    let dims_of = |n: tce_ir::NodeId| -> Vec<IndexVar> {
                        match &tree.node(n).kind {
                            OpKind::Leaf(Leaf::Input { indices, .. }) => indices.clone(),
                            _ => tree.node(n).indices.iter().collect(),
                        }
                    };
                    let spec = BinaryContraction {
                        a: dims_of(*left),
                        b: dims_of(*right),
                        out: tree.node(id).indices.iter().collect(),
                    };
                    tce_tensor::contract_naive(
                        &spec,
                        sp,
                        values[left.0 as usize].as_ref().unwrap(),
                        values[right.0 as usize].as_ref().unwrap(),
                    )
                }
            };
            values[id.0 as usize] = Some(v);
        }
        values[tree.root.0 as usize].take().unwrap()
    }
}
