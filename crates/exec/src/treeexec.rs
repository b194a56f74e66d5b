//! Direct (array-at-a-time) execution of operator trees.
//!
//! Evaluates a formula sequence bottom-up, materializing every
//! intermediate at full size — the execution model of the *unfused*
//! operation-minimal form.  Every contraction node runs on the packed
//! GETT engine (`tce_tensor::contract_gett`): plans are pulled from the
//! process-wide cache and the macro-loops parallelize over disjoint
//! output tiles on the shared worker pool, so results are bitwise
//! identical at every thread count.  Serves both as a second semantic
//! oracle for the loop-program interpreter and as the default executor
//! for the pipeline and the benchmark harnesses.
//!
//! There is one walker: one task per node on [`tce_par::TaskGraph`],
//! children before parents.  A [`Schedule`] only picks how many scheduler
//! slots the walk gets ([`ExecOptions::slots`]) — one slot *is* the
//! sequential postorder walk.

use crate::error::ExecError;
use std::collections::HashMap;
use tce_ir::{IndexSpace, IndexVar, Leaf, NodeId, OpKind, OpTree, TensorId};
use tce_par::{parallel_chunks_mut, TaskGraph};
use tce_tensor::{BinaryContraction, IntegralFn, Tensor};

/// How many task-graph scheduler slots the executors walk statements,
/// tree nodes and fused steps on.  A scheduling policy over the *same*
/// walker, never a different one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Schedule {
    /// One slot: source / postorder order, one task at a time, inline on
    /// the calling thread (parallelism lives inside each kernel call,
    /// which keeps the whole pool).
    #[default]
    Seq,
    /// One slot per worker thread: independent statements, subtrees and
    /// fused steps run concurrently on [`tce_par::TaskGraph`], bounded by
    /// the one-slot walk's live-set peak.  Bitwise identical to
    /// [`Schedule::Seq`] for every worker count.
    Graph,
}

impl std::str::FromStr for Schedule {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "seq" => Ok(Schedule::Seq),
            "graph" => Ok(Schedule::Graph),
            other => Err(format!("bad schedule `{other}`: expected seq|graph")),
        }
    }
}

impl std::fmt::Display for Schedule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Schedule::Seq => "seq",
            Schedule::Graph => "graph",
        })
    }
}

/// Knobs threaded through every execution entry point.
///
/// The default thread count honours the `TCE_THREADS` environment
/// variable and otherwise uses the machine's available parallelism
/// (see `tce_par::default_threads`).  Neither thread count nor schedule
/// ever affects results: every parallel kernel partitions output
/// disjointly, and graph scheduling only reorders *when* independent
/// nodes run.
#[derive(Debug, Clone)]
pub struct ExecOptions {
    /// Worker threads for contraction kernels, permutes and function
    /// materialization.
    pub threads: usize,
    /// Scheduler-slot policy (see [`Schedule`]).
    pub schedule: Schedule,
}

impl Default for ExecOptions {
    fn default() -> Self {
        Self {
            threads: tce_par::default_threads(),
            schedule: Schedule::default(),
        }
    }
}

impl ExecOptions {
    /// Run everything on the calling thread.
    pub fn serial() -> Self {
        Self::with_threads(1)
    }

    /// Use exactly `threads` workers.  **Clamps 0 to 1** — an infallible
    /// convenience for callers that already validated their count; front
    /// ends that must reject 0 with a diagnostic (as the CLI's
    /// `--threads` does) should use [`ExecOptions::try_with_threads`].
    pub fn with_threads(threads: usize) -> Self {
        Self {
            threads: threads.max(1),
            schedule: Schedule::default(),
        }
    }

    /// Use exactly `threads` workers, rejecting 0 with the same one-line
    /// diagnostic the CLI prints for `--threads 0`.
    pub fn try_with_threads(threads: usize) -> Result<Self, String> {
        if threads == 0 {
            return Err("--threads must be at least 1".to_string());
        }
        Ok(Self::with_threads(threads))
    }

    /// This options bundle with the given schedule.
    pub fn with_schedule(mut self, schedule: Schedule) -> Self {
        self.schedule = schedule;
        self
    }

    /// The number of task-graph scheduler slots every walk under these
    /// options runs on — the only thing the schedule decides.
    pub fn slots(&self) -> usize {
        match self.schedule {
            Schedule::Seq => 1,
            Schedule::Graph => self.threads.max(1),
        }
    }
}

/// Evaluate `tree` bottom-up and return the root value: one task per node
/// on [`tce_par::TaskGraph`], children before parents, on
/// [`opts.slots()`](ExecOptions::slots) scheduler slots.  Each node has
/// exactly one parent, so a contraction *takes* its operand values and
/// recycles them into the buffer pool as soon as it finishes — the
/// materialized high-water mark is the live set, not the whole formula
/// sequence, and admission is capped at the one-slot walk's peak, so more
/// slots never hold more.  Function materialization and the contraction
/// kernels' output-tile loops use `opts.threads` workers.
///
/// Bitwise identical for every thread count and schedule: the scheduler
/// only decides *when* a node runs, each node's kernel is deterministic in
/// isolation, and a node starts only after its children completed.
///
/// # Errors
/// Missing bindings and shape mismatches return an [`ExecError`] before
/// any node runs.
pub fn execute_tree_opts(
    tree: &OpTree,
    space: &IndexSpace,
    inputs: &HashMap<TensorId, &Tensor>,
    funcs: &HashMap<String, IntegralFn>,
    opts: &ExecOptions,
) -> Result<Tensor, ExecError> {
    let _span = tce_trace::span("exec.tree");
    tce_dist::validate_bindings(tree, space, inputs, funcs)?;
    let threads = opts.threads.max(1);
    let bytes_of = |t: &Tensor| (t.len() * std::mem::size_of::<f64>()) as u64;

    let tasks = tree.postorder_tasks(space);
    let root = TaskGraph::eval_tree(&tasks, opts.slots(), &|&id, operands: Vec<Tensor>| {
        let value = match &tree.node(id).kind {
            OpKind::Leaf(Leaf::Input { tensor, .. }) => inputs[tensor].clone(),
            OpKind::Leaf(Leaf::One) => Tensor::from_elem(&[], 1.0),
            OpKind::Leaf(Leaf::Func { name, indices, .. }) => {
                materialize_func(&funcs[name], indices, space, threads)
            }
            OpKind::Contract { left, right } => {
                let (lv, rv) = (&operands[0], &operands[1]);
                let out = contract_node(tree, space, id, *left, *right, lv, rv, threads);
                for dead in operands {
                    tce_trace::mem_free(bytes_of(&dead));
                    dead.recycle();
                }
                out
            }
        };
        tce_trace::mem_alloc(bytes_of(&value));
        value
    });
    tce_trace::mem_free(bytes_of(&root));
    Ok(root)
}

/// [`execute_tree_opts`] on the sequential schedule with `threads` kernel
/// workers.
pub fn execute_tree(
    tree: &OpTree,
    space: &IndexSpace,
    inputs: &HashMap<TensorId, &Tensor>,
    funcs: &HashMap<String, IntegralFn>,
    threads: usize,
) -> Result<Tensor, ExecError> {
    execute_tree_opts(
        tree,
        space,
        inputs,
        funcs,
        &ExecOptions::with_threads(threads),
    )
}

/// Evaluate `tree` on the sharded distributed machine following a §7
/// distribution plan: tensors live as per-rank shard buffers over
/// `machine`'s grid, contractions run rank-parallel over their γ-local
/// subspaces, layout changes move as block transfers, and distributed
/// partial sums are combined by a reduction tree.  Returns the assembled
/// root value alongside measured-vs-modeled communication volumes (see
/// [`tce_dist::ShardExecReport`]).
///
/// # Errors
/// A plan that does not cover the tree, or a missing or mis-shaped
/// binding, surfaces as an [`ExecError`] (converted from
/// [`tce_dist::DistError`]) instead of a panic.
pub fn execute_tree_distributed(
    tree: &OpTree,
    space: &IndexSpace,
    plan: &tce_dist::DistPlan,
    machine: &tce_dist::Machine,
    inputs: &HashMap<TensorId, &Tensor>,
    funcs: &HashMap<String, IntegralFn>,
    opts: &ExecOptions,
) -> Result<tce_dist::ShardExecReport, ExecError> {
    Ok(tce_dist::execute_plan_sharded(
        tree,
        space,
        plan,
        machine,
        inputs,
        funcs,
        opts.threads,
        opts.slots(),
    )?)
}

/// Materialize a function leaf over its full index space, in parallel over
/// the leading dimension blocks.
fn materialize_func(
    f: &IntegralFn,
    indices: &[IndexVar],
    space: &IndexSpace,
    threads: usize,
) -> Tensor {
    let shape: Vec<usize> = indices.iter().map(|&v| space.extent(v)).collect();
    let mut out = Tensor::zeros(&shape);
    let rank = shape.len();
    let shape_ref = &shape;
    parallel_chunks_mut(out.data_mut(), threads, |start, chunk| {
        let mut idx = vec![0usize; rank];
        // Decode the starting flat offset.
        let mut rem = start;
        for d in (0..rank).rev() {
            idx[d] = rem % shape_ref[d];
            rem /= shape_ref[d];
        }
        for x in chunk.iter_mut() {
            *x = f.eval(&idx);
            Tensor::advance(&mut idx, shape_ref);
        }
    });
    out
}

/// Contract two materialized child values into the node's result on the
/// packed GETT kernel (plan-cached, parallel over output tiles).
#[allow(clippy::too_many_arguments)]
fn contract_node(
    tree: &OpTree,
    space: &IndexSpace,
    id: NodeId,
    left: NodeId,
    right: NodeId,
    lv: &Tensor,
    rv: &Tensor,
    threads: usize,
) -> Tensor {
    let dims_of = |n: NodeId| -> Vec<IndexVar> {
        match &tree.node(n).kind {
            OpKind::Leaf(Leaf::Input { indices, .. })
            | OpKind::Leaf(Leaf::Func { indices, .. }) => indices.clone(),
            _ => tree.node(n).indices.iter().collect(),
        }
    };
    let spec = BinaryContraction {
        a: dims_of(left),
        b: dims_of(right),
        out: tree.node(id).indices.iter().collect(),
    };
    tce_tensor::contract_gett(&spec, space, lv, rv, threads)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tce_ir::{IndexSet, TensorDecl, TensorTable};

    #[test]
    fn tree_execution_matches_interpreter_path() {
        // Same Fig 1 example as interp tests: execute_tree vs einsum.
        let mut space = IndexSpace::new();
        let n = space.add_range("N", 3);
        let vs = space.add_vars("a b c d e f i j k l", n);
        let (a, b, c, d, e, f, i, j, k, l) = (
            vs[0], vs[1], vs[2], vs[3], vs[4], vs[5], vs[6], vs[7], vs[8], vs[9],
        );
        let mut tensors = TensorTable::new();
        let ta = tensors.add(TensorDecl::dense("A", vec![n; 4]));
        let tb = tensors.add(TensorDecl::dense("B", vec![n; 4]));
        let tc = tensors.add(TensorDecl::dense("C", vec![n; 4]));
        let td = tensors.add(TensorDecl::dense("D", vec![n; 4]));
        let mut tree = OpTree::new();
        let lb = tree.leaf_input(tb, vec![b, e, f, l]);
        let ld = tree.leaf_input(td, vec![c, d, e, l]);
        let t1 = tree.contract(lb, ld, IndexSet::from_vars([b, c, d, f]));
        let lc = tree.leaf_input(tc, vec![d, f, j, k]);
        let t2 = tree.contract(t1, lc, IndexSet::from_vars([b, c, j, k]));
        let la = tree.leaf_input(ta, vec![a, c, i, k]);
        tree.contract(t2, la, IndexSet::from_vars([a, b, i, j]));

        let shape = [3usize; 4];
        let va = Tensor::random(&shape, 11);
        let vb = Tensor::random(&shape, 12);
        let vc = Tensor::random(&shape, 13);
        let vd = Tensor::random(&shape, 14);
        let mut inputs = HashMap::new();
        inputs.insert(ta, &va);
        inputs.insert(tb, &vb);
        inputs.insert(tc, &vc);
        inputs.insert(td, &vd);

        let seq = execute_tree(&tree, &space, &inputs, &HashMap::new(), 1).unwrap();
        let par = execute_tree(&tree, &space, &inputs, &HashMap::new(), 4).unwrap();
        assert!(seq.approx_eq(&par, 1e-9));

        // Reference via einsum.
        let spec = tce_tensor::EinsumSpec::new(
            vec![a, b, i, j],
            vec![
                vec![a, c, i, k],
                vec![b, e, f, l],
                vec![d, f, j, k],
                vec![c, d, e, l],
            ],
            IndexSet::from_vars([c, d, e, f, k, l]),
        )
        .unwrap();
        let expect = spec.eval(&space, &[&va, &vb, &vc, &vd]);
        assert!(seq.approx_eq(&expect, 1e-9));
    }

    #[test]
    fn func_materialization_parallel_matches_sequential() {
        let mut space = IndexSpace::new();
        let r = space.add_range("N", 7);
        let c = space.add_var("c", r);
        let e = space.add_var("e", r);
        let f = IntegralFn::new(50, 5);
        let seq = materialize_func(&f, &[c, e], &space, 1);
        let par = materialize_func(&f, &[c, e], &space, 4);
        assert!(seq.approx_eq(&par, 0.0));
        assert_eq!(seq.get(&[2, 3]), f.eval(&[2, 3]));
    }

    #[test]
    fn one_leaf_reduction() {
        let mut space = IndexSpace::new();
        let r = space.add_range("N", 5);
        let i = space.add_var("i", r);
        let mut tensors = TensorTable::new();
        let ta = tensors.add(TensorDecl::dense("A", vec![r]));
        let mut tree = OpTree::new();
        let la = tree.leaf_input(ta, vec![i]);
        let one = tree.leaf_one();
        tree.contract(la, one, IndexSet::EMPTY);
        let va = Tensor::random(&[5], 31);
        let mut inputs = HashMap::new();
        inputs.insert(ta, &va);
        let out = execute_tree(&tree, &space, &inputs, &HashMap::new(), 1).unwrap();
        assert!((out.get(&[]) - va.sum()).abs() < 1e-12);
    }

    #[test]
    fn graph_schedule_is_bitwise_identical_to_seq() {
        let mut space = IndexSpace::new();
        let n = space.add_range("N", 3);
        let vs = space.add_vars("a b c d e f i j k l", n);
        let (a, b, c, d, e, f, i, j, k, l) = (
            vs[0], vs[1], vs[2], vs[3], vs[4], vs[5], vs[6], vs[7], vs[8], vs[9],
        );
        let mut tensors = TensorTable::new();
        let ta = tensors.add(TensorDecl::dense("A", vec![n; 4]));
        let tb = tensors.add(TensorDecl::dense("B", vec![n; 4]));
        let tc = tensors.add(TensorDecl::dense("C", vec![n; 4]));
        let td = tensors.add(TensorDecl::dense("D", vec![n; 4]));
        let mut tree = OpTree::new();
        // Two independent subtrees meeting at the root: the graph
        // scheduler can overlap them.
        let lb = tree.leaf_input(tb, vec![b, e, f, l]);
        let ld = tree.leaf_input(td, vec![c, d, e, l]);
        let t1 = tree.contract(lb, ld, IndexSet::from_vars([b, c, d, f]));
        let lc = tree.leaf_input(tc, vec![d, f, j, k]);
        let la = tree.leaf_input(ta, vec![a, c, i, k]);
        let t2 = tree.contract(lc, la, IndexSet::from_vars([a, c, f, i, j]));
        tree.contract(t1, t2, IndexSet::from_vars([a, b, i, j]));

        let shape = [3usize; 4];
        let va = Tensor::random(&shape, 61);
        let vb = Tensor::random(&shape, 62);
        let vc = Tensor::random(&shape, 63);
        let vd = Tensor::random(&shape, 64);
        let mut inputs = HashMap::new();
        inputs.insert(ta, &va);
        inputs.insert(tb, &vb);
        inputs.insert(tc, &vc);
        inputs.insert(td, &vd);

        let seq = execute_tree(&tree, &space, &inputs, &HashMap::new(), 1).unwrap();
        for threads in [1, 2, 4, 8] {
            let opts = ExecOptions::with_threads(threads).with_schedule(Schedule::Graph);
            let graph = execute_tree_opts(&tree, &space, &inputs, &HashMap::new(), &opts).unwrap();
            assert_eq!(seq, graph, "graph schedule diverged at {threads} threads");
        }
    }

    #[test]
    fn try_with_threads_rejects_zero_like_the_cli() {
        let err = ExecOptions::try_with_threads(0).unwrap_err();
        assert_eq!(err, "--threads must be at least 1");
        assert_eq!(ExecOptions::try_with_threads(3).unwrap().threads, 3);
        // The infallible constructor documents (and keeps) the clamp.
        assert_eq!(ExecOptions::with_threads(0).threads, 1);
    }

    #[test]
    fn schedule_parses_and_rejects_garbage() {
        assert_eq!("seq".parse::<Schedule>().unwrap(), Schedule::Seq);
        assert_eq!("graph".parse::<Schedule>().unwrap(), Schedule::Graph);
        let err = "bogus".parse::<Schedule>().unwrap_err();
        assert!(err.contains("expected seq|graph"), "{err}");
        assert_eq!(Schedule::Graph.to_string(), "graph");
    }

    #[test]
    fn missing_bindings_are_typed_errors() {
        let mut space = IndexSpace::new();
        let r = space.add_range("N", 4);
        let i = space.add_var("i", r);
        let mut tensors = TensorTable::new();
        let ta = tensors.add(TensorDecl::dense("A", vec![r]));
        let mut tree = OpTree::new();
        let la = tree.leaf_input(ta, vec![i]);
        let lf = tree.leaf_func("g", vec![i], 10);
        tree.contract(la, lf, IndexSet::EMPTY);

        // No input binding.
        let err = execute_tree(&tree, &space, &HashMap::new(), &HashMap::new(), 1).unwrap_err();
        assert!(
            matches!(err, crate::ExecError::MissingInput { .. }),
            "{err}"
        );

        // Input bound, function missing.
        let va = Tensor::random(&[4], 1);
        let mut inputs = HashMap::new();
        inputs.insert(ta, &va);
        let err = execute_tree(&tree, &space, &inputs, &HashMap::new(), 1).unwrap_err();
        assert!(
            matches!(err, crate::ExecError::MissingFunction { ref name } if name == "g"),
            "{err}"
        );

        // Wrong input shape.
        let bad = Tensor::random(&[5], 1);
        let mut inputs = HashMap::new();
        inputs.insert(ta, &bad);
        let err = execute_tree(&tree, &space, &inputs, &HashMap::new(), 1).unwrap_err();
        assert!(
            matches!(err, crate::ExecError::InputShapeMismatch { .. }),
            "{err}"
        );
    }
}
