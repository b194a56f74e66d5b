//! Direct (array-at-a-time) execution of operator trees — a *lowering*,
//! not a walker.
//!
//! The unfused operation-minimal form (paper Fig. 1(a)/(b)) is the fusion
//! configuration with no edge fused: no chain loops, every production at
//! top level with nothing pinned.  [`execute_tree_opts`] builds exactly
//! that configuration and hands it to the one fused walker
//! ([`crate::fusedexec`]), where a `Produce` step under an empty pinned
//! set is one whole-array GETT call whose result *is* the node's array,
//! and the schedule's lifetimes hold each intermediate only from its
//! production to its one consumer.  Results are bitwise identical at
//! every thread count.  Serves both as a second semantic
//! oracle for the loop-program interpreter and as the default executor
//! for the pipeline and the benchmark harnesses.
//!
//! This module also owns the options every executor shares: the thread
//! count, which every walk hands to its kernels whole (walks run their
//! nodes in order on the calling thread).

use crate::error::ExecError;
use std::collections::HashMap;
use tce_fusion::Lowering;
use tce_ir::{IndexSpace, OpTree, TensorId};
use tce_tensor::{IntegralFn, Tensor};

/// A retired scheduling policy, kept so existing callers still compile:
/// every walk runs its statements, steps and nodes in order on the calling
/// thread, so both variants run the same program.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Schedule {
    /// Same as every other variant.
    #[default]
    Seq,
    /// Same as every other variant.
    Graph,
}

/// Knobs threaded through every execution entry point.
///
/// The default thread count honours the `TCE_THREADS` environment
/// variable and otherwise uses the machine's available parallelism
/// (see `tce_par::default_threads`).  The thread count never affects
/// results: every parallel kernel partitions output disjointly.
#[derive(Debug, Clone)]
pub struct ExecOptions {
    /// Worker threads for contraction kernels, permutes and function
    /// materialization.
    pub threads: usize,
}

impl Default for ExecOptions {
    fn default() -> Self {
        Self {
            threads: tce_par::default_threads(),
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

    /// These options unchanged: the schedule is retired (see
    /// [`Schedule`]).
    pub fn with_schedule(self, _schedule: Schedule) -> Self {
        self
    }
}

/// Evaluate `tree` bottom-up and return the root value, every
/// intermediate at full size: the fused walker
/// ([`crate::execute_tree_lowered`]) on the empty fusion
/// configuration (see the module docs).  Each contraction node runs after
/// its children, in the schedule's order, and its value returns to the
/// buffer pool as soon as its one consumer finishes.  Function
/// materialization and the contraction kernels' output-tile loops use
/// `opts.threads` workers.
///
/// Bitwise identical for every thread count: each node's kernel is
/// deterministic in isolation.
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
    let unfused = Lowering::unfused(tree);
    let report = crate::execute_tree_lowered(tree, space, &unfused, inputs, funcs, opts)?;
    Ok(report.result)
}

/// [`execute_tree_opts`] with `threads` workers.
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
    )?)
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
        // Σ_e f(c,e)·1 through the public entry: the function leaf is
        // materialized over disjoint element chunks, so 1 and 4 threads
        // agree bit for bit.
        let mut space = IndexSpace::new();
        let r = space.add_range("N", 7);
        let c = space.add_var("c", r);
        let e = space.add_var("e", r);
        let mut tree = OpTree::new();
        let lf = tree.leaf_func("f", vec![c, e], 50);
        let one = tree.leaf_one();
        tree.contract(lf, one, c.singleton());
        let f = IntegralFn::new(50, 5);
        let funcs = HashMap::from([("f".to_string(), f.clone())]);
        let seq = execute_tree(&tree, &space, &HashMap::new(), &funcs, 1).unwrap();
        let par = execute_tree(&tree, &space, &HashMap::new(), &funcs, 4).unwrap();
        assert_eq!(seq, par);
        let row2: f64 = (0..7).map(|e| f.eval(&[2, e])).sum();
        assert!((seq.get(&[2]) - row2).abs() < 1e-12);
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
    fn tree_walk_is_bitwise_identical_at_every_thread_count() {
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
        // Two independent subtrees meeting at the root.
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
        for threads in [2, 4, 8] {
            let got = execute_tree(&tree, &space, &inputs, &HashMap::new(), threads).unwrap();
            assert_eq!(seq, got, "{threads} threads diverged from one");
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
