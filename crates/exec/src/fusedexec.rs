//! Fused-slice execution of operator trees: memory minimization made real.
//!
//! [`execute_tree_fused`] compiles a [`FusionConfig`] + [`OpTree`] into a
//! [`tce_fusion::FusionSchedule`] — the fused chain loops of the
//! configuration's laminar scopes — and executes it on real tensors
//! ([`execute_tree_fused_with_labels`] takes the chain labels and the array
//! configuration separately, which is how a space-time plan with
//! *redundant* recomputation loops runs).
//! Each fused intermediate is allocated **once** at its *reduced*
//! (fusion-shrunk) shape, so the measured peak intermediate storage equals
//! the plan's predicted element count exactly; inside
//! the chain loops, every node's contraction runs per outer-iteration on
//! tensor *slices* through the packed GETT micro-kernel (the BLAS-slicing
//! strategy of Peise et al.: loop over fused outer indices, call a
//! high-performance kernel on the slices, rather than scalar loops).
//!
//! The chain loops themselves run sequentially: parallelizing them would
//! require one private copy of each fused intermediate per worker, which
//! would break the measured-peak == model identity that is the point of
//! memory minimization.  Parallelism instead lives *inside* each sliced
//! kernel call (disjoint output tiles) and in function-slice
//! materialization (disjoint element chunks), both of which are bitwise
//! deterministic for every thread count.  The schedule's *top-level* steps
//! are tasks on [`tce_par::TaskGraph`] with hazard edges between steps
//! whose read/write sets conflict; [`ExecOptions::slots`] picks how many
//! run at once (one slot = the schedule in source order).
//!
//! Slicing rules, per production of node `v` with the enclosing chain
//! loops pinning the index set `P`:
//!
//! * operand dimensions in `P` are sliced to length 1 at the pinned
//!   position and dropped (a free reshape — block extraction yields a
//!   fresh contiguous tensor);
//! * output dimensions of `v`'s reduced array in `P` address the slice
//!   the kernel result is accumulated into ([`Tensor::add_block`]);
//! * summation indices of `v` in `P` disappear from the kernel spec
//!   entirely: each outer iteration contributes one partial product,
//!   accumulated across iterations into `v`'s array — which is re-zeroed
//!   by the schedule exactly once per iteration of the chains through
//!   `v`'s parent edge, so consumers always see a complete sum.

use crate::error::ExecError;
use crate::treeexec::ExecOptions;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{RwLock, RwLockReadGuard, RwLockWriteGuard};
use tce_fusion::schedule::fusion_schedule_with_labels;
use tce_fusion::{is_fusable_producer, FusionConfig, ScheduleStep};
use tce_ir::{IndexSet, IndexSpace, IndexVar, Leaf, NodeId, OpKind, OpTree, TensorId};
use tce_par::{parallel_chunks_mut, TaskGraph};
use tce_tensor::{BinaryContraction, IntegralFn, Tensor};

/// The fused intermediate arrays, shared across schedule steps: one lock
/// per node, taken once per top-level step (never per slice).
///
/// Top-level steps may run concurrently, but the task graph carries a
/// *hazard edge* between any two steps whose read/write node-sets
/// conflict, so for every array all writes are totally ordered with each
/// other and with every read.  A step therefore always finds its locks
/// free: it takes them with `try_write` / `try_read` and treats contention
/// as a broken invariant.
type SharedArrays = [RwLock<Option<Tensor>>];

/// A step's hold on one node's array for the duration of its task.
enum Held<'a> {
    /// The step neither reads nor writes this node.
    No,
    Read(RwLockReadGuard<'a, Option<Tensor>>),
    Write(RwLockWriteGuard<'a, Option<Tensor>>),
}

/// Result of a fused-slice execution, with the measured-vs-modeled
/// live-set accounting (the same discipline the distributed executor
/// applies to communication volume).
#[derive(Debug)]
pub struct FusedExecReport {
    /// The root value (dimensions in canonical ascending index order, the
    /// same layout [`crate::execute_tree`] produces).
    pub result: Tensor,
    /// Measured peak intermediate storage: total elements of all fused
    /// intermediate arrays, which live for the whole execution.
    pub peak_live_elements: u128,
    /// The model's prediction for the same quantity: the array
    /// configuration's [`FusionConfig::temp_memory`].
    pub modeled_elements: u128,
    /// Sliced GETT kernel invocations.
    pub sliced_contractions: u64,
    /// Primitive-function element evaluations.
    pub func_evals: u64,
}

impl FusedExecReport {
    /// Whether the measured peak live-set matches the model exactly.
    pub fn peak_matches_model(&self) -> bool {
        self.peak_live_elements == self.modeled_elements
    }
}

/// Evaluate `tree` under the fusion configuration `config`, allocating
/// every fused intermediate once at its reduced shape and contracting on
/// slices (see the module docs).  Results are bitwise identical for every
/// `opts.threads` value.
pub fn execute_tree_fused(
    tree: &OpTree,
    space: &IndexSpace,
    config: &FusionConfig,
    inputs: &HashMap<TensorId, &Tensor>,
    funcs: &HashMap<String, IntegralFn>,
    opts: &ExecOptions,
) -> Result<FusedExecReport, ExecError> {
    config
        .check(tree)
        .map_err(|e| ExecError::InvalidProgram { reason: e })?;
    execute_tree_fused_with_labels(tree, space, config, config, inputs, funcs, opts)
}

/// Generalized fused execution: `chain_labels` defines the chain loops
/// (its per-edge sets may include *redundant* indices, whose loops wrap
/// and re-execute the child's production — the space-time transformation
/// of paper Fig. 3), while `array_config` defines the array shapes (only
/// genuinely fused dimensions are eliminated) and therefore the modeled
/// live-set.  For plain fusion both are the same configuration.
///
/// The caller is responsible for legality: the chain scopes of
/// `chain_labels` must be nested or disjoint
/// ([`tce_fusion::chains::check_scopes`]).
pub fn execute_tree_fused_with_labels(
    tree: &OpTree,
    space: &IndexSpace,
    chain_labels: &FusionConfig,
    array_config: &FusionConfig,
    inputs: &HashMap<TensorId, &Tensor>,
    funcs: &HashMap<String, IntegralFn>,
    opts: &ExecOptions,
) -> Result<FusedExecReport, ExecError> {
    let _span = tce_trace::span("exec.fused");
    let traced = tce_trace::enabled();

    tce_dist::validate_bindings(tree, space, inputs, funcs)?;
    let modeled_elements = array_config.temp_memory(tree, space);

    // A bare stored-input (or One) root has no producer nest to fuse.
    if !is_fusable_producer(tree, tree.root) {
        let result = match &tree.node(tree.root).kind {
            OpKind::Leaf(Leaf::Input { tensor, .. }) => inputs[tensor].clone(),
            OpKind::Leaf(Leaf::One) => Tensor::from_elem(&[], 1.0),
            _ => unreachable!("non-producer roots are leaves"),
        };
        return Ok(FusedExecReport {
            result,
            peak_live_elements: 0,
            modeled_elements,
            sliced_contractions: 0,
            func_evals: 0,
        });
    }

    let schedule = fusion_schedule_with_labels(tree, chain_labels);

    // --- allocate every fused intermediate once, at its reduced shape ---
    let bytes_of = |t: &Tensor| (t.len() * std::mem::size_of::<f64>()) as u64;
    let mut arrays: Vec<Option<Tensor>> = vec![None; tree.len()];
    let mut peak_live_elements = 0u128;
    for id in tree.postorder() {
        if !is_fusable_producer(tree, id) {
            continue;
        }
        let shape: Vec<usize> = array_config
            .array_indices(tree, id)
            .iter()
            .map(|v| space.extent(v))
            .collect();
        let t = Tensor::zeros(&shape);
        if id != tree.root {
            peak_live_elements += t.len() as u128;
        }
        if traced {
            tce_trace::mem_alloc(bytes_of(&t));
        }
        arrays[id.0 as usize] = Some(t);
    }
    debug_assert_eq!(
        peak_live_elements, modeled_elements,
        "fused allocation diverged from the plan's memory model"
    );

    // --- interpret the schedule ---
    let shared: Vec<RwLock<Option<Tensor>>> = arrays.into_iter().map(RwLock::new).collect();
    let (sliced_contractions, func_evals) = run_steps(
        tree,
        space,
        array_config,
        inputs,
        funcs,
        &shared,
        &schedule,
        opts,
    );

    let mut arrays: Vec<Option<Tensor>> = shared
        .into_iter()
        .map(|cell| {
            cell.into_inner()
                .expect("TaskGraph::run re-raises step panics")
        })
        .collect();
    let result = arrays[tree.root.0 as usize].take().expect("root value");
    if traced {
        tce_trace::counter_u128("fused.live_elements", peak_live_elements);
        tce_trace::counter_u128("fused.sliced_contractions", sliced_contractions as u128);
        tce_trace::mem_free(bytes_of(&result));
        for t in arrays.iter().flatten() {
            tce_trace::mem_free(bytes_of(t));
        }
    }
    Ok(FusedExecReport {
        result,
        peak_live_elements,
        modeled_elements,
        sliced_contractions,
        func_evals,
    })
}

/// An operand slice for a sliced GETT call: the tensor (borrowed when no
/// slicing is needed) and its remaining dimension variables.
enum Operand<'t> {
    Borrowed(&'t Tensor, Vec<IndexVar>),
    Owned(Tensor, Vec<IndexVar>),
}

impl<'t> Operand<'t> {
    fn tensor(&self) -> &Tensor {
        match self {
            Operand::Borrowed(t, _) => t,
            Operand::Owned(t, _) => t,
        }
    }
    fn dims(&self) -> &[IndexVar] {
        match self {
            Operand::Borrowed(_, d) => d,
            Operand::Owned(_, d) => d,
        }
    }
}

/// The nodes a schedule step reads and writes, as node-id masks over the
/// tree — the hazard information graph scheduling serializes on.
#[derive(Clone)]
struct StepRw {
    reads: Vec<bool>,
    writes: Vec<bool>,
}

impl StepRw {
    fn conflicts_with(&self, later: &StepRw) -> bool {
        self.writes
            .iter()
            .zip(later.reads.iter().zip(&later.writes))
            .any(|(&w_i, (&r_j, &w_j))| w_i && (r_j || w_j))
            || self
                .reads
                .iter()
                .zip(&later.writes)
                .any(|(&r_i, &w_j)| r_i && w_j)
    }
}

/// Accumulate the read/write node-sets of `step` (recursing through chain
/// loops).  Reads cover producer operands only — stored inputs are
/// immutable and never hazard.
fn step_rw(tree: &OpTree, step: &ScheduleStep, rw: &mut StepRw) {
    match step {
        ScheduleStep::Loop { body, .. } => {
            for s in body {
                step_rw(tree, s, rw);
            }
        }
        ScheduleStep::Zero(v) => rw.writes[v.0 as usize] = true,
        ScheduleStep::Produce(v) => {
            rw.writes[v.0 as usize] = true;
            if let OpKind::Contract { left, right } = &tree.node(*v).kind {
                for c in [*left, *right] {
                    if is_fusable_producer(tree, c) {
                        rw.reads[c.0 as usize] = true;
                    }
                }
            }
        }
    }
}

/// Execute the schedule's top-level steps on a [`TaskGraph`] with hazard
/// edges, on `opts.slots()` scheduler slots: steps whose read/write sets
/// conflict are ordered (so every array sees a serialized access history
/// and each step finds the locks of its read/write sets free — see
/// [`SharedArrays`]); independent steps may run concurrently.  Interior
/// chain loops stay sequential inside their step's task.  All arrays are
/// preallocated before any step runs, so scheduling cannot change the
/// measured peak live-set.  Returns `(sliced_contractions, func_evals)`.
#[allow(clippy::too_many_arguments)]
fn run_steps(
    tree: &OpTree,
    space: &IndexSpace,
    array_config: &FusionConfig,
    inputs: &HashMap<TensorId, &Tensor>,
    funcs: &HashMap<String, IntegralFn>,
    shared: &SharedArrays,
    schedule: &tce_fusion::FusionSchedule,
    opts: &ExecOptions,
) -> (u64, u64) {
    let threads = opts.threads.max(1);
    let rws: Vec<StepRw> = schedule
        .steps
        .iter()
        .map(|step| {
            let mut rw = StepRw {
                reads: vec![false; tree.len()],
                writes: vec![false; tree.len()],
            };
            step_rw(tree, step, &mut rw);
            rw
        })
        .collect();
    let mut graph = TaskGraph::new();
    for (j, rw_j) in rws.iter().enumerate() {
        let deps: Vec<usize> = (0..j).filter(|&i| rws[i].conflicts_with(rw_j)).collect();
        // Weight 0: every array is already allocated, so steps add no live
        // storage — the cap is irrelevant here by construction.
        graph.add_task(&deps, 0);
    }
    let sliced = AtomicU64::new(0);
    let evals = AtomicU64::new(0);
    graph.run(opts.slots(), None, &|t| {
        let rw = &rws[t];
        let held = shared
            .iter()
            .enumerate()
            .map(|(n, cell)| {
                if rw.writes[n] {
                    Held::Write(cell.try_write().expect("hazard edges serialize access"))
                } else if rw.reads[n] {
                    Held::Read(cell.try_read().expect("hazard edges serialize access"))
                } else {
                    Held::No
                }
            })
            .collect();
        let mut ctx = FusedCtx {
            tree,
            space,
            array_config,
            inputs,
            funcs,
            arrays: held,
            env: vec![0usize; 128],
            scope: IndexSet::EMPTY,
            threads,
            sliced_contractions: 0,
            func_evals: 0,
            pinned: &schedule.pinned,
        };
        ctx.run(std::slice::from_ref(&schedule.steps[t]));
        sliced.fetch_add(ctx.sliced_contractions, Ordering::Relaxed);
        evals.fetch_add(ctx.func_evals, Ordering::Relaxed);
    });
    (
        sliced.load(Ordering::Relaxed),
        evals.load(Ordering::Relaxed),
    )
}

struct FusedCtx<'a> {
    tree: &'a OpTree,
    space: &'a IndexSpace,
    /// Which dimensions each node's array keeps (see the entry point).
    array_config: &'a FusionConfig,
    inputs: &'a HashMap<TensorId, &'a Tensor>,
    funcs: &'a HashMap<String, IntegralFn>,
    /// This step's holds on the arrays of its read/write sets, by node.
    arrays: Vec<Held<'a>>,
    /// Current value of each pinned index, by `IndexVar.0`.
    env: Vec<usize>,
    /// Indices pinned by the enclosing chain loops.
    scope: IndexSet,
    threads: usize,
    sliced_contractions: u64,
    func_evals: u64,
    pinned: &'a [IndexSet],
}

impl FusedCtx<'_> {
    /// The array of a node in this step's read or write set.
    fn array(&self, n: NodeId) -> &Tensor {
        match &self.arrays[n.0 as usize] {
            Held::Read(guard) => guard.as_ref(),
            Held::Write(guard) => guard.as_ref(),
            Held::No => None,
        }
        .expect("allocated and in the step's read/write set")
    }

    /// The array of a node in this step's write set.
    fn array_mut(&mut self, n: NodeId) -> &mut Tensor {
        match &mut self.arrays[n.0 as usize] {
            Held::Write(guard) => guard.as_mut(),
            _ => None,
        }
        .expect("allocated and in the step's write set")
    }

    fn run(&mut self, steps: &[ScheduleStep]) {
        for step in steps {
            match step {
                ScheduleStep::Loop { index, body } => {
                    let outer_scope = self.scope;
                    self.scope = self.scope.union(index.singleton());
                    for i in 0..self.space.extent(*index) {
                        self.env[index.0 as usize] = i;
                        self.run(body);
                    }
                    self.scope = outer_scope;
                }
                ScheduleStep::Zero(v) => self.array_mut(*v).fill_zero(),
                ScheduleStep::Produce(v) => self.produce(*v),
            }
        }
    }

    fn produce(&mut self, v: NodeId) {
        debug_assert_eq!(
            self.scope, self.pinned[v.0 as usize],
            "schedule scope disagrees with pinned set at node {}",
            v.0
        );
        match &self.tree.node(v).kind {
            OpKind::Contract { left, right } => self.produce_contract(v, *left, *right),
            OpKind::Leaf(Leaf::Func { name, indices, .. }) => {
                self.produce_func_slice(v, name, indices)
            }
            OpKind::Leaf(_) => unreachable!("only producers are scheduled"),
        }
    }

    /// Run `v`'s contraction for the current pinned-index values on
    /// operand slices, accumulating the kernel result into `v`'s slice.
    fn produce_contract(&mut self, v: NodeId, left: NodeId, right: NodeId) {
        let out_set = self.array_config.array_indices(self.tree, v);
        let res = {
            let a = self.operand_slice(left);
            let b = self.operand_slice(right);
            let spec = BinaryContraction {
                a: a.dims().to_vec(),
                b: b.dims().to_vec(),
                out: out_set.minus(self.scope).iter().collect(),
            };
            tce_tensor::contract_gett(&spec, self.space, a.tensor(), b.tensor(), self.threads)
        };
        self.sliced_contractions += 1;

        // Accumulate into the (possibly pinned-addressed) output slice.
        // Pinned *summation* indices of `v` are absent from both the spec
        // and the output address: each outer iteration adds one partial
        // product, summed across iterations by `add_block`.
        let full_dims: Vec<IndexVar> = out_set.iter().collect();
        let starts: Vec<usize> = full_dims
            .iter()
            .map(|d| {
                if self.scope.contains(*d) {
                    self.env[d.0 as usize]
                } else {
                    0
                }
            })
            .collect();
        let block_shape: Vec<usize> = full_dims
            .iter()
            .map(|d| {
                if self.scope.contains(*d) {
                    1
                } else {
                    self.space.extent(*d)
                }
            })
            .collect();
        let block = res.reshaped(&block_shape);
        self.array_mut(v).add_block(&starts, &block);
    }

    /// The slice of child `c`'s value visible at the current pinned-index
    /// values: pinned dimensions are extracted at length 1 and dropped.
    /// Borrows the full tensor when nothing is pinned.
    fn operand_slice(&self, c: NodeId) -> Operand<'_> {
        let (src, dims): (&Tensor, Vec<IndexVar>) = match &self.tree.node(c).kind {
            OpKind::Leaf(Leaf::Input { tensor, indices }) => (self.inputs[tensor], indices.clone()),
            OpKind::Leaf(Leaf::One) => {
                return Operand::Owned(Tensor::from_elem(&[], 1.0), Vec::new())
            }
            _ => (
                self.array(c),
                self.array_config
                    .array_indices(self.tree, c)
                    .iter()
                    .collect(),
            ),
        };
        if !dims.iter().any(|d| self.scope.contains(*d)) {
            return Operand::Borrowed(src, dims);
        }
        let starts: Vec<usize> = dims
            .iter()
            .map(|d| {
                if self.scope.contains(*d) {
                    self.env[d.0 as usize]
                } else {
                    0
                }
            })
            .collect();
        let lens: Vec<usize> = dims
            .iter()
            .map(|d| {
                if self.scope.contains(*d) {
                    1
                } else {
                    self.space.extent(*d)
                }
            })
            .collect();
        let kept: Vec<IndexVar> = dims
            .iter()
            .copied()
            .filter(|d| !self.scope.contains(*d))
            .collect();
        let kept_shape: Vec<usize> = kept.iter().map(|&d| self.space.extent(d)).collect();
        let slice = src.extract_block(&starts, &lens).reshaped(&kept_shape);
        Operand::Owned(slice, kept)
    }

    /// Materialize a function leaf's reduced array for the current pinned
    /// argument values, parallel over element chunks (disjoint, so the
    /// result is identical for every thread count).
    fn produce_func_slice(&mut self, v: NodeId, name: &str, indices: &[IndexVar]) {
        enum Arg {
            Fixed(usize),
            Dim(usize),
        }
        let arr_dims: Vec<IndexVar> = self
            .array_config
            .array_indices(self.tree, v)
            .iter()
            .collect();
        let args: Vec<Arg> = indices
            .iter()
            .map(|iv| {
                if self.scope.contains(*iv) {
                    Arg::Fixed(self.env[iv.0 as usize])
                } else {
                    Arg::Dim(arr_dims.iter().position(|d| d == iv).expect("free arg"))
                }
            })
            .collect();
        let shape: Vec<usize> = arr_dims.iter().map(|&d| self.space.extent(d)).collect();
        let funcs = self.funcs;
        let f = &funcs[name];
        let threads = self.threads;
        let out = self.array_mut(v);
        let evals = out.len() as u64;
        let rank = shape.len();
        let shape_ref = &shape;
        let args_ref = &args;
        parallel_chunks_mut(out.data_mut(), threads, |start, chunk| {
            let mut idx = vec![0usize; rank];
            let mut rem = start;
            for d in (0..rank).rev() {
                idx[d] = rem % shape_ref[d];
                rem /= shape_ref[d];
            }
            let mut argv = vec![0usize; args_ref.len()];
            for x in chunk.iter_mut() {
                for (ai, a) in args_ref.iter().enumerate() {
                    argv[ai] = match *a {
                        Arg::Fixed(val) => val,
                        Arg::Dim(d) => idx[d],
                    };
                }
                *x = f.eval(&argv);
                Tensor::advance(&mut idx, shape_ref);
            }
        });
        self.func_evals += evals;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{execute_tree, Schedule};
    use tce_fusion::memmin_dp;
    use tce_ir::{IndexSet, TensorDecl, TensorTable};

    fn fig1(n_ext: usize) -> (IndexSpace, TensorTable, OpTree, NodeId, NodeId) {
        let mut space = IndexSpace::new();
        let n = space.add_range("N", n_ext);
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
        (space, tensors, tree, t1, t2)
    }

    fn bind(tensors: &TensorTable, n: usize) -> (Vec<Tensor>, Vec<TensorId>) {
        let mut vals = Vec::new();
        let mut ids = Vec::new();
        for (i, nm) in ["A", "B", "C", "D"].iter().enumerate() {
            vals.push(Tensor::random(&[n; 4], 40 + i as u64));
            ids.push(tensors.by_name(nm).unwrap());
        }
        (vals, ids)
    }

    fn rel_close(a: &Tensor, b: &Tensor, tol: f64) -> bool {
        let scale = b.data().iter().fold(0.0f64, |m, x| m.max(x.abs())).max(1.0);
        a.max_abs_diff(b) <= tol * scale
    }

    #[test]
    fn fig1c_fused_matches_treeexec_with_model_peak() {
        let (space, tensors, tree, t1, t2) = fig1(4);
        let (vals, ids) = bind(&tensors, 4);
        let mut inputs = HashMap::new();
        for (id, v) in ids.iter().zip(&vals) {
            inputs.insert(*id, v);
        }
        let expect = execute_tree(&tree, &space, &inputs, &HashMap::new(), 1).unwrap();

        let mut cfg = FusionConfig::unfused(&tree);
        cfg.set(t1, space.parse_set("b,c,d,f").unwrap());
        cfg.set(t2, space.parse_set("b,c").unwrap());
        for threads in [1, 2, 4] {
            let rep = execute_tree_fused(
                &tree,
                &space,
                &cfg,
                &inputs,
                &HashMap::new(),
                &ExecOptions::with_threads(threads),
            )
            .unwrap();
            assert!(rel_close(&rep.result, &expect, 1e-12));
            // T1 scalar + T2 at N².
            assert_eq!(rep.peak_live_elements, 1 + 16);
            assert!(rep.peak_matches_model());
        }
    }

    #[test]
    fn graph_schedule_is_bitwise_identical_and_keeps_model_peak() {
        let (space, tensors, tree, t1, t2) = fig1(4);
        let (vals, ids) = bind(&tensors, 4);
        let mut inputs = HashMap::new();
        for (id, v) in ids.iter().zip(&vals) {
            inputs.insert(*id, v);
        }
        let mut cfg = FusionConfig::unfused(&tree);
        cfg.set(t1, space.parse_set("b,c,d,f").unwrap());
        cfg.set(t2, space.parse_set("b,c").unwrap());
        let seq = execute_tree_fused(
            &tree,
            &space,
            &cfg,
            &inputs,
            &HashMap::new(),
            &ExecOptions::serial(),
        )
        .unwrap();
        for threads in [1, 2, 4, 8] {
            let opts = ExecOptions::with_threads(threads).with_schedule(Schedule::Graph);
            let rep =
                execute_tree_fused(&tree, &space, &cfg, &inputs, &HashMap::new(), &opts).unwrap();
            assert_eq!(
                rep.result, seq.result,
                "graph schedule diverged at {threads} threads"
            );
            // All intermediates are still preallocated up front, so the
            // measured peak equals the model regardless of scheduling.
            assert_eq!(rep.peak_live_elements, seq.peak_live_elements);
            assert!(rep.peak_matches_model());
            assert_eq!(rep.sliced_contractions, seq.sliced_contractions);
            assert_eq!(rep.func_evals, seq.func_evals);
        }
    }

    #[test]
    fn memmin_and_unfused_configs_agree_with_oracle() {
        let (space, tensors, tree, _, _) = fig1(3);
        let (vals, ids) = bind(&tensors, 3);
        let mut inputs = HashMap::new();
        for (id, v) in ids.iter().zip(&vals) {
            inputs.insert(*id, v);
        }
        let expect = execute_tree(&tree, &space, &inputs, &HashMap::new(), 1).unwrap();

        let r = memmin_dp(&tree, &space);
        for cfg in [FusionConfig::unfused(&tree), r.config.clone()] {
            let rep = execute_tree_fused(
                &tree,
                &space,
                &cfg,
                &inputs,
                &HashMap::new(),
                &ExecOptions::serial(),
            )
            .unwrap();
            assert!(rel_close(&rep.result, &expect, 1e-12));
            assert_eq!(rep.peak_live_elements, cfg.temp_memory(&tree, &space));
        }
    }

    #[test]
    fn func_leaves_fuse_to_scalars() {
        // E = Σ_ce f1(c,e)·f2(c,e), fully fused: all intermediates scalar.
        let mut space = IndexSpace::new();
        let n = space.add_range("V", 5);
        let c = space.add_var("c", n);
        let e = space.add_var("e", n);
        let mut tree = OpTree::new();
        let f1 = tree.leaf_func("f1", vec![c, e], 100);
        let f2 = tree.leaf_func("f2", vec![c, e], 100);
        tree.contract(f1, f2, IndexSet::EMPTY);
        let mut funcs = HashMap::new();
        funcs.insert("f1".to_string(), IntegralFn::new(100, 0xF1));
        funcs.insert("f2".to_string(), IntegralFn::new(100, 0xF2));
        let expect = execute_tree(&tree, &space, &HashMap::new(), &funcs, 1).unwrap();

        let mut cfg = FusionConfig::unfused(&tree);
        cfg.set(f1, IndexSet::from_vars([c, e]));
        cfg.set(f2, IndexSet::from_vars([c, e]));
        let rep = execute_tree_fused(
            &tree,
            &space,
            &cfg,
            &HashMap::new(),
            &funcs,
            &ExecOptions::with_threads(3),
        )
        .unwrap();
        assert!(rel_close(&rep.result, &expect, 1e-12));
        assert_eq!(rep.peak_live_elements, 2); // two scalars
        assert_eq!(rep.func_evals, 2 * 25);
    }

    #[test]
    fn missing_bindings_are_typed_errors() {
        let (space, tensors, tree, _, _) = fig1(2);
        let _ = tensors;
        let cfg = FusionConfig::unfused(&tree);
        let err = execute_tree_fused(
            &tree,
            &space,
            &cfg,
            &HashMap::new(),
            &HashMap::new(),
            &ExecOptions::serial(),
        )
        .unwrap_err();
        assert!(matches!(err, ExecError::MissingInput { .. }), "{err}");
    }

    #[test]
    fn illegal_config_is_an_invalid_program_error() {
        let (space, tensors, tree, t1, t2) = fig1(2);
        let (vals, ids) = bind(&tensors, 2);
        let mut inputs = HashMap::new();
        for (id, v) in ids.iter().zip(&vals) {
            inputs.insert(*id, v);
        }
        let mut cfg = FusionConfig::unfused(&tree);
        cfg.set(t2, space.parse_set("b,c,j,k").unwrap());
        cfg.set(t1, space.parse_set("b,c,d,f").unwrap());
        let err = execute_tree_fused(
            &tree,
            &space,
            &cfg,
            &inputs,
            &HashMap::new(),
            &ExecOptions::serial(),
        )
        .unwrap_err();
        assert!(matches!(err, ExecError::InvalidProgram { .. }), "{err}");
    }
}
