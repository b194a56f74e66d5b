//! Fused-slice execution of operator trees: memory minimization made real.
//!
//! [`execute_tree_lowered`] compiles a checked [`Lowering`] of an
//! [`OpTree`] into a [`tce_fusion::FusionSchedule`] — the fused chain
//! loops of the configuration's laminar scopes — and executes it on real
//! tensors (a lowering carries chain labels beside the array
//! configuration, which is how a space-time plan with *redundant*
//! recomputation loops runs; [`execute_tree_fused`] checks a plain
//! [`FusionConfig`] first).
//! Each fused intermediate is allocated **once** at its *reduced*
//! (fusion-shrunk) shape, so the measured peak intermediate storage equals
//! the plan's predicted element count exactly; inside
//! the chain loops, every node's contraction runs per outer-iteration on
//! tensor *slices* through the GETT engine (the BLAS-slicing strategy of
//! Peise et al.: loop over fused outer indices, call a high-performance
//! kernel on the slices, rather than scalar loops).  The slice geometry
//! depends only on the schedule, so it is resolved once per execution —
//! one strided [`ContractionPlan`] per contraction producer — and an
//! iteration costs three base offsets and one kernel call.
//!
//! The chain loops themselves run sequentially: parallelizing them would
//! require one private copy of each fused intermediate per worker, which
//! would break the measured-peak == model identity that is the point of
//! memory minimization.  Parallelism instead lives *inside* each sliced
//! kernel call (disjoint output tiles) and in function-slice
//! materialization (disjoint element chunks), both of which are bitwise
//! deterministic for every thread count.  The schedule's *top-level* steps
//! are tasks on [`tce_par::TaskGraph`] with hazard edges between steps
//! whose read/write sets conflict; `ExecOptions::threads` caps how many
//! run at once and [`TaskGraph::useful_slots`] takes only as many as the
//! steps' flops can fill (one slot = the schedule in source order).
//!
//! Arrays live by the schedule's lifetimes
//! ([`tce_fusion::schedule::StepLifetime`]): a top-level step brings the
//! arrays it first writes to life and returns the ones it last touches to
//! the buffer pool.  The walker has one buffer rule — whatever it takes
//! from the pool (arrays, reduction scratch) it gives back — and this is
//! the only operator-tree walker in the crate: [`crate::execute_tree_opts`]
//! is this executor on the configuration with no edge fused, where every
//! production is one whole-array GETT call.
//!
//! Slicing rules, per production of node `v` with the enclosing chain
//! loops pinning the index set `P = schedule.pinned[v]`.  Nothing is
//! extracted or copied: the plan addresses the full operand and output
//! arrays through their own strides, and `P` only moves where it starts.
//!
//! * operand dimensions in `P` are fixed at the pinned position: each
//!   contributes `env[d]·stride` to the operand's base offset, and the
//!   plan's spec keeps only the unpinned dimensions;
//! * output dimensions of `v`'s reduced array in `P` likewise set the
//!   output base offset, and the kernel accumulates into that block of
//!   the array in place ([`ContractionPlan::execute_into`]);
//! * summation indices of `v` in `P` disappear from the kernel spec
//!   entirely: each outer iteration contributes one partial product,
//!   accumulated across iterations into `v`'s array — which is re-zeroed
//!   by the schedule exactly once per iteration of the chains through
//!   `v`'s parent edge (in place; an array not yet materialized is born
//!   zeroed), so consumers always see a complete sum;
//! * a summation index left in only one operand's kept dimensions is
//!   summed out first: [`reduce_exclusive`] reads that operand through
//!   its base and strides into a pooled scratch, which the plan then
//!   reads densely.

use crate::error::ExecError;
use crate::treeexec::ExecOptions;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use tce_fusion::{
    fusion_schedule, is_fusable_producer, FusionConfig, FusionSchedule, Lowering, ScheduleStep,
};
use tce_ir::{IndexSet, IndexSpace, IndexVar, Leaf, NodeId, OpKind, OpTree, TensorId};
use tce_par::{parallel_chunks_mut, TaskGraph};
use tce_tensor::dense::row_major_strides;
use tce_tensor::{
    plan_for_strided, reduce_exclusive, BinaryContraction, ContractionPlan, IntegralFn, Tensor,
};

/// The fused intermediate arrays, shared across schedule steps: one lock
/// per node, taken once per top-level step (never per slice).  A cell is
/// `None` outside its node's lifetime.
///
/// Top-level steps may run concurrently, but the task graph carries a
/// *hazard edge* between any two steps that touch a common array
/// ([`tce_fusion::schedule::StepLifetime::conflicts_with`]), so every
/// array sees a totally ordered access history.  A step therefore always
/// finds its locks free: it takes them with `try_lock` and treats
/// contention as a broken invariant.
type SharedArrays = [Mutex<Option<Tensor>>];

/// Result of a fused-slice execution, with the measured-vs-modeled
/// live-set accounting (the same discipline the distributed executor
/// applies to communication volume).
#[derive(Debug)]
pub struct FusedExecReport {
    /// The root value (dimensions in canonical ascending index order, the
    /// same layout [`crate::execute_tree`] produces).
    pub result: Tensor,
    /// Measured intermediate storage: total elements of all fused
    /// intermediate arrays the run allocated, each once at its reduced
    /// shape.  An upper bound on what is live at any instant — arrays
    /// follow the schedule's lifetimes, and the instantaneous high-water
    /// mark is what `tce_trace::mem_peak_bytes` records.
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
///
/// # Errors
/// [`ExecError::InvalidProgram`] when the legality rule rejects `config`.
pub fn execute_tree_fused(
    tree: &OpTree,
    space: &IndexSpace,
    config: &FusionConfig,
    inputs: &HashMap<TensorId, &Tensor>,
    funcs: &HashMap<String, IntegralFn>,
    opts: &ExecOptions,
) -> Result<FusedExecReport, ExecError> {
    let lowering = config
        .lowering(tree)
        .map_err(|illegal| ExecError::InvalidProgram {
            reason: illegal.describe(space),
        })?;
    execute_tree_lowered(tree, space, &lowering, inputs, funcs, opts)
}

/// Execute a checked lowering: its chain labels define the chain loops
/// (a label may include *redundant* indices, whose loops wrap and
/// re-execute the child's production — the space-time transformation of
/// paper Fig. 3), while its array configuration defines the array shapes
/// (only genuinely fused dimensions are eliminated) and therefore the
/// modeled live-set.
pub fn execute_tree_lowered(
    tree: &OpTree,
    space: &IndexSpace,
    lowering: &Lowering,
    inputs: &HashMap<TensorId, &Tensor>,
    funcs: &HashMap<String, IntegralFn>,
    opts: &ExecOptions,
) -> Result<FusedExecReport, ExecError> {
    let _span = tce_trace::span("exec.fused");

    tce_dist::validate_bindings(tree, space, inputs, funcs)?;
    let array_config = lowering.array_config();
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

    let schedule = fusion_schedule(tree, lowering);

    // Every producer's array keeps its reduced dimensions; allocation
    // itself follows the schedule's lifetimes, step by step.
    let dims: Vec<Vec<IndexVar>> = (0..tree.len())
        .map(|n| match NodeId(n as u32) {
            id if is_fusable_producer(tree, id) => {
                array_config.array_indices(tree, id).iter().collect()
            }
            _ => Vec::new(),
        })
        .collect();
    let extents = |dims: &Vec<IndexVar>| dims.iter().map(|&v| space.extent(v)).collect();
    let shapes: Vec<Vec<usize>> = dims.iter().map(extents).collect();
    let contractions = (0..tree.len())
        .map(|n| {
            let v = NodeId(n as u32);
            let OpKind::Contract { left, right } = tree.node(v).kind else {
                return None;
            };
            // Each operand's source, dimensions and shape.
            let site = |c: NodeId| match &tree.node(c).kind {
                OpKind::Leaf(Leaf::Input { tensor, indices }) => {
                    let t = inputs[tensor];
                    (Source::Data(t.data()), indices.as_slice(), t.shape())
                }
                OpKind::Leaf(Leaf::One) => (Source::Data(&[1.0]), &[][..], &[][..]),
                _ => (
                    Source::Array(c),
                    dims[c.0 as usize].as_slice(),
                    shapes[c.0 as usize].as_slice(),
                ),
            };
            let [(a_src, a_dims, a_shape), (b_src, b_dims, b_shape)] = [site(left), site(right)];
            let out = (dims[n].as_slice(), shapes[n].as_slice());
            let pinned = schedule.pinned[n];
            Some(SlicedContraction::resolve(
                space,
                pinned,
                [(a_dims, a_shape), (b_dims, b_shape), out],
                [a_src, b_src],
            ))
        })
        .collect();
    let walk = Walk {
        tree,
        space,
        shapes,
        dims: &dims,
        funcs,
        schedule: &schedule,
        contractions,
        threads: opts.threads.max(1),
    };
    let temporaries: Vec<NodeId> = (tree.postorder().into_iter())
        .filter(|&id| id != tree.root && is_fusable_producer(tree, id))
        .collect();
    let peak_live_elements = walk.elements(&temporaries) as u128;
    debug_assert_eq!(
        peak_live_elements, modeled_elements,
        "fused allocation diverged from the plan's memory model"
    );

    let shared: Vec<Mutex<Option<Tensor>>> = (0..tree.len()).map(|_| Mutex::new(None)).collect();
    let (sliced_contractions, func_evals) = walk.run_steps(&shared, opts.threads);

    let result = shared
        .into_iter()
        .nth(tree.root.0 as usize)
        .and_then(|cell| cell.into_inner().ok())
        .flatten()
        .expect("the root is produced and never released");
    if tce_trace::enabled() {
        tce_trace::counter_u128("fused.live_elements", peak_live_elements);
        tce_trace::counter_u128("fused.sliced_contractions", sliced_contractions as u128);
        tce_trace::mem_free(bytes_of(result.len()));
    }
    Ok(FusedExecReport {
        result,
        peak_live_elements,
        modeled_elements,
        sliced_contractions,
        func_evals,
    })
}

fn bytes_of(elements: usize) -> u64 {
    (elements * std::mem::size_of::<f64>()) as u64
}

/// A contraction producer resolved once per execution: one GETT plan over
/// its kept (unpinned) dimensions, addressing the full operand and output
/// arrays through their own strides, where each pinned index moves the
/// three base offsets, and where each operand's elements come from.
struct SlicedContraction<'a> {
    /// The contraction over kept dimensions (the plan runs its
    /// [`BinaryContraction::pre_reduced`] form).
    spec: BinaryContraction,
    /// Left operand, right operand, output.
    sites: [Site; 3],
    /// Left operand, right operand.
    sources: [Source<'a>; 2],
    plan: Arc<ContractionPlan>,
}

/// Where a sliced contraction reads an operand: bound elements (an input,
/// or the `One` leaf's single `1.0`), or the array a producer fills in
/// this or an earlier step.
#[derive(Clone, Copy)]
enum Source<'a> {
    Data(&'a [f64]),
    Array(NodeId),
}

/// How one array of a sliced contraction is addressed.
struct Site {
    /// `(index, stride)` of each pinned dimension: the slice starts at
    /// `Σ env[index]·stride`.
    pinned: Vec<(IndexVar, usize)>,
    /// Strides of the kept dimensions, in the spec's order.
    kept_strides: Vec<usize>,
    /// A summation index of the spec lives in this operand alone, so the
    /// operand is reduced into a dense scratch before the kernel reads it.
    reduce: bool,
}

impl Site {
    fn base(&self, env: &[usize]) -> usize {
        self.pinned
            .iter()
            .map(|&(d, s)| env[d.0 as usize] * s)
            .sum()
    }
}

impl<'a> SlicedContraction<'a> {
    /// Resolve the production of a contraction whose chain loops pin
    /// `pinned`, given each array's `(dims, shape)` — left, right, output —
    /// and each operand's source.
    fn resolve(
        space: &IndexSpace,
        pinned: IndexSet,
        arrays: [(&[IndexVar], &[usize]); 3],
        sources: [Source<'a>; 2],
    ) -> Self {
        let [(a, a_site), (b, b_site), (out, out_site)] = arrays.map(|(dims, shape)| {
            let mut site = Site {
                pinned: Vec::new(),
                kept_strides: Vec::new(),
                reduce: false,
            };
            let mut kept = Vec::new();
            for (&d, s) in dims.iter().zip(row_major_strides(shape)) {
                if pinned.contains(d) {
                    site.pinned.push((d, s));
                } else {
                    kept.push(d);
                    site.kept_strides.push(s);
                }
            }
            (kept, site)
        });
        let spec = BinaryContraction { a, b, out };
        let reduced = spec.pre_reduced();
        let mut sites = [a_site, b_site, out_site];
        sites[0].reduce = reduced.a.len() < spec.a.len();
        sites[1].reduce = reduced.b.len() < spec.b.len();
        // A reduced operand is read from its dense scratch.
        let plan_strides = |site: &Site, dims: &[IndexVar]| {
            if site.reduce {
                let shape: Vec<usize> = dims.iter().map(|&d| space.extent(d)).collect();
                row_major_strides(&shape)
            } else {
                site.kept_strides.clone()
            }
        };
        let a_strides = plan_strides(&sites[0], &reduced.a);
        let b_strides = plan_strides(&sites[1], &reduced.b);
        let plan = plan_for_strided(
            &reduced,
            space,
            [&a_strides, &b_strides, &sites[2].kept_strides],
        );
        Self {
            spec,
            sites,
            sources,
            plan,
        }
    }
}

/// What every step of one execution shares.
struct Walk<'a> {
    tree: &'a OpTree,
    space: &'a IndexSpace,
    /// The dimensions each producer's array keeps, by node (ascending
    /// index order; empty for non-producers).
    dims: &'a [Vec<IndexVar>],
    /// The shape of each producer's array: the extents of its `dims`.
    shapes: Vec<Vec<usize>>,
    funcs: &'a HashMap<String, IntegralFn>,
    schedule: &'a FusionSchedule,
    /// Each contraction producer's resolved slicing, by node.
    contractions: Vec<Option<SlicedContraction<'a>>>,
    threads: usize,
}

impl Walk<'_> {
    /// Total elements of the arrays of `nodes`.
    fn elements(&self, nodes: &[NodeId]) -> usize {
        let len = |n: &NodeId| self.shapes[n.0 as usize].iter().product::<usize>();
        nodes.iter().map(len).sum()
    }

    /// Modeled flops of one schedule step: each production inside it —
    /// its kernel's flops, or a function slice's evaluations times their
    /// cost — once per iteration of the loops around it.
    fn step_flops(&self, step: &ScheduleStep) -> u128 {
        match step {
            ScheduleStep::Loop { index, body } => {
                let per_iteration = body.iter().map(|s| self.step_flops(s)).sum::<u128>();
                per_iteration.saturating_mul(self.space.extent(*index) as u128)
            }
            ScheduleStep::Zero(_) => 0,
            ScheduleStep::Produce(v) => match &self.tree.node(*v).kind {
                OpKind::Leaf(Leaf::Func { cost_per_eval, .. }) => {
                    self.elements(&[*v]) as u128 * *cost_per_eval as u128
                }
                _ => self.contractions[v.0 as usize]
                    .as_ref()
                    .map_or(0, |c| c.plan.flops()),
            },
        }
    }

    /// Execute the schedule's top-level steps on a [`TaskGraph`] with
    /// hazard edges, on at most `max_slots` scheduler slots — as many as
    /// the steps' flops can fill ([`TaskGraph::useful_slots`]): steps whose
    /// lifetimes conflict are ordered (so every array sees a serialized
    /// access history and each step finds the locks of its read/write sets
    /// free — see [`SharedArrays`]); independent steps may run
    /// concurrently.  Interior chain loops stay sequential inside their
    /// step's task.
    ///
    /// A step's arrays follow its [`tce_fusion::schedule::StepLifetime`]:
    /// `allocs` come to life on entry (zeroed from the buffer pool on
    /// first touch) and `releases` go back to the pool on exit.  A task weighs
    /// the elements it allocates and admission is capped at the one-slot
    /// walk's peak, so more slots never hold more.  Returns
    /// `(sliced_contractions, func_evals)`.
    fn run_steps(&self, shared: &SharedArrays, max_slots: usize) -> (u64, u64) {
        let lifetimes = &self.schedule.lifetimes;
        let mut graph = TaskGraph::new();
        for (j, life) in lifetimes.iter().enumerate() {
            let deps: Vec<usize> = (0..j)
                .filter(|&i| lifetimes[i].conflicts_with(life))
                .collect();
            let flops = self.step_flops(&self.schedule.steps[j]);
            graph.add_task(&deps, self.elements(&life.allocs) as u64, flops);
        }
        let sliced = AtomicU64::new(0);
        let evals = AtomicU64::new(0);
        graph.run(max_slots, &|t| {
            let life = &lifetimes[t];
            // A top-level `Zero`: arrays are born zeroed.
            if life.writes.is_empty() {
                return;
            }
            let touched = |n: usize| {
                let id = NodeId(n as u32);
                life.writes.contains(&id) || life.reads.contains(&id)
            };
            let held = shared
                .iter()
                .enumerate()
                .map(|(n, cell)| {
                    touched(n).then(|| cell.try_lock().expect("hazard edges serialize access"))
                })
                .collect();
            tce_trace::mem_alloc(bytes_of(self.elements(&life.allocs)));
            let mut ctx = FusedCtx {
                walk: self,
                arrays: held,
                env: vec![0usize; IndexSet::MAX_VARS],
                scope: IndexSet::EMPTY,
                sliced_contractions: 0,
                func_evals: 0,
            };
            ctx.run(std::slice::from_ref(&self.schedule.steps[t]));
            for n in &life.releases {
                if let Some(dead) = ctx.cell_mut(*n).take() {
                    dead.recycle();
                }
            }
            tce_trace::mem_free(bytes_of(self.elements(&life.releases)));
            sliced.fetch_add(ctx.sliced_contractions, Ordering::Relaxed);
            evals.fetch_add(ctx.func_evals, Ordering::Relaxed);
        });
        (
            sliced.load(Ordering::Relaxed),
            evals.load(Ordering::Relaxed),
        )
    }
}

/// One top-level step's execution state.
struct FusedCtx<'a> {
    walk: &'a Walk<'a>,
    /// This step's holds on the arrays of its read/write sets, by node.
    arrays: Vec<Option<MutexGuard<'a, Option<Tensor>>>>,
    /// Current value of each pinned index, by `IndexVar.0`.
    env: Vec<usize>,
    /// Indices pinned by the enclosing chain loops.
    scope: IndexSet,
    sliced_contractions: u64,
    func_evals: u64,
}

impl FusedCtx<'_> {
    /// The array of a node in this step's read or write set.
    fn array(&self, n: NodeId) -> &Tensor {
        let cell = self.arrays[n.0 as usize].as_deref();
        cell.and_then(Option::as_ref)
            .expect("produced by this or an earlier step")
    }

    /// The cell of a node in this step's read or write set.
    fn cell_mut(&mut self, n: NodeId) -> &mut Option<Tensor> {
        self.arrays[n.0 as usize]
            .as_mut()
            .expect("in the step's read or write set")
    }

    /// The array of a node this step writes, zeroed from the buffer pool on
    /// first touch.
    fn array_mut(&mut self, n: NodeId) -> &mut Tensor {
        let shape = &self.walk.shapes[n.0 as usize];
        self.cell_mut(n)
            .get_or_insert_with(|| Tensor::zeros_pooled(shape))
    }

    fn run(&mut self, steps: &[ScheduleStep]) {
        for step in steps {
            match step {
                ScheduleStep::Loop { index, body } => {
                    let outer_scope = self.scope;
                    self.scope = self.scope.union(index.singleton());
                    for i in 0..self.walk.space.extent(*index) {
                        self.env[index.0 as usize] = i;
                        self.run(body);
                    }
                    self.scope = outer_scope;
                }
                // Re-zero in place: the array is produced into again at
                // once, so a pool round trip would buy nothing.
                ScheduleStep::Zero(v) => {
                    if let Some(stale) = self.cell_mut(*v) {
                        stale.fill_zero();
                    }
                }
                ScheduleStep::Produce(v) => self.produce(*v),
            }
        }
    }

    fn produce(&mut self, v: NodeId) {
        debug_assert_eq!(
            self.scope, self.walk.schedule.pinned[v.0 as usize],
            "schedule scope disagrees with pinned set at node {}",
            v.0
        );
        let tree = self.walk.tree;
        match &tree.node(v).kind {
            OpKind::Contract { .. } => self.produce_contract(v),
            OpKind::Leaf(Leaf::Func { name, indices, .. }) => {
                self.produce_func_slice(v, name, indices)
            }
            OpKind::Leaf(_) => unreachable!("only producers are scheduled"),
        }
    }

    /// Run `v`'s contraction for the current pinned-index values — the one
    /// site contraction nodes are issued from.  The plan was resolved for
    /// this production, so an iteration only computes three base offsets
    /// from `env` and accumulates into `v`'s array in place (zeroed from
    /// the pool on first touch).  Pinned *summation* indices of `v` are in
    /// no base: each outer iteration adds one partial product into the
    /// same block.  With nothing pinned this is one whole-array GETT call
    /// per node, the unfused case.
    fn produce_contract(&mut self, v: NodeId) {
        let walk = self.walk;
        let sliced = walk.contractions[v.0 as usize]
            .as_ref()
            .expect("resolved for every contraction producer");
        let mut out = self
            .cell_mut(v)
            .take()
            .unwrap_or_else(|| Tensor::zeros_pooled(&walk.shapes[v.0 as usize]));
        let [a_site, b_site, out_site] = &sliced.sites;
        let [a, b] = sliced.sources.map(|src| match src {
            Source::Data(data) => data,
            Source::Array(c) => self.array(c).data(),
        });
        let (a_base, b_base) = (a_site.base(&self.env), b_site.base(&self.env));
        let reduce = |site: &Site, data: &[f64], base: usize, is_a: bool| {
            let scratch = reduce_exclusive(
                &sliced.spec,
                walk.space,
                data,
                base,
                &site.kept_strides,
                is_a,
            );
            scratch.expect("the site has an exclusive summation index")
        };
        let ar = a_site.reduce.then(|| reduce(a_site, a, a_base, true));
        let br = b_site.reduce.then(|| reduce(b_site, b, b_base, false));
        let (a, a_base) = ar.as_ref().map_or((a, a_base), |t| (t.data(), 0));
        let (b, b_base) = br.as_ref().map_or((b, b_base), |t| (t.data(), 0));
        sliced.plan.execute_into(
            a,
            a_base,
            b,
            b_base,
            out.data_mut(),
            out_site.base(&self.env),
            walk.threads,
        );
        for scratch in [ar, br].into_iter().flatten() {
            scratch.recycle();
        }
        *self.cell_mut(v) = Some(out);
        self.sliced_contractions += 1;
    }

    /// Materialize a function leaf's reduced array for the current pinned
    /// argument values, parallel over element chunks (disjoint, so the
    /// result is identical for every thread count).
    fn produce_func_slice(&mut self, v: NodeId, name: &str, indices: &[IndexVar]) {
        enum Arg {
            Fixed(usize),
            Dim(usize),
        }
        let walk = self.walk;
        let arr_dims = &walk.dims[v.0 as usize];
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
        let shape = &walk.shapes[v.0 as usize];
        let f = &walk.funcs[name];
        let out = self.array_mut(v);
        let evals = out.len() as u64;
        let rank = shape.len();
        let args_ref = &args;
        parallel_chunks_mut(out.data_mut(), walk.threads, |start, chunk| {
            let mut idx = vec![0usize; rank];
            let mut rem = start;
            for d in (0..rank).rev() {
                idx[d] = rem % shape[d];
                rem /= shape[d];
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
                Tensor::advance(&mut idx, shape);
            }
        });
        self.func_evals += evals;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::execute_tree;
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
            let opts = ExecOptions::with_threads(threads);
            let rep =
                execute_tree_fused(&tree, &space, &cfg, &inputs, &HashMap::new(), &opts).unwrap();
            assert_eq!(
                rep.result, seq.result,
                "{threads} threads diverged from one"
            );
            // Every intermediate is allocated exactly once whatever the
            // interleaving, so the measured total equals the model.
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
