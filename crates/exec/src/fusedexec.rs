//! Fused-slice execution of operator trees: memory minimization made real.
//!
//! [`execute_tree_lowered`] compiles a checked [`Lowering`] of an
//! [`OpTree`] (chain labels may carry *redundant* recomputation indices:
//! a space-time plan; [`execute_tree_fused`] checks a plain
//! [`FusionConfig`] first) into a [`tce_fusion::FusionSchedule`] and runs
//! it on real tensors.  Each fused intermediate is allocated **once** at
//! its *reduced* shape, so the measured peak intermediate storage equals
//! the plan's predicted element count exactly; inside the chain loops,
//! each contraction runs per outer iteration on *slices* of its operands
//! through the GETT engine (the BLAS-slicing strategy of Peise et al.).
//!
//! Each top-level step is lowered once per execution into a flat **slice
//! program**: loop levels with their extents; ops (loop heads and
//! back-edges, zero fills, contraction sites, function slices); and per
//! level, how far each site's three base offsets move when its index
//! steps — the strides folded into the loop nest.  A site's plan reads and
//! writes the whole arrays through their own strides; pinned dimensions
//! only move where a slice starts, and a pinned summation index adds one
//! partial product per iteration into the same block, re-zeroed by the
//! schedule.  A summation index left in one operand alone is summed out
//! first ([`ExclusiveReduction`]).  At step entry the step's arrays go
//! into one [`NestArrays`], which binds every site and proves once that
//! its largest base plus its plan's span fits each array; a slice is then
//! a few base additions and one bare [`NestArrays::run`].  A program
//! prints (`Display`) its levels, increments and call kinds.
//!
//! The top-level steps run in schedule order and their chain loops
//! sequentially (per-worker copies of the fused intermediates would break
//! measured peak == model); parallelism lives inside each kernel call and
//! function slice, bitwise deterministic for every thread count.  Arrays
//! live by the schedule's lifetimes
//! ([`tce_fusion::schedule::StepLifetime`]), taken from and returned to
//! the buffer pool.  [`crate::execute_tree_opts`] is this executor on the
//! configuration with no edge fused: one whole-array call per node.

use crate::error::ExecError;
use crate::treeexec::ExecOptions;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;
use tce_fusion::{
    fusion_schedule, is_fusable_producer, FusionConfig, FusionSchedule, Lowering, ScheduleStep,
};
use tce_ir::{IndexSet, IndexSpace, IndexVar, Leaf, NodeId, OpKind, OpTree, TensorId};
use tce_par::parallel_chunks_mut;
use tce_tensor::dense::row_major_strides;
use tce_tensor::{
    plan_for_strided, BinaryContraction, ContractionPlan, ExclusiveReduction, IntegralFn,
    NestArray, NestArrays, Tensor,
};

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
    let modeled_elements = lowering.array_config().temp_memory(tree, space);

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

    let walk = Walk::new(tree, space, lowering, inputs, funcs, opts.threads);
    let programs: Vec<SliceProgram> = walk.schedule.steps.iter().map(|s| walk.lower(s)).collect();
    let temporaries: Vec<NodeId> = (tree.postorder().into_iter())
        .filter(|&id| id != tree.root && is_fusable_producer(tree, id))
        .collect();
    let peak_live_elements = walk.elements(&temporaries) as u128;
    debug_assert_eq!(
        peak_live_elements, modeled_elements,
        "fused allocation diverged from the plan's memory model"
    );

    // The fused intermediate arrays by node, `None` outside their lifetimes.
    let mut arrays: Vec<Option<Tensor>> = (0..tree.len()).map(|_| None).collect();
    walk.run_steps(&programs, &mut arrays);
    let result = (arrays.swap_remove(tree.root.0 as usize))
        .expect("the root is produced and never released");
    let sliced_contractions = programs.iter().map(|p| p.calls).sum::<u64>();
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
        func_evals: programs.iter().map(|p| p.evals).sum(),
    })
}

fn bytes_of(elements: usize) -> u64 {
    (elements * std::mem::size_of::<f64>()) as u64
}

/// What every step of one execution shares.
struct Walk<'a> {
    tree: &'a OpTree,
    space: &'a IndexSpace,
    inputs: &'a HashMap<TensorId, &'a Tensor>,
    funcs: &'a HashMap<String, IntegralFn>,
    schedule: FusionSchedule,
    /// The dimensions each producer's array keeps, by node (ascending
    /// index order; empty for non-producers), and their extents.
    dims: Vec<Vec<IndexVar>>,
    shapes: Vec<Vec<usize>>,
    threads: usize,
}

impl<'a> Walk<'a> {
    fn new(
        tree: &'a OpTree,
        space: &'a IndexSpace,
        lowering: &Lowering,
        inputs: &'a HashMap<TensorId, &'a Tensor>,
        funcs: &'a HashMap<String, IntegralFn>,
        threads: usize,
    ) -> Self {
        let arrays = lowering.array_config();
        let dims: Vec<Vec<IndexVar>> = (0..tree.len() as u32)
            .map(|n| match is_fusable_producer(tree, NodeId(n)) {
                true => arrays.array_indices(tree, NodeId(n)).iter().collect(),
                false => Vec::new(),
            })
            .collect();
        let extents = |dims: &Vec<IndexVar>| dims.iter().map(|&v| space.extent(v)).collect();
        Self {
            shapes: dims.iter().map(extents).collect(),
            dims,
            tree,
            space,
            inputs,
            funcs,
            schedule: fusion_schedule(tree, lowering),
            threads: threads.max(1),
        }
    }

    /// Total elements of the arrays of `nodes`.
    fn elements(&self, nodes: &[NodeId]) -> usize {
        let len = |n: &NodeId| self.shapes[n.0 as usize].iter().product::<usize>();
        nodes.iter().map(len).sum()
    }

    /// Lower one top-level schedule step into its slice program.
    fn lower(&self, step: &ScheduleStep) -> SliceProgram<'a> {
        let mut program = SliceProgram::default();
        self.emit(step, &mut program, &mut Vec::new());
        program
    }

    /// Append `step` to `program` inside the open loop levels `open`.
    fn emit(&self, step: &ScheduleStep, program: &mut SliceProgram<'a>, open: &mut Vec<usize>) {
        let v = match step {
            ScheduleStep::Loop { index, body } => {
                let (level, extent) = (program.levels.len(), self.space.extent(*index));
                if extent == 0 {
                    return; // the body never runs
                }
                let (index, name) = (*index, self.space.var_name(*index));
                let steps = Vec::new();
                program.levels.push(Level {
                    index,
                    name,
                    extent,
                    steps,
                });
                program.ops.push(Op::Loop(level));
                let start = program.ops.len();
                open.push(level);
                for s in body {
                    self.emit(s, program, open);
                }
                open.pop();
                return program.ops.push(Op::Next { level, body: start });
            }
            ScheduleStep::Zero(v) => return program.ops.push(Op::Zero(*v)),
            ScheduleStep::Produce(v) => *v,
        };
        let levels = &mut program.levels;
        // How often the enclosing loops run this production.
        let times = (open.iter()).fold(1u128, |t, &l| t.saturating_mul(levels[l].extent as u128));
        let pinned = IndexSet::from_vars(open.iter().map(|&l| levels[l].index));
        debug_assert_eq!(pinned, self.schedule.pinned[v.0 as usize], "node {}", v.0);
        let (dims, shape) = (&self.dims[v.0 as usize], &self.shapes[v.0 as usize]);
        let (left, right) = match &self.tree.node(v).kind {
            OpKind::Contract { left, right } => (*left, *right),
            OpKind::Leaf(Leaf::Func { name, indices, .. }) => {
                let level_of = |iv| open.iter().copied().find(|&l| levels[l].index == iv);
                let args = (indices.iter())
                    .map(|&iv| match level_of(iv) {
                        Some(l) => Arg::Level(l),
                        None => Arg::Dim(dims.iter().position(|&d| d == iv).expect("free arg")),
                    })
                    .collect();
                let evals = times.saturating_mul(self.elements(&[v]) as u128);
                program.evals += evals as u64;
                return program.ops.push(Op::Func(v, name, &self.funcs[name], args));
            }
            OpKind::Leaf(_) => unreachable!("only producers are scheduled"),
        };
        // Each array's pinned dimensions move its base per loop level; the
        // kept ones, with their strides in the whole array, are the plan's.
        let (mut steps, mut max_bases) = (vec![[0; 3]; open.len()], [0; 3]);
        let mut kept = |k: usize, dims: &[IndexVar], shape: &[usize]| {
            let (mut kept, mut strides) = (Vec::new(), Vec::new());
            for (&d, stride) in dims.iter().zip(row_major_strides(shape)) {
                match open.iter().position(|&l| levels[l].index == d) {
                    Some(p) => {
                        steps[p][k] = stride;
                        max_bases[k] += self.space.extent(d).saturating_sub(1) * stride;
                    }
                    None => (kept.push(d), strides.push(stride)).1,
                }
            }
            (kept, strides)
        };
        // Where each operand's elements come from, and its dimensions.
        let operand = |c: NodeId| match &self.tree.node(c).kind {
            OpKind::Leaf(Leaf::Input { tensor, indices }) => {
                let t = self.inputs[tensor];
                (Source::Data(t.data()), indices.as_slice(), t.shape())
            }
            OpKind::Leaf(Leaf::One) => (Source::Data(&[1.0]), &[][..], &[][..]),
            _ => (
                Source::Array(c),
                &self.dims[c.0 as usize][..],
                &self.shapes[c.0 as usize][..],
            ),
        };
        let [(a_src, a_dims, a_shape), (b_src, b_dims, b_shape)] = [operand(left), operand(right)];
        let (a, a_strides) = kept(0, a_dims, a_shape);
        let (b, b_strides) = kept(1, b_dims, b_shape);
        let (out, out_strides) = kept(2, dims, shape);
        let spec = BinaryContraction { a, b, out };
        let reduce = [(true, &a_strides), (false, &b_strides)]
            .map(|(is_a, strides)| ExclusiveReduction::new(&spec, self.space, strides, is_a));
        // A reduced operand is read densely from its scratch.
        let [a_strides, b_strides] = [(0, a_strides), (1, b_strides)].map(|(k, strides)| {
            reduce[k]
                .as_ref()
                .map_or(strides, |r| row_major_strides(&r.kept_shape))
        });
        let strides = [&a_strides[..], &b_strides, &out_strides];
        let plan = plan_for_strided(&spec.pre_reduced(), self.space, strides);
        let site = program.sites.len();
        for (&l, step) in open.iter().zip(steps).filter(|(_, step)| *step != [0; 3]) {
            levels[l].steps.push((site, step));
        }
        program.calls += times as u64;
        program.ops.push(Op::Contract(site));
        let (arrays, sources) = ([left, right, v], [a_src, b_src]);
        program.sites.push(ProgramSite {
            arrays,
            sources,
            reduce,
            plan,
            max_bases,
        });
    }

    /// Run the top-level steps' `programs` in schedule order on `arrays`
    /// (by node).  A step brings its `allocs` to life (zeroed from the
    /// pool) and returns its `releases`.
    fn run_steps(&self, programs: &[SliceProgram], arrays: &mut [Option<Tensor>]) {
        for (life, program) in self.schedule.lifetimes.iter().zip(programs) {
            // A top-level `Zero`: arrays are born zeroed.
            if life.writes.is_empty() {
                continue;
            }
            tce_trace::mem_alloc(bytes_of(self.elements(&life.allocs)));
            for &n in &life.writes {
                let shape = &self.shapes[n.0 as usize];
                arrays[n.0 as usize].get_or_insert_with(|| Tensor::zeros_pooled(shape));
            }
            // Every array of the step goes into its nest once: until the
            // step ends, its elements are reached only through the nest.
            let touched =
                |n: u32| life.writes.contains(&NodeId(n)) || life.reads.contains(&NodeId(n));
            let mut nest = NestArrays::new();
            let slots: Vec<Option<usize>> = (0..)
                .zip(arrays.iter_mut())
                .map(|(n, cell)| {
                    let array = cell.as_mut().filter(|_| touched(n))?;
                    Some(nest.array(array.data_mut()))
                })
                .collect();
            self.run_program(program, nest, &slots);
            for n in &life.releases {
                if let Some(array) = arrays[n.0 as usize].take() {
                    array.recycle();
                }
            }
            tce_trace::mem_free(bytes_of(self.elements(&life.releases)));
        }
    }

    /// Run one step's program on `nest`, which holds the arrays of its
    /// read/write sets (`slots`: each node's index in it).  Binding proves
    /// every site's bounds and takes its reduction scratch once; then each
    /// op is a loop-counter update, a zero fill, a function slice or one
    /// kernel call.  When tracing, the clock is read at the start and the
    /// end of the loop and around each function slice (a packed call times
    /// itself): the rest is the direct calls' kernel time, added to
    /// `gett.kernel_ns` once.
    fn run_program<'n>(
        &'n self,
        program: &'n SliceProgram,
        mut nest: NestArrays<'n>,
        slots: &[Option<usize>],
    ) {
        let slot = |n: NodeId| slots[n.0 as usize].expect("produced by this or an earlier step");
        let calls: Vec<usize> = (0..)
            .zip(&program.sites)
            .map(|(s, site)| {
                let operands = [0, 1].map(|k| match site.sources[k] {
                    Source::Data(data) => (nest.input(data), site.reduce[k].as_ref()),
                    Source::Array(c) => (NestArray::Array(slot(c)), site.reduce[k].as_ref()),
                });
                let out = slot(site.arrays[2]);
                let bound = nest.bind(&site.plan, operands, out, site.max_bases, self.threads);
                bound.unwrap_or_else(|overrun| {
                    let array = ["a", "b", "c"].iter().position(|&x| x == overrun.array);
                    let node = site.arrays[array.expect("one of three arrays")].0;
                    panic!("slice program: array %{node} is too short for site #{s} ({overrun})")
                })
            })
            .collect();

        let start = tce_trace::enabled().then(tce_trace::now_ns);
        let (levels, mut func_ns, mut pc) = (&program.levels, 0, 0);
        let mut counters = vec![0usize; levels.len()];
        let mut bases = vec![[0usize; 3]; program.sites.len()];
        while let Some(op) = program.ops.get(pc) {
            pc += 1;
            match *op {
                Op::Loop(_) => {}
                Op::Next { level, body } => {
                    // Step the level's sites forward, or rewind them after
                    // its last iteration.
                    let l = &levels[level];
                    let i = Some(counters[level] + 1).filter(|&i| i < l.extent);
                    counters[level] = i.unwrap_or(0);
                    for &(s, step) in &l.steps {
                        for (base, step) in bases[s].iter_mut().zip(step) {
                            match i {
                                Some(_) => *base += step,
                                None => *base -= step * (l.extent - 1),
                            }
                        }
                    }
                    pc = i.map_or(pc, |_| body);
                }
                Op::Zero(v) => nest.get_mut(slot(v)).fill(0.0),
                Op::Contract(s) => nest.run(calls[s], bases[s]),
                Op::Func(node, _, f, ref args) => {
                    let t0 = start.map(|_| tce_trace::now_ns());
                    let out = nest.get_mut(slot(node));
                    self.func_slice(node, f, args, &counters, out);
                    func_ns += t0.map_or(0, |t0| tce_trace::now_ns() - t0);
                }
            }
        }
        let direct = |site: &ProgramSite| site.plan.path() != "packed";
        if let Some(t0) = start.filter(|_| program.sites.iter().any(direct)) {
            let other_ns = nest.packed_ns() + func_ns;
            let direct_ns = (tce_trace::now_ns() - t0).saturating_sub(other_ns);
            tce_trace::counter("gett.kernel_ns", direct_ns);
        }
        nest.finish();
    }

    /// Materialize a function leaf's reduced array into `out` for the
    /// pinned argument values (`at`: the loop counters), parallel over
    /// element chunks (disjoint, so the result is identical for every
    /// thread count).
    fn func_slice(&self, v: NodeId, f: &IntegralFn, args: &[Arg], at: &[usize], out: &mut [f64]) {
        let shape = &self.shapes[v.0 as usize];
        parallel_chunks_mut(out, self.threads, |start, chunk| {
            let mut idx = vec![0usize; shape.len()];
            let mut rem = start;
            for d in (0..shape.len()).rev() {
                idx[d] = rem % shape[d];
                rem /= shape[d];
            }
            let mut argv = vec![0usize; args.len()];
            for x in chunk.iter_mut() {
                for (slot, a) in argv.iter_mut().zip(args) {
                    *slot = match *a {
                        Arg::Level(l) => at[l],
                        Arg::Dim(d) => idx[d],
                    };
                }
                *x = f.eval(&argv);
                Tensor::advance(&mut idx, shape);
            }
        });
    }
}

/// One top-level step lowered for execution: a flat op list over loop
/// levels, built once per execution and bound to storage at step entry.
#[derive(Default)]
struct SliceProgram<'a> {
    levels: Vec<Level<'a>>,
    ops: Vec<Op<'a>>,
    /// Contraction sites, in op order.
    sites: Vec<ProgramSite<'a>>,
    /// Kernel calls one run makes.
    calls: u64,
    /// Function-element evaluations one run makes.
    evals: u64,
}

/// One loop level: its index, its extent, and each site inside it whose
/// bases move with the index, by how much per step (operand a, operand b,
/// output).
struct Level<'a> {
    index: IndexVar,
    name: &'a str,
    extent: usize,
    steps: Vec<(usize, [usize; 3])>,
}

enum Op<'a> {
    /// The head of loop `level`, whose body runs at least once.
    Loop(usize),
    /// Step loop `level`: move its sites' bases and jump back to `body`,
    /// or rewind them and fall through after the last iteration.
    Next { level: usize, body: usize },
    /// Re-zero a node's array in place.
    Zero(NodeId),
    /// One kernel call of a contraction site.
    Contract(usize),
    /// Materialize a function leaf's array (node, function name and
    /// function) for the pinned arguments.
    Func(NodeId, &'a str, &'a IntegralFn, Vec<Arg>),
}

/// A function-slice argument: a pinned index (by loop level) or a
/// dimension of the materialized array.
#[derive(Clone, Copy)]
enum Arg {
    Level(usize),
    Dim(usize),
}

/// Where a contraction reads an operand: bound elements (an input, or the
/// `One` leaf's single `1.0`), or the array a producer fills in this or
/// an earlier step.
#[derive(Clone, Copy)]
enum Source<'a> {
    Data(&'a [f64]),
    Array(NodeId),
}

/// A contraction site: one strided plan over the kept dimensions of its
/// operands and output (`arrays`: left, right, output node).
struct ProgramSite<'a> {
    arrays: [NodeId; 3],
    sources: [Source<'a>; 2],
    /// Per operand, the pass that first sums out a summation index living
    /// in it alone; the plan then reads the pass's dense result.
    reduce: [Option<ExclusiveReduction>; 2],
    plan: Arc<ContractionPlan>,
    /// The largest base of each array: every pinned index at its last
    /// value.
    max_bases: [usize; 3],
}

impl fmt::Display for SliceProgram<'_> {
    /// The lowered stage, one op per line indented by loop depth; a loop
    /// line lists each site whose bases it moves, per array.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (levels, sites, calls) = (self.levels.len(), self.sites.len(), self.calls);
        writeln!(f, "@slices: {levels} levels, {sites} sites, {calls} calls")?;
        let name = |l: usize| self.levels[l].name;
        let mut pad = String::from("  ");
        for op in &self.ops {
            match *op {
                Op::Loop(l) => {
                    let Level {
                        name,
                        extent,
                        steps,
                        ..
                    } = &self.levels[l];
                    write!(f, "{pad}loop {name} < {extent}")?;
                    for (s, step) in steps {
                        let moves = ["a", "b", "c"].iter().zip(step).filter(|(_, &i)| i > 0);
                        let moves: String = moves.map(|(x, i)| format!(" {x}+{i}")).collect();
                        write!(f, " #{s}{moves}")?;
                    }
                    writeln!(f)?;
                    pad.push_str("  ");
                }
                Op::Next { .. } => pad.truncate(pad.len() - 2),
                Op::Zero(v) => writeln!(f, "{pad}zero %{}", v.0)?,
                Op::Contract(s) => {
                    let ProgramSite {
                        arrays,
                        reduce,
                        plan: p,
                        ..
                    } = &self.sites[s];
                    let [a, b, c] = arrays.map(|n| n.0);
                    let reduced = (reduce.iter().zip(["reduce a, ", "reduce b, "]))
                        .filter_map(|(r, text)| r.as_ref().map(|_| text));
                    let (reduced, path) = (reduced.collect::<String>(), p.path());
                    let batch = (p.nb > 1).then(|| format!("{}x", p.nb));
                    let batch = batch.unwrap_or_default();
                    let (m, n, k) = (p.m, p.n, p.k);
                    writeln!(
                        f,
                        "{pad}#{s} %{c} += %{a}·%{b}: {reduced}{path} {batch}{m}x{n}x{k}"
                    )?;
                }
                Op::Func(node, func, _, ref args) => {
                    let arg = |a: &Arg| match *a {
                        Arg::Level(l) => name(l),
                        Arg::Dim(_) => ":",
                    };
                    let args: Vec<&str> = args.iter().map(arg).collect();
                    writeln!(f, "{pad}%{} = {func}({})", node.0, args.join(", "))?;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::execute_tree;
    use tce_fusion::memmin_dp;
    use tce_ir::{IndexSet, TensorDecl, TensorTable};

    /// Paper Fig. 1's tree at extent `n_ext`, T1 and T2, and its four
    /// inputs bound to random values.
    fn fig1(n_ext: usize) -> (IndexSpace, OpTree, NodeId, NodeId, Vec<(TensorId, Tensor)>) {
        let mut space = IndexSpace::new();
        let n = space.add_range("N", n_ext);
        let vs = space.add_vars("a b c d e f i j k l", n);
        let [a, b, c, d, e, f, i, j, k, l] = std::array::from_fn(|x| vs[x]);
        let mut tensors = TensorTable::new();
        let [ta, tb, tc, td] =
            ["A", "B", "C", "D"].map(|nm| tensors.add(TensorDecl::dense(nm, vec![n; 4])));
        let mut tree = OpTree::new();
        let lb = tree.leaf_input(tb, vec![b, e, f, l]);
        let ld = tree.leaf_input(td, vec![c, d, e, l]);
        let t1 = tree.contract(lb, ld, IndexSet::from_vars([b, c, d, f]));
        let lc = tree.leaf_input(tc, vec![d, f, j, k]);
        let t2 = tree.contract(t1, lc, IndexSet::from_vars([b, c, j, k]));
        let la = tree.leaf_input(ta, vec![a, c, i, k]);
        tree.contract(t2, la, IndexSet::from_vars([a, b, i, j]));
        let ids = [ta, tb, tc, td].into_iter().zip(40..);
        let vals = ids
            .map(|(id, seed)| (id, Tensor::random(&[n_ext; 4], seed)))
            .collect();
        (space, tree, t1, t2, vals)
    }

    fn bind(vals: &[(TensorId, Tensor)]) -> HashMap<TensorId, &Tensor> {
        vals.iter().map(|(id, t)| (*id, t)).collect()
    }

    fn run(
        (tree, space, cfg): (&OpTree, &IndexSpace, &FusionConfig),
        inputs: &HashMap<TensorId, &Tensor>,
        funcs: &HashMap<String, IntegralFn>,
        threads: usize,
    ) -> Result<FusedExecReport, ExecError> {
        let opts = ExecOptions::with_threads(threads);
        execute_tree_fused(tree, space, cfg, inputs, funcs, &opts)
    }

    fn rel_close(a: &Tensor, b: &Tensor, tol: f64) -> bool {
        let scale = b.data().iter().fold(0.0f64, |m, x| m.max(x.abs())).max(1.0);
        a.max_abs_diff(b) <= tol * scale
    }

    /// Fig. 1(c): T1 fused to a scalar, T2 to its `(j, k)` plane.
    fn fig1c(space: &IndexSpace, tree: &OpTree, t1: NodeId, t2: NodeId) -> FusionConfig {
        let mut cfg = FusionConfig::unfused(tree);
        cfg.set(t1, space.parse_set("b,c,d,f").unwrap());
        cfg.set(t2, space.parse_set("b,c").unwrap());
        cfg
    }

    #[test]
    fn fig1c_fused_matches_treeexec_with_model_peak() {
        let (space, tree, t1, t2, vals) = fig1(4);
        let (inputs, none) = (bind(&vals), HashMap::new());
        let expect = execute_tree(&tree, &space, &inputs, &none, 1).unwrap();
        let cfg = fig1c(&space, &tree, t1, t2);
        for threads in [1, 2, 4] {
            let rep = run((&tree, &space, &cfg), &inputs, &none, threads).unwrap();
            assert!(rel_close(&rep.result, &expect, 1e-12));
            // T1 scalar + T2 at N².
            assert_eq!(rep.peak_live_elements, 1 + 16);
            assert!(rep.peak_matches_model());
        }
    }

    #[test]
    fn graph_schedule_is_bitwise_identical_and_keeps_model_peak() {
        let (space, tree, t1, t2, vals) = fig1(4);
        let (inputs, none) = (bind(&vals), HashMap::new());
        let cfg = fig1c(&space, &tree, t1, t2);
        let seq = run((&tree, &space, &cfg), &inputs, &none, 1).unwrap();
        for threads in [1, 2, 4, 8] {
            let rep = run((&tree, &space, &cfg), &inputs, &none, threads).unwrap();
            let what = format!("{threads} threads diverged from one");
            assert_eq!(rep.result, seq.result, "{what}");
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
        let (space, tree, _, _, vals) = fig1(3);
        let (inputs, none) = (bind(&vals), HashMap::new());
        let expect = execute_tree(&tree, &space, &inputs, &none, 1).unwrap();
        let r = memmin_dp(&tree, &space);
        for cfg in [FusionConfig::unfused(&tree), r.config.clone()] {
            let rep = run((&tree, &space, &cfg), &inputs, &none, 1).unwrap();
            assert!(rel_close(&rep.result, &expect, 1e-12));
            assert_eq!(rep.peak_live_elements, cfg.temp_memory(&tree, &space));
        }
    }

    #[test]
    fn func_leaves_fuse_to_scalars() {
        // E = Σ_ce f1(c,e)·f2(c,e), fully fused: all intermediates scalar.
        let mut space = IndexSpace::new();
        let n = space.add_range("V", 5);
        let (c, e) = (space.add_var("c", n), space.add_var("e", n));
        let mut tree = OpTree::new();
        let f1 = tree.leaf_func("f1", vec![c, e], 100);
        let f2 = tree.leaf_func("f2", vec![c, e], 100);
        tree.contract(f1, f2, IndexSet::EMPTY);
        let funcs = HashMap::from([
            ("f1".to_string(), IntegralFn::new(100, 0xF1)),
            ("f2".to_string(), IntegralFn::new(100, 0xF2)),
        ]);
        let expect = execute_tree(&tree, &space, &HashMap::new(), &funcs, 1).unwrap();
        let mut cfg = FusionConfig::unfused(&tree);
        cfg.set(f1, IndexSet::from_vars([c, e]));
        cfg.set(f2, IndexSet::from_vars([c, e]));
        let rep = run((&tree, &space, &cfg), &HashMap::new(), &funcs, 3).unwrap();
        assert!(rel_close(&rep.result, &expect, 1e-12));
        assert_eq!(rep.peak_live_elements, 2); // two scalars
        assert_eq!(rep.func_evals, 2 * 25);
    }

    #[test]
    fn missing_bindings_are_typed_errors() {
        let (space, tree, _, _, _) = fig1(2);
        let cfg = FusionConfig::unfused(&tree);
        let err = run((&tree, &space, &cfg), &HashMap::new(), &HashMap::new(), 1).unwrap_err();
        assert!(matches!(err, ExecError::MissingInput { .. }), "{err}");
    }

    #[test]
    fn illegal_config_is_an_invalid_program_error() {
        let (space, tree, t1, t2, vals) = fig1(2);
        let mut cfg = FusionConfig::unfused(&tree);
        cfg.set(t2, space.parse_set("b,c,j,k").unwrap());
        cfg.set(t1, space.parse_set("b,c,d,f").unwrap());
        let err = run((&tree, &space, &cfg), &bind(&vals), &HashMap::new(), 1).unwrap_err();
        assert!(matches!(err, ExecError::InvalidProgram { .. }), "{err}");
    }

    /// Lower `cfg` on `tree` and hand `f` the walk and its programs.
    fn lowered<R>(
        (tree, space, cfg): (&OpTree, &IndexSpace, &FusionConfig),
        inputs: &HashMap<TensorId, &Tensor>,
        f: impl FnOnce(&Walk, &[SliceProgram]) -> R,
    ) -> R {
        let (lowering, funcs) = (cfg.lowering(tree).unwrap(), HashMap::new());
        let walk = Walk::new(tree, space, &lowering, inputs, &funcs, 1);
        let programs: Vec<SliceProgram> =
            walk.schedule.steps.iter().map(|s| walk.lower(s)).collect();
        f(&walk, &programs)
    }

    #[test]
    fn memmin_slice_program_prints_its_levels_increments_and_calls() {
        // The §2 term at N = 4 under memmin (Fig. 1(c)): T1 (%2) a scalar
        // dot per (b, c, d, f), T2 (%4) an outer product into its (j, k)
        // plane per (b, c, d, f), S (%6) one call per (b, c) whose path
        // depends on the variant's register tile.
        let (space, tree, _, _, vals) = fig1(4);
        let cfg = memmin_dp(&tree, &space).config;
        let text = lowered((&tree, &space, &cfg), &bind(&vals), |_, programs| {
            programs.iter().map(ToString::to_string).collect::<String>()
        });
        use tce_tensor::KernelVariant::*;
        let (t2, s) = match tce_tensor::kernels::active() {
            Avx2 => ("lanes", "direct"),
            Sse2 => ("direct", "packed"),
            Scalar => ("direct", "direct"),
        };
        let want = format!(
            "@slices: 0 levels, 0 sites, 0 calls
  zero %6
@slices: 4 levels, 3 sites, 528 calls
  loop b < 4 #0 a+64 #2 c+16
    loop c < 4 #0 b+64 #2 b+16
      zero %4
      loop d < 4 #0 b+16 #1 b+64
        loop f < 4 #0 a+4 #1 b+16
          zero %2
          #0 %2 += %0·%1: dot 1x1x16
          #1 %4 += %2·%3: {t2} 1x16x1
      #2 %6 += %4·%5: {s} 4x16x4
"
        );
        assert_eq!(text, want);
    }

    #[test]
    #[should_panic(expected = "array %4 is too short for site #1 (c: base 0 + span 16 exceeds 15")]
    fn binding_an_array_one_element_short_panics_naming_it() {
        // T2 (%4) is the output of site #1 and holds its 16-element (j, k)
        // plane: bound one element short, the step refuses to run at all.
        let (space, tree, t1, t2, vals) = fig1(4);
        let cfg = fig1c(&space, &tree, t1, t2);
        lowered((&tree, &space, &cfg), &bind(&vals), |walk, programs| {
            let step = programs.iter().position(|p| !p.sites.is_empty()).unwrap();
            let mut arrays: Vec<Tensor> = walk.shapes.iter().map(|s| Tensor::zeros(s)).collect();
            arrays[t2.0 as usize] = Tensor::zeros(&[15]);
            let mut nest = NestArrays::new();
            let slots: Vec<Option<usize>> = (arrays.iter_mut())
                .map(|t| Some(nest.array(t.data_mut())))
                .collect();
            walk.run_program(&programs[step], nest, &slots);
        });
    }
}
