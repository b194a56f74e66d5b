//! Sharded execution of distribution plans.
//!
//! This is the module that turns the §7 distribution stage from a cost
//! model into a runnable machine: every tensor is materialized as
//! *per-rank shard buffers* laid out by its [`DistTuple`] over the
//! [`ProcessorGrid`], contractions run rank-parallel over their γ-local
//! iteration subspaces on the `tce-par` pool, redistribution is performed
//! as **block transfers** between shard buffers (one `memcpy`-backed box
//! per (destination, canonical source) pair — not the element-by-element
//! ownership enumeration of [`crate::sim`]), and partial sums from
//! distributed summation indices are combined with a **binomial reduction
//! tree**.
//!
//! Measured traffic is accounted exactly:
//!
//! * [`redistribute`] counts every element that lands on a rank other than
//!   the one already holding it; this equals the closed-form
//!   [`crate::cost::move_cost`] by construction — the kept sub-blocks are
//!   precisely the per-dimension range intersections the model subtracts.
//! * [`reduce_partial_sums`] counts, per tree round, the largest transfer
//!   in flight (the round's makespan under simultaneous transfers); summed
//!   over the ⌈log₂ p⌉ rounds of every summation grid dimension this
//!   equals [`crate::cost::reduce_cost`].
//!
//! The shared-memory pool substitutes for the message-passing machine the
//! paper assumes (see DESIGN §8): "ranks" are logical, shard buffers live
//! in one address space, and a transfer is a block copy — but ownership,
//! communication volume, and the reduction schedule are exactly those of
//! the distributed-memory algorithm, which is what the cost model is
//! validated against.  [`crate::sim`] remains the small-extent oracle this
//! executor is differentially tested against.

use crate::cost::{after_reduction, move_cost, reduce_cost, ReduceMode};
use crate::dp::{DistPlan, Machine};
use crate::error::DistError;
use crate::tuple::{DistEntry, DistTuple};
use std::borrow::Cow;
use std::collections::HashMap;
use std::ops::Range;
use tce_ir::{IndexSet, IndexSpace, IndexVar, Leaf, NodeId, OpKind, OpTree, TensorId};
use tce_par::{myrange, owner_of, parallel_map, ProcessorGrid};
use tce_tensor::{BinaryContraction, IntegralFn, Tensor};

/// A tensor materialized as per-rank shard buffers under a distribution
/// tuple.
///
/// `shards[id]` is `Some` exactly when rank `id` holds data under
/// [`DistTuple::holds`] *and* every owned range of the tensor's dimensions
/// is non-empty (a rank whose block is empty — e.g. more processors than
/// elements along a dimension — stores nothing).  Replicated dimensions
/// store a full copy per rank, as on a real machine.
#[derive(Debug, Clone)]
pub struct ShardedTensor {
    /// Dimension-order index variables of the global tensor.
    pub dims: Vec<IndexVar>,
    /// The distribution the shards are laid out by.
    pub tuple: DistTuple,
    /// One buffer per linear processor id.
    pub shards: Vec<Option<Tensor>>,
}

impl ShardedTensor {
    /// The tensor's index-variable set.
    pub fn index_set(&self) -> IndexSet {
        IndexSet::from_vars(self.dims.iter().copied())
    }

    /// The owned sub-ranges of every dimension at `coords` (full ranges
    /// for undistributed dimensions).
    fn owned_box(
        &self,
        space: &IndexSpace,
        grid: &ProcessorGrid,
        coords: &[usize],
    ) -> Vec<Range<usize>> {
        self.dims
            .iter()
            .map(|&v| self.tuple.owned_range(v, space, grid, coords))
            .collect()
    }
}

/// Does `coords` store a (non-empty) shard of an array with dims `dims`
/// under `tuple`?  Returns the owned box when it does.
fn shard_box(
    dims: &[IndexVar],
    tuple: &DistTuple,
    space: &IndexSpace,
    grid: &ProcessorGrid,
    coords: &[usize],
) -> Option<Vec<Range<usize>>> {
    let set = IndexSet::from_vars(dims.iter().copied());
    if !tuple.holds(set, coords) {
        return None;
    }
    let ranges: Vec<Range<usize>> = dims
        .iter()
        .map(|&v| tuple.owned_range(v, space, grid, coords))
        .collect();
    if ranges.iter().any(|r| r.is_empty()) {
        return None;
    }
    Some(ranges)
}

/// Split a global tensor into per-rank shard buffers under `tuple`.
pub fn scatter(
    global: &Tensor,
    dims: &[IndexVar],
    tuple: &DistTuple,
    space: &IndexSpace,
    grid: &ProcessorGrid,
) -> ShardedTensor {
    let _span = tce_trace::span("dist.scatter");
    let shards = grid
        .processors()
        .map(|id| {
            let z = grid.coords(id);
            shard_box(dims, tuple, space, grid, &z).map(|ranges| {
                let starts: Vec<usize> = ranges.iter().map(|r| r.start).collect();
                let lens: Vec<usize> = ranges.iter().map(|r| r.len()).collect();
                global.extract_block(&starts, &lens)
            })
        })
        .collect();
    ShardedTensor {
        dims: dims.to_vec(),
        tuple: tuple.clone(),
        shards,
    }
}

/// Assemble the global tensor from shard buffers.  Only *canonical* ranks
/// contribute (coordinate 0 along every grid dimension that does not
/// distribute one of the tensor's dims), so replicas are pasted once.
pub fn gather(src: &ShardedTensor, space: &IndexSpace, grid: &ProcessorGrid) -> Tensor {
    let _span = tce_trace::span("dist.gather");
    let shape: Vec<usize> = src.dims.iter().map(|&v| space.extent(v)).collect();
    let mut out = Tensor::zeros(&shape);
    let set = src.index_set();
    let covering: Vec<bool> = src
        .tuple
        .0
        .iter()
        .map(|e| matches!(e, DistEntry::Idx(v) if set.contains(*v)))
        .collect();
    for id in grid.processors() {
        let z = grid.coords(id);
        if !z.iter().zip(&covering).all(|(&zd, &cov)| cov || zd == 0) {
            continue;
        }
        if let Some(shard) = &src.shards[id] {
            let starts: Vec<usize> = src
                .owned_box(space, grid, &z)
                .iter()
                .map(|r| r.start)
                .collect();
            out.paste_block(&starts, shard);
        }
    }
    out
}

/// One per-dimension piece of a destination block, attributed to its
/// canonical source rank along the grid dimension that distributes the
/// variable (`None` when the source does not distribute it).
struct Seg {
    range: Range<usize>,
    owner: Option<(usize, usize)>, // (grid dim, source coordinate)
}

/// Re-lay a sharded tensor from its current tuple to `to`, moving data as
/// block transfers between shard buffers.  Returns the new sharding and
/// the number of elements that changed rank — which equals
/// [`crate::cost::move_cost`]`(dims, space, grid, from, to)` exactly.
///
/// Every destination rank pulls each piece of its `to`-block from a
/// *canonical* source: along grid dimensions where the source distributes
/// one of the tensor's variables the piece's owner is forced; along `1`
/// dimensions the source coordinate is 0; along replicated dimensions the
/// destination prefers **itself** (this is what makes the paper's
/// `⟨j,*,1⟩ → ⟨j,t,1⟩` example cost zero: every piece is already local).
pub fn redistribute(
    src: &ShardedTensor,
    to: &DistTuple,
    space: &IndexSpace,
    grid: &ProcessorGrid,
) -> (ShardedTensor, u128) {
    relayout(Cow::Borrowed(src), to, space, grid)
}

/// [`redistribute`] of a borrowed or an owned value: an owned one whose
/// layout already matches keeps its shard buffers instead of copying them.
fn relayout(
    src: Cow<'_, ShardedTensor>,
    to: &DistTuple,
    space: &IndexSpace,
    grid: &ProcessorGrid,
) -> (ShardedTensor, u128) {
    let set = src.index_set();
    // Identical layouts (up to normalization) hold the same shards.
    if src.tuple.normalize(set) == to.normalize(set) {
        let mut out = src.into_owned();
        out.tuple = to.clone();
        return (out, 0);
    }
    let _span = tce_trace::span("dist.redistribute");
    let from = &src.tuple;
    let mut moved = 0u128;
    let mut shards: Vec<Option<Tensor>> = vec![None; grid.num_processors()];
    for id in grid.processors() {
        let z = grid.coords(id);
        let Some(dst_ranges) = shard_box(&src.dims, to, space, grid, &z) else {
            continue;
        };
        let lens: Vec<usize> = dst_ranges.iter().map(|r| r.len()).collect();
        let mut dst = Tensor::zeros(&lens);
        // Per-dimension decomposition of the needed box into segments by
        // canonical source.
        let segs: Vec<Vec<Seg>> = src
            .dims
            .iter()
            .zip(&dst_ranges)
            .map(|(&v, need)| {
                let from_dim = from
                    .0
                    .iter()
                    .position(|e| *e == DistEntry::Idx(v) && set.contains(v));
                match from_dim {
                    Some(d) => {
                        let (n, p) = (space.extent(v), grid.dims()[d]);
                        let mut out = Vec::new();
                        let mut i = need.start;
                        while i < need.end {
                            let w = owner_of(i, n, p);
                            let end = need.end.min(myrange(w, n, p).end);
                            out.push(Seg {
                                range: i..end,
                                owner: Some((d, w)),
                            });
                            i = end;
                        }
                        out
                    }
                    None => vec![Seg {
                        range: need.clone(),
                        owner: None,
                    }],
                }
            })
            .collect();
        // Base source coordinates: `1` entries force 0, replicated entries
        // prefer the destination itself; distributed entries are filled in
        // per segment combination.
        let mut base = z.clone();
        for (d, e) in from.0.iter().enumerate() {
            if *e == DistEntry::One {
                base[d] = 0;
            }
        }
        // Odometer over the cartesian product of per-dimension segments.
        let mut pick = vec![0usize; segs.len()];
        loop {
            let mut w = base.clone();
            let mut elems = 1u128;
            for (dim, &s) in pick.iter().enumerate() {
                let seg = &segs[dim][s];
                if let Some((d, coord)) = seg.owner {
                    w[d] = coord;
                }
                elems = elems.saturating_mul(seg.range.len() as u128);
            }
            let src_id = grid.id_of(&w);
            let shard = src.shards[src_id]
                .as_ref()
                .expect("canonical source holds every referenced block");
            if w != z {
                moved = moved.saturating_add(elems);
            }
            // Block copy: segment coordinates relative to each buffer.
            let src_starts: Vec<usize> = src
                .dims
                .iter()
                .zip(pick.iter().enumerate())
                .map(|(&v, (dim, &s))| {
                    segs[dim][s].range.start - from.owned_range(v, space, grid, &w).start
                })
                .collect();
            let seg_lens: Vec<usize> = pick
                .iter()
                .enumerate()
                .map(|(dim, &s)| segs[dim][s].range.len())
                .collect();
            let dst_starts: Vec<usize> = pick
                .iter()
                .enumerate()
                .map(|(dim, &s)| segs[dim][s].range.start - dst_ranges[dim].start)
                .collect();
            dst.paste_block(&dst_starts, &shard.extract_block(&src_starts, &seg_lens));
            // Advance.
            let mut dim = segs.len();
            loop {
                if dim == 0 {
                    break;
                }
                dim -= 1;
                pick[dim] += 1;
                if pick[dim] < segs[dim].len() {
                    break;
                }
                pick[dim] = 0;
            }
            if pick.iter().all(|&s| s == 0) {
                break;
            }
        }
        shards[id] = Some(dst);
    }
    tce_trace::counter("dist.redistributions", 1);
    tce_trace::counter_u128("dist.move_elements", moved);
    (
        ShardedTensor {
            dims: src.dims.clone(),
            tuple: to.clone(),
            shards,
        },
        moved,
    )
}

/// An [`IndexSpace`] whose extents are rank `z`'s γ-local block lengths
/// (variables keep their global ids and names, so contraction specs carry
/// over unchanged).
fn local_space(
    space: &IndexSpace,
    grid: &ProcessorGrid,
    gamma: &DistTuple,
    z: &[usize],
) -> IndexSpace {
    let mut sp = IndexSpace::new();
    for v in space.vars() {
        let ext = gamma.owned_range(v, space, grid, z).len();
        let r = sp.add_range(&format!("__loc{}", v.0), ext);
        sp.add_var(space.var_name(v), r);
    }
    sp
}

/// Run one binary contraction rank-parallel over γ-local iteration
/// subspaces.  Operand shardings must already be the γ-projections onto
/// each operand's indices (the caller redistributes first).  The returned
/// sharding carries `gamma` itself: ranks along summation grid dimensions
/// hold *partial* sums until [`reduce_partial_sums`] combines them.
///
/// Returns the sharded (pre-reduction) result and per-rank multiply-add
/// flop counts.
#[allow(clippy::too_many_arguments)]
pub fn contract_sharded(
    a: &ShardedTensor,
    b: &ShardedTensor,
    out_dims: &[IndexVar],
    space: &IndexSpace,
    grid: &ProcessorGrid,
    gamma: &DistTuple,
    threads: usize,
) -> (ShardedTensor, Vec<u128>) {
    let _span = tce_trace::span("dist.contract");
    let loops = a.index_set().union(b.index_set());
    let p = grid.num_processors();
    // Per-rank local contraction.  With several ranks each local GETT runs
    // single-threaded and the pool parallelizes across ranks; a 1×…×1
    // grid keeps the full thread count inside the one local kernel.
    let local_threads = if p == 1 { threads } else { 1 };
    let spec = BinaryContraction {
        a: a.dims.clone(),
        b: b.dims.clone(),
        out: out_dims.to_vec(),
    };
    let results: Vec<(Option<Tensor>, u128)> = parallel_map(p, threads.min(p), |id| {
        let z = grid.coords(id);
        // A `1` entry in γ concentrates the node on coordinate 0; other
        // ranks neither compute nor hold output.
        let Some(out_ranges) = shard_box(out_dims, gamma, space, grid, &z) else {
            return (None, 0);
        };
        let out_lens: Vec<usize> = out_ranges.iter().map(|r| r.len()).collect();
        let local_points: u128 = loops
            .iter()
            .map(|v| gamma.owned_range(v, space, grid, &z).len() as u128)
            .product();
        if local_points == 0 {
            // An empty local summation range: this rank contributes a
            // zero partial block.
            return (Some(Tensor::zeros(&out_lens)), 0);
        }
        let lsp = local_space(space, grid, gamma, &z);
        let av = a.shards[id]
            .as_ref()
            .expect("operand shard present on computing rank");
        let bv = b.shards[id]
            .as_ref()
            .expect("operand shard present on computing rank");
        let value = tce_tensor::contract_gett(&spec, &lsp, av, bv, local_threads);
        (Some(value), 2 * local_points)
    });
    let mut shards = Vec::with_capacity(p);
    let mut flops = Vec::with_capacity(p);
    for (t, f) in results {
        shards.push(t);
        flops.push(f);
    }
    (
        ShardedTensor {
            dims: out_dims.to_vec(),
            tuple: gamma.clone(),
            shards,
        },
        flops,
    )
}

/// Combine partial sums along every grid dimension that distributed a
/// summation index, with a binomial reduction tree (⌈log₂ p⌉ rounds per
/// dimension); [`ReduceMode::Replicate`] broadcasts the combined value
/// back down the same tree.  Returns the measured reduction traffic in
/// words: per round, the largest transfer in flight — which equals
/// [`crate::cost::reduce_cost`] for the same γ/mode.
pub fn reduce_partial_sums(
    out: &mut ShardedTensor,
    sum_indices: IndexSet,
    _space: &IndexSpace,
    grid: &ProcessorGrid,
    mode: ReduceMode,
) -> u128 {
    let gamma = out.tuple.clone();
    let mut words = 0u128;
    for (d, e) in gamma.0.iter().enumerate() {
        let DistEntry::Idx(v) = *e else { continue };
        if !sum_indices.contains(v) {
            continue;
        }
        let p = grid.dims()[d];
        if p > 1 {
            let _span = tce_trace::span("dist.reduce");
            let mut strides = Vec::new();
            let mut stride = 1usize;
            while stride < p {
                strides.push(stride);
                stride *= 2;
            }
            // Combine up the tree.
            for &stride in &strides {
                let mut round_max = 0u128;
                for id in grid.processors() {
                    let z = grid.coords(id);
                    if !z[d].is_multiple_of(2 * stride) || z[d] + stride >= p {
                        continue;
                    }
                    let mut zs = z.clone();
                    zs[d] += stride;
                    let sender_id = grid.id_of(&zs);
                    if let Some(sent) = out.shards[sender_id].take() {
                        round_max = round_max.max(sent.len() as u128);
                        match &mut out.shards[id] {
                            Some(acc) => acc.axpy(1.0, &sent),
                            none => *none = Some(sent),
                        }
                    }
                }
                words = words.saturating_add(round_max);
            }
            match mode {
                ReduceMode::Combine => {
                    // Stale partials on non-zero coordinates are dropped
                    // (already consumed by `take` on power-of-two senders;
                    // clear the rest).
                    for id in grid.processors() {
                        if grid.coords(id)[d] != 0 {
                            out.shards[id] = None;
                        }
                    }
                }
                ReduceMode::Replicate => {
                    // Broadcast back down the same tree.
                    for &stride in strides.iter().rev() {
                        let mut round_max = 0u128;
                        for id in grid.processors() {
                            let z = grid.coords(id);
                            if !z[d].is_multiple_of(2 * stride) || z[d] + stride >= p {
                                continue;
                            }
                            let mut zr = z.clone();
                            zr[d] += stride;
                            let receiver_id = grid.id_of(&zr);
                            if let Some(val) = out.shards[id].clone() {
                                round_max = round_max.max(val.len() as u128);
                                out.shards[receiver_id] = Some(val);
                            }
                        }
                        words = words.saturating_add(round_max);
                    }
                }
            }
        }
    }
    out.tuple = after_reduction(&gamma, out.index_set(), sum_indices, mode);
    tce_trace::counter_u128("dist.reduce_words", words);
    words
}

/// Everything measured while executing a [`DistPlan`] on the sharded
/// machine, alongside the closed-form predictions for the same plan.
#[derive(Debug, Clone)]
pub struct ShardExecReport {
    /// The assembled root value.
    pub result: Tensor,
    /// Elements that changed rank during redistribution (block transfers).
    pub moved_elements: u128,
    /// [`crate::cost::move_cost`] summed along the same plan — must equal
    /// `moved_elements`.
    pub predicted_move_elements: u128,
    /// Reduction-tree traffic measured round by round.
    pub reduce_words: u128,
    /// [`crate::cost::reduce_cost`] summed along the plan — must equal
    /// `reduce_words`.
    pub predicted_reduce_words: u128,
    /// Redistribution events that actually moved layout (normalized
    /// source ≠ normalized target).
    pub redistributions: u64,
    /// Multiply-add flops executed by each rank (function-leaf evaluation
    /// cost included).
    pub per_rank_flops: Vec<u128>,
}

impl ShardExecReport {
    /// The computational makespan: the busiest rank's flop count.
    pub fn max_rank_flops(&self) -> u128 {
        self.per_rank_flops.iter().copied().max().unwrap_or(0)
    }
}

/// Check every leaf of `tree` against its bindings before any executor
/// starts: each input tensor is bound with exactly the shape its leaf's
/// index extents demand, and each primitive function has an
/// implementation.  The one validation pass shared by the tree, fused and
/// distributed executors (`tce-exec` converts the error into its
/// `ExecError`), so walker bodies can index bindings infallibly.
///
/// # Errors
/// [`DistError::MissingInput`], [`DistError::InputShapeMismatch`] or
/// [`DistError::MissingFunction`] for the first offending leaf in postorder.
pub fn validate_bindings(
    tree: &OpTree,
    space: &IndexSpace,
    inputs: &HashMap<TensorId, &Tensor>,
    funcs: &HashMap<String, IntegralFn>,
) -> Result<(), DistError> {
    for id in tree.postorder() {
        match &tree.node(id).kind {
            OpKind::Leaf(Leaf::Input { tensor, indices }) => {
                let bound = inputs
                    .get(tensor)
                    .ok_or(DistError::MissingInput { tensor: *tensor })?;
                let expect: Vec<usize> = indices.iter().map(|&v| space.extent(v)).collect();
                if bound.shape() != &expect[..] {
                    return Err(DistError::InputShapeMismatch {
                        tensor: *tensor,
                        expect,
                        got: bound.shape().to_vec(),
                    });
                }
            }
            OpKind::Leaf(Leaf::Func { name, .. }) if !funcs.contains_key(name) => {
                return Err(DistError::MissingFunction { name: name.clone() });
            }
            _ => {}
        }
    }
    Ok(())
}

/// Measurement state accumulated while walking a plan: one per walk, every
/// node adding its own traffic and flops.
#[derive(Debug, Clone)]
struct Counters {
    moved: u128,
    predicted: u128,
    reduce_words: u128,
    predicted_reduce: u128,
    redistributions: u64,
    per_rank_flops: Vec<u128>,
}

impl Counters {
    fn new(ranks: usize) -> Self {
        Counters {
            moved: 0,
            predicted: 0,
            reduce_words: 0,
            predicted_reduce: 0,
            redistributions: 0,
            per_rank_flops: vec![0; ranks],
        }
    }
}

/// The immutable execution environment shared by every node.
struct Env<'a> {
    tree: &'a OpTree,
    space: &'a IndexSpace,
    plan: &'a DistPlan,
    machine: &'a Machine,
    inputs: &'a HashMap<TensorId, &'a Tensor>,
    funcs: &'a HashMap<String, IntegralFn>,
    threads: usize,
}

impl Env<'_> {
    /// Redistribute and account measured + predicted volume (a layout
    /// that only differs by normalization moves nothing and counts as no
    /// redistribution).
    fn account_redistribute(
        &self,
        c: &mut Counters,
        value: ShardedTensor,
        to: &DistTuple,
    ) -> ShardedTensor {
        let grid = &self.machine.grid;
        let set = value.index_set();
        if value.tuple.normalize(set) != to.normalize(set) {
            c.predicted += move_cost(&value.dims, self.space, grid, &value.tuple, to);
            c.redistributions += 1;
        }
        let (out, moved) = relayout(Cow::Owned(value), to, self.space, grid);
        c.moved += moved;
        out
    }

    /// Compute node `u`'s value sharded as `alpha` from its children's
    /// values (`operands` is `[left, right]` for a contraction — each
    /// sharded as γ's projection onto that child's indices — and empty for
    /// a leaf).  Infallible: bindings and plan entries were validated
    /// before the walk started.
    fn eval_node(
        &self,
        c: &mut Counters,
        u: NodeId,
        alpha: &DistTuple,
        operands: Vec<ShardedTensor>,
    ) -> ShardedTensor {
        let grid = &self.machine.grid;
        let indices = self.tree.node(u).indices;
        match &self.tree.node(u).kind {
            OpKind::Leaf(Leaf::One) => {
                let tuple = alpha.normalize(IndexSet::EMPTY);
                let shards = grid
                    .processors()
                    .map(|id| {
                        let z = grid.coords(id);
                        shard_box(&[], &tuple, self.space, grid, &z)
                            .map(|_| Tensor::from_elem(&[], 1.0))
                    })
                    .collect();
                ShardedTensor {
                    dims: Vec::new(),
                    tuple,
                    shards,
                }
            }
            OpKind::Leaf(Leaf::Input {
                tensor,
                indices: dims,
            }) => {
                let global = self.inputs[tensor];
                if alpha.no_replicate(indices) {
                    // Stored inputs start in any non-replicated layout for
                    // free.
                    scatter(global, dims, alpha, self.space, grid)
                } else {
                    // Read in the recorded non-replicated layout, then
                    // broadcast.
                    let beta = self.plan.node_input_source[u.0 as usize]
                        .clone()
                        .unwrap_or_else(|| DistTuple::all_one(grid.rank()));
                    let staged = scatter(global, dims, &beta, self.space, grid);
                    self.account_redistribute(c, staged, alpha)
                }
            }
            OpKind::Leaf(Leaf::Func {
                name,
                indices: dims,
                cost_per_eval,
            }) => {
                // Computed in place under α: replicas recompute, no
                // communication.
                let f = &self.funcs[name];
                let p = grid.num_processors();
                let results: Vec<(Option<Tensor>, u128)> =
                    parallel_map(p, self.threads.min(p), |id| {
                        let z = grid.coords(id);
                        let Some(ranges) = shard_box(dims, alpha, self.space, grid, &z) else {
                            return (None, 0);
                        };
                        let starts: Vec<usize> = ranges.iter().map(|r| r.start).collect();
                        let lens: Vec<usize> = ranges.iter().map(|r| r.len()).collect();
                        let mut global_idx = vec![0usize; dims.len()];
                        let value = Tensor::from_fn(&lens, |idx| {
                            for (d, (&i, &s)) in idx.iter().zip(&starts).enumerate() {
                                global_idx[d] = i + s;
                            }
                            f.eval(&global_idx)
                        });
                        let evals = value.len() as u128;
                        (Some(value), evals.saturating_mul(*cost_per_eval as u128))
                    });
                let mut shards = Vec::with_capacity(p);
                for (id, (t, fl)) in results.into_iter().enumerate() {
                    c.per_rank_flops[id] = c.per_rank_flops[id].saturating_add(fl);
                    shards.push(t);
                }
                ShardedTensor {
                    dims: dims.clone(),
                    tuple: alpha.clone(),
                    shards,
                }
            }
            OpKind::Contract { .. } => {
                let (gamma, mode) = self.plan.node_gamma[u.0 as usize]
                    .as_ref()
                    .expect("assign_alphas checked every contraction's γ");
                let [lv, rv]: [ShardedTensor; 2] = operands
                    .try_into()
                    .expect("a contraction task receives both children's values");
                let out_dims: Vec<IndexVar> = indices.iter().collect();
                let (mut value, flops) =
                    contract_sharded(&lv, &rv, &out_dims, self.space, grid, gamma, self.threads);
                drop(lv);
                drop(rv);
                for (id, fl) in flops.into_iter().enumerate() {
                    c.per_rank_flops[id] = c.per_rank_flops[id].saturating_add(fl);
                }
                let sums = self.tree.sum_indices(u);
                c.predicted_reduce += reduce_cost(indices, sums, self.space, grid, gamma, *mode);
                c.reduce_words += reduce_partial_sums(&mut value, sums, self.space, grid, *mode);
                self.account_redistribute(c, value, alpha)
            }
        }
    }

    /// Top-down α pre-pass: the root carries the plan's root distribution,
    /// and every contraction hands each child γ's projection onto that
    /// child's indices.
    ///
    /// # Errors
    /// [`DistError::UnassignedContraction`] for a contraction the plan
    /// gives no γ.
    fn assign_alphas(&self, root_alpha: DistTuple) -> Result<Vec<Option<DistTuple>>, DistError> {
        let mut alphas: Vec<Option<DistTuple>> = vec![None; self.tree.len()];
        alphas[self.tree.root.0 as usize] = Some(root_alpha);
        // Reverse postorder visits parents before children.
        for &u in self.tree.postorder().iter().rev() {
            if let OpKind::Contract { left, right } = &self.tree.node(u).kind {
                let (gamma, _) = self.plan.node_gamma[u.0 as usize]
                    .as_ref()
                    .ok_or(DistError::UnassignedContraction { node: u.0 })?;
                alphas[left.0 as usize] = Some(gamma.project(self.tree.node(*left).indices));
                alphas[right.0 as usize] = Some(gamma.project(self.tree.node(*right).indices));
            }
        }
        Ok(alphas)
    }
}

/// Execute a [`DistPlan`] over an operator tree on the sharded machine:
/// inputs are scattered into per-rank shard buffers, every contraction
/// runs rank-parallel over its γ-local subspace, redistribution moves
/// blocks between shard buffers, and distributed summation indices are
/// combined with a reduction tree.  The root value is gathered and
/// returned together with measured-vs-predicted communication volumes.
///
/// The walk visits the tree in postorder on the calling thread, each node
/// after its children, so every node's rank-parallel kernels keep all
/// `threads` workers, and each child's value moves into its one parent.
/// The gathered result and every counter are **identical** for every
/// `threads` value: a node's value depends only on its own subtree and
/// plan entries, and every kernel is deterministic in isolation.
///
/// # Errors
/// [`DistError`] when a binding is missing or mis-shaped, or the plan does
/// not cover the tree; everything is validated before any node runs.
pub fn execute_plan_sharded(
    tree: &OpTree,
    space: &IndexSpace,
    plan: &DistPlan,
    machine: &Machine,
    inputs: &HashMap<TensorId, &Tensor>,
    funcs: &HashMap<String, IntegralFn>,
    threads: usize,
) -> Result<ShardExecReport, DistError> {
    let _span = tce_trace::span("dist.exec");
    let root_alpha = plan.node_dist[tree.root.0 as usize]
        .clone()
        .ok_or(DistError::UnassignedRoot)?;
    let env = Env {
        tree,
        space,
        plan,
        machine,
        inputs,
        funcs,
        threads: threads.max(1),
    };
    let alphas = env.assign_alphas(root_alpha)?;
    validate_bindings(tree, space, inputs, funcs)?;

    let mut c = Counters::new(machine.grid.num_processors());
    let mut values: Vec<Option<ShardedTensor>> = (0..tree.len()).map(|_| None).collect();
    for u in tree.postorder() {
        let alpha = alphas[u.0 as usize]
            .as_ref()
            .expect("alpha pre-pass covers every node");
        let operands = (tree.children(u).iter())
            .map(|ch| values[ch.0 as usize].take().expect("children come first"))
            .collect();
        values[u.0 as usize] = Some(env.eval_node(&mut c, u, alpha, operands));
    }
    let sharded = values[tree.root.0 as usize]
        .take()
        .expect("the root comes last");
    Ok(ShardExecReport {
        result: gather(&sharded, space, &machine.grid),
        moved_elements: c.moved,
        predicted_move_elements: c.predicted,
        reduce_words: c.reduce_words,
        predicted_reduce_words: c.predicted_reduce,
        redistributions: c.redistributions,
        per_rank_flops: c.per_rank_flops,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple::enumerate_tuples;

    fn setup(n: usize) -> (IndexSpace, IndexVar, IndexVar, IndexVar) {
        let mut sp = IndexSpace::new();
        let r = sp.add_range("N", n);
        let i = sp.add_var("i", r);
        let j = sp.add_var("j", r);
        let k = sp.add_var("k", r);
        (sp, i, j, k)
    }

    #[test]
    fn scatter_gather_roundtrip_all_tuples() {
        let (sp, i, j, _) = setup(7);
        let grid = ProcessorGrid::new(vec![2, 3]);
        let t = Tensor::random(&[7, 7], 3);
        let dims = [i, j];
        for tuple in enumerate_tuples(IndexSet::from_vars(dims), 2) {
            let sharded = scatter(&t, &dims, &tuple, &sp, &grid);
            let back = gather(&sharded, &sp, &grid);
            assert_eq!(back, t, "tuple {}", tuple.display(&sp));
        }
    }

    #[test]
    fn redistribute_matches_move_cost_for_all_pairs() {
        // Exhaustive (β, α) sweep at a small extent: the measured block
        // traffic must equal the closed-form model, and data must survive.
        let (sp, i, j, _) = setup(5);
        let grid = ProcessorGrid::new(vec![2, 3]);
        let t = Tensor::random(&[5, 5], 9);
        let dims = [i, j];
        let tuples = enumerate_tuples(IndexSet::from_vars(dims), 2);
        for beta in &tuples {
            let sharded = scatter(&t, &dims, beta, &sp, &grid);
            for alpha in &tuples {
                let (re, moved) = redistribute(&sharded, alpha, &sp, &grid);
                let predicted = move_cost(&dims, &sp, &grid, beta, alpha);
                assert_eq!(
                    moved,
                    predicted,
                    "β={} α={}",
                    beta.display(&sp),
                    alpha.display(&sp)
                );
                assert_eq!(gather(&re, &sp, &grid), t);
            }
        }
    }

    #[test]
    fn owned_relayout_to_an_identical_layout_keeps_the_shard_buffers() {
        // ⟨i,k⟩ and ⟨i,*⟩ normalize alike for an array over (i, j).
        let (sp, i, j, k) = setup(5);
        let grid = ProcessorGrid::new(vec![2, 3]);
        let dims = [i, j];
        let from = DistTuple(vec![DistEntry::Idx(i), DistEntry::Idx(k)]);
        let to = DistTuple(vec![DistEntry::Idx(i), DistEntry::Replicate]);
        let sharded = scatter(&Tensor::random(&[5, 5], 6), &dims, &from, &sp, &grid);
        let buffers: Vec<_> = sharded
            .shards
            .iter()
            .map(|s| s.as_ref().map(|t| t.data().as_ptr()))
            .collect();
        let (copied, _) = redistribute(&sharded, &to, &sp, &grid);
        let (re, moved) = relayout(Cow::Owned(sharded), &to, &sp, &grid);
        assert_eq!(moved, 0);
        assert_eq!(re.tuple, to);
        let kept: Vec<_> = re
            .shards
            .iter()
            .map(|s| s.as_ref().map(|t| t.data().as_ptr()))
            .collect();
        assert_eq!(kept, buffers);
        assert!(buffers.iter().any(Option::is_some));
        assert_eq!(gather(&re, &sp, &grid), gather(&copied, &sp, &grid));
    }

    #[test]
    fn uneven_extents_still_roundtrip_and_match_model() {
        // 5 elements over 3 processors exercises the uneven myrange split.
        let (sp, i, j, _) = setup(5);
        let grid = ProcessorGrid::new(vec![3]);
        let t = Tensor::random(&[5, 5], 4);
        let dims = [i, j];
        let from = DistTuple(vec![DistEntry::Idx(i)]);
        let to = DistTuple(vec![DistEntry::Idx(j)]);
        let sharded = scatter(&t, &dims, &from, &sp, &grid);
        let (re, moved) = redistribute(&sharded, &to, &sp, &grid);
        assert_eq!(moved, move_cost(&dims, &sp, &grid, &from, &to));
        assert_eq!(gather(&re, &sp, &grid), t);
    }

    #[test]
    fn more_processors_than_elements() {
        let (sp, i, j, _) = setup(2);
        let grid = ProcessorGrid::new(vec![5]);
        let t = Tensor::random(&[2, 2], 5);
        let dims = [i, j];
        let tup = DistTuple(vec![DistEntry::Idx(i)]);
        let sharded = scatter(&t, &dims, &tup, &sp, &grid);
        // Ranks 2..5 own nothing.
        assert!(sharded.shards[2].is_none());
        assert_eq!(gather(&sharded, &sp, &grid), t);
        let (re, moved) = redistribute(&sharded, &DistTuple::all_one(1), &sp, &grid);
        assert_eq!(
            moved,
            move_cost(&dims, &sp, &grid, &tup, &DistTuple::all_one(1))
        );
        assert_eq!(gather(&re, &sp, &grid), t);
    }

    #[test]
    fn sharded_matmul_matches_sequential_for_all_gammas() {
        let (sp, i, j, k) = setup(6);
        let grid = ProcessorGrid::new(vec![2, 2]);
        let a = Tensor::random(&[6, 6], 1);
        let b = Tensor::random(&[6, 6], 2);
        let spec = BinaryContraction {
            a: vec![i, k],
            b: vec![k, j],
            out: vec![i, j],
        };
        let expect = tce_tensor::contract_gett(&spec, &sp, &a, &b, 1);
        let sums = k.singleton();
        for gamma in enumerate_tuples(IndexSet::from_vars([i, j, k]), 2) {
            for mode in [ReduceMode::Combine, ReduceMode::Replicate] {
                let sa = scatter(
                    &a,
                    &[i, k],
                    &gamma.project(IndexSet::from_vars([i, k])),
                    &sp,
                    &grid,
                );
                let sb = scatter(
                    &b,
                    &[k, j],
                    &gamma.project(IndexSet::from_vars([k, j])),
                    &sp,
                    &grid,
                );
                let (mut out, _) = contract_sharded(&sa, &sb, &[i, j], &sp, &grid, &gamma, 4);
                let words = reduce_partial_sums(&mut out, sums, &sp, &grid, mode);
                let predicted =
                    reduce_cost(IndexSet::from_vars([i, j]), sums, &sp, &grid, &gamma, mode);
                assert_eq!(words, predicted, "γ = {}", gamma.display(&sp));
                let got = gather(&out, &sp, &grid);
                assert!(
                    got.approx_eq(&expect, 1e-10),
                    "γ = {} mode {:?}",
                    gamma.display(&sp),
                    mode
                );
            }
        }
    }

    #[test]
    fn output_partitioned_contraction_is_bitwise() {
        // γ distributes only output indices: every rank computes a
        // disjoint slice of C with the full k-accumulation order of the
        // sequential kernel, so the gathered result is bit-identical.
        let (sp, i, j, k) = setup(13);
        let grid = ProcessorGrid::new(vec![2, 3]);
        let a = Tensor::random(&[13, 13], 11);
        let b = Tensor::random(&[13, 13], 12);
        let spec = BinaryContraction {
            a: vec![i, k],
            b: vec![k, j],
            out: vec![i, j],
        };
        let expect = tce_tensor::contract_gett(&spec, &sp, &a, &b, 1);
        let gamma = DistTuple(vec![DistEntry::Idx(i), DistEntry::Idx(j)]);
        let sa = scatter(
            &a,
            &[i, k],
            &gamma.project(IndexSet::from_vars([i, k])),
            &sp,
            &grid,
        );
        let sb = scatter(
            &b,
            &[k, j],
            &gamma.project(IndexSet::from_vars([k, j])),
            &sp,
            &grid,
        );
        let (mut out, flops) = contract_sharded(&sa, &sb, &[i, j], &sp, &grid, &gamma, 4);
        let words = reduce_partial_sums(&mut out, k.singleton(), &sp, &grid, ReduceMode::Combine);
        assert_eq!(words, 0, "no distributed summation index");
        assert_eq!(gather(&out, &sp, &grid), expect);
        // All six ranks worked.
        assert_eq!(flops.iter().filter(|&&f| f > 0).count(), 6);
    }
}
