//! GETT-style contraction engine: packed micro-kernel GEMM over strided
//! tensor operands, parallel over disjoint output tiles.
//!
//! The TTGT recipe — permute both operands into matrix layout, multiply,
//! permute the result back — spends as much memory traffic on the
//! transposes as on the multiply for the high-dimensional contractions the
//! paper targets.  This module instead packs operands directly from their
//! strided source layouts into contiguous panels *inside* the GEMM
//! macro-loops (the GETT scheme of Springer & Bientinesi), so no full-size
//! transpose is ever materialized:
//!
//! * a [`ContractionPlan`] classifies the contraction's indices into
//!   batch/M/N/K groups and precomputes flat-offset tables mapping each
//!   group coordinate to element offsets in `a`, `b` and the output,
//!   built against caller-given strides ([`ContractionPlan::with_strides`])
//!   so one plan can address a slice of a larger array in place — all
//!   shape-dependent work happens once per (spec, extents, strides,
//!   kernel) signature and is memoized in a process-wide cache
//!   ([`plan_for`], [`plan_for_strided`]);
//! * [`NestArrays`] holds the storage of a loop nest of calls and binds
//!   a plan to it after `ContractionPlan::checked` proved, once, that
//!   each array's largest base plus the plan's span fits it; each call is
//!   then a bare run at three bases, with no assert, trace-flag read or
//!   span, and the nest records its counters once.
//!   [`ContractionPlan::execute_into`] is a nest of one call at given
//!   bases, and [`ContractionPlan::execute`] that on a fresh zero tensor;
//! * the plan also selects its [`kernels::KernelConfig`]: the
//!   runtime-dispatched SIMD micro-kernel variant (AVX2+FMA / SSE2 /
//!   scalar, see [`crate::kernels`]) and cache-derived MC/NC/KC macro
//!   blocks, so autotuned parameters ride the plan LRU;
//! * macro-loops tile M×N; each (batch, M-tile, N-tile) task packs A and
//!   B panels for one K-block at a time — vectorized contiguous copies
//!   when the M/N group is unit-stride in the operand, gather otherwise —
//!   and feeds the variant's register-blocked micro-kernel;
//! * the path is chosen by shape alone: a *thin* plan — `m < MR` or
//!   `n < NR`, a dot product, GEMV or skinny GETT whose register tile
//!   would be mostly zero padding — never packs, whatever its size, and
//!   runs `kernels::direct`: an unpacked register-blocked kernel that
//!   reads both operands in place through the offset tables (on AVX2, a
//!   long output axis contiguous in its operand and in the output runs in
//!   vector lanes).  A call that is no dot repeats the packed path's
//!   arithmetic operation for operation (per output element and K-block:
//!   `acc = 0`, the variant's multiply-add in ascending `k`, `c += acc`,
//!   K-blocks ascending), so which path it takes never changes a bit.  A
//!   dot — a plan with no M and no N index, so one output element per
//!   batch coordinate, never packed — accumulates each K-block in eight
//!   chains, read along the K group's contiguous runs (`k_run`, found once
//!   per plan from the dimension lists) and combined in one fixed tree: an
//!   order set by the plan's index groups and K layout alone, so no
//!   thread count, task split or rank-local extent moves its bits;
//! * parallelism partitions the *output*, decided per call at execute
//!   time (the plan and its blocks do not depend on the thread count).
//!   MC/NC stay cache blocks; the tasks are register-aligned chunks
//!   inside them, BLIS-style (Matthews).  A call with at least
//!   `WORK_FLOOR_FLOPS` per worker becomes a multiple of `threads`
//!   equal tasks: batch groups first (they duplicate no packing), then
//!   MR/NR-aligned M and N chunks, no taller than MC and no wider than
//!   NC, counted to duplicate the fewest packed panel elements (an extra
//!   M chunk re-packs B, an extra N chunk re-packs A, so the longer axis
//!   is split).  A thin call splits the same way with cache blocks as
//!   large as its output, which cuts its long output axis (or its batch)
//!   into register-aligned chunks.  A smaller call runs as one task on
//!   the caller.  Every task owns a disjoint block of C and accumulates
//!   K-blocks in a fixed ascending order, so the result is bitwise
//!   identical for every thread count (for a fixed kernel variant;
//!   variants differ in rounding by design).
//!
//! [`contract_gett`] is the whole-tensor entry point; the fused executor
//! resolves a strided plan per contraction node, checks it once per
//! schedule step and runs it on every slice.

use crate::contract::{reduce_exclusive, BinaryContraction};
use crate::dense::{row_major_strides, Tensor};
use crate::kernels::{self, BlockSizes, DirectGemm, KernelConfig, KernelVariant};
use crate::nest::NestArrays;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use tce_ir::{IndexSpace, IndexVar};
use tce_par::{block_ranges, Pool, ShardedLru};

/// Upper bound on `MR*NR` across all kernel variants (accumulator
/// scratch size).
const MAX_ACC: usize = 64;

/// Flops each worker must get before a call fans out: below
/// `threads` times this, the call runs as one task on the calling thread,
/// because waking the pool would cost more than the smaller share saves
/// (about 10 µs of kernel time per worker at 25 GF/s).
const WORK_FLOOR_FLOPS: u128 = 1 << 18;

/// How one packed call divides its output among tasks: the blocks are
/// every (batch group, M chunk, N chunk) combination, N fastest.
#[derive(Debug)]
struct TaskSplit {
    batches: Vec<Range<usize>>,
    rows: Vec<Range<usize>>,
    cols: Vec<Range<usize>>,
    /// Each block is its own task; otherwise one task runs them all.
    fan_out: bool,
}

impl TaskSplit {
    fn blocks(&self) -> usize {
        self.batches.len() * self.rows.len() * self.cols.len()
    }

    fn tasks(&self) -> usize {
        if self.fan_out {
            self.blocks()
        } else {
            1
        }
    }

    /// Block `i`: its batch range, rows and columns.
    fn block(&self, i: usize) -> [Range<usize>; 3] {
        let (rows, cols) = (self.rows.len(), self.cols.len());
        [
            self.batches[i / (rows * cols)].clone(),
            self.rows[i / cols % rows].clone(),
            self.cols[i % cols].clone(),
        ]
    }

    /// Run `run_blocks` over every block: all of them on the caller as
    /// one task, or one block per task on the pool.
    fn run(&self, threads: usize, run_blocks: &(dyn Fn(Range<usize>) + Sync)) {
        let tasks = self.tasks();
        if tasks == 1 {
            run_blocks(0..self.blocks());
        } else {
            let pool = Pool::global();
            pool.ensure_workers(threads - 1);
            pool.run(tasks, &|t| run_blocks(t..t + 1));
        }
    }
}

/// `0..extent` cut into `parts` runs of whole `unit`-wide strips (the
/// last strip may be ragged).  The longer runs come last, so the ragged
/// strip lands in a long one and all lengths differ by at most `unit`.
fn strip_chunks(extent: usize, unit: usize, parts: usize) -> Vec<Range<usize>> {
    let strips = extent.div_ceil(unit);
    let (base, extra) = (strips / parts, strips % parts);
    let mut start = 0;
    (0..parts)
        .map(|i| {
            let len = (base + usize::from(i >= parts - extra)) * unit;
            let chunk = start..(start + len).min(extent);
            start += len;
            chunk
        })
        .collect()
}

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// The task split of a packed `nb`×`m`×`n`×`k` call under `blocks` and an
/// `mr`×`nr` register tile on `threads` workers (see the module docs).
///
/// Below `threads · WORK_FLOOR_FLOPS` it is one task.  Above, the task
/// count is a multiple of `threads`: `gcd(nb, threads)` equal batch
/// groups, times M×N chunk counts whose product the rest of `threads`
/// divides, searched from the fewest chunks that fit MC/NC for the pair
/// that re-packs the fewest panel elements (`chunks_n·m + chunks_m·n`).
/// When the output has too few register strips for any such pair, `nb ≥
/// threads` batch groups of near-equal size are taken instead, and
/// failing that the call stays one task.
#[allow(clippy::too_many_arguments)]
fn task_split(
    nb: usize,
    m: usize,
    n: usize,
    k: usize,
    blocks: BlockSizes,
    mr: usize,
    nr: usize,
    threads: usize,
) -> TaskSplit {
    let (m_strips, n_strips) = (m.div_ceil(mr), n.div_ceil(nr));
    // The fewest chunks that keep every chunk within MC and NC.
    let (mt, nt) = (
        m_strips.div_ceil(blocks.mc / mr),
        n_strips.div_ceil(blocks.nc / nr),
    );
    let split = |groups, chunks_m, chunks_n, fan_out| TaskSplit {
        batches: block_ranges(nb, groups),
        rows: strip_chunks(m, mr, chunks_m),
        cols: strip_chunks(n, nr, chunks_n),
        fan_out,
    };
    let flops = 2 * (nb * m * n) as u128 * k as u128;
    if threads <= 1 || flops < WORK_FLOOR_FLOPS * threads as u128 {
        return split(1, mt, nt, false);
    }
    let groups = gcd(nb, threads);
    let rest = threads / groups;
    let pairs = (mt..(mt + rest).min(m_strips + 1))
        .flat_map(|cm| (nt..(nt + rest).min(n_strips + 1)).map(move |cn| (cm, cn)));
    let cheapest = pairs
        .filter(|&(cm, cn)| (cm * cn).is_multiple_of(rest))
        .min_by_key(|&(cm, cn)| (cn * m + cm * n, cm * cn));
    match cheapest {
        Some((cm, cn)) => split(groups, cm, cn, true),
        None if nb >= threads => split(threads, mt, nt, true),
        None => split(1, mt, nt, false),
    }
}

/// Flat-offset table for an index group: entry `g` is the element offset
/// contributed by the group's `g`-th coordinate (row-major over `vars`)
/// in a tensor with dimension list `dims`.  Vars absent from `dims`
/// contribute stride 0 (used only for groups fully present by
/// construction).
fn offset_table(
    vars: &[IndexVar],
    space: &IndexSpace,
    dims: &[IndexVar],
    dim_strides: &[usize],
) -> Vec<usize> {
    let shape: Vec<usize> = vars.iter().map(|&v| space.extent(v)).collect();
    let var_strides: Vec<usize> = vars
        .iter()
        .map(|v| {
            dims.iter()
                .position(|d| d == v)
                .map(|p| dim_strides[p])
                .unwrap_or(0)
        })
        .collect();
    let total: usize = shape.iter().product::<usize>().max(1);
    let mut out = Vec::with_capacity(total);
    let mut idx = vec![0usize; vars.len()];
    for _ in 0..total {
        out.push(
            idx.iter()
                .zip(&var_strides)
                .map(|(&i, &s)| i * s)
                .sum::<usize>(),
        );
        Tensor::advance(&mut idx, &shape);
    }
    out
}

/// `true` when an offset table is the identity (`off[i] == i`): the
/// group is unit-stride and contiguous in the operand, so panel packing
/// can use straight vector copies instead of gathers.
fn is_unit_stride(table: &[usize]) -> bool {
    table.iter().enumerate().all(|(i, &o)| o == i)
}

/// The K group's run length: the product of the extents of the longest
/// suffix of `k_vars` (the table's fastest-varying vars) that holds the
/// last dimensions of both operands, in that order, each at the stride of
/// the vars after it — so K is a sequence of runs that long, contiguous
/// in both.  Read from the dimension lists, not the offsets alone: an
/// extent-1 dimension between two K dimensions, as a rank-local block of
/// a sharded batch index can have, never merges their runs, so the run
/// (and a dot's order) does not change with the extents of other groups.
fn run_length(
    k_vars: &[IndexVar],
    space: &IndexSpace,
    operands: [(&[IndexVar], &[usize]); 2],
) -> usize {
    let mut run = 1;
    for (i, &v) in k_vars.iter().rev().enumerate() {
        let trailing = operands.iter().all(|(dims, strides)| {
            let p = dims.len().checked_sub(i + 1);
            p.is_some_and(|p| dims[p] == v && strides[p] == run)
        });
        if !trailing {
            break;
        }
        run *= space.extent(v);
    }
    run
}

/// Whether distinct coordinates of `shape` land on distinct offsets under
/// `strides`: sorted by stride, every dimension must step past the reach
/// of all smaller ones (row-major arrays and their sub-blocks qualify).
fn non_overlapping(shape: &[usize], strides: &[usize]) -> bool {
    let mut dims: Vec<(usize, usize)> = strides
        .iter()
        .copied()
        .zip(shape.iter().copied())
        .filter(|&(_, e)| e > 1)
        .collect();
    dims.sort_unstable();
    let mut reach = 0;
    dims.iter().all(|&(s, e)| {
        let steps_past = s > reach;
        reach += s * (e - 1);
        steps_past
    })
}

/// Row-major strides of `spec`'s operands and output, each stored whole.
fn dense_strides(spec: &BinaryContraction, space: &IndexSpace) -> [Vec<usize>; 3] {
    [&spec.a, &spec.b, &spec.out].map(|dims| {
        let shape: Vec<usize> = dims.iter().map(|&v| space.extent(v)).collect();
        row_major_strides(&shape)
    })
}

/// Precomputed execution plan for one binary contraction signature.
///
/// Holds the batch/M/N/K classification and, for each group, the flat
/// element offsets into `a`, `b` and the output array under the plan's
/// strides.  With these tables the kernel addresses arbitrary-rank
/// strided operands as if they were matrices, without materializing any
/// transpose.  The plan also carries its kernel configuration —
/// dispatched SIMD variant plus cache-derived MC/NC/KC — and whether it
/// takes the no-pack direct path, chosen once at construction and reused
/// on every execution.
#[derive(Debug)]
pub struct ContractionPlan {
    /// Batch extent (output indices shared by both operands).
    pub nb: usize,
    /// M extent (output indices from `a` only).
    pub m: usize,
    /// N extent (output indices from `b` only).
    pub n: usize,
    /// K extent (contracted indices).
    pub k: usize,
    /// Output shape in the spec's declared `out` order.
    pub out_shape: Vec<usize>,
    /// Expected operand shapes (validated by [`ContractionPlan::execute`]).
    a_shape: Vec<usize>,
    b_shape: Vec<usize>,
    a_batch_off: Vec<usize>,
    a_m_off: Vec<usize>,
    a_k_off: Vec<usize>,
    b_batch_off: Vec<usize>,
    b_k_off: Vec<usize>,
    b_n_off: Vec<usize>,
    c_batch_off: Vec<usize>,
    c_m_off: Vec<usize>,
    c_n_off: Vec<usize>,
    /// Elements of `a`, `b` and the output the plan addresses past a base
    /// offset: the largest offset plus one.
    spans: [usize; 3],
    /// M group is unit-stride in `a` (pack A by vector copy).
    a_m_unit: bool,
    /// N group is unit-stride in `b` (pack B by vector copy).
    b_n_unit: bool,
    /// The K group's run length ([`run_length`]): K is a sequence of runs
    /// of `k_run` offsets contiguous in both `a_k_off` and `b_k_off` (`k`
    /// for a K that ends both operands at unit stride).  A dot reads runs
    /// of at least [`kernels::CHAINS`] by pointer offset.
    k_run: usize,
    /// Every output index is a batch index (no M or N group), so each
    /// call is a dot in `kernels::direct`'s multi-chain order.  Decided by
    /// the index groups, not the extents: a GEMM whose rank-local block
    /// is 1 × 1 keeps the packed path's order.
    dot: bool,
    /// M group is unit-stride in `a` and in the output: the direct path
    /// may run it in vector lanes.
    m_contiguous: bool,
    /// N group is unit-stride in `b` and in the output.
    n_contiguous: bool,
    /// Skip packing: `m < MR` or `n < NR`, so the register tile would be
    /// mostly zero padding.
    direct: bool,
    /// Dispatched micro-kernel and macro-block sizes.
    kernel: KernelConfig,
}

impl ContractionPlan {
    /// Build a plan for `spec` over dense row-major operands using the
    /// process-wide active kernel variant (see [`kernels::active`]).
    /// `spec` must already be free of summation indices exclusive to one
    /// operand — [`contract_gett`] pre-reduces those.
    pub fn new(spec: &BinaryContraction, space: &IndexSpace) -> Self {
        Self::new_with_variant(spec, space, kernels::active())
    }

    /// [`ContractionPlan::new`] with an explicit kernel variant (the
    /// differential tests pit variants against each other in-process).
    pub fn new_with_variant(
        spec: &BinaryContraction,
        space: &IndexSpace,
        variant: KernelVariant,
    ) -> Self {
        let [a, b, out] = dense_strides(spec, space);
        Self::with_strides(spec, space, variant, [&a, &b, &out])
    }

    /// Build a plan whose offset tables address `a`, `b` and the output
    /// through caller-given element strides — `strides` holds one stride
    /// per dimension of `spec.a`, `spec.b` and `spec.out` — so it can read
    /// and write slices of larger arrays in place
    /// ([`ContractionPlan::execute_into`]).
    ///
    /// # Panics
    /// Panics on an invalid spec, on exclusive summation indices, on a
    /// stride list of the wrong length, or when two output coordinates
    /// share an offset (parallel tiles could not own their elements).
    pub fn with_strides(
        spec: &BinaryContraction,
        space: &IndexSpace,
        variant: KernelVariant,
        strides: [&[usize]; 3],
    ) -> Self {
        spec.validate().expect("invalid contraction");
        let [a_strides, b_strides, c_strides] = strides;
        assert!(
            a_strides.len() == spec.a.len()
                && b_strides.len() == spec.b.len()
                && c_strides.len() == spec.out.len(),
            "one stride per operand dimension"
        );
        let sa = tce_ir::IndexSet::from_vars(spec.a.iter().copied());
        let sb = tce_ir::IndexSet::from_vars(spec.b.iter().copied());
        let so = tce_ir::IndexSet::from_vars(spec.out.iter().copied());
        assert!(
            sa.union(sb).minus(so).is_subset(sa.inter(sb)),
            "plan requires pre-reduced operands (no exclusive summation indices)"
        );
        let batch = so.inter(sa).inter(sb);
        let m_set = so.inter(sa).minus(batch);
        let n_set = so.inter(sb).minus(batch);
        let k_set = spec.contracted();
        let batch_v: Vec<IndexVar> = batch.iter().collect();
        let m_v: Vec<IndexVar> = m_set.iter().collect();
        let n_v: Vec<IndexVar> = n_set.iter().collect();
        let k_v: Vec<IndexVar> = k_set.iter().collect();

        let ext = |vs: &[IndexVar]| -> usize {
            vs.iter()
                .map(|&v| space.extent(v))
                .product::<usize>()
                .max(1)
        };
        let shape =
            |vs: &[IndexVar]| -> Vec<usize> { vs.iter().map(|&v| space.extent(v)).collect() };
        let out_shape = shape(&spec.out);
        assert!(
            non_overlapping(&out_shape, c_strides),
            "output strides overlap"
        );

        let (nb, m, n, k) = (ext(&batch_v), ext(&m_v), ext(&n_v), ext(&k_v));
        let a_table = |vs: &[IndexVar]| offset_table(vs, space, &spec.a, a_strides);
        let b_table = |vs: &[IndexVar]| offset_table(vs, space, &spec.b, b_strides);
        let c_table = |vs: &[IndexVar]| offset_table(vs, space, &spec.out, c_strides);
        let (a_batch_off, a_m_off, a_k_off) = (a_table(&batch_v), a_table(&m_v), a_table(&k_v));
        let (b_batch_off, b_k_off, b_n_off) = (b_table(&batch_v), b_table(&k_v), b_table(&n_v));
        let (c_batch_off, c_m_off, c_n_off) = (c_table(&batch_v), c_table(&m_v), c_table(&n_v));
        let span = |tables: [&[usize]; 3]| -> usize {
            tables
                .iter()
                .map(|t| t.iter().copied().max().unwrap_or(0))
                .sum::<usize>()
                + 1
        };
        let spans = [
            span([&a_batch_off, &a_m_off, &a_k_off]),
            span([&b_batch_off, &b_k_off, &b_n_off]),
            span([&c_batch_off, &c_m_off, &c_n_off]),
        ];
        let kernel = KernelConfig::select(variant, m, n, k);
        let direct = m < kernel.mr || n < kernel.nr;
        let (a_m_unit, b_n_unit) = (is_unit_stride(&a_m_off), is_unit_stride(&b_n_off));
        Self {
            nb,
            m,
            n,
            k,
            a_m_unit,
            b_n_unit,
            k_run: run_length(&k_v, space, [(&spec.a, a_strides), (&spec.b, b_strides)]),
            dot: m_v.is_empty() && n_v.is_empty(),
            m_contiguous: a_m_unit && is_unit_stride(&c_m_off),
            n_contiguous: b_n_unit && is_unit_stride(&c_n_off),
            a_batch_off,
            a_m_off,
            a_k_off,
            b_batch_off,
            b_k_off,
            b_n_off,
            c_batch_off,
            c_m_off,
            c_n_off,
            spans,
            direct,
            kernel,
            a_shape: shape(&spec.a),
            b_shape: shape(&spec.b),
            out_shape,
        }
    }

    /// The kernel configuration (variant + block sizes) this plan runs.
    pub fn kernel_config(&self) -> &KernelConfig {
        &self.kernel
    }

    /// Execute the plan on dense operands into a fresh output:
    /// `out[o…] = Σ_K a·b` on up to `threads` workers —
    /// [`ContractionPlan::execute_into`] on a zero tensor.  The
    /// plan must have been built for row-major operands.
    pub fn execute(&self, a: &Tensor, b: &Tensor, threads: usize) -> Tensor {
        assert_eq!(a.shape(), &self.a_shape[..], "operand a shape mismatch");
        assert_eq!(b.shape(), &self.b_shape[..], "operand b shape mismatch");
        let mut out = Tensor::zeros_pooled(&self.out_shape);
        self.execute_into(a.data(), 0, b.data(), 0, out.data_mut(), 0, threads);
        out
    }

    /// Accumulate the contraction into `c` in place:
    /// `c[c_base + o…] += Σ_K a[a_base + …]·b[b_base + …]`, every element
    /// addressed through the plan's strides: a [`NestArrays`] of the three
    /// slices, bound at these bases, and one call.  Bitwise deterministic
    /// in the thread count: each task owns disjoint output tiles and walks
    /// K-blocks in ascending order, adding each block's partial sum into
    /// `c`.
    ///
    /// # Panics
    /// Panics unless each base plus the plan's span fits its slice.
    #[allow(clippy::too_many_arguments)]
    pub fn execute_into(
        &self,
        a: &[f64],
        a_base: usize,
        b: &[f64],
        b_base: usize,
        c: &mut [f64],
        c_base: usize,
        threads: usize,
    ) {
        let bases = [a_base, b_base, c_base];
        let mut nest = NestArrays::new();
        let operands = [(nest.input(a), None), (nest.input(b), None)];
        let out = nest.array(c);
        let call = nest.bind(self, operands, out, bases, threads);
        let call = call.unwrap_or_else(|overrun| panic!("{overrun}"));
        let start = (self.direct && tce_trace::enabled()).then(tce_trace::now_ns);
        nest.run(call, bases);
        if let Some(t0) = start {
            tce_trace::counter("gett.kernel_ns", tce_trace::now_ns() - t0);
        }
        nest.finish();
    }

    /// Prove once, for a loop nest of calls, that every base up to
    /// `max_bases` (of `a`, `b` and the output) plus the plan's span fits
    /// the `lens` elements of its array, and settle what every call
    /// shares: the task split on `threads` workers, the pack panels of a
    /// one-task packed call, and the trace flag.  [`NestArrays::bind`] is
    /// the caller.
    ///
    /// # Errors
    /// [`SliceOverrun`] naming the first array that does not fit.
    pub(crate) fn checked(
        &self,
        lens: [usize; 3],
        max_bases: [usize; 3],
        threads: usize,
    ) -> Result<CheckedCall<'_>, SliceOverrun> {
        for (array, ((len, base), span)) in ["a", "b", "c"]
            .into_iter()
            .zip(lens.into_iter().zip(max_bases).zip(self.spans))
        {
            if base.checked_add(span).is_none_or(|end| end > len) {
                return Err(SliceOverrun {
                    array,
                    base,
                    span,
                    len,
                });
            }
        }
        let cfg = &self.kernel;
        let split = if self.direct {
            self.direct_split(threads)
        } else {
            Some(task_split(
                self.nb, self.m, self.n, self.k, cfg.blocks, cfg.mr, cfg.nr, threads,
            ))
        };
        let tasks = split.as_ref().map_or(1, TaskSplit::tasks);
        let (mc, nc, kc) = (cfg.blocks.mc, cfg.blocks.nc, cfg.blocks.kc);
        let panels = (!self.direct && tasks == 1).then(|| {
            [
                crate::bufpool::acquire(mc * kc),
                crate::bufpool::acquire(kc * nc),
            ]
        });
        Ok(CheckedCall {
            plan: self,
            threads,
            split,
            gemm: self.direct_gemm(0..self.m, 0..self.n),
            tasks,
            panels,
            traced: tce_trace::enabled(),
            calls: 0,
            lanes: 0,
            phase_ns: [0; 2],
            packed_ns: 0,
        })
    }

    /// How one call of this plan runs as one task: `"packed"`, or on the
    /// direct path `"dot"` (no M or N index), `"lanes"` (a long axis
    /// contiguous in its operand and in the output, under AVX2) or
    /// `"direct"`.
    pub fn path(&self) -> &'static str {
        let (long, contiguous) = if self.m < self.n {
            (self.n, self.n_contiguous)
        } else {
            (self.m, self.m_contiguous)
        };
        if !self.direct {
            "packed"
        } else if self.dot {
            "dot"
        } else if self.kernel.variant == KernelVariant::Avx2
            && contiguous
            && long >= kernels::CHAINS
        {
            "lanes"
        } else {
            "direct"
        }
    }

    /// How the direct path splits a call on `threads` workers: `None`
    /// below `threads · WORK_FLOOR_FLOPS`, where the call is one task on
    /// the caller.  Above, the [`task_split`] of the call with cache blocks
    /// as large as the output — nothing is packed, so only register
    /// alignment shapes the chunks — which cuts the long output axis (or
    /// the batch) into a multiple of `threads` tasks.
    fn direct_split(&self, threads: usize) -> Option<TaskSplit> {
        if threads <= 1 || self.flops() < WORK_FLOOR_FLOPS * threads as u128 {
            return None;
        }
        let cfg = &self.kernel;
        let whole = BlockSizes {
            mc: self.m.next_multiple_of(cfg.mr),
            nc: self.n.next_multiple_of(cfg.nr),
            kc: cfg.blocks.kc,
        };
        Some(task_split(
            self.nb, self.m, self.n, self.k, whole, cfg.mr, cfg.nr, threads,
        ))
    }

    /// A direct call on operands and output already rebased, fanned out
    /// by `split` (see [`ContractionPlan::direct_split`]); returns whether
    /// vector lanes ran.
    fn execute_direct_split(
        &self,
        a: &[f64],
        b: &[f64],
        c: &mut [f64],
        split: &TaskSplit,
        threads: usize,
    ) -> bool {
        let c_ptr = SendPtr(c.as_mut_ptr());
        let lanes = AtomicBool::new(false);
        split.run(threads, &|blocks| {
            // Borrow the whole wrapper: a field capture would share the
            // bare pointer.
            let c_ptr = &c_ptr;
            for i in blocks {
                let [batches, rows, cols] = split.block(i);
                let g = self.direct_gemm(rows, cols);
                for bi in batches {
                    // SAFETY: the caller's slices hold their spans (`c` is
                    // behind `c_ptr`), and block `i` is this task's alone.
                    if unsafe { self.direct_block(&g, a, b, c_ptr.0, bi) } {
                        lanes.store(true, Ordering::Relaxed);
                    }
                }
            }
        });
        lanes.into_inner()
    }

    /// The offset tables of the direct-path block `rows` × `cols`.
    fn direct_gemm(&self, rows: Range<usize>, cols: Range<usize>) -> DirectGemm<'_> {
        DirectGemm {
            a_rows: &self.a_m_off[rows.clone()],
            a_k: &self.a_k_off,
            b_cols: &self.b_n_off[cols.clone()],
            b_k: &self.b_k_off,
            c_rows: &self.c_m_off[rows],
            c_cols: &self.c_n_off[cols],
            kc: self.kernel.blocks.kc,
            k_run: self.k_run,
            dot: self.dot,
            rows_contiguous: self.m_contiguous,
            cols_contiguous: self.n_contiguous,
        }
    }

    /// One direct-path block `g` of batch `bi`; returns whether vector
    /// lanes ran.
    ///
    /// # Safety
    /// `a`, `b` and the storage behind `c` hold at least their spans, and
    /// no other thread accesses the output elements `g` names in batch
    /// `bi` during the call.
    #[inline]
    unsafe fn direct_block(
        &self,
        g: &DirectGemm,
        a: &[f64],
        b: &[f64],
        c: *mut f64,
        bi: usize,
    ) -> bool {
        // SAFETY: batch base plus any offset of the tables is below each
        // array's span, inside the storage by the caller's contract; the
        // caller owns the output block, and `with_strides` asserted that
        // distinct output coordinates have distinct offsets.
        unsafe {
            kernels::direct(
                self.kernel.variant,
                g,
                a.as_ptr().add(self.a_batch_off[bi]),
                b.as_ptr().add(self.b_batch_off[bi]),
                c.add(self.c_batch_off[bi]),
            )
        }
    }

    /// The packed path on operands and output already rebased, split into
    /// tasks by `split`.  A one-task call packs into `panels` and adds its
    /// pack/kernel nanoseconds into `caller_ns` (when `traced`); each task
    /// of a fanned-out call takes its own panels from the buffer pool and
    /// records its own.
    #[allow(clippy::too_many_arguments)]
    fn execute_packed(
        &self,
        a: &[f64],
        b: &[f64],
        c: &mut [f64],
        split: &TaskSplit,
        threads: usize,
        traced: bool,
        panels: Option<&mut [Vec<f64>; 2]>,
        caller_ns: &mut [u64; 2],
    ) {
        let cfg = &self.kernel;
        let (mc, nc, kc) = (cfg.blocks.mc, cfg.blocks.nc, cfg.blocks.kc);
        let c_ptr = SendPtr(c.as_mut_ptr());
        let run_blocks =
            |blocks: Range<usize>, [apack, bpack]: &mut [Vec<f64>; 2], phase_ns: &mut [u64; 2]| {
                let mut acc = [0.0f64; MAX_ACC];
                for i in blocks {
                    let [batches, rows, cols] = split.block(i);
                    for bi in batches {
                        self.run_tile(
                            a,
                            b,
                            &c_ptr,
                            bi,
                            rows.clone(),
                            cols.clone(),
                            apack,
                            bpack,
                            &mut acc,
                            traced.then_some(&mut *phase_ns),
                        );
                    }
                }
            };
        match panels {
            Some(panels) => run_blocks(0..split.blocks(), panels, caller_ns),
            None => split.run(threads, &|blocks| {
                // Panel buffers are reused across the blocks of one task and
                // recycled through the buffer pool across tasks.
                let mut panels = [
                    crate::bufpool::acquire(mc * kc),
                    crate::bufpool::acquire(kc * nc),
                ];
                let mut phase_ns = [0u64; 2];
                run_blocks(blocks, &mut panels, &mut phase_ns);
                if traced {
                    tce_trace::counter("gett.pack_ns", phase_ns[0]);
                    tce_trace::counter("gett.kernel_ns", phase_ns[1]);
                }
                let [apack, bpack] = panels;
                crate::bufpool::release(apack);
                crate::bufpool::release(bpack);
            }),
        }
    }

    /// Compute one block of the output: batch `bi`, rows `mi`, columns
    /// `nj`, at most MC×NC.
    #[allow(clippy::too_many_arguments)]
    fn run_tile(
        &self,
        a_data: &[f64],
        b_data: &[f64],
        c_ptr: &SendPtr,
        bi: usize,
        mi: std::ops::Range<usize>,
        nj: std::ops::Range<usize>,
        apack: &mut [f64],
        bpack: &mut [f64],
        acc: &mut [f64; MAX_ACC],
        mut timing: Option<&mut [u64; 2]>,
    ) {
        let (i0, i1) = (mi.start, mi.end);
        let (j0, j1) = (nj.start, nj.end);
        let cfg = &self.kernel;
        let (mr, nr, kc) = (cfg.mr, cfg.nr, cfg.blocks.kc);
        let variant = cfg.variant;
        let a_base = self.a_batch_off[bi];
        let b_base = self.b_batch_off[bi];
        let c_base = self.c_batch_off[bi];
        let m_strips = (i1 - i0).div_ceil(mr);
        let n_strips = (j1 - j0).div_ceil(nr);

        let mut pc = 0;
        while pc < self.k {
            let kb = kc.min(self.k - pc);
            let t_pack = timing.as_ref().map(|_| tce_trace::now_ns());
            // Pack A: strip-major, `mr` consecutive rows per k column —
            // the micro-kernel reads `mr` contiguous values per step.
            // Full strips of a unit-stride M group copy with vector
            // moves; edges and strided layouts gather through the offset
            // table (zero-padding partial strips; 0·b adds nothing).
            for s in 0..m_strips {
                let strip = &mut apack[s * kb * mr..(s + 1) * kb * mr];
                let i_base = i0 + s * mr;
                if self.a_m_unit && i_base + mr <= i1 {
                    for (kk, col) in strip.chunks_exact_mut(mr).enumerate() {
                        let src = a_base + self.a_k_off[pc + kk] + i_base;
                        kernels::copy_f64(variant, col, &a_data[src..src + mr]);
                    }
                } else {
                    for (kk, col) in strip.chunks_exact_mut(mr).enumerate() {
                        let k_off = self.a_k_off[pc + kk];
                        for (r, slot) in col.iter_mut().enumerate() {
                            let i = i_base + r;
                            *slot = if i < i1 {
                                a_data[a_base + self.a_m_off[i] + k_off]
                            } else {
                                0.0
                            };
                        }
                    }
                }
            }
            // Pack B: strip-major, `nr` consecutive columns per k row.
            for s in 0..n_strips {
                let strip = &mut bpack[s * kb * nr..(s + 1) * kb * nr];
                let j_base = j0 + s * nr;
                if self.b_n_unit && j_base + nr <= j1 {
                    for (kk, row) in strip.chunks_exact_mut(nr).enumerate() {
                        let src = b_base + self.b_k_off[pc + kk] + j_base;
                        kernels::copy_f64(variant, row, &b_data[src..src + nr]);
                    }
                } else {
                    for (kk, row) in strip.chunks_exact_mut(nr).enumerate() {
                        let k_off = self.b_k_off[pc + kk];
                        for (c, slot) in row.iter_mut().enumerate() {
                            let j = j_base + c;
                            *slot = if j < j1 {
                                b_data[b_base + k_off + self.b_n_off[j]]
                            } else {
                                0.0
                            };
                        }
                    }
                }
            }
            let t_kernel = timing.as_ref().map(|_| tce_trace::now_ns());
            // Micro-kernel sweep over the tile's register blocks.
            for ns in 0..n_strips {
                let bp = &bpack[ns * kb * nr..(ns + 1) * kb * nr];
                for ms in 0..m_strips {
                    let ap = &apack[ms * kb * mr..(ms + 1) * kb * mr];
                    kernels::microkernel(cfg, ap, bp, kb, acc);
                    // Scatter the register block through the output
                    // offset tables (writes are disjoint across tasks).
                    for r in 0..mr {
                        let i = i0 + ms * mr + r;
                        if i >= i1 {
                            break;
                        }
                        let row_base = c_base + self.c_m_off[i];
                        for (c, &v) in acc[r * nr..(r + 1) * nr].iter().enumerate() {
                            let j = j0 + ns * nr + c;
                            if j >= j1 {
                                break;
                            }
                            // SAFETY: the offset is below the output span,
                            // which `checked` proved fits the storage
                            // behind `c_ptr`; (bi, i, j) belongs to this
                            // task alone and `with_strides` asserted that
                            // distinct coordinates have distinct offsets,
                            // so no other task writes this element.
                            unsafe {
                                *c_ptr.0.add(row_base + self.c_n_off[j]) += v;
                            }
                        }
                    }
                }
            }
            if let Some(acc_ns) = timing.as_deref_mut() {
                let (t0, t1, t2) = (
                    t_pack.expect("set when timing"),
                    t_kernel.expect("set when timing"),
                    tce_trace::now_ns(),
                );
                tce_trace::span_at("gett.pack", t0, t1);
                tce_trace::span_at("gett.kernel", t1, t2);
                acc_ns[0] += t1 - t0;
                acc_ns[1] += t2 - t1;
            }
            pc += kb;
        }
    }

    /// Multiply–add flops this plan performs per execution.
    pub fn flops(&self) -> u128 {
        2 * (self.nb * self.m * self.n) as u128 * self.k as u128
    }
}

/// Raw output pointer wrapper shared by the tasks of either path, which
/// accumulate into provably disjoint elements.
struct SendPtr(*mut f64);
// SAFETY: tasks only accumulate into (read and write) output offsets no
// other task owns (`with_strides` asserts the output offsets distinct) and
// all below the span `checked` proved fits the output storage; the
// slice outlives `Pool::run`, which joins every task before returning (a
// one-task call runs on the caller).
unsafe impl Sync for SendPtr {}

/// One array of a [`ContractionPlan::checked`] binding does not fit: its
/// largest base plus the plan's span is past its length.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SliceOverrun {
    /// `"a"`, `"b"` or `"c"` (the output).
    pub array: &'static str,
    /// The largest base the binding must admit.
    pub base: usize,
    /// Elements the plan addresses past a base.
    pub span: usize,
    /// Elements behind the array's pointer.
    pub len: usize,
}

impl std::fmt::Display for SliceOverrun {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let Self {
            array,
            base,
            span,
            len,
        } = self;
        write!(
            f,
            "{array}: base {base} + span {span} exceeds {len} elements"
        )
    }
}

/// What the calls of a loop nest share once `ContractionPlan::checked`
/// proved their bounds: the task split, the pack panels, the trace flag,
/// and the counters [`CheckedCall::finish`] records once.
#[derive(Debug)]
pub(crate) struct CheckedCall<'p> {
    plan: &'p ContractionPlan,
    threads: usize,
    /// How each call divides among tasks (`None`: a direct call that runs
    /// as one task on the caller).
    split: Option<TaskSplit>,
    /// The whole call's direct-path offset tables.
    gemm: DirectGemm<'p>,
    tasks: usize,
    /// The A and B pack panels of a one-task packed call, reused by every
    /// call and returned to the buffer pool by `finish`.
    panels: Option<[Vec<f64>; 2]>,
    /// Tracing was on at `checked`.
    traced: bool,
    calls: u64,
    /// Calls that ran vector lanes.
    lanes: u64,
    /// Pack and kernel nanoseconds of one-task packed calls (traced).
    phase_ns: [u64; 2],
    /// Caller wall nanoseconds of packed calls (traced).
    packed_ns: u64,
}

impl CheckedCall<'_> {
    /// The plan's spans: elements of `a`, `b` and the output one call
    /// addresses past its bases.
    pub(crate) fn spans(&self) -> [usize; 3] {
        self.plan.spans
    }

    /// Accumulate one call into `c`, the operands and output already
    /// rebased: `c[o…] += Σ_K a[…]·b[…]` by the path and task split the
    /// plan's shape chose, so the bits are those of
    /// [`ContractionPlan::execute_into`] at the same bases.  It asserts
    /// nothing (the lengths are debug-asserted), reads no trace flag and
    /// opens no span.
    ///
    /// # Safety
    /// Each slice is at least its span ([`CheckedCall::spans`]) long: the
    /// kernels address those elements without bounds checks.
    #[inline]
    pub(crate) unsafe fn run(&mut self, a: &[f64], b: &[f64], c: &mut [f64]) {
        let plan = self.plan;
        let lens = [a.len(), b.len(), c.len()];
        debug_assert!(
            lens.iter().zip(plan.spans).all(|(&len, span)| len >= span),
            "slices {lens:?} shorter than spans {:?}",
            plan.spans
        );
        if plan.direct {
            let lanes = match &self.split {
                // One task on the caller: the whole call, batch by batch.
                // SAFETY: the slices hold their spans (this function's
                // contract), and `c` is borrowed exclusively.
                None => (0..plan.nb).fold(false, |lanes, bi| unsafe {
                    plan.direct_block(&self.gemm, a, b, c.as_mut_ptr(), bi) | lanes
                }),
                Some(split) => plan.execute_direct_split(a, b, c, split, self.threads),
            };
            self.lanes += u64::from(lanes);
        } else {
            let split = self.split.as_ref().expect("a packed call has a split");
            let start = self.traced.then(tce_trace::now_ns);
            let (traced, threads) = (self.traced, self.threads);
            let panels = self.panels.as_mut();
            plan.execute_packed(a, b, c, split, threads, traced, panels, &mut self.phase_ns);
            if let Some(t0) = start {
                self.packed_ns += tce_trace::now_ns() - t0;
            }
        }
        self.calls += 1;
    }

    /// Wall nanoseconds the packed calls so far took on the caller, when
    /// tracing was on at `checked` (else 0): what a caller timing a whole
    /// loop nest subtracts to leave its direct calls' kernel time.
    pub(crate) fn packed_ns(&self) -> u64 {
        self.packed_ns
    }

    /// Return the pack panels to the buffer pool and, when tracing was on
    /// at `checked`, record the calls' `gett.*` counters: the totals a
    /// traced [`ContractionPlan::execute_into`] per call would record.
    pub(crate) fn finish(self) {
        if let Some([apack, bpack]) = self.panels {
            crate::bufpool::release(apack);
            crate::bufpool::release(bpack);
        }
        let (plan, calls) = (self.plan, self.calls);
        if !self.traced || calls == 0 {
            return;
        }
        let cfg = plan.kernel;
        tce_trace::counter_u128("gett.flops", plan.flops() * u128::from(calls));
        tce_trace::counter("gett.tasks", self.tasks as u64 * calls);
        if self.tasks > 1 {
            tce_trace::counter("gett.parallel", calls);
        }
        tce_trace::counter(
            match cfg.variant {
                KernelVariant::Scalar => "gett.kernel_variant.scalar",
                KernelVariant::Sse2 => "gett.kernel_variant.sse2",
                KernelVariant::Avx2 => "gett.kernel_variant.avx2",
            },
            calls,
        );
        if plan.direct {
            tce_trace::counter("gett.direct", calls);
        }
        if plan.dot {
            tce_trace::counter("gett.direct_dots", calls);
        }
        if self.lanes > 0 {
            tce_trace::counter("gett.direct_lanes", self.lanes);
        }
        if self.phase_ns != [0; 2] {
            tce_trace::counter("gett.pack_ns", self.phase_ns[0]);
            tce_trace::counter("gett.kernel_ns", self.phase_ns[1]);
        }
        tce_trace::counter("gett.mc", cfg.blocks.mc as u64);
        tce_trace::counter("gett.nc", cfg.blocks.nc as u64);
        tce_trace::counter("gett.kc", cfg.blocks.kc as u64);
    }
}

/// Cache key: the contraction signature (index ids per operand slot),
/// every involved extent, the operand and output strides, and the kernel
/// variant the plan was tuned for (block sizes depend on it, and
/// overrides can change mid-process).
#[derive(Clone, PartialEq, Eq, Hash)]
struct PlanKey {
    a: Vec<u8>,
    b: Vec<u8>,
    out: Vec<u8>,
    extents: Vec<usize>,
    strides: Vec<usize>,
    variant: KernelVariant,
}

impl PlanKey {
    fn new(
        spec: &BinaryContraction,
        space: &IndexSpace,
        variant: KernelVariant,
        strides: [&[usize]; 3],
    ) -> Self {
        let ids = |vs: &[IndexVar]| vs.iter().map(|v| v.0).collect::<Vec<u8>>();
        let extents = spec
            .a
            .iter()
            .chain(&spec.b)
            .chain(&spec.out)
            .map(|&v| space.extent(v))
            .collect();
        Self {
            a: ids(&spec.a),
            b: ids(&spec.b),
            out: ids(&spec.out),
            extents,
            strides: strides.concat(),
            variant,
        }
    }
}

/// Plan-cache capacity.  Plans are small (offset tables), so a few hundred distinct
/// signatures cover any realistic program while bounding a long-running
/// process that churns through many shapes (e.g. per-rank local extents
/// under varying grids).
const PLAN_CACHE_CAP: usize = 512;

/// Shard count.  Eight shards keep worst-case contention at 1/8 of a
/// single mutex while leaving per-shard capacities meaningful at small
/// totals.
const PLAN_CACHE_SHARDS: usize = 8;

/// The process-wide plan cache: signatures hash onto independently
/// locked LRU shards ([`tce_par::ShardedLru`]), so concurrent requests with
/// distinct signatures contend only 1/S of the time, and the configured
/// total capacity is split across shards so the global entry count never
/// exceeds it.
static PLAN_CACHE: OnceLock<ShardedLru<PlanKey, ContractionPlan>> = OnceLock::new();

fn plan_cache() -> &'static ShardedLru<PlanKey, ContractionPlan> {
    PLAN_CACHE.get_or_init(|| {
        ShardedLru::new(PLAN_CACHE_CAP, PLAN_CACHE_SHARDS).with_trace_counters([
            "plan_cache.hits",
            "plan_cache.misses",
            "plan_cache.evictions",
        ])
    })
}

/// The memoized plan for `spec` under `space`'s extents and the active
/// kernel variant.  Synthesized programs execute the same handful of
/// contraction shapes thousands of times (once per tile / per term), so
/// plan construction — index classification, offset tables, block-size
/// autotuning — is paid once per signature.  The cache is LRU-bounded and
/// sharded by signature hash; the shard
/// lock is held across plan construction on a miss, so two concurrent
/// requests for the same signature build it once while requests hashing to
/// other shards proceed unimpeded.  Shard locks recover from poisoning: the
/// store holds only immutable plans, so a worker that panicked mid-lookup
/// cannot leave it inconsistent.
pub fn plan_for(spec: &BinaryContraction, space: &IndexSpace) -> Arc<ContractionPlan> {
    plan_for_variant(spec, space, kernels::active())
}

/// [`plan_for`] pinned to an explicit kernel variant.
pub fn plan_for_variant(
    spec: &BinaryContraction,
    space: &IndexSpace,
    variant: KernelVariant,
) -> Arc<ContractionPlan> {
    let [a, b, out] = dense_strides(spec, space);
    cached_plan(spec, space, variant, [&a, &b, &out])
}

/// [`plan_for`] over caller-given strides (one per dimension of `spec.a`,
/// `spec.b` and `spec.out`, as in [`ContractionPlan::with_strides`]): the
/// plan for reading and writing slices of larger arrays in place.  It
/// lives in the same cache — strides are part of the key — so a dense
/// signature resolves to the same plan either way.
pub fn plan_for_strided(
    spec: &BinaryContraction,
    space: &IndexSpace,
    strides: [&[usize]; 3],
) -> Arc<ContractionPlan> {
    cached_plan(spec, space, kernels::active(), strides)
}

fn cached_plan(
    spec: &BinaryContraction,
    space: &IndexSpace,
    variant: KernelVariant,
    strides: [&[usize]; 3],
) -> Arc<ContractionPlan> {
    let key = PlanKey::new(spec, space, variant, strides);
    plan_cache()
        .get_or_insert_with(&key, || {
            ContractionPlan::with_strides(spec, space, variant, strides)
        })
        .0
}

/// `(hits, misses, evictions)` of the process-wide plan cache, summed
/// over all shards.
pub fn plan_cache_stats() -> (u64, u64, u64) {
    let s = plan_cache().stats();
    (s.hits, s.misses, s.evictions)
}

/// Per-shard `(hits, misses, evictions)` — the `tce serve` `stats`
/// endpoint reports these so shard imbalance is observable.
pub fn plan_cache_shard_stats() -> Vec<(u64, u64, u64)> {
    plan_cache()
        .shard_stats()
        .into_iter()
        .map(|s| (s.hits, s.misses, s.evictions))
        .collect()
}

/// Number of shards the plan cache is split into.
pub fn plan_cache_shards() -> usize {
    plan_cache().shard_count()
}

/// Contract `a` and `b` with the packed GETT engine using `threads`
/// workers and the process-wide active kernel variant.  Handles every
/// valid [`BinaryContraction`] (summation indices exclusive to one
/// operand are pre-reduced before planning).  Output is bitwise
/// identical for every `threads` value.
pub fn contract_gett(
    spec: &BinaryContraction,
    space: &IndexSpace,
    a: &Tensor,
    b: &Tensor,
    threads: usize,
) -> Tensor {
    contract_gett_with_variant(spec, space, a, b, threads, kernels::active())
}

/// [`contract_gett`] pinned to an explicit kernel variant — the
/// differential-test entry point (SIMD vs scalar oracle in one process).
pub fn contract_gett_with_variant(
    spec: &BinaryContraction,
    space: &IndexSpace,
    a: &Tensor,
    b: &Tensor,
    threads: usize,
    variant: KernelVariant,
) -> Tensor {
    spec.validate().expect("invalid contraction");
    let ar = reduce_exclusive(spec, space, a.data(), 0, a.strides(), true);
    let br = reduce_exclusive(spec, space, b.data(), 0, b.strides(), false);
    let plan = plan_for_variant(&spec.pre_reduced(), space, variant);
    let out = plan.execute(ar.as_ref().unwrap_or(a), br.as_ref().unwrap_or(b), threads);
    for scratch in [ar, br].into_iter().flatten() {
        scratch.recycle();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contract::contract_naive;
    use std::sync::Mutex;

    fn space(extents: &[(&str, usize)]) -> IndexSpace {
        let mut sp = IndexSpace::new();
        for (name, e) in extents {
            let r = sp.add_range(&format!("R{name}"), *e);
            sp.add_var(name, r);
        }
        sp
    }

    fn v(sp: &IndexSpace, n: &str) -> IndexVar {
        sp.var_by_name(n).unwrap()
    }

    #[test]
    fn matmul_matches_naive_at_awkward_sizes() {
        // Extents straddle the MR/NR/MC/NC boundaries of every variant.
        for (mi, ni, ki) in [
            (1, 1, 1),
            (7, 3, 5),
            (8, 4, 192),
            (65, 67, 193),
            (130, 9, 64),
        ] {
            let mut sp = IndexSpace::new();
            let rm = sp.add_range("M", mi);
            let rn = sp.add_range("N", ni);
            let rk = sp.add_range("K", ki);
            let i = sp.add_var("i", rm);
            let j = sp.add_var("j", rn);
            let k = sp.add_var("k", rk);
            let spec = BinaryContraction {
                a: vec![i, k],
                b: vec![k, j],
                out: vec![i, j],
            };
            let a = Tensor::random(&[mi, ki], 1);
            let b = Tensor::random(&[ki, ni], 2);
            let naive = contract_naive(&spec, &sp, &a, &b);
            for variant in kernels::supported_variants() {
                let fast = contract_gett_with_variant(&spec, &sp, &a, &b, 2, variant);
                assert!(
                    naive.approx_eq(&fast, 1e-10),
                    "{variant} ({mi},{ni},{ki}): diff {:e}",
                    naive.max_abs_diff(&fast)
                );
            }
        }
    }

    #[test]
    fn batch_and_transposed_output() {
        // out[p,j,i] = Σ_k a[i,p,k]·b[k,j,p] — batch index in the middle
        // of a and at the end of b, transposed output.  Neither the M
        // nor the N group is unit-stride, so this exercises the gather
        // pack path under every variant.
        let sp = space(&[("p", 3), ("i", 10), ("j", 9), ("k", 17)]);
        let spec = BinaryContraction {
            a: vec![v(&sp, "i"), v(&sp, "p"), v(&sp, "k")],
            b: vec![v(&sp, "k"), v(&sp, "j"), v(&sp, "p")],
            out: vec![v(&sp, "p"), v(&sp, "j"), v(&sp, "i")],
        };
        let a = Tensor::random(&[10, 3, 17], 3);
        let b = Tensor::random(&[17, 9, 3], 4);
        let naive = contract_naive(&spec, &sp, &a, &b);
        for variant in kernels::supported_variants() {
            let fast = contract_gett_with_variant(&spec, &sp, &a, &b, 3, variant);
            assert!(naive.approx_eq(&fast, 1e-10), "{variant}");
        }
    }

    #[test]
    fn unit_stride_detection_feeds_vector_pack() {
        // a[k,i], b[k,j]: M innermost in a, N innermost in b — both
        // unit-stride.
        let sp = space(&[("i", 9), ("j", 11), ("k", 13)]);
        let spec = BinaryContraction {
            a: vec![v(&sp, "k"), v(&sp, "i")],
            b: vec![v(&sp, "k"), v(&sp, "j")],
            out: vec![v(&sp, "i"), v(&sp, "j")],
        };
        let plan = ContractionPlan::new(&spec, &sp);
        assert!(plan.a_m_unit && plan.b_n_unit);
        // a[i,k]: M outermost in a — strided.
        let spec2 = BinaryContraction {
            a: vec![v(&sp, "i"), v(&sp, "k")],
            b: vec![v(&sp, "k"), v(&sp, "j")],
            out: vec![v(&sp, "i"), v(&sp, "j")],
        };
        let plan2 = ContractionPlan::new(&spec2, &sp);
        assert!(!plan2.a_m_unit && plan2.b_n_unit);
    }

    #[test]
    fn exclusive_summation_and_scalar_output() {
        // Σ_{i,j} a[i,j]·b[j,l] with l also summed (exclusive to b).
        let sp = space(&[("i", 6), ("j", 7), ("l", 5)]);
        let spec = BinaryContraction {
            a: vec![v(&sp, "i"), v(&sp, "j")],
            b: vec![v(&sp, "j"), v(&sp, "l")],
            out: vec![],
        };
        let a = Tensor::random(&[6, 7], 5);
        let b = Tensor::random(&[7, 5], 6);
        let naive = contract_naive(&spec, &sp, &a, &b);
        for variant in kernels::supported_variants() {
            let fast = contract_gett_with_variant(&spec, &sp, &a, &b, 2, variant);
            assert_eq!(fast.rank(), 0);
            assert!((naive.get(&[]) - fast.get(&[])).abs() < 1e-10, "{variant}");
        }
    }

    #[test]
    fn outer_product_no_contracted_indices() {
        let sp = space(&[("i", 5), ("j", 6)]);
        let spec = BinaryContraction {
            a: vec![v(&sp, "i")],
            b: vec![v(&sp, "j")],
            out: vec![v(&sp, "j"), v(&sp, "i")],
        };
        let a = Tensor::random(&[5], 7);
        let b = Tensor::random(&[6], 8);
        let naive = contract_naive(&spec, &sp, &a, &b);
        for variant in kernels::supported_variants() {
            let fast = contract_gett_with_variant(&spec, &sp, &a, &b, 4, variant);
            assert!(naive.approx_eq(&fast, 1e-10), "{variant}");
        }
    }

    #[test]
    fn bitwise_identical_across_thread_counts() {
        let sp = space(&[("b", 2), ("c", 5), ("d", 4), ("e", 9), ("f", 6), ("l", 7)]);
        let spec = BinaryContraction {
            a: vec![v(&sp, "b"), v(&sp, "e"), v(&sp, "f"), v(&sp, "l")],
            b: vec![v(&sp, "c"), v(&sp, "d"), v(&sp, "e"), v(&sp, "l")],
            out: vec![v(&sp, "b"), v(&sp, "c"), v(&sp, "d"), v(&sp, "f")],
        };
        let a = Tensor::random(&[2, 9, 6, 7], 9);
        let b = Tensor::random(&[5, 4, 9, 7], 10);
        for variant in kernels::supported_variants() {
            let t1 = contract_gett_with_variant(&spec, &sp, &a, &b, 1, variant);
            for threads in [2, 3, 7, 16] {
                let tn = contract_gett_with_variant(&spec, &sp, &a, &b, threads, variant);
                assert_eq!(t1, tn, "{variant}: threads={threads} changed bits");
            }
        }
    }

    /// `chunks` cut `0..extent` in order, none empty.
    fn assert_cover(chunks: &[Range<usize>], extent: usize, what: &str) {
        assert_eq!(chunks.first().map(|c| c.start), Some(0), "{what}");
        assert_eq!(chunks.last().map(|c| c.end), Some(extent), "{what}");
        assert!(chunks.windows(2).all(|w| w[0].end == w[1].start), "{what}");
        assert!(chunks.iter().all(|c| !c.is_empty()), "{what}");
    }

    /// Chunks of whole `unit` strips (the last may end ragged at
    /// `extent`), each within `block`, lengths at most `unit` apart.
    fn assert_strips(
        chunks: &[Range<usize>],
        extent: usize,
        unit: usize,
        block: usize,
        what: &str,
    ) {
        assert_cover(chunks, extent, what);
        for c in chunks {
            assert_eq!(c.start % unit, 0, "{what}: {c:?} unaligned");
            assert!(c.len() % unit == 0 || c.end == extent, "{what}: {c:?}");
            assert!(c.len() <= block, "{what}: {c:?} exceeds {block}");
        }
        let lens = chunks.iter().map(|c| c.len());
        let spread = lens.clone().max().unwrap() - lens.min().unwrap();
        assert!(spread <= unit, "{what}: lengths {spread} apart");
    }

    #[test]
    fn task_split_covers_the_output_in_balanced_aligned_chunks() {
        let shapes: [(usize, usize, usize, usize); 11] = [
            (1, 576, 576, 576),
            (1, 2304, 2304, 64),
            (5, 37, 29, 200),
            (3, 61, 50, 120),
            (1, 520, 64, 300),
            (1, 1, 1, 1),
            (64, 8, 8, 64),
            (101, 8, 6, 300),
            (1, 8, 6, 100_000),
            (7, 100, 3, 500),
            (2, 1000, 13, 1000),
        ];
        for (mr, nr) in [(8, 6), (4, 4), (8, 4)] {
            for (mc, nc) in [(512, 1020), (64, 64), (mr, nr)] {
                for (nb, m, n, k) in shapes {
                    // Blocks as `BlockSizes::clamp_to` leaves them.
                    let blocks = BlockSizes {
                        mc: mc.min(m.div_ceil(mr) * mr),
                        nc: nc.min(n.div_ceil(nr) * nr),
                        kc: 64,
                    };
                    for threads in 1..=8 {
                        let what = format!("{nb}x{m}x{n}x{k} {mr}x{nr} {blocks:?} p={threads}");
                        let s = task_split(nb, m, n, k, blocks, mr, nr, threads);
                        assert_cover(&s.batches, nb, &what);
                        assert_strips(&s.rows, m, mr, blocks.mc, &what);
                        assert_strips(&s.cols, n, nr, blocks.nc, &what);
                        let group = s.batches.iter().map(Range::len);
                        assert!(group.clone().max().unwrap() - group.min().unwrap() <= 1);
                        // Every output element lies in exactly one block.
                        if nb * m * n <= 1 << 16 {
                            let mut hits = vec![0u8; nb * m * n];
                            for i in 0..s.blocks() {
                                let [bs, rows, cols] = s.block(i);
                                for bi in bs {
                                    for r in rows.clone() {
                                        for c in cols.clone() {
                                            hits[(bi * m + r) * n + c] += 1;
                                        }
                                    }
                                }
                            }
                            assert!(hits.iter().all(|&h| h == 1), "{what}");
                        }
                        let flops = 2 * (nb * m * n * k) as u128;
                        if threads == 1 || flops < WORK_FLOOR_FLOPS * threads as u128 {
                            assert_eq!(s.tasks(), 1, "{what}: below the floor");
                            continue;
                        }
                        assert!(
                            s.tasks() == 1 || s.tasks().is_multiple_of(threads),
                            "{what}"
                        );
                        // Enough strips on one axis, or batches, always fan out.
                        let (mt, nt) = (m.div_ceil(blocks.mc), n.div_ceil(blocks.nc));
                        let roomy = m.div_ceil(mr) >= threads * mt
                            || n.div_ceil(nr) >= threads * nt
                            || nb >= threads;
                        if roomy {
                            assert!(s.tasks() > 1 && s.tasks().is_multiple_of(threads), "{what}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn task_split_splits_the_axis_that_repacks_less() {
        // The §2 step at N=24 under AVX2 blocks: m = n = k = 576, MC = 512.
        // The old grid was 512 + 64 rows; two 288-row tasks re-pack B once
        // more and A never.
        let blocks = BlockSizes {
            mc: 512,
            nc: 576,
            kc: 64,
        };
        let s = task_split(1, 576, 576, 576, blocks, 8, 6, 2);
        assert_eq!(s.rows, [0..288, 288..576]);
        assert_eq!((s.cols.len(), s.cols[0].clone()), (1, 0..576));
        // A wide, short output splits N instead.
        let s = task_split(
            1,
            64,
            4096,
            64,
            BlockSizes {
                mc: 64,
                nc: 1020,
                kc: 64,
            },
            8,
            6,
            2,
        );
        assert_eq!((s.rows.len(), s.cols.len()), (1, 6));
        // Batches split first: they re-pack nothing.
        let s = task_split(
            4,
            48,
            40,
            64,
            BlockSizes {
                mc: 48,
                nc: 42,
                kc: 64,
            },
            8,
            6,
            2,
        );
        assert_eq!(s.batches, vec![0..2, 2..4]);
        assert_eq!(s.tasks(), 2);
    }

    #[test]
    fn split_calls_are_bitwise_identical_across_thread_counts() {
        // Shapes above the work floor at every thread count, so the split
        // really fans out: a plain GEMM whose m is one register strip past
        // MC (the old 512 + 8 lopsided grid), and a batched contraction
        // with a transposed output and gathered operands.
        for variant in kernels::supported_variants() {
            let probe = space(&[("i", 4096), ("j", 64), ("k", 300)]);
            let gemm = |sp: &IndexSpace| BinaryContraction {
                a: vec![v(sp, "i"), v(sp, "k")],
                b: vec![v(sp, "k"), v(sp, "j")],
                out: vec![v(sp, "i"), v(sp, "j")],
            };
            let mc = ContractionPlan::new_with_variant(&gemm(&probe), &probe, variant)
                .kernel_config()
                .blocks
                .mc;
            let lopsided = space(&[("i", mc + variant.mr()), ("j", 64), ("k", 300)]);
            let batched = space(&[("p", 3), ("i", 61), ("j", 50), ("k", 120)]);
            let batched_spec = BinaryContraction {
                a: vec![v(&batched, "i"), v(&batched, "p"), v(&batched, "k")],
                b: vec![v(&batched, "k"), v(&batched, "j"), v(&batched, "p")],
                out: vec![v(&batched, "p"), v(&batched, "j"), v(&batched, "i")],
            };
            for (spec, sp) in [(gemm(&lopsided), &lopsided), (batched_spec, &batched)] {
                let plan = ContractionPlan::new_with_variant(&spec, sp, variant);
                let shape = |dims: &[IndexVar]| -> Vec<usize> {
                    dims.iter().map(|&d| sp.extent(d)).collect()
                };
                let a = Tensor::random(&shape(&spec.a), 21);
                let b = Tensor::random(&shape(&spec.b), 22);
                let one = plan.execute(&a, &b, 1);
                for threads in [2, 3, 4, 7] {
                    let cfg = plan.kernel_config();
                    let split = task_split(
                        plan.nb, plan.m, plan.n, plan.k, cfg.blocks, cfg.mr, cfg.nr, threads,
                    );
                    assert!(
                        split.tasks() > 1 && split.tasks().is_multiple_of(threads),
                        "{variant} {:?} threads={threads}: {split:?}",
                        plan.out_shape
                    );
                    let many = plan.execute(&a, &b, threads);
                    assert_eq!(
                        bits(one.data()),
                        bits(many.data()),
                        "{variant} {:?}: threads={threads} changed bits",
                        plan.out_shape
                    );
                }
            }
        }
    }

    /// Cache tests mutate process-wide state; serialize them so one
    /// test's evictions can't disturb another's hit/miss accounting.
    static CACHE_TEST_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn plan_cache_hits_on_repeat_signatures() {
        let _guard = CACHE_TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let sp = space(&[("x", 11), ("y", 13), ("z", 12)]);
        let spec = BinaryContraction {
            a: vec![v(&sp, "x"), v(&sp, "z")],
            b: vec![v(&sp, "z"), v(&sp, "y")],
            out: vec![v(&sp, "x"), v(&sp, "y")],
        };
        // Hits and misses are witnessed by plan identity; the process-wide
        // counters also move under tests running beside this one, so they
        // are only lower bounds here.
        let (h0, m0, _) = plan_cache_stats();
        let first = plan_for(&spec, &sp);
        let again = plan_for(&spec, &sp);
        assert!(Arc::ptr_eq(&first, &again), "a repeat signature must hit");
        // Strides are part of the key: dense ones name the same plan, a
        // column-major `a` does not.
        let [sa, sb, so] = dense_strides(&spec, &sp);
        let strided = plan_for_strided(&spec, &sp, [&sa, &sb, &so]);
        assert!(Arc::ptr_eq(&first, &strided));
        let transposed = plan_for_strided(&spec, &sp, [&[1, 11], &sb, &so]);
        assert!(!Arc::ptr_eq(&first, &transposed));
        // Same var ids under different extents must NOT hit.
        let sp2 = space(&[("x", 11), ("y", 13), ("z", 5)]);
        let spec2 = BinaryContraction {
            a: vec![v(&sp2, "x"), v(&sp2, "z")],
            b: vec![v(&sp2, "z"), v(&sp2, "y")],
            out: vec![v(&sp2, "x"), v(&sp2, "y")],
        };
        let resized = plan_for(&spec2, &sp2);
        assert!(!Arc::ptr_eq(&first, &resized));
        assert_eq!(resized.k, 5);
        let mut misses = 3;
        // Same signature under a different kernel variant must NOT hit:
        // block sizes (and thus results' rounding) are variant-tuned.
        let other = kernels::supported_variants()
            .into_iter()
            .find(|&kv| kv != kernels::active());
        if let Some(other) = other {
            let revariant = plan_for_variant(&spec2, &sp2, other);
            assert!(!Arc::ptr_eq(&resized, &revariant));
            assert_eq!(revariant.kernel_config().variant, other);
            misses += 1;
        }
        let (h1, m1, _) = plan_cache_stats();
        assert!(h1 > h0 && m1 >= m0 + misses, "{h0}/{m0} -> {h1}/{m1}");
    }

    #[test]
    fn plan_cache_stays_within_capacity() {
        let _guard = CACHE_TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let (_, _, e0) = plan_cache_stats();
        // More distinct signatures (unique extent vectors) than the bound:
        // the cache must evict, never grow past capacity.
        let spec_for = |n: usize| {
            let sp = space(&[("x", n), ("y", n + 1), ("z", n + 2)]);
            let spec = BinaryContraction {
                a: vec![v(&sp, "x"), v(&sp, "z")],
                b: vec![v(&sp, "z"), v(&sp, "y")],
                out: vec![v(&sp, "x"), v(&sp, "y")],
            };
            (spec, sp)
        };
        let last = PLAN_CACHE_CAP + 40;
        for n in 2..=last {
            let (spec, sp) = spec_for(n);
            let _ = plan_for(&spec, &sp);
            assert!(
                plan_cache().len() <= PLAN_CACHE_CAP,
                "cache grew to {}",
                plan_cache().len()
            );
        }
        let (_, _, e1) = plan_cache_stats();
        assert!(e1 > e0, "insertions past capacity must evict");
        // LRU: the most recent signature survives and still hits.
        let (spec, sp) = spec_for(last);
        let (h0, _, _) = plan_cache_stats();
        let _ = plan_for(&spec, &sp);
        let (h1, _, _) = plan_cache_stats();
        assert_eq!(h1, h0 + 1);
    }

    #[test]
    fn plan_reports_geometry_flops_and_kernel() {
        let sp = space(&[("p", 3), ("i", 4), ("j", 5), ("k", 6)]);
        let spec = BinaryContraction {
            a: vec![v(&sp, "p"), v(&sp, "i"), v(&sp, "k")],
            b: vec![v(&sp, "p"), v(&sp, "k"), v(&sp, "j")],
            out: vec![v(&sp, "p"), v(&sp, "i"), v(&sp, "j")],
        };
        // Capture the variant once: another test may toggle the process
        // override concurrently, so don't compare two separate reads.
        let variant = kernels::active();
        let plan = ContractionPlan::new_with_variant(&spec, &sp, variant);
        assert_eq!((plan.nb, plan.m, plan.n, plan.k), (3, 4, 5, 6));
        assert_eq!(plan.out_shape, vec![3, 4, 5]);
        assert_eq!(plan.flops(), spec.flops(&sp));
        let cfg = plan.kernel_config();
        assert_eq!(cfg.variant, variant);
        assert_eq!(cfg.mr, cfg.variant.mr());
        assert_eq!(cfg.nr, cfg.variant.nr());
        assert!(cfg.blocks.mc >= cfg.mr && cfg.blocks.nc >= cfg.nr && cfg.blocks.kc >= 8);
    }

    #[test]
    fn plan_execute_rejects_wrong_shapes() {
        let sp = space(&[("i", 4), ("j", 5), ("k", 6)]);
        let spec = BinaryContraction {
            a: vec![v(&sp, "i"), v(&sp, "k")],
            b: vec![v(&sp, "k"), v(&sp, "j")],
            out: vec![v(&sp, "i"), v(&sp, "j")],
        };
        let plan = ContractionPlan::new(&spec, &sp);
        let bad = Tensor::zeros(&[4, 4]);
        let b = Tensor::zeros(&[6, 5]);
        let r = std::panic::catch_unwind(|| plan.execute(&bad, &b, 1));
        assert!(r.is_err());
    }

    fn bits(c: &[f64]) -> Vec<u64> {
        c.iter().map(|x| x.to_bits()).collect()
    }

    /// `plan` forced onto the direct or the packed path.
    fn on_path(mut plan: ContractionPlan, direct: bool) -> ContractionPlan {
        plan.direct = direct;
        plan
    }

    /// `plan` with no axis marked contiguous: the direct path runs every
    /// long axis in scalar chains, under every variant.
    fn without_lanes(mut plan: ContractionPlan) -> ContractionPlan {
        (plan.m_contiguous, plan.n_contiguous) = (false, false);
        plan
    }

    /// The documented order of a dot plan's calls, written out from its
    /// definition as a scalar oracle: per batch coordinate and K-block
    /// starting at `p0`, eight chains from zero; step `p` into chain `(p -
    /// s) mod 8`, where `s` is the start of `p`'s run piece — the later of
    /// its run's start and `p0` — when `k_run >= 8`, else `p0`; each step
    /// the variant's multiply-add (fused on AVX2); the chains combined as
    /// `((c0+c4)+(c2+c6)) + ((c1+c5)+(c3+c7))` and added to the output,
    /// K-blocks ascending.
    fn dot_oracle(plan: &ContractionPlan, a: &[f64], b: &[f64], c: &mut [f64]) {
        assert!(plan.dot);
        let fused = plan.kernel.variant == KernelVariant::Avx2;
        let madd = |x: f64, y: f64, acc: f64| {
            if fused {
                x.mul_add(y, acc)
            } else {
                acc + x * y
            }
        };
        let (k, kc, run) = (plan.k, plan.kernel.blocks.kc, plan.k_run);
        for bi in 0..plan.nb {
            let x = plan.a_batch_off[bi] + plan.a_m_off[0];
            let y = plan.b_batch_off[bi] + plan.b_n_off[0];
            let out = plan.c_batch_off[bi] + plan.c_m_off[0] + plan.c_n_off[0];
            for p0 in (0..k).step_by(kc) {
                let mut chains = [0.0f64; 8];
                for p in p0..(p0 + kc).min(k) {
                    let start = if run >= 8 { (p - p % run).max(p0) } else { p0 };
                    let j = (p - start) % 8;
                    let (xv, yv) = (a[x + plan.a_k_off[p]], b[y + plan.b_k_off[p]]);
                    chains[j] = madd(xv, yv, chains[j]);
                }
                let [c0, c1, c2, c3, c4, c5, c6, c7] = chains;
                c[out] += ((c0 + c4) + (c2 + c6)) + ((c1 + c5) + (c3 + c7));
            }
        }
    }

    /// Run `spec`'s plan on both paths, and on the direct path without
    /// vector lanes, at 1 and 3 threads, into the same random output and
    /// require identical bits, and the naive contraction's value at every
    /// output coordinate.  `strides` are those of `a`, `b` and the output
    /// (`None`: dense row-major); a strided operand is a random buffer of
    /// the plan's span.  A dot plan's calls must instead equal
    /// [`dot_oracle`] bitwise on the direct path, and the packed path to a
    /// relative 1e-12.  Returns the plan and whether the direct path ran
    /// vector lanes at 1 and at 3 threads alike.
    fn check_direct_against_packed(
        variant: KernelVariant,
        extents: &[(&str, usize)],
        [da, db, dout]: [&str; 3],
        strides: [Option<Vec<usize>>; 3],
    ) -> (ContractionPlan, bool) {
        let sp = space(extents);
        let dims =
            |s: &str| -> Vec<IndexVar> { s.chars().map(|c| v(&sp, &c.to_string())).collect() };
        let spec = BinaryContraction {
            a: dims(da),
            b: dims(db),
            out: dims(dout),
        };
        let [a_str, b_str, c_str] = {
            let [sa, sb, sc] = strides;
            let [da, db, dc] = dense_strides(&spec, &sp);
            [sa.unwrap_or(da), sb.unwrap_or(db), sc.unwrap_or(dc)]
        };
        let plan = || ContractionPlan::with_strides(&spec, &sp, variant, [&a_str, &b_str, &c_str]);
        assert!(
            plan().direct,
            "{variant} {extents:?}: expected the direct path"
        );
        let shape = |s: &str| -> Vec<usize> { dims(s).iter().map(|&d| sp.extent(d)).collect() };
        let [a, b, c0] =
            [1, 2, 3].map(|seed| Tensor::random(&[plan().spans[seed - 1]], seed as u64));
        let dense = |buf: &Tensor, dims: &str, strides: &[usize]| {
            Tensor::from_fn(&shape(dims), |idx| {
                buf.data()[idx.iter().zip(strides).map(|(&i, &s)| i * s).sum::<usize>()]
            })
        };
        let run = |plan: ContractionPlan, threads: usize| {
            let mut c = c0.data().to_vec();
            plan.execute_into(a.data(), 0, b.data(), 0, &mut c, 0, threads);
            c
        };
        let direct = run(plan(), 1);
        let dot = plan().dot;
        if dot {
            let mut want = c0.data().to_vec();
            dot_oracle(&plan(), a.data(), b.data(), &mut want);
            assert_eq!(
                bits(&direct),
                bits(&want),
                "{variant} {extents:?}: dot against its oracle"
            );
        }
        for threads in [1, 3] {
            for (path, other) in [
                ("direct", plan()),
                ("packed", on_path(plan(), false)),
                ("direct without lanes", without_lanes(plan())),
            ] {
                let got = run(other, threads);
                if dot && path == "packed" {
                    for (&x, &y) in direct.iter().zip(&got) {
                        let scale = x.abs().max(y.abs()).max(1.0);
                        assert!(
                            (x - y).abs() <= 1e-12 * scale,
                            "{variant} {extents:?}: dot {x} against packed {y}, threads={threads}"
                        );
                    }
                } else {
                    assert_eq!(
                        bits(&direct),
                        bits(&got),
                        "{variant} {extents:?}: {path}, threads={threads}"
                    );
                }
            }
        }
        let lanes = [1, 3].map(|threads| {
            let mut c = c0.data().to_vec();
            let plan = plan();
            let mut call = plan.checked([a.len(), b.len(), c.len()], [0; 3], threads);
            let call = call.as_mut().unwrap();
            // SAFETY: `checked` proved the whole buffers fit at base 0.
            unsafe { call.run(a.data(), b.data(), &mut c) };
            call.lanes > 0
        });
        assert_eq!(
            lanes[0], lanes[1],
            "{variant} {extents:?}: lanes by threads"
        );
        let naive = contract_naive(&spec, &sp, &dense(&a, da, &a_str), &dense(&b, db, &b_str));
        let mut idx = vec![0usize; naive.rank()];
        for _ in 0..naive.len() {
            let off: usize = idx.iter().zip(&c_str).map(|(&i, &s)| i * s).sum();
            let want = c0.data()[off] + naive.get(&idx);
            assert!((direct[off] - want).abs() < 1e-10, "{variant} {extents:?}");
            Tensor::advance(&mut idx, naive.shape());
        }
        (plan(), lanes[0])
    }

    #[test]
    fn direct_path_matches_packed_path_bitwise() {
        for variant in kernels::supported_variants() {
            let check = |extents: &[(&str, usize)], dims, out_strides| {
                check_direct_against_packed(variant, extents, dims, [None, None, out_strides])
            };
            // m = n = k = 1: a GEMM of one element is no dot, and keeps the
            // packed path's bits; m = 1 (a dot product per column); n = 1.
            let (one, _) = check(&[("i", 1), ("j", 1), ("k", 1)], ["ik", "kj", "ij"], None);
            assert!(!one.dot, "{variant}: an M and an N index of extent 1");
            check(&[("i", 1), ("j", 7), ("k", 3)], ["ik", "kj", "ij"], None);
            check(&[("i", 5), ("j", 1), ("k", 9)], ["ki", "kj", "ij"], None);
            // k > KC: two K-blocks accumulate into each element.
            let kc = kernels::BlockSizes::derive(variant, &kernels::cache_info()).kc;
            check(
                &[("i", 5), ("j", 1), ("k", kc + 5)],
                ["ik", "kj", "ij"],
                None,
            );
            // A batch index, in the middle of `a` and last in `b`.
            let batched = [("p", 3), ("i", 1), ("j", 5), ("k", 4)];
            check(&batched, ["ipk", "kjp", "pji"], None);
            // Transposed output at non-unit strides in both dims.
            let transposed = [("i", 2), ("j", 3), ("k", 6)];
            check(&transposed, ["ik", "kj", "ji"], Some(vec![7, 3]));
            // Thin calls far larger than one pair of pack panels.  A GEMV
            // like `W[a,b,i,j]·T1[b,j]`: M = (a, i) and K = (b, j) both
            // strided in `a`, K in runs of 10.
            let gemv = [("a", 30), ("b", 60), ("i", 10), ("j", 10)];
            check(&gemv, ["abij", "bj", "ai"], None);
            // Three rows against 500 unit-stride columns, two K-blocks.
            let wide = [("i", 3), ("j", 500), ("k", kc + 7)];
            check(&wide, ["ik", "kj", "ij"], None);
            // Batched: thin GEMMs per batch coordinate.
            let batched = [("p", 4), ("i", 2), ("j", 37), ("k", kc + 1)];
            check(&batched, ["pik", "pkj", "pij"], None);
            // Above the work floor on three workers: the long axis fans out
            // in register-aligned chunks, N for a short M and M for a
            // short N (strided in `a`, so in scalar chains).  Under an
            // eight-row tile the last of 17 rows is a chunk with one output
            // element, yet no dot: it keeps the bits it has on one thread.
            for (extents, dims, contiguous) in [
                (
                    [("i", 2), ("j", 2000), ("k", 300)],
                    ["ik", "kj", "ij"],
                    true,
                ),
                (
                    [("i", 3000), ("j", 1), ("k", 200)],
                    ["ki", "kj", "ij"],
                    true,
                ),
                (
                    [("i", 17), ("j", 1), ("k", 24_000)],
                    ["ik", "kj", "ij"],
                    false,
                ),
            ] {
                let (plan, lanes) = check(&extents, dims, None);
                assert_eq!(
                    lanes,
                    variant == KernelVariant::Avx2 && contiguous,
                    "{variant} {extents:?}"
                );
                let split = plan.direct_split(3).expect("above the work floor");
                assert!(
                    split.tasks() > 1 && split.tasks().is_multiple_of(3),
                    "{variant} {extents:?}: {split:?}"
                );
                let (mr, nr) = (plan.kernel_config().mr, plan.kernel_config().nr);
                assert!(split.rows.iter().all(|r| r.start % mr == 0));
                assert!(split.cols.iter().all(|c| c.start % nr == 0));
            }
        }
    }

    #[test]
    fn dots_match_their_documented_chain_order_bitwise() {
        for variant in kernels::supported_variants() {
            let kc = kernels::BlockSizes::derive(variant, &kernels::cache_info()).kc;
            // Each case under every variant, at 1 and 3 threads, against
            // the oracle; `k_run` pinned for each table.
            let check = |extents: &[(&str, usize)], dims, strides, k_run| {
                let (plan, _) = check_direct_against_packed(variant, extents, dims, strides);
                assert!(plan.dot, "{variant} {extents:?}");
                assert_eq!(plan.k_run, k_run, "{variant} {extents:?}");
                plan
            };
            let dense = || [None, None, None];
            // Unit K, k = 1…17: one run, the table order below eight steps.
            for k in 1..=17 {
                check(&[("k", k)], ["k", "k", ""], dense(), k);
            }
            // §2's T1 slice at N = 10, `B[b,e,f,l]·D[c,d,e,l]` at fixed b, f,
            // c, d: k = 100 as ten runs of 10.
            let section2 = [("e", 10), ("l", 10)];
            let strides = || [Some(vec![100, 1]), Some(vec![10, 1]), None];
            check(&section2, ["el", "el", ""], strides(), 10);
            // A run cut by a K-block boundary: runs of 10 (of 9 where KC is
            // a multiple of 10) past KC.
            let run = if kc.is_multiple_of(10) { 9 } else { 10 };
            let cut = [("e", kc / run + 2), ("l", run)];
            let strides = [Some(vec![10 * run, 1]), Some(vec![run, 1]), None];
            let plan = check(&cut, ["el", "el", ""], strides, run);
            assert!(plan.k > plan.kernel.blocks.kc && !plan.kernel.blocks.kc.is_multiple_of(run));
            // Unit K one run past KC, and over 41 K-blocks, the last ragged.
            check(&[("k", kc + 5)], ["k", "k", ""], dense(), kc + 5);
            check(&[("k", 40 * kc + 3)], ["k", "k", ""], dense(), 40 * kc + 3);
            // §2 at N = 6: runs of 6 take the table order.
            let strides = [Some(vec![36, 1]), Some(vec![6, 1]), None];
            check(&[("e", 6), ("l", 6)], ["el", "el", ""], strides, 6);
            // A strided K with no run.
            let strides = [Some(vec![3]), None, None];
            check(&[("k", 50)], ["k", "k", ""], strides, 1);
            // Batched dots: K strided in `b` (no run), and in runs of 10.
            check(
                &[("p", 5), ("k", 4 * kc + 1)],
                ["pk", "kp", "p"],
                dense(),
                1,
            );
            let batched = [("p", 3), ("e", 10), ("l", 10)];
            let plan = check(&batched, ["pel", "epl", "p"], dense(), 10);
            assert_eq!(plan.nb, 3);
            // A batch index of extent 1 between the K indices: the offsets
            // run on across it, but the runs stay those of `l`.
            let between = [("e", 4), ("p", 1), ("l", 10)];
            check(&between, ["epl", "epl", "p"], dense(), 10);
        }
    }

    #[test]
    fn vector_lanes_match_scalar_chains_bitwise() {
        for variant in kernels::supported_variants() {
            let kc = kernels::BlockSizes::derive(variant, &kernels::cache_info()).kc;
            for len in (1..=17).chain([100]) {
                for k in [1, 3, kc + 5] {
                    // A long N axis (one row against `len` columns), then a
                    // long M axis (`len` rows against one column): each
                    // contiguous in its operand and in the output.
                    for (extents, dims) in [
                        ([("i", 1), ("j", len), ("k", k)], ["ik", "kj", "ij"]),
                        ([("i", len), ("j", 1), ("k", k)], ["ki", "kj", "ij"]),
                    ] {
                        let (_, lanes) = check_direct_against_packed(
                            variant,
                            &extents,
                            dims,
                            [None, None, None],
                        );
                        let want = variant == KernelVariant::Avx2 && len >= kernels::CHAINS;
                        assert_eq!(lanes, want, "{variant} {extents:?}");
                    }
                }
            }
            // The control: a long axis contiguous in its operand but
            // strided in the output takes the scalar chains.
            let strided = [("i", 1), ("j", 100), ("k", 3)];
            let (_, lanes) = check_direct_against_packed(
                variant,
                &strided,
                ["ik", "kj", "ij"],
                [None, None, Some(vec![200, 2])],
            );
            assert!(!lanes, "{variant}: lanes ran on a strided output");
        }
    }

    #[test]
    fn execute_into_sub_block_matches_extract_execute_add() {
        // out[i,j] = Σ_k a[i,k]·b[k,j] on interior slices of larger arrays:
        // a = A[p=1, i, k], b = B[k, q=1, j], out = C[i, p=1, j].  k ≤ KC,
        // so a single K-block per element rounds the same either way.
        let sp = space(&[("i", 6), ("j", 9), ("k", 5)]);
        let spec = BinaryContraction {
            a: vec![v(&sp, "i"), v(&sp, "k")],
            b: vec![v(&sp, "k"), v(&sp, "j")],
            out: vec![v(&sp, "i"), v(&sp, "j")],
        };
        let big_a = Tensor::random(&[3, 6, 5], 11);
        let big_b = Tensor::random(&[5, 2, 9], 12);
        let big_c = Tensor::random(&[6, 3, 9], 13);
        let (sa, sb, sc) = (big_a.strides(), big_b.strides(), big_c.strides());
        let a = big_a
            .extract_block(&[1, 0, 0], &[1, 6, 5])
            .reshaped(&[6, 5]);
        let b = big_b
            .extract_block(&[0, 1, 0], &[5, 1, 9])
            .reshaped(&[5, 9]);
        for variant in kernels::supported_variants() {
            let strided = || {
                let kept = [&sa[1..], &[sb[0], sb[2]], &[sc[0], sc[2]]];
                ContractionPlan::with_strides(&spec, &sp, variant, kept)
            };
            let dense = || ContractionPlan::new_with_variant(&spec, &sp, variant);
            // The strided plan spans exactly the block it addresses.
            assert_eq!(strided().spans, [30, 4 * 18 + 8 + 1, 5 * 27 + 8 + 1]);
            assert_eq!(dense().spans, [30, 45, 54]);
            for direct in [true, false] {
                let res = on_path(dense(), direct).execute(&a, &b, 2);
                let mut want = big_c.clone();
                for i in 0..6 {
                    for j in 0..9 {
                        want.add_assign_at(&[i, 1, j], res.get(&[i, j]));
                    }
                }
                let mut got = big_c.clone();
                on_path(strided(), direct).execute_into(
                    big_a.data(),
                    sa[0],
                    big_b.data(),
                    sb[1],
                    got.data_mut(),
                    sc[1],
                    2,
                );
                assert_eq!(
                    bits(got.data()),
                    bits(want.data()),
                    "{variant} direct={direct}"
                );
            }
        }
    }

    #[test]
    fn execute_into_rejects_a_base_past_the_slice() {
        let sp = space(&[("i", 4), ("j", 5), ("k", 6)]);
        let spec = BinaryContraction {
            a: vec![v(&sp, "i"), v(&sp, "k")],
            b: vec![v(&sp, "k"), v(&sp, "j")],
            out: vec![v(&sp, "i"), v(&sp, "j")],
        };
        let plan = ContractionPlan::new(&spec, &sp);
        let (a, b) = (vec![0.0; 24], vec![0.0; 30]);
        // The output spans 20 elements: base 1 needs 21.
        let mut c = vec![0.0; 20];
        let r = std::panic::catch_unwind(move || {
            plan.execute_into(&a, 0, &b, 0, &mut c, 1, 1);
        });
        assert!(
            r.is_err(),
            "a base that pushes the span past the output must panic"
        );
        // Overlapping output strides cannot be planned at all.
        let overlap = std::panic::catch_unwind(|| {
            ContractionPlan::with_strides(
                &spec,
                &sp,
                kernels::active(),
                [&[6, 1], &[5, 1], &[1, 1]],
            )
        });
        assert!(overlap.is_err());
    }
}
