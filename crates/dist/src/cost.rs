//! Communication and computation cost models (paper §7).
//!
//! * [`move_cost`] — `MoveCost(v, β, α)`: elements that must change
//!   processor when redistributing an array from β to α.  Computed
//!   *exactly*: for every processor, the elements it needs under α minus
//!   those it already holds under β (ownership factorizes over array
//!   dimensions, so each processor's count is a product of per-dimension
//!   range intersections).  This reproduces the paper's examples — e.g.
//!   `T1: ⟨1,t,j⟩ → ⟨j,t,1⟩` requires movement while `T2: ⟨j,*,1⟩ →
//!   ⟨j,t,1⟩` does not, "each processor just needs to give up part of the
//!   t-dimension".
//! * [`calc_cost`] — per-processor computation time of a node evaluated
//!   under a loop-space distribution γ (distributed loop dimensions are
//!   divided by the grid extent; replication does not speed anything up).
//! * [`reduce_cost`] — combining partial sums when a summation index was
//!   distributed: local volume × ⌈log₂ p⌉ per summation grid dimension,
//!   doubled when the result is replicated instead of collapsed.

use crate::tuple::{DistEntry, DistTuple};
use tce_ir::{IndexSet, IndexSpace, IndexVar};
use tce_par::ProcessorGrid;

/// Most grid dimensions of extent > 1: a grid with more has more
/// processors than a `usize` counts.
const MAX_AXES: usize = usize::BITS as usize - 1;

/// Block ownership of one array dimension along one odometer axis — the
/// paper's `myrange(z, n, p)` with `n / p` and `n mod p` divided once.  A
/// whole dimension is the one block of `n` on the axis that stays at 0.
#[derive(Clone, Copy)]
struct Split {
    axis: usize,
    base: usize,
    extra: usize,
}

impl Split {
    fn whole(n: usize) -> Split {
        Split {
            axis: MAX_AXES,
            base: n,
            extra: 0,
        }
    }

    /// `(start, end)` of the owned range at odometer coordinates `z`.
    fn range(self, z: &[usize; MAX_AXES + 1]) -> (usize, usize) {
        let z = z[self.axis];
        let start = z * self.base + z.min(self.extra);
        (start, start + self.base + usize::from(z < self.extra))
    }
}

/// Exact redistribution volume (total elements received over all
/// processors) for an array with ordered dims `dims` (distinct index
/// variables), moving from distribution `beta` to `alpha`.
///
/// Per processor, the elements needed under α minus those already held
/// under β, each a product of per-dimension range lengths.  Grid
/// dimensions of extent 1 change nothing and are skipped; dimensions
/// neither tuple reads repeat one contribution, which is multiplied
/// instead of re-walked; the rest are walked with an odometer.  Products
/// and sums saturate in `u128`; a saturating product of the same factors
/// does not depend on their order, so hoisting factors out of the walk
/// keeps every processor's count as it was.
pub fn move_cost(
    dims: &[IndexVar],
    space: &IndexSpace,
    grid: &ProcessorGrid,
    beta: &DistTuple,
    alpha: &DistTuple,
) -> u128 {
    let set = IndexSet::from_vars(dims.iter().copied());
    let reads = |e: DistEntry| match e {
        DistEntry::One => true,
        DistEntry::Idx(v) => set.contains(v),
        DistEntry::Replicate => false,
    };
    let p = grid.dims();
    // Odometer axes are the grid dimensions of extent > 1 that either tuple
    // reads; on every other dimension all coordinates see the same blocks.
    let is_axis = |d: usize| p[d] > 1 && (reads(alpha.0[d]) || reads(beta.0[d]));
    let mut extent = [1usize; MAX_AXES];
    let mut axes = 0;
    let mut beta_one = 0u64;
    let mut copies = 1u128;
    for (d, &pd) in p.iter().enumerate() {
        if !is_axis(d) {
            copies *= pd as u128;
            continue;
        }
        // Extent 1 where α holds data only at coordinate 0.
        if alpha.0[d] != DistEntry::One {
            extent[axes] = pd;
        }
        if beta.0[d] == DistEntry::One {
            beta_one |= 1 << axes;
        }
        axes += 1;
    }
    let split = |t: &DistTuple, v: IndexVar, n: usize| match t
        .0
        .iter()
        .position(|&e| e == DistEntry::Idx(v))
    {
        Some(d) if is_axis(d) => Split {
            axis: (0..d).filter(|&e| is_axis(e)).count(),
            base: n / p[d],
            extra: n % p[d],
        },
        _ => Split::whole(n),
    };
    // Dimensions neither tuple splits add the same factor to need and have.
    let mut whole = 1u128;
    let mut owned = [(Split::whole(0), Split::whole(0)); IndexSet::MAX_VARS];
    let mut split_dims = 0;
    for &v in dims {
        let n = space.extent(v);
        let (a, b) = (split(alpha, v, n), split(beta, v, n));
        if a.axis == MAX_AXES && b.axis == MAX_AXES {
            whole = whole.saturating_mul(n as u128);
        } else {
            owned[split_dims] = (a, b);
            split_dims += 1;
        }
    }
    let owned = &owned[..split_dims];

    let mut total = 0u128;
    let mut z = [0usize; MAX_AXES + 1];
    let mut nonzero = 0u64;
    loop {
        let holds = nonzero & beta_one == 0;
        let (mut need, mut have) = (whole, if holds { whole } else { 0 });
        for &(a, b) in owned {
            let (a0, a1) = a.range(&z);
            need = need.saturating_mul((a1 - a0) as u128);
            if holds {
                let (b0, b1) = b.range(&z);
                have = have.saturating_mul(a1.min(b1).saturating_sub(a0.max(b0)) as u128);
            }
        }
        total = total.saturating_add(need.saturating_sub(have));
        // Advance the odometer, last axis fastest.
        let mut k = axes;
        loop {
            if k == 0 {
                return total.saturating_mul(copies);
            }
            k -= 1;
            z[k] += 1;
            if z[k] < extent[k] {
                nonzero |= 1 << k;
                break;
            }
            z[k] = 0;
            nonzero &= !(1 << k);
        }
    }
}

/// Per-processor iteration points of a loop space `loops` under the
/// distribution γ: distributed dimensions are block-divided, everything
/// else is traversed in full.
pub fn local_iteration_points(
    loops: IndexSet,
    space: &IndexSpace,
    grid: &ProcessorGrid,
    gamma: &DistTuple,
) -> u128 {
    let mut points = 1u128;
    for v in loops.iter() {
        let n = space.extent(v);
        let mut local = n;
        for (d, e) in gamma.0.iter().enumerate() {
            if *e == DistEntry::Idx(v) {
                local = n.div_ceil(grid.dims()[d]);
                break;
            }
        }
        points = points.saturating_mul(local as u128);
    }
    points
}

/// Per-processor computation time (flops) of a node whose loop space is
/// `loops`, costing `flops_per_point` at each point, under γ.
pub fn calc_cost(
    loops: IndexSet,
    flops_per_point: u128,
    space: &IndexSpace,
    grid: &ProcessorGrid,
    gamma: &DistTuple,
) -> u128 {
    local_iteration_points(loops, space, grid, gamma).saturating_mul(flops_per_point)
}

/// How a distributed summation dimension is resolved after partial sums.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReduceMode {
    /// Combine partial sums onto the first processor of each summation
    /// grid dimension (tuple entry becomes `1`).
    Combine,
    /// Replicate the combined sums along each summation grid dimension
    /// (tuple entry becomes `*`).
    Replicate,
}

/// Cost (words) of reducing partial sums: for each grid dimension that
/// carried a summation index, a tree combine of the local result volume —
/// `volume × ⌈log₂ p_d⌉` — doubled for [`ReduceMode::Replicate`]
/// (reduce + broadcast).
pub fn reduce_cost(
    result_indices: IndexSet,
    sum_indices: IndexSet,
    space: &IndexSpace,
    grid: &ProcessorGrid,
    gamma: &DistTuple,
    mode: ReduceMode,
) -> u128 {
    let volume = local_iteration_points(result_indices, space, grid, gamma);
    let mut cost = 0u128;
    for (d, e) in gamma.0.iter().enumerate() {
        if let DistEntry::Idx(v) = *e {
            if sum_indices.contains(v) {
                let p = grid.dims()[d] as u128;
                if p > 1 {
                    let rounds = 128 - (p - 1).leading_zeros() as u128; // ⌈log₂ p⌉
                    cost = cost.saturating_add(volume.saturating_mul(rounds));
                }
            }
        }
    }
    match mode {
        ReduceMode::Combine => cost,
        ReduceMode::Replicate => cost.saturating_mul(2),
    }
}

/// The post-reduction distribution of a contraction's result: summation
/// entries collapse to `1` (Combine) or `*` (Replicate); everything else
/// is kept, normalized to the result's indices.
pub fn after_reduction(
    gamma: &DistTuple,
    result_indices: IndexSet,
    sum_indices: IndexSet,
    mode: ReduceMode,
) -> DistTuple {
    DistTuple(
        gamma
            .0
            .iter()
            .map(|e| match *e {
                DistEntry::Idx(v) if sum_indices.contains(v) => match mode {
                    ReduceMode::Combine => DistEntry::One,
                    ReduceMode::Replicate => DistEntry::Replicate,
                },
                DistEntry::Idx(v) if !result_indices.contains(v) => DistEntry::Replicate,
                other => other,
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::move_cost_elementwise;
    use crate::tuple::enumerate_tuples;

    /// `move_cost` as one saturating `u128` product per processor over
    /// every dimension's owned range — the rule the hoisted walk must
    /// reproduce, including where it saturates.
    fn move_cost_u128(
        dims: &[IndexVar],
        space: &IndexSpace,
        grid: &ProcessorGrid,
        beta: &DistTuple,
        alpha: &DistTuple,
    ) -> u128 {
        let set = IndexSet::from_vars(dims.iter().copied());
        let mut total = 0u128;
        for id in grid.processors() {
            let z = grid.coords(id);
            if !alpha.holds(set, &z) {
                continue;
            }
            let mut need = 1u128;
            for &v in dims {
                need = need.saturating_mul(alpha.owned_range(v, space, grid, &z).len() as u128);
            }
            let have = if beta.holds(set, &z) {
                let mut inter = 1u128;
                for &v in dims {
                    let a = alpha.owned_range(v, space, grid, &z);
                    let b = beta.owned_range(v, space, grid, &z);
                    inter = inter.saturating_mul(
                        a.end.min(b.end).saturating_sub(a.start.max(b.start)) as u128,
                    );
                }
                inter
            } else {
                0
            };
            total = total.saturating_add(need.saturating_sub(have));
        }
        total
    }

    /// An array whose dimensions have the given extents, one range each.
    fn array(extents: &[usize]) -> (IndexSpace, Vec<IndexVar>) {
        let mut sp = IndexSpace::new();
        let vars = extents
            .iter()
            .enumerate()
            .map(|(i, &n)| {
                let r = sp.add_range(&format!("R{i}"), n);
                sp.add_var(&format!("x{i}"), r)
            })
            .collect();
        (sp, vars)
    }

    #[test]
    fn move_cost_matches_elementwise_on_ragged_extents_and_grids() {
        // Extents 1, 5 and 7 split unevenly (or not at all) over grids
        // with unit, odd and mixed dimensions.
        let (sp, dims) = array(&[1, 5, 7]);
        for shape in [
            vec![3],
            vec![1, 4],
            vec![2, 3],
            vec![2, 2, 2],
            vec![3, 1, 2, 2],
        ] {
            let grid = ProcessorGrid::new(shape.clone());
            let tuples = enumerate_tuples(IndexSet::from_vars(dims.iter().copied()), grid.rank());
            for beta in &tuples {
                for alpha in &tuples {
                    assert_eq!(
                        move_cost(&dims, &sp, &grid, beta, alpha),
                        move_cost_elementwise(&dims, &sp, &grid, beta, alpha),
                        "grid {shape:?} β={} α={}",
                        beta.display(&sp),
                        alpha.display(&sp)
                    );
                }
            }
        }
    }

    #[test]
    fn hoisted_walk_matches_the_saturating_rule_near_two_to_the_forty() {
        // Per-processor products of extents near 2⁴⁰: three dimensions fit
        // in u128, four overflow it and saturate.
        let n = (1usize << 40) + 3;
        for extents in [vec![n, 7, n + 1], vec![n, n, n, n]] {
            let (sp, dims) = array(&extents);
            for shape in [vec![2, 3], vec![3, 1, 2]] {
                let grid = ProcessorGrid::new(shape.clone());
                let tuples =
                    enumerate_tuples(IndexSet::from_vars(dims.iter().copied()), grid.rank());
                for beta in &tuples {
                    for alpha in &tuples {
                        assert_eq!(
                            move_cost(&dims, &sp, &grid, beta, alpha),
                            move_cost_u128(&dims, &sp, &grid, beta, alpha),
                            "extents {extents:?} grid {shape:?} β={} α={}",
                            beta.display(&sp),
                            alpha.display(&sp)
                        );
                    }
                }
            }
        }
    }

    fn setup() -> (IndexSpace, ProcessorGrid, IndexVar, IndexVar) {
        let mut sp = IndexSpace::new();
        let rn = sp.add_range("N", 16);
        let j = sp.add_var("j", rn);
        let t = sp.add_var("t", rn);
        (sp, ProcessorGrid::new(vec![2, 4, 8]), j, t)
    }

    #[test]
    fn paper_redistribution_examples() {
        // §7: T1[j,t] from ⟨1,t,j⟩ to ⟨j,t,1⟩ "would have to be
        // redistributed because the two distributions do not match. But for
        // T2 to go from ⟨j,*,1⟩ to ⟨j,t,1⟩, each processor just needs to
        // give up part of the t-dimension of the array and no
        // inter-processor data movement is required."
        let (sp, grid, j, t) = setup();
        let dims = [j, t];
        let t1_from = DistTuple(vec![DistEntry::One, DistEntry::Idx(t), DistEntry::Idx(j)]);
        let t2_from = DistTuple(vec![
            DistEntry::Idx(j),
            DistEntry::Replicate,
            DistEntry::One,
        ]);
        let to = DistTuple(vec![DistEntry::Idx(j), DistEntry::Idx(t), DistEntry::One]);
        let t1_cost = move_cost(&dims, &sp, &grid, &t1_from, &to);
        assert!(t1_cost > 0);
        assert_eq!(move_cost(&dims, &sp, &grid, &t2_from, &to), 0);
        // The closed form counts exactly the elements that move.
        assert_eq!(
            t1_cost,
            move_cost_elementwise(&dims, &sp, &grid, &t1_from, &to)
        );
    }

    #[test]
    fn identical_distribution_moves_nothing() {
        let (sp, grid, j, t) = setup();
        let dims = [j, t];
        for tup in [
            DistTuple::all_one(3),
            DistTuple::all_replicate(3),
            DistTuple(vec![DistEntry::Idx(j), DistEntry::Idx(t), DistEntry::One]),
        ] {
            assert_eq!(move_cost(&dims, &sp, &grid, &tup, &tup), 0);
        }
    }

    #[test]
    fn replication_from_single_copy_costs_extra_copies() {
        // From everything-on-processor-0 to full replication: 63 of 64
        // processors receive the whole 16×16 array.
        let (sp, grid, j, t) = setup();
        let dims = [j, t];
        let from = DistTuple::all_one(3);
        let to = DistTuple::all_replicate(3);
        assert_eq!(move_cost(&dims, &sp, &grid, &from, &to), 63 * 256);
    }

    #[test]
    fn gather_to_one_from_blocks() {
        // From block-distributed over j (2 ways) to all-on-first: the
        // first processor already holds half.
        let (sp, grid, j, t) = setup();
        let dims = [j, t];
        let from = DistTuple(vec![DistEntry::Idx(j), DistEntry::One, DistEntry::One]);
        let to = DistTuple::all_one(3);
        assert_eq!(move_cost(&dims, &sp, &grid, &from, &to), 128);
    }

    #[test]
    fn calc_cost_divides_distributed_dims_only() {
        let (sp, grid, j, t) = setup();
        let loops = IndexSet::from_vars([j, t]);
        let seq = DistTuple::all_one(3);
        assert_eq!(calc_cost(loops, 2, &sp, &grid, &seq), 2 * 256);
        let dist_j = DistTuple(vec![DistEntry::Idx(j), DistEntry::One, DistEntry::One]);
        assert_eq!(calc_cost(loops, 2, &sp, &grid, &dist_j), 2 * 128);
        // j over p=2 (local 8) and t over p=4 (local 4): 2·8·4.
        let dist_both = DistTuple(vec![DistEntry::Idx(j), DistEntry::Idx(t), DistEntry::One]);
        assert_eq!(calc_cost(loops, 2, &sp, &grid, &dist_both), 2 * 8 * 4);
        // Replication does not reduce per-processor time.
        let rep = DistTuple::all_replicate(3);
        assert_eq!(calc_cost(loops, 2, &sp, &grid, &rep), 2 * 256);
    }

    #[test]
    fn reduce_cost_log_rounds() {
        let (sp, grid, j, t) = setup();
        let result = j.singleton();
        let sums = t.singleton();
        // t distributed along dim 1 (p=4): 2 rounds × local volume (j
        // undistributed: 16).
        let gamma = DistTuple(vec![DistEntry::One, DistEntry::Idx(t), DistEntry::One]);
        assert_eq!(
            reduce_cost(result, sums, &sp, &grid, &gamma, ReduceMode::Combine),
            16 * 2
        );
        assert_eq!(
            reduce_cost(result, sums, &sp, &grid, &gamma, ReduceMode::Replicate),
            16 * 4
        );
        // No distributed sum index → free.
        let gamma2 = DistTuple(vec![DistEntry::Idx(j), DistEntry::One, DistEntry::One]);
        assert_eq!(
            reduce_cost(result, sums, &sp, &grid, &gamma2, ReduceMode::Combine),
            0
        );
    }

    #[test]
    fn after_reduction_rewrites_entries() {
        let (_, _, j, t) = setup();
        let gamma = DistTuple(vec![
            DistEntry::Idx(j),
            DistEntry::Idx(t),
            DistEntry::Replicate,
        ]);
        let res = j.singleton();
        let sums = t.singleton();
        let a = after_reduction(&gamma, res, sums, ReduceMode::Combine);
        assert_eq!(
            a.0,
            vec![DistEntry::Idx(j), DistEntry::One, DistEntry::Replicate]
        );
        let b = after_reduction(&gamma, res, sums, ReduceMode::Replicate);
        assert_eq!(b.0[1], DistEntry::Replicate);
    }
}
