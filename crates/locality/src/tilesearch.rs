//! Loop blocking and the doubling tile-size search (paper §6).
//!
//! "Using this cost model, we can compute the total memory access cost for
//! given tile sizes.  The procedure is repeated for different sets of tile
//! sizes … In the end the lowest possible cost is chosen, thus determining
//! the optimal tile sizes.  We define our tile size search space in the
//! following way: if `Nᵢ` is a loop range, we use a tile size starting
//! from `Tᵢ = 1` (no tiling), and successively increasing `Tᵢ` by doubling
//! it until it reaches `Nᵢ`."
//!
//! Blocking is applied to perfectly nested contraction loops: the tiled
//! loops' tile counters move outermost (in original order) and the
//! intra-tile loops replace the originals, with every subscript rewritten
//! to `tile·B + intra`.  The transformation is semantics-preserving
//! (verified against the interpreter in `tce-exec` integration tests).

use crate::model::{access_cost, cost_stmt, stmt_accesses};
use std::collections::HashMap;
use tce_ir::IndexSpace;
use tce_loops::{ARef, LoopProgram, LoopVarId, Stmt, Sub, VarRange};

/// A perfect nest found in a program: the position of its top-level
/// statement and the loop variables outermost-first.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PerfectNest {
    /// Index into `LoopProgram::body`.
    pub body_index: usize,
    /// Loop variables, outermost first.
    pub vars: Vec<LoopVarId>,
}

/// Find the maximal perfect nests among the program's top-level
/// statements (a chain of single-statement loops ending in non-loop
/// statements).
pub fn perfect_nests(p: &LoopProgram) -> Vec<PerfectNest> {
    let mut out = Vec::new();
    for (i, s) in p.body.iter().enumerate() {
        let mut vars = Vec::new();
        let mut cur = s;
        while let Stmt::Loop { var, body } = cur {
            vars.push(*var);
            if body.len() == 1 {
                cur = &body[0];
            } else {
                break;
            }
        }
        if !vars.is_empty() && !matches!(cur, Stmt::Loop { .. }) {
            out.push(PerfectNest {
                body_index: i,
                vars,
            });
        }
    }
    out
}

/// Block the perfect nest at `nest.body_index` with the given tile sizes
/// (`var → B`; absent or `B = 1` or `B = extent` leaves a loop untiled).
/// Returns the transformed program.
///
/// # Panics
/// Panics if the statement is not a perfect nest over `nest.vars` or a
/// tiled variable's range is not `Full`.
pub fn tile_nest(
    p: &LoopProgram,
    space: &IndexSpace,
    nest: &PerfectNest,
    blocks: &HashMap<LoopVarId, usize>,
) -> LoopProgram {
    let mut out = p.clone();

    // Peel the nest to its innermost body.
    let mut inner: Vec<Stmt> = {
        let mut cur = p.body[nest.body_index].clone();
        let mut depth = 0;
        loop {
            match cur {
                Stmt::Loop { var, mut body } => {
                    assert_eq!(var, nest.vars[depth], "nest shape mismatch");
                    depth += 1;
                    if depth == nest.vars.len() {
                        break body;
                    }
                    assert_eq!(body.len(), 1, "not a perfect nest");
                    cur = body.pop().unwrap();
                }
                _ => panic!("not a loop nest"),
            }
        }
    };

    // Declare tile/intra vars and build the substitution map.
    let mut subst: HashMap<LoopVarId, Sub> = HashMap::new();
    let mut tile_loops: Vec<LoopVarId> = Vec::new();
    let mut inner_loops: Vec<LoopVarId> = Vec::new();
    for &v in &nest.vars {
        let b = blocks.get(&v).copied().unwrap_or(1);
        let src = match out.var(v).range {
            VarRange::Full(iv) => iv,
            _ => panic!("can only tile Full-range loops"),
        };
        let extent = space.extent(src);
        if b <= 1 || b >= extent {
            inner_loops.push(v);
            continue;
        }
        let name = out.var(v).name.clone();
        let vt = out.add_var(
            &format!("{name}_t"),
            VarRange::Tile {
                index: src,
                block: b,
            },
        );
        let vi = out.add_var(
            &format!("{name}_i"),
            VarRange::Intra {
                index: src,
                block: b,
            },
        );
        subst.insert(
            v,
            Sub::Tiled {
                tile: vt,
                intra: vi,
                block: b,
            },
        );
        tile_loops.push(vt);
        inner_loops.push(vi);
    }

    // Rewrite subscripts in the innermost statements.
    fn rewrite_sub(s: &mut Sub, subst: &HashMap<LoopVarId, Sub>) {
        if let Sub::Var(v) = *s {
            if let Some(rep) = subst.get(&v) {
                *s = *rep;
            }
        }
    }
    fn rewrite_ref(r: &mut ARef, subst: &HashMap<LoopVarId, Sub>) {
        for s in &mut r.subs {
            rewrite_sub(s, subst);
        }
    }
    fn rewrite(stmts: &mut [Stmt], subst: &HashMap<LoopVarId, Sub>) {
        for s in stmts {
            match s {
                Stmt::Loop { body, .. } => rewrite(body, subst),
                Stmt::Init { .. } => {}
                Stmt::Accum { lhs, rhs, .. } => {
                    rewrite_ref(lhs, subst);
                    for r in rhs {
                        rewrite_ref(r, subst);
                    }
                }
                Stmt::Eval { lhs, args, .. } => {
                    rewrite_ref(lhs, subst);
                    for a in args {
                        rewrite_sub(a, subst);
                    }
                }
            }
        }
    }
    rewrite(&mut inner, &subst);

    // Rebuild: tile loops outermost (original order), then the
    // intra/untiled loops in original order.
    let all: Vec<LoopVarId> = tile_loops.into_iter().chain(inner_loops).collect();
    out.body[nest.body_index] = tce_loops::nest(all, inner);
    debug_assert!(out.validate().is_ok());
    out
}

/// Whether `nest` can be blocked: the statement at `nest.body_index` is a
/// chain of single-statement loops over exactly `nest.vars`, and every
/// loop variable ranges over a full (untiled) source index.  Already-tiled
/// programs (e.g. space-time codegen output) and degenerate nests —
/// scalar or fully-fused programs whose "nests" carry tile/intra ranges —
/// fail this test; the searches below then return the untiled program
/// instead of panicking inside [`tile_nest`].
pub fn nest_is_tileable(p: &LoopProgram, nest: &PerfectNest) -> bool {
    if nest.vars.is_empty() || nest.body_index >= p.body.len() {
        return false;
    }
    if nest
        .vars
        .iter()
        .any(|&v| !matches!(p.var(v).range, VarRange::Full(_)))
    {
        return false;
    }
    let mut cur = &p.body[nest.body_index];
    for (depth, &v) in nest.vars.iter().enumerate() {
        match cur {
            Stmt::Loop { var, body } if *var == v => {
                if depth + 1 == nest.vars.len() {
                    return true;
                }
                if body.len() != 1 {
                    return false;
                }
                cur = &body[0];
            }
            _ => return false,
        }
    }
    true
}

/// Outcome of the tile-size search for one nest.
#[derive(Debug, Clone)]
pub struct TileSearchResult {
    /// Chosen tile size per loop variable of the nest.
    pub blocks: HashMap<LoopVarId, usize>,
    /// The blocked program.
    pub program: LoopProgram,
    /// Modeled access cost of the blocked program.
    pub cost: u128,
}

/// Doubling candidates for one loop (`1, 2, 4, …, N`), per §6; for small
/// extents this degenerates into the exhaustive search the paper mentions.
fn candidates(extent: usize) -> Vec<usize> {
    let mut out = vec![1usize];
    let mut b = 2usize;
    while b < extent {
        out.push(b);
        b *= 2;
    }
    if extent > 1 {
        out.push(extent);
    }
    out
}

/// The §6 cost of a program with one perfect nest blocked, evaluated from
/// the block sizes alone instead of building and re-costing the blocked
/// program with [`tile_nest`] and [`access_cost`].
///
/// Blocking only changes the nest's loops, so every other top-level
/// statement is costed once.  Inside the nest, `tile_nest` rewrites each
/// subscript injectively, so the distinct references of the innermost
/// statements are the same set before and after it; at each depth of the
/// blocked nest a reference then touches `Π_subs span` elements, where a
/// subscript's span is `⌈N/B⌉` for a varying tile loop, `B` for a varying
/// intra-tile loop, `N` for a varying untiled loop and 1 otherwise — the
/// `Sub::Tiled` rule of `tce_loops::distinct_accesses`, including the
/// `⌈N/B⌉·B > N` overshoot of a ragged last tile.
struct BlockedNest {
    /// Extent of each nest loop, outermost first.
    extents: Vec<usize>,
    /// Distinct references of the innermost statements, each as the nest
    /// positions of its subscripts.
    refs: Vec<Vec<usize>>,
    /// `Cost` of one execution of the innermost statements.
    leaf: u128,
    /// `Cost` of every other top-level statement, per cache level.
    others: Vec<u128>,
}

impl BlockedNest {
    /// The model of a tileable `nest`, or `None` when it cannot be
    /// evaluated analytically: a loop inside the innermost statements, a
    /// subscript that is not a plain nest variable, or more than 64 loops.
    fn new(
        p: &LoopProgram,
        space: &IndexSpace,
        nest: &PerfectNest,
        caches: &[u128],
    ) -> Option<Self> {
        if nest.vars.len() > 64 {
            return None;
        }
        let mut inner = std::slice::from_ref(&p.body[nest.body_index]);
        for _ in &nest.vars {
            let Stmt::Loop { body, .. } = &inner[0] else {
                unreachable!("a tileable nest is a loop chain");
            };
            inner = body;
        }
        let mut refs: Vec<(u32, Vec<usize>)> = Vec::new();
        for s in inner {
            let accessed: Vec<&ARef> = match s {
                Stmt::Loop { .. } => return None,
                Stmt::Init { .. } => Vec::new(),
                Stmt::Accum { lhs, rhs, .. } => std::iter::once(lhs).chain(rhs).collect(),
                Stmt::Eval { lhs, .. } => vec![lhs],
            };
            for r in accessed {
                let subs = r
                    .subs
                    .iter()
                    .map(|s| match *s {
                        Sub::Var(v) => nest.vars.iter().position(|&n| n == v),
                        Sub::Tiled { .. } => None,
                    })
                    .collect::<Option<Vec<usize>>>()?;
                let key = (r.array.0, subs);
                if !refs.contains(&key) {
                    refs.push(key);
                }
            }
        }
        let leaf = inner
            .iter()
            .map(|s| stmt_accesses(s, p, space))
            .fold(0, u128::saturating_add);
        let others = caches
            .iter()
            .map(|&cache| {
                p.body
                    .iter()
                    .enumerate()
                    .filter(|&(i, _)| i != nest.body_index)
                    .map(|(_, s)| cost_stmt(s, p, space, cache))
                    .fold(0, u128::saturating_add)
            })
            .collect();
        Some(Self {
            extents: nest.vars.iter().map(|&v| p.var(v).extent(space)).collect(),
            refs: refs.into_iter().map(|(_, subs)| subs).collect(),
            leaf,
            others,
        })
    }

    /// `access_cost` per cache level of the program blocked by `blocks`
    /// (one size per nest loop, outermost first).
    fn costs(&self, blocks: &[usize], caches: &[u128]) -> Vec<u128> {
        let n = self.extents.len();
        let tiled = |k: usize| blocks[k] > 1 && blocks[k] < self.extents[k];
        let (mut tile_on, mut inner_on) = (0u64, 0u64);
        // Subscript span of nest position `k` with the loops marked in
        // `tile_on` / `inner_on` varying.
        let span = |k: usize, tile_on: u64, inner_on: u64| -> u128 {
            let (n, b) = (self.extents[k] as u128, blocks[k] as u128);
            let inner = inner_on >> k & 1 == 1;
            if tiled(k) {
                let t = if tile_on >> k & 1 == 1 {
                    n.div_ceil(b)
                } else {
                    1
                };
                t.saturating_mul(if inner { b } else { 1 })
            } else if inner {
                n
            } else {
                1
            }
        };
        // Blocked loop order innermost first: the intra/untiled loops, then
        // the tile loops, each `(nest position, is a tile loop)`.
        let order = (0..n)
            .rev()
            .map(|k| (k, false))
            .chain((0..n).rev().filter(|&k| tiled(k)).map(|k| (k, true)));
        let mut cost = vec![self.leaf; caches.len()];
        for (k, is_tile) in order {
            let extent = if is_tile {
                tile_on |= 1 << k;
                self.extents[k].div_ceil(blocks[k])
            } else {
                inner_on |= 1 << k;
                if tiled(k) {
                    blocks[k]
                } else {
                    self.extents[k]
                }
            } as u128;
            let accesses = self
                .refs
                .iter()
                .map(|r| {
                    r.iter()
                        .fold(1u128, |a, &k| a.saturating_mul(span(k, tile_on, inner_on)))
                })
                .fold(0, u128::saturating_add);
            for (c, &cache) in cost.iter_mut().zip(caches) {
                *c = if accesses <= cache {
                    accesses
                } else {
                    extent.saturating_mul(*c)
                };
            }
        }
        for (c, &o) in cost.iter_mut().zip(&self.others) {
            *c = o.saturating_add(*c);
        }
        cost
    }
}

/// The one tile search: every doubling block-size vector of `nest` (first
/// loop slowest), keeping the first of the cheapest under `weigh` of the
/// per-level costs for cache capacities `caches`.  Candidates are costed
/// by [`BlockedNest`] where it applies and by blocking and costing the
/// program otherwise; the winner alone is built.  Untileable nests
/// (already tiled, or degenerate — see [`nest_is_tileable`]) are skipped
/// gracefully: the untiled program itself is the search result.  Returns
/// the blocks, the blocked program and its cost per level.
fn search_tiles_by<C: PartialOrd>(
    p: &LoopProgram,
    space: &IndexSpace,
    nest: &PerfectNest,
    caches: &[u128],
    weigh: impl Fn(&[u128]) -> C,
) -> (HashMap<LoopVarId, usize>, LoopProgram, Vec<u128>) {
    let level_costs = |q: &LoopProgram| -> Vec<u128> {
        caches.iter().map(|&c| access_cost(q, space, c)).collect()
    };
    if !nest_is_tileable(p, nest) {
        return (HashMap::new(), p.clone(), level_costs(p));
    }
    let block_map = |blocks: &[usize]| -> HashMap<LoopVarId, usize> {
        nest.vars
            .iter()
            .copied()
            .zip(blocks.iter().copied())
            .collect()
    };
    let sizes: Vec<Vec<usize>> = nest
        .vars
        .iter()
        .map(|&v| candidates(p.var(v).extent(space)))
        .collect();
    tce_trace::counter(
        "locality.tile_candidates",
        sizes
            .iter()
            .fold(1u64, |a, s| a.saturating_mul(s.len() as u64)),
    );
    let model = BlockedNest::new(p, space, nest, caches);
    let mut pick = vec![0usize; sizes.len()];
    let mut best: Option<(Vec<usize>, Vec<u128>, C)> = None;
    loop {
        let blocks: Vec<usize> = sizes.iter().zip(&pick).map(|(s, &i)| s[i]).collect();
        let costs = match &model {
            Some(m) => m.costs(&blocks, caches),
            None => level_costs(&tile_nest(p, space, nest, &block_map(&blocks))),
        };
        let c = weigh(&costs);
        if best.as_ref().is_none_or(|(_, _, b)| c < *b) {
            best = Some((blocks, costs, c));
        }
        // Odometer over the candidate lists, last loop fastest.
        let mut d = pick.len();
        loop {
            if d == 0 {
                let (blocks, costs, _) = best.expect("a tileable nest has at least one candidate");
                let blocks = block_map(&blocks);
                let program = tile_nest(p, space, nest, &blocks);
                return (blocks, program, costs);
            }
            d -= 1;
            pick[d] += 1;
            if pick[d] < sizes[d].len() {
                break;
            }
            pick[d] = 0;
        }
    }
}

/// Search tile sizes for one perfect nest, minimizing the §6 cost model
/// for a cache of `cache_elements`.
pub fn search_nest_tiles(
    p: &LoopProgram,
    space: &IndexSpace,
    nest: &PerfectNest,
    cache_elements: u128,
) -> TileSearchResult {
    let (blocks, program, costs) = search_tiles_by(p, space, nest, &[cache_elements], |c| c[0]);
    TileSearchResult {
        blocks,
        program,
        cost: costs[0],
    }
}

/// Reorder the loops of a perfect nest (loop interchange).  All loops in
/// the synthesized nests are fully permutable — statements are pure
/// accumulations — so any order is legal; orders differ only in locality.
///
/// # Panics
/// Panics if `order` is not a permutation of the nest's variables.
pub fn permute_nest(p: &LoopProgram, nest: &PerfectNest, order: &[LoopVarId]) -> LoopProgram {
    assert_eq!(order.len(), nest.vars.len(), "order length mismatch");
    for v in order {
        assert!(nest.vars.contains(v), "order must permute the nest's loops");
    }
    let mut sorted = order.to_vec();
    sorted.sort();
    let mut nv = nest.vars.clone();
    nv.sort();
    assert_eq!(sorted, nv, "order must be a permutation");

    let mut out = p.clone();
    // Peel to the innermost statements.
    let inner: Vec<Stmt> = {
        let mut cur = p.body[nest.body_index].clone();
        let mut depth = 0;
        loop {
            match cur {
                Stmt::Loop { mut body, .. } => {
                    depth += 1;
                    if depth == nest.vars.len() {
                        break body;
                    }
                    cur = body.pop().unwrap();
                }
                _ => unreachable!("perfect nest"),
            }
        }
    };
    out.body[nest.body_index] = tce_loops::nest(order.to_vec(), inner);
    debug_assert!(out.validate().is_ok());
    out
}

/// Search all loop orders of a perfect nest (≤ 7 loops) for the one with
/// the lowest §6 access cost.  Returns the reordered program.
pub fn search_loop_order(
    p: &LoopProgram,
    space: &IndexSpace,
    nest: &PerfectNest,
    cache_elements: u128,
) -> (LoopProgram, Vec<LoopVarId>, u128) {
    assert!(nest.vars.len() <= 7, "factorial search limited to 7 loops");
    let mut order = nest.vars.clone();
    let mut best_order = order.clone();
    let mut best_cost = u128::MAX;
    // Heap's algorithm over permutations.
    fn heaps(k: usize, order: &mut Vec<LoopVarId>, visit: &mut dyn FnMut(&[LoopVarId])) {
        if k <= 1 {
            visit(order);
            return;
        }
        for i in 0..k {
            heaps(k - 1, order, visit);
            if k.is_multiple_of(2) {
                order.swap(i, k - 1);
            } else {
                order.swap(0, k - 1);
            }
        }
    }
    let n = order.len();
    let mut visit = |cand: &[LoopVarId]| {
        let prog = permute_nest(p, nest, cand);
        let cost = access_cost(&prog, space, cache_elements);
        if cost < best_cost {
            best_cost = cost;
            best_order = cand.to_vec();
        }
    };
    heaps(n, &mut order, &mut visit);
    let program = permute_nest(p, nest, &best_order);
    (program, best_order, best_cost)
}

/// Outcome of the hierarchy-weighted tile search.
#[derive(Debug, Clone)]
pub struct HierarchyTileResult {
    /// Chosen tile size per loop variable of the nest.
    pub blocks: HashMap<LoopVarId, usize>,
    /// The blocked program.
    pub program: LoopProgram,
    /// Weighted multi-level cost of the blocked program.
    pub cost: f64,
}

/// Tile-size search minimizing the *weighted multi-level* cost — the §6
/// model applied "at different levels of the memory hierarchy" (cache,
/// physical memory, disk) simultaneously, each level's misses weighted by
/// its latency.  A single tiling must serve all levels; the optimum
/// typically blocks for the small level while keeping footprints within
/// the large one.  The winner's per-level costs are recorded as the
/// `locality.accesses.<level>` trace counters.
pub fn search_nest_tiles_hierarchy(
    p: &LoopProgram,
    space: &IndexSpace,
    nest: &PerfectNest,
    hierarchy: &crate::model::MemoryHierarchy,
) -> HierarchyTileResult {
    let caches: Vec<u128> = hierarchy
        .levels
        .iter()
        .map(|l| l.capacity_elements)
        .collect();
    let (blocks, program, costs) = search_tiles_by(p, space, nest, &caches, |c| hierarchy.weigh(c));
    hierarchy.record_accesses(&costs);
    HierarchyTileResult {
        blocks,
        program,
        cost: hierarchy.weigh(&costs),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tce_loops::ArrayKind;

    fn matmul(n: usize) -> (IndexSpace, LoopProgram, PerfectNest) {
        let mut space = IndexSpace::new();
        let r = space.add_range("N", n);
        let (i, j, k) = (
            space.add_var("i", r),
            space.add_var("j", r),
            space.add_var("k", r),
        );
        let mut p = LoopProgram::new();
        let vi = p.add_var("i", VarRange::Full(i));
        let vj = p.add_var("j", VarRange::Full(j));
        let vk = p.add_var("k", VarRange::Full(k));
        let a = p.add_array(
            "A",
            vec![VarRange::Full(i), VarRange::Full(k)],
            ArrayKind::Intermediate,
        );
        let b = p.add_array(
            "B",
            vec![VarRange::Full(k), VarRange::Full(j)],
            ArrayKind::Intermediate,
        );
        let c = p.add_array(
            "C",
            vec![VarRange::Full(i), VarRange::Full(j)],
            ArrayKind::Output,
        );
        let stmt = Stmt::Accum {
            lhs: ARef {
                array: c,
                subs: vec![Sub::Var(vi), Sub::Var(vj)],
            },
            rhs: vec![
                ARef {
                    array: a,
                    subs: vec![Sub::Var(vi), Sub::Var(vk)],
                },
                ARef {
                    array: b,
                    subs: vec![Sub::Var(vk), Sub::Var(vj)],
                },
            ],
            coeff: 1.0,
        };
        p.body.push(tce_loops::nest(vec![vi, vj, vk], vec![stmt]));
        let nest = PerfectNest {
            body_index: 0,
            vars: vec![vi, vj, vk],
        };
        (space, p, nest)
    }

    #[test]
    fn finds_the_perfect_nest() {
        let (_, p, nest) = matmul(8);
        let found = perfect_nests(&p);
        assert_eq!(found, vec![nest]);
    }

    #[test]
    fn tiling_preserves_structure_and_validates() {
        let (space, p, nest) = matmul(8);
        let mut blocks = HashMap::new();
        blocks.insert(nest.vars[1], 4usize); // tile j
        blocks.insert(nest.vars[2], 4usize); // tile k
        let tiled = tile_nest(&p, &space, &nest, &blocks);
        tiled.validate().unwrap();
        // Two new tile loops outermost, then i, j_i, k_i.
        let text = tce_loops::pretty(&tiled);
        assert!(text.contains("for j_t, k_t, i, j_i, k_i"), "{text}");
        assert!(text.contains("A[i,k_t*4+k_i]"), "{text}");
    }

    #[test]
    fn degenerate_blocks_leave_program_unchanged() {
        let (space, p, nest) = matmul(8);
        let mut blocks = HashMap::new();
        blocks.insert(nest.vars[0], 1usize);
        blocks.insert(nest.vars[1], 8usize); // == extent
        let tiled = tile_nest(&p, &space, &nest, &blocks);
        assert_eq!(tiled, p);
    }

    #[test]
    fn blocking_lowers_modeled_cost_for_small_cache() {
        let (space, p, nest) = matmul(32);
        // Cache far too small for any full row set at N=32 (footprint
        // 3·1024); pick blocks of 8: working set per block step ≈ 3·64.
        let cache = 256u128;
        let untiled = access_cost(&p, &space, cache);
        let r = search_nest_tiles(&p, &space, &nest, cache);
        assert!(r.cost < untiled, "blocked {} vs untiled {untiled}", r.cost);
        // The chosen blocks keep the blocked working set within cache:
        // at least one variable actually tiled.
        assert!(r.blocks.values().any(|&b| b > 1 && b < 32));
    }

    #[test]
    fn search_never_beats_exhaustive_small_case() {
        // For a tiny nest the doubling search IS exhaustive over
        // {1,2,4,…,N}; verify the returned cost equals the brute-force min
        // over that grid.
        let (space, p, nest) = matmul(8);
        let cache = 48u128;
        let r = search_nest_tiles(&p, &space, &nest, cache);
        let grid = [1usize, 2, 4, 8];
        let mut best = u128::MAX;
        for bi in grid {
            for bj in grid {
                for bk in grid {
                    let mut blocks = HashMap::new();
                    blocks.insert(nest.vars[0], bi);
                    blocks.insert(nest.vars[1], bj);
                    blocks.insert(nest.vars[2], bk);
                    let t = tile_nest(&p, &space, &nest, &blocks);
                    best = best.min(access_cost(&t, &space, cache));
                }
            }
        }
        assert_eq!(r.cost, best);
    }

    #[test]
    fn hierarchy_search_weighs_both_levels() {
        use crate::model::MemoryHierarchy;
        let (space, p, nest) = matmul(32);
        // Tiny cache, memory that holds everything: the weighted optimum
        // must do at least as well as optimizing either level alone.
        let hier = MemoryHierarchy::cache_and_disk(64, 100_000);
        let r = search_nest_tiles_hierarchy(&p, &space, &nest, &hier);
        let untiled = hier.cost(&p, &space);
        assert!(r.cost <= untiled);
        // Against the single-level (cache-only) pick, the weighted cost of
        // the hierarchy result is no worse by construction.
        let cache_only = search_nest_tiles(&p, &space, &nest, 64);
        assert!(r.cost <= hier.cost(&cache_only.program, &space) + 1e-9);
        r.program.validate().unwrap();
    }

    #[test]
    fn already_tiled_programs_are_skipped_gracefully() {
        // Tile the matmul once, then run the search over the *tiled*
        // program's nest (whose vars include Tile/Intra ranges) — this
        // used to panic with "can only tile Full-range loops".
        let (space, p, nest) = matmul(8);
        let mut blocks = HashMap::new();
        blocks.insert(nest.vars[1], 4usize);
        blocks.insert(nest.vars[2], 4usize);
        let tiled = tile_nest(&p, &space, &nest, &blocks);
        let found = perfect_nests(&tiled);
        assert_eq!(found.len(), 1);
        assert!(!nest_is_tileable(&tiled, &found[0]));
        let r = search_nest_tiles(&tiled, &space, &found[0], 64);
        assert!(r.blocks.is_empty());
        assert_eq!(r.program, tiled);
        assert_eq!(r.cost, access_cost(&tiled, &space, 64));
        // The hierarchy search skips identically.
        let hier = crate::model::MemoryHierarchy::cache_and_disk(64, 100_000);
        let h = search_nest_tiles_hierarchy(&tiled, &space, &found[0], &hier);
        assert!(h.blocks.is_empty());
        assert_eq!(h.program, tiled);
    }

    #[test]
    fn degenerate_nests_are_skipped_gracefully() {
        // A nest descriptor that does not match the program shape (wrong
        // vars) used to panic with "nest shape mismatch"/"not a loop
        // nest"; it now falls back to the untiled program.
        let (space, p, nest) = matmul(4);
        let bogus = PerfectNest {
            body_index: nest.body_index,
            vars: vec![nest.vars[1], nest.vars[0], nest.vars[2]],
        };
        assert!(!nest_is_tileable(&p, &bogus));
        let r = search_nest_tiles(&p, &space, &bogus, 16);
        assert_eq!(r.program, p);
        // Empty var lists and out-of-range bodies are degenerate too.
        assert!(!nest_is_tileable(
            &p,
            &PerfectNest {
                body_index: 0,
                vars: vec![]
            }
        ));
        assert!(!nest_is_tileable(
            &p,
            &PerfectNest {
                body_index: 9,
                vars: nest.vars.clone()
            }
        ));
    }

    /// The clone-and-cost search the analytic evaluator replaced: block
    /// the program for every candidate and cost the whole blocked copy.
    fn oracle_search<C: PartialOrd>(
        p: &LoopProgram,
        space: &IndexSpace,
        nest: &PerfectNest,
        cost: impl Fn(&LoopProgram) -> C,
    ) -> (HashMap<LoopVarId, usize>, LoopProgram, C) {
        if !nest_is_tileable(p, nest) {
            return (HashMap::new(), p.clone(), cost(p));
        }
        let mut best: Option<(HashMap<LoopVarId, usize>, LoopProgram, C)> = None;
        for blocks in all_candidates(p, space, nest) {
            let blocks: HashMap<LoopVarId, usize> = nest.vars.iter().copied().zip(blocks).collect();
            let tiled = tile_nest(p, space, nest, &blocks);
            let c = cost(&tiled);
            if best.as_ref().is_none_or(|(_, _, b)| c < *b) {
                best = Some((blocks, tiled, c));
            }
        }
        best.unwrap()
    }

    /// Every doubling block vector of `nest`, first loop slowest.
    fn all_candidates(p: &LoopProgram, space: &IndexSpace, nest: &PerfectNest) -> Vec<Vec<usize>> {
        nest.vars.iter().fold(vec![vec![]], |acc, &v| {
            let sizes = candidates(p.var(v).extent(space));
            acc.into_iter()
                .flat_map(|prefix| {
                    sizes.iter().map(move |&b| {
                        let mut next = prefix.clone();
                        next.push(b);
                        next
                    })
                })
                .collect()
        })
    }

    /// `X[i,j,k] += A[i,j,k]·B[j,k]` at extents near `usize::MAX / 2`:
    /// `2⁶³−1` is not a power of two, and the reference counts overflow
    /// `u128`, so every sum and product saturates.
    fn saturating_nest() -> (IndexSpace, LoopProgram, PerfectNest) {
        let mut space = IndexSpace::new();
        let big = space.add_range("N", (1usize << 63) - 1);
        let pow = space.add_range("M", 1usize << 63);
        let small = space.add_range("K", 5);
        let (i, j, k) = (
            space.add_var("i", big),
            space.add_var("j", pow),
            space.add_var("k", small),
        );
        let mut p = LoopProgram::new();
        let vi = p.add_var("i", VarRange::Full(i));
        let vj = p.add_var("j", VarRange::Full(j));
        let vk = p.add_var("k", VarRange::Full(k));
        let full = |vs: &[tce_ir::IndexVar]| vs.iter().map(|&v| VarRange::Full(v)).collect();
        let x = p.add_array("X", full(&[i, j, k]), ArrayKind::Output);
        let a = p.add_array("A", full(&[i, j, k]), ArrayKind::Intermediate);
        let b = p.add_array("B", full(&[j, k]), ArrayKind::Intermediate);
        let r = |array, vs: &[LoopVarId]| ARef {
            array,
            subs: vs.iter().map(|&v| Sub::Var(v)).collect(),
        };
        let stmt = Stmt::Accum {
            lhs: r(x, &[vi, vj, vk]),
            rhs: vec![r(a, &[vi, vj, vk]), r(b, &[vj, vk])],
            coeff: 1.0,
        };
        p.body.push(tce_loops::nest(vec![vi, vj, vk], vec![stmt]));
        let nest = PerfectNest {
            body_index: 0,
            vars: vec![vi, vj, vk],
        };
        (space, p, nest)
    }

    /// Every perfect nest the pipeline emits for `ccsd_section2`,
    /// `cc_doubles` and `a3a_energy` (V=6, O=3: ragged tiles of 4) — A3A
    /// also under a 20-element memory limit, which sends its integral
    /// statement through space-time — plus matmul at N=12 and the
    /// saturating nest.
    fn fixtures() -> Vec<(IndexSpace, LoopProgram, PerfectNest)> {
        let specs = [
            ("ccsd_section2", u128::MAX),
            ("cc_doubles", u128::MAX),
            ("a3a_energy", u128::MAX),
            ("a3a_energy", 20),
        ];
        let mut out = Vec::new();
        for (name, memory_limit) in specs {
            let path = format!(
                "{}/../../examples/specs/{name}.tce",
                env!("CARGO_MANIFEST_DIR")
            );
            let src = std::fs::read_to_string(&path).unwrap();
            let cfg = tce_core::SynthesisConfig {
                memory_limit,
                ..Default::default()
            };
            let syn = tce_core::synthesize(&src, &cfg).unwrap();
            for plan in syn.plans {
                let p = plan.built.program;
                for nest in perfect_nests(&p) {
                    out.push((syn.program.space.clone(), p.clone(), nest));
                }
            }
        }
        out.push(matmul(12));
        out.push(saturating_nest());
        out
    }

    const CACHES: [u128; 4] = [16, 64, 4096, 8192];

    #[test]
    fn analytic_cost_matches_the_blocked_program_for_every_candidate() {
        let mut modeled = 0;
        for (space, p, nest) in fixtures() {
            if !nest_is_tileable(&p, &nest) {
                continue;
            }
            let model = BlockedNest::new(&p, &space, &nest, &CACHES).expect("plain nest");
            for blocks in all_candidates(&p, &space, &nest) {
                let map = nest
                    .vars
                    .iter()
                    .copied()
                    .zip(blocks.iter().copied())
                    .collect();
                let tiled = tile_nest(&p, &space, &nest, &map);
                let built: Vec<u128> = CACHES
                    .iter()
                    .map(|&c| access_cost(&tiled, &space, c))
                    .collect();
                assert_eq!(model.costs(&blocks, &CACHES), built, "blocks {blocks:?}");
            }
            modeled += 1;
        }
        // A3A 2 + 2 (both limits), cc_doubles 5, matmul, saturating.
        assert_eq!(modeled, 11);
        let (space, p, nest) = saturating_nest();
        let top = [u128::MAX - 1];
        assert_eq!(
            BlockedNest::new(&p, &space, &nest, &top)
                .unwrap()
                .costs(&[1, 1, 1], &top),
            [u128::MAX]
        );
    }

    #[test]
    fn searches_match_the_clone_and_cost_oracle() {
        use crate::model::MemoryHierarchy;
        let (mspace, mp, mnest) = matmul(8);
        // A nest over the two outer loops only keeps a loop in its body:
        // the search falls back to building and costing every candidate.
        let outer = PerfectNest {
            body_index: 0,
            vars: mnest.vars[..2].to_vec(),
        };
        assert!(nest_is_tileable(&mp, &outer));
        assert!(BlockedNest::new(&mp, &mspace, &outer, &CACHES).is_none());
        let mut cases = fixtures();
        cases.push((mspace, mp, outer));
        for (space, p, nest) in &cases {
            for cache in CACHES {
                let r = search_nest_tiles(p, space, nest, cache);
                let (blocks, program, cost) =
                    oracle_search(p, space, nest, |q| access_cost(q, space, cache));
                assert_eq!((&r.blocks, &r.program, r.cost), (&blocks, &program, cost));
            }
            for (cache, memory) in [(16, 4096), (64, 8192)] {
                let hier = MemoryHierarchy::cache_and_disk(cache, memory);
                let r = search_nest_tiles_hierarchy(p, space, nest, &hier);
                let (blocks, program, cost) =
                    oracle_search(p, space, nest, |q| hier.cost(q, space));
                assert_eq!((&r.blocks, &r.program), (&blocks, &program));
                assert_eq!(r.cost.to_bits(), cost.to_bits());
            }
        }
    }

    #[test]
    fn permute_nest_reorders_loops() {
        let (space, p, nest) = matmul(8);
        let order = vec![nest.vars[1], nest.vars[2], nest.vars[0]]; // j,k,i
        let q = permute_nest(&p, &nest, &order);
        let text = tce_loops::pretty(&q);
        assert!(text.contains("for j, k, i"), "{text}");
        // Same cost model at whole-program footprint scope when fitting.
        assert_eq!(
            access_cost(&p, &space, 10_000),
            access_cost(&q, &space, 10_000)
        );
    }

    #[test]
    #[should_panic(expected = "permutation")]
    fn permute_nest_rejects_bad_order() {
        let (space, p, nest) = matmul(4);
        let _ = space;
        permute_nest(&p, &nest, &[nest.vars[0], nest.vars[0], nest.vars[1]]);
    }

    #[test]
    fn order_search_finds_better_order_for_small_cache() {
        let (space, p, nest) = matmul(16);
        // Cache holds a couple of rows but not B: the best orders keep
        // B's row reuse in an inner position.
        let cache = 40u128;
        let base = access_cost(&p, &space, cache);
        let (best_prog, order, cost) = search_loop_order(&p, &space, &nest, cache);
        assert!(cost <= base);
        assert_eq!(order.len(), 3);
        best_prog.validate().unwrap();
        // Exhaustiveness: no permutation beats the returned cost.
        let perms = [
            [0usize, 1, 2],
            [0, 2, 1],
            [1, 0, 2],
            [1, 2, 0],
            [2, 0, 1],
            [2, 1, 0],
        ];
        for perm in perms {
            let cand: Vec<_> = perm.iter().map(|&q| nest.vars[q]).collect();
            let prog = permute_nest(&p, &nest, &cand);
            assert!(access_cost(&prog, &space, cache) >= cost);
        }
    }

    #[test]
    fn order_plus_tiling_composes() {
        let (space, p, nest) = matmul(16);
        let cache = 48u128;
        let (ordered, order, _) = search_loop_order(&p, &space, &nest, cache);
        let nest2 = PerfectNest {
            body_index: nest.body_index,
            vars: order,
        };
        let tiled = search_nest_tiles(&ordered, &space, &nest2, cache);
        assert!(tiled.cost <= access_cost(&ordered, &space, cache));
        tiled.program.validate().unwrap();
    }
}
