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

/// Doubling candidates for one loop (`1, 2, 4, … < N`), per §6; for small
/// extents this degenerates into the exhaustive search the paper mentions.
/// The paper's last candidate, `B = N`, is left out: it is the same untiled
/// loop as `B = 1` ([`tile_nest`] leaves `B ≥ N` untiled), so it costs the
/// same and, coming later in the search order, can never be the first of
/// the cheapest.
fn candidates(extent: usize) -> Vec<usize> {
    let mut out = vec![1usize];
    let mut b = 2usize;
    while b < extent {
        out.push(b);
        b *= 2;
    }
    out
}

/// The extents of the loops that block size `b` makes of a loop of extent
/// `n`: `(B, ⌈N/B⌉)` for an intra-tile and a tile loop when `1 < B < N`,
/// and `(N, 1)` — the untiled loop and no tile loop — otherwise.
fn blocked_extents(n: usize, b: usize) -> (u128, u128) {
    if b > 1 && b < n {
        (b as u128, n.div_ceil(b) as u128)
    } else {
        (n as u128, 1)
    }
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
/// subscript's span is `⌈N/B⌉·B` below a varying tile loop, `B` below a
/// varying intra-tile loop, `N` below a varying untiled loop and 1
/// otherwise — the `Sub::Tiled` rule of `tce_loops::distinct_accesses`,
/// including the `⌈N/B⌉·B > N` overshoot of a ragged last tile.
///
/// Each span factor is the extent of the loop that brings it into scope,
/// so walking the blocked loops innermost first, a reference's element
/// count is a running product: multiplied by the loop's extent once per
/// subscript on that loop.  Every extent is at least 1, so a saturating
/// product equals `min(true product, u128::MAX)` in any order, and the
/// running product is exactly the per-depth `Π_subs span`.
struct BlockedNest {
    /// Per nest position, the index of each distinct reference of the
    /// innermost statements once per subscript on that position's loop.
    users: Vec<Vec<usize>>,
    /// Running element count of each reference (scratch for
    /// [`BlockedNest::costs`]).
    products: Vec<u128>,
    /// `Cost` of one execution of the innermost statements.
    leaf: u128,
    /// `Cost` of every other top-level statement, per cache level.
    others: Vec<u128>,
}

impl BlockedNest {
    /// The model of a tileable `nest`, or `None` when it cannot be
    /// evaluated analytically: a loop inside the innermost statements or
    /// a subscript that is not a plain nest variable.
    fn new(
        p: &LoopProgram,
        space: &IndexSpace,
        nest: &PerfectNest,
        caches: &[u128],
    ) -> Option<Self> {
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
        let mut users = vec![Vec::new(); nest.vars.len()];
        for (r, (_, subs)) in refs.iter().enumerate() {
            for &k in subs {
                users[k].push(r);
            }
        }
        Some(Self {
            users,
            products: vec![1; refs.len()],
            leaf,
            others,
        })
    }

    /// Write into `cost` the `access_cost` per cache level of the program
    /// blocked into `loops` — per nest position, outermost first, the
    /// [`blocked_extents`] of its block size.
    fn costs(&mut self, loops: &[(u128, u128)], caches: &[u128], cost: &mut [u128]) {
        self.products.fill(1);
        cost.fill(self.leaf);
        // Blocked loop order innermost first: the intra/untiled loops, then
        // the tile loops, each `(nest position, extent)`.
        let intra = loops.iter().map(|&(b, _)| b).enumerate().rev();
        let tile = loops.iter().map(|&(_, t)| t).enumerate().rev();
        for (k, extent) in intra.chain(tile.filter(|&(_, t)| t > 1)) {
            for &r in &self.users[k] {
                self.products[r] = self.products[r].saturating_mul(extent);
            }
            let accesses = self.products.iter().copied().fold(0, u128::saturating_add);
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
    if !nest_is_tileable(p, nest) {
        let costs = caches.iter().map(|&c| access_cost(p, space, c)).collect();
        return (HashMap::new(), p.clone(), costs);
    }
    // Per loop, each candidate block size and its `blocked_extents`.
    let sizes: Vec<Vec<(usize, (u128, u128))>> = nest
        .vars
        .iter()
        .map(|&v| {
            let n = p.var(v).extent(space);
            candidates(n)
                .into_iter()
                .map(|b| (b, blocked_extents(n, b)))
                .collect()
        })
        .collect();
    tce_trace::counter(
        "locality.tile_candidates",
        sizes
            .iter()
            .fold(1u64, |a, s| a.saturating_mul(s.len() as u64)),
    );
    let block_map = |pick: &[usize]| -> HashMap<LoopVarId, usize> {
        nest.vars
            .iter()
            .zip(sizes.iter().zip(pick))
            .map(|(&v, (s, &i))| (v, s[i].0))
            .collect()
    };
    let mut model = BlockedNest::new(p, space, nest, caches);
    let mut pick = vec![0usize; sizes.len()];
    let mut loops: Vec<(u128, u128)> = sizes.iter().map(|s| s[0].1).collect();
    let mut costs = vec![0u128; caches.len()];
    let (mut best_pick, mut best_costs) = (pick.clone(), costs.clone());
    let mut best: Option<C> = None;
    loop {
        match &mut model {
            Some(m) => m.costs(&loops, caches, &mut costs),
            None => {
                let tiled = tile_nest(p, space, nest, &block_map(&pick));
                for (c, &cache) in costs.iter_mut().zip(caches) {
                    *c = access_cost(&tiled, space, cache);
                }
            }
        }
        let c = weigh(&costs);
        if best.as_ref().is_none_or(|b| c < *b) {
            best = Some(c);
            best_pick.copy_from_slice(&pick);
            best_costs.copy_from_slice(&costs);
        }
        // Odometer over the candidate lists, last loop fastest.
        let mut d = pick.len();
        loop {
            if d == 0 {
                let blocks = block_map(&best_pick);
                let program = tile_nest(p, space, nest, &blocks);
                return (blocks, program, best_costs);
            }
            d -= 1;
            pick[d] += 1;
            if pick[d] == sizes[d].len() {
                pick[d] = 0;
            }
            loops[d] = sizes[d][pick[d]].1;
            if pick[d] != 0 {
                break;
            }
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

    /// The paper's doubling list for one loop, `1, 2, 4, …, N`: the
    /// search's [`candidates`] plus the `B = N` it leaves out.
    fn paper_candidates(extent: usize) -> Vec<usize> {
        (0..usize::BITS)
            .map(|e| 1usize << e)
            .take_while(|&b| b < extent.max(2))
            .chain((extent > 1).then_some(extent))
            .collect()
    }

    /// Every block vector of the paper's doubling lists for `nest`, first
    /// loop slowest.
    fn all_candidates(p: &LoopProgram, space: &IndexSpace, nest: &PerfectNest) -> Vec<Vec<usize>> {
        nest.vars.iter().fold(vec![vec![]], |acc, &v| {
            let sizes = paper_candidates(p.var(v).extent(space));
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

    /// [`BlockedNest::costs`] of `nest` blocked by `blocks`.
    fn model_costs(
        model: &mut BlockedNest,
        p: &LoopProgram,
        space: &IndexSpace,
        nest: &PerfectNest,
        blocks: &[usize],
        caches: &[u128],
    ) -> Vec<u128> {
        let loops: Vec<(u128, u128)> = nest
            .vars
            .iter()
            .zip(blocks)
            .map(|(&v, &b)| blocked_extents(p.var(v).extent(space), b))
            .collect();
        let mut cost = vec![0; caches.len()];
        model.costs(&loops, caches, &mut cost);
        cost
    }

    #[test]
    fn analytic_cost_matches_the_blocked_program_for_every_candidate() {
        let mut modeled = 0;
        for (space, p, nest) in fixtures() {
            if !nest_is_tileable(&p, &nest) {
                continue;
            }
            let mut model = BlockedNest::new(&p, &space, &nest, &CACHES).expect("plain nest");
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
                assert_eq!(
                    model_costs(&mut model, &p, &space, &nest, &blocks, &CACHES),
                    built,
                    "blocks {blocks:?}"
                );
            }
            modeled += 1;
        }
        // A3A 2 + 2 (both limits), cc_doubles 5, matmul, saturating.
        assert_eq!(modeled, 11);
        let (space, p, nest) = saturating_nest();
        let top = [u128::MAX - 1];
        let mut model = BlockedNest::new(&p, &space, &nest, &top).unwrap();
        assert_eq!(
            model_costs(&mut model, &p, &space, &nest, &[1, 1, 1], &top),
            [u128::MAX]
        );
    }

    #[test]
    fn a_cache_that_holds_everything_leaves_every_loop_untiled_at_b_1() {
        assert_eq!(candidates(1), [1]);
        assert_eq!(candidates(6), [1, 2, 4]);
        assert_eq!(candidates(8), [1, 2, 4]);
        assert_eq!(paper_candidates(8), [1, 2, 4, 8]);
        // Every candidate fits, so the cheapest cost is the footprint: met
        // first by `B = 1` everywhere, and again by `B = N` (dropped) and
        // by every block size that divides its extent.
        let (space, p, nest) = matmul(8);
        let everything = u128::MAX;
        let r = search_nest_tiles(&p, &space, &nest, everything);
        assert_eq!(r.blocks.len(), 3);
        assert!(r.blocks.values().all(|&b| b == 1), "{:?}", r.blocks);
        assert_eq!((&r.program, r.cost), (&p, 3 * 64));
        let hier = crate::model::MemoryHierarchy::cache_and_disk(everything, everything);
        let h = search_nest_tiles_hierarchy(&p, &space, &nest, &hier);
        assert!(h.blocks.values().all(|&b| b == 1), "{:?}", h.blocks);
        assert_eq!(h.program, p);
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
}
