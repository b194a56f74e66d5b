//! Tiling of recomputation indices (paper §5, second step; Fig. 4).
//!
//! "Recomputation indices are split into tiling and intra-tile loop pairs.
//! By making intra-tile loops the inner-most loops, any recomputation only
//! needs to be performed once per iteration of the tiling loop in exchange
//! for increasing the storage requirements for temporaries in which the
//! dimension corresponding to the tiled loop had been eliminated."
//!
//! Model: tiling index `x` with block `Bₓ`
//! * divides every redundancy factor involving `x` from `Nₓ` to
//!   `⌈Nₓ/Bₓ⌉` (the child is re-executed once per tile), and
//! * multiplies by `Bₓ` the size of every temporary whose `x` dimension
//!   fusion had eliminated (it must now hold a block).
//!
//! `Bₓ = 1` recovers the fully-fused form (Fig. 3); `Bₓ = Nₓ` recovers the
//! unfused reuse (Fig. 2).  Tile sizes are searched over doubling values,
//! the same logarithmic search-space rule as the §6 locality search.

use crate::dp::{spacetime_dp, SpaceTimeConfig};
use std::collections::HashMap;
use tce_fusion::config::is_fusable_producer;
use tce_ir::{IndexSpace, IndexVar, OpTree};

/// Chosen tile sizes: `IndexVar.0 → B` (indices absent are untiled,
/// i.e. `B = 1`).
pub type Blocks = HashMap<u8, usize>;

/// Block size of `x` under `blocks` (default 1).
pub fn block_of(blocks: &Blocks, x: IndexVar) -> usize {
    blocks.get(&x.0).copied().unwrap_or(1)
}

/// Temporary memory under `cfg` with tile sizes `blocks`.
pub fn tiled_memory(
    tree: &OpTree,
    space: &IndexSpace,
    cfg: &SpaceTimeConfig,
    blocks: &Blocks,
) -> u128 {
    let mut total = 0u128;
    for id in tree.postorder() {
        if id == tree.root || !is_fusable_producer(tree, id) {
            continue;
        }
        let mut size = space.iteration_points(cfg.array_indices(tree, id));
        for x in cfg.fused[id.0 as usize].iter() {
            size = size.saturating_mul(block_of(blocks, x) as u128);
        }
        total = total.saturating_add(size);
    }
    total
}

/// Total operations under `cfg` with tile sizes `blocks`: each redundant
/// index contributes its tile count `⌈Nₓ/Bₓ⌉` instead of `Nₓ`.
pub fn tiled_ops(
    tree: &OpTree,
    space: &IndexSpace,
    cfg: &SpaceTimeConfig,
    blocks: &Blocks,
) -> u128 {
    cfg.total_ops_with(tree, space, &|r| {
        r.iter().fold(1u128, |acc, x| {
            acc.saturating_mul(space.extent(x).div_ceil(block_of(blocks, x)) as u128)
        })
    })
}

/// A tiling outcome.
#[derive(Debug, Clone)]
pub struct TilingResult {
    /// Chosen tile sizes.
    pub blocks: Blocks,
    /// Temporary memory at these tile sizes.
    pub memory: u128,
    /// Total operations at these tile sizes.
    pub ops: u128,
}

/// Doubling tile-size candidates for extent `n`: `1, 2, 4, …` then `n`.
pub fn doubling_candidates(n: usize) -> Vec<usize> {
    let mut out = Vec::new();
    let mut b = 1usize;
    while b < n {
        out.push(b);
        b *= 2;
    }
    out.push(n);
    out
}

/// Search tile sizes (doubling per recomputation index) minimizing
/// operations subject to `memory ≤ mem_limit`.  Returns `None` if even the
/// minimum-memory tiling (`B = 1` everywhere) exceeds the limit.
pub fn search_tiles(
    tree: &OpTree,
    space: &IndexSpace,
    cfg: &SpaceTimeConfig,
    mem_limit: u128,
) -> Option<TilingResult> {
    let indices: Vec<IndexVar> = cfg.recomputation_indices().iter().collect();
    tce_trace::counter(
        "spacetime.tile_candidates",
        indices.iter().fold(1u64, |a, &x| {
            a.saturating_mul(doubling_candidates(space.extent(x)).len() as u64)
        }),
    );
    let mut best: Option<TilingResult> = None;
    let mut blocks = Blocks::new();

    #[allow(clippy::too_many_arguments)]
    fn rec(
        tree: &OpTree,
        space: &IndexSpace,
        cfg: &SpaceTimeConfig,
        mem_limit: u128,
        indices: &[IndexVar],
        i: usize,
        blocks: &mut Blocks,
        best: &mut Option<TilingResult>,
    ) {
        if i == indices.len() {
            let memory = tiled_memory(tree, space, cfg, blocks);
            if memory > mem_limit {
                return;
            }
            let ops = tiled_ops(tree, space, cfg, blocks);
            let better = match best {
                None => true,
                Some(b) => ops < b.ops || (ops == b.ops && memory < b.memory),
            };
            if better {
                *best = Some(TilingResult {
                    blocks: blocks.clone(),
                    memory,
                    ops,
                });
            }
            return;
        }
        let x = indices[i];
        for b in doubling_candidates(space.extent(x)) {
            blocks.insert(x.0, b);
            rec(tree, space, cfg, mem_limit, indices, i + 1, blocks, best);
        }
        blocks.remove(&x.0);
    }

    rec(
        tree,
        space,
        cfg,
        mem_limit,
        &indices,
        0,
        &mut blocks,
        &mut best,
    );
    best
}

/// The one frontier selection behind both objectives: run the
/// fusion/recomputation pareto DP, tile every frontier configuration under
/// `mem_limit`, and keep the feasible combination with the smallest
/// `cost`, ties broken by fewer operations, then less memory.
fn select_frontier<C: PartialOrd>(
    tree: &OpTree,
    space: &IndexSpace,
    mem_limit: u128,
    cost: impl Fn(&TilingResult) -> C,
) -> Result<Option<(C, SpaceTimeConfig, TilingResult)>, String> {
    let front = spacetime_dp(tree, space, usize::MAX)?;
    let mut best: Option<(C, SpaceTimeConfig, TilingResult)> = None;
    for point in front.points() {
        if let Some(t) = search_tiles(tree, space, &point.tag, mem_limit) {
            let c = cost(&t);
            let better = match &best {
                None => true,
                Some((bc, _, b)) => c < *bc || (c == *bc && (t.ops, t.memory) < (b.ops, b.memory)),
            };
            if better {
                best = Some((c, point.tag.clone(), t));
            }
        }
    }
    if tce_trace::enabled() {
        tce_trace::counter("spacetime.frontier_points", front.points().len() as u64);
        if let Some((_, cfg, t)) = &best {
            // Recomputation cost: operations beyond the configuration's
            // recomputation-free baseline (B = N everywhere).
            let base = cfg.total_ops_with(tree, space, &|_| 1);
            tce_trace::counter_u128("spacetime.recomputation_ops", t.ops.saturating_sub(base));
            tce_trace::counter_u128("spacetime.memory", t.memory);
        }
    }
    Ok(best)
}

/// The complete space-time trade-off (paper §5): run the
/// fusion/recomputation pareto DP, tile every frontier configuration, and
/// return the feasible combination with the fewest operations — the unit
/// cost model, i.e. the rated one at `(flop_ns, mem_ns) = (1, 0)`, where
/// only the tie-break is left.
/// `Ok(None)` when no configuration fits in `mem_limit` even fully fused
/// and untiled; `Err` when the DP traceback cannot reconstruct a frontier
/// configuration.
pub fn spacetime_optimize(
    tree: &OpTree,
    space: &IndexSpace,
    mem_limit: u128,
) -> Result<Option<(SpaceTimeConfig, TilingResult)>, String> {
    let best = select_frontier(tree, space, mem_limit, |_| ())?;
    Ok(best.map(|((), cfg, t)| (cfg, t)))
}

/// [`spacetime_optimize`] under a calibrated objective: instead of the
/// fewest abstract operations, pick the feasible frontier configuration
/// with the smallest *predicted time* `ops · flop_ns + memory · mem_ns`
/// (nanoseconds) — compute priced at the measured GEMM rate, temporary
/// storage priced at the measured memory bandwidth.  Tie-breaks fall
/// back to fewer ops, then less memory, so the choice is deterministic.
/// With no calibration profile loaded callers must keep using
/// [`spacetime_optimize`]; the unit-cost path stays bit-identical.
pub fn spacetime_optimize_rated(
    tree: &OpTree,
    space: &IndexSpace,
    mem_limit: u128,
    flop_ns: f64,
    mem_ns: f64,
) -> Result<Option<(SpaceTimeConfig, TilingResult)>, String> {
    let best = select_frontier(tree, space, mem_limit, |t| {
        t.ops as f64 * flop_ns + t.memory as f64 * mem_ns
    })?;
    Ok(best.map(|(time, cfg, t)| {
        tce_trace::counter("spacetime.rated_ns", time.round().max(0.0) as u64);
        (cfg, t)
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tce_ir::{IndexSet, NodeId};

    /// The A3A core (paper §3): Y = Σ_{b,k} T1(c,e,b,k)·T2(a,f,b,k) with
    /// T1/T2 integral leaves, X an input-like cheap leaf, E = Σ X·Y.
    fn a3a(v_ext: usize, o_ext: usize, ci: u64) -> (IndexSpace, OpTree, NodeId, NodeId) {
        let mut space = IndexSpace::new();
        let v = space.add_range("V", v_ext);
        let o = space.add_range("O", o_ext);
        let (a, c, e, f, b) = (
            space.add_var("a", v),
            space.add_var("c", v),
            space.add_var("e", v),
            space.add_var("f", v),
            space.add_var("b", v),
        );
        let k = space.add_var("k", o);
        let mut tree = OpTree::new();
        let t1 = tree.leaf_func("f1", vec![c, e, b, k], ci);
        let t2 = tree.leaf_func("f2", vec![a, f, b, k], ci);
        let y = tree.contract(t1, t2, IndexSet::from_vars([c, e, a, f]));
        let x = tree.leaf_func("fx", vec![a, e, c, f], 1);
        tree.contract(y, x, IndexSet::EMPTY);
        (space, tree, t1, t2)
    }

    /// The Fig-3 configuration: everything fully fused, T1/T2 redundant on
    /// their missing indices.
    fn fig3_config(space: &IndexSpace, tree: &OpTree, t1: NodeId, t2: NodeId) -> SpaceTimeConfig {
        let mut cfg = SpaceTimeConfig::unfused(tree);
        let y = match tree.node(tree.root).kind {
            tce_ir::OpKind::Contract { left, .. } => left,
            _ => unreachable!(),
        };
        let x = match tree.node(tree.root).kind {
            tce_ir::OpKind::Contract { right, .. } => right,
            _ => unreachable!(),
        };
        cfg.fused[y.0 as usize] = space.parse_set("c,e,a,f").unwrap();
        cfg.fused[x.0 as usize] = space.parse_set("a,e,c,f").unwrap();
        cfg.fused[t1.0 as usize] = space.parse_set("c,e,b,k").unwrap();
        cfg.redundant[t1.0 as usize] = space.parse_set("a,f").unwrap();
        cfg.fused[t2.0 as usize] = space.parse_set("a,f,b,k").unwrap();
        cfg.redundant[t2.0 as usize] = space.parse_set("c,e").unwrap();
        cfg
    }

    #[test]
    fn fig4_table_formulas() {
        // Paper Fig 4 table: space {X:B⁴, T1:B², T2:B², Y:B⁴}, time
        // {T1,T2: C_i·(V/B)²·V³·O}.
        let (v_ext, o_ext, ci) = (8usize, 2usize, 1000u64);
        let (space, tree, t1, t2) = a3a(v_ext, o_ext, ci);
        let cfg = fig3_config(&space, &tree, t1, t2);
        for b in [1usize, 2, 4, 8] {
            let mut blocks = Blocks::new();
            for x in cfg.recomputation_indices().iter() {
                blocks.insert(x.0, b);
            }
            let (vv, oo, c, bb) = (v_ext as u128, o_ext as u128, ci as u128, b as u128);
            // Memory: T1 = T2 = B² (c,e / a,f tiled), Y = B⁴, X = B⁴.
            assert_eq!(
                tiled_memory(&tree, &space, &cfg, &blocks),
                2 * bb * bb + 2 * bb.pow(4),
                "B = {b}"
            );
            // Ops: T1 = T2 = C_i·(V/B)²·V³·O; Y = 2·V⁵·O; X = V⁴; E = 2·V⁴.
            let expect = 2 * c * (vv / bb).pow(2) * vv.pow(3) * oo
                + 2 * vv.pow(5) * oo
                + vv.pow(4)
                + 2 * vv.pow(4);
            assert_eq!(tiled_ops(&tree, &space, &cfg, &blocks), expect, "B = {b}");
        }
    }

    #[test]
    fn tiling_trades_memory_for_recomputation_monotonically() {
        let (space, tree, t1, t2) = a3a(8, 2, 1000);
        let cfg = fig3_config(&space, &tree, t1, t2);
        let mut last_mem = 0u128;
        let mut last_ops = u128::MAX;
        for b in [1usize, 2, 4, 8] {
            let mut blocks = Blocks::new();
            for x in cfg.recomputation_indices().iter() {
                blocks.insert(x.0, b);
            }
            let mem = tiled_memory(&tree, &space, &cfg, &blocks);
            let ops = tiled_ops(&tree, &space, &cfg, &blocks);
            assert!(mem > last_mem);
            assert!(ops < last_ops);
            last_mem = mem;
            last_ops = ops;
        }
    }

    #[test]
    fn search_respects_memory_limit_and_minimizes_ops() {
        let (space, tree, t1, t2) = a3a(8, 2, 1000);
        let cfg = fig3_config(&space, &tree, t1, t2);
        // Limit that admits B=2 (2·4 + 2·16 = 40) but not B=4 (520).
        let r = search_tiles(&tree, &space, &cfg, 100).unwrap();
        assert!(r.memory <= 100);
        let mut b2 = Blocks::new();
        for x in cfg.recomputation_indices().iter() {
            b2.insert(x.0, 2);
        }
        assert!(r.ops <= tiled_ops(&tree, &space, &cfg, &b2));
        // Unlimited memory: tiles grow to eliminate recomputation.
        let r2 = search_tiles(&tree, &space, &cfg, u128::MAX).unwrap();
        assert!(r2.ops <= r.ops);
        // Impossible limit: even B=1 has 4 scalars.
        assert!(search_tiles(&tree, &space, &cfg, 3).is_none());
    }

    #[test]
    fn doubling_candidates_cover_extent() {
        assert_eq!(doubling_candidates(8), vec![1, 2, 4, 8]);
        assert_eq!(doubling_candidates(10), vec![1, 2, 4, 8, 10]);
        assert_eq!(doubling_candidates(1), vec![1]);
    }

    #[test]
    fn end_to_end_spacetime_optimize() {
        let (space, tree, _, _) = a3a(8, 2, 1000);
        // Generous limit: optimizer should avoid recomputation entirely
        // (ops = base cost).
        let unfused_ops = SpaceTimeConfig::unfused(&tree).total_ops(&tree, &space);
        let (cfg, t) = spacetime_optimize(&tree, &space, u128::MAX)
            .unwrap()
            .unwrap();
        assert_eq!(t.ops, unfused_ops);
        // Tight limit: must pay recomputation, stays within memory.
        let (cfg2, t2) = spacetime_optimize(&tree, &space, 50).unwrap().unwrap();
        assert!(t2.memory <= 50);
        assert!(t2.ops >= t.ops);
        let _ = (cfg, cfg2);
        // Infeasible limit.
        assert!(spacetime_optimize(&tree, &space, 2).unwrap().is_none());
    }
}
