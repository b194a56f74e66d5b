//! Locality-stage validation: blocking is semantics-preserving, and the
//! §6 analytic cost model tracks the LRU cache simulator where it claims
//! to (working set fits → cold misses only; working set spills → miss
//! volume grows with the modeled multiplicative cost).

use std::collections::HashMap;
use tce_core::exec::{CacheSink, Interpreter, LruCache, NoSink};
use tce_core::ir::rng::Rng;
use tce_core::ir::{IndexSpace, TensorDecl, TensorTable};
use tce_core::locality::{
    access_cost, perfect_nests, search_nest_tiles, tile_nest, MemoryHierarchy,
};
use tce_core::loops::{ARef, ArrayKind, LoopProgram, Stmt, Sub, VarRange};
use tce_core::tensor::Tensor;

/// Build `C[i,j] += A[i,k]·B[k,j]` with the given loop order (a
/// permutation of [i, j, k] positions).
fn matmul_program(n: usize, order: [usize; 3]) -> (IndexSpace, TensorTable, LoopProgram) {
    let mut space = IndexSpace::new();
    let r = space.add_range("N", n);
    let i = space.add_var("i", r);
    let j = space.add_var("j", r);
    let k = space.add_var("k", r);
    let mut tensors = TensorTable::new();
    let ta = tensors.add(TensorDecl::dense("A", vec![r, r]));
    let tb = tensors.add(TensorDecl::dense("B", vec![r, r]));
    let mut p = LoopProgram::new();
    let vi = p.add_var("i", VarRange::Full(i));
    let vj = p.add_var("j", VarRange::Full(j));
    let vk = p.add_var("k", VarRange::Full(k));
    let a = p.add_array(
        "A",
        vec![VarRange::Full(i), VarRange::Full(k)],
        ArrayKind::Input(ta),
    );
    let b = p.add_array(
        "B",
        vec![VarRange::Full(k), VarRange::Full(j)],
        ArrayKind::Input(tb),
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
    let vars = [vi, vj, vk];
    let loop_order: Vec<_> = order.iter().map(|&q| vars[q]).collect();
    p.body.push(tce_core::loops::nest(loop_order, vec![stmt]));
    p.validate().unwrap();
    (space, tensors, p)
}

fn run_with_cache(
    p: &LoopProgram,
    space: &IndexSpace,
    tensors: &TensorTable,
    n: usize,
    cache_elems: usize,
) -> (Tensor, u64) {
    let a = Tensor::random(&[n, n], 1);
    let b = Tensor::random(&[n, n], 2);
    let mut inputs = HashMap::new();
    inputs.insert(tensors.by_name("A").unwrap(), &a);
    inputs.insert(tensors.by_name("B").unwrap(), &b);
    let sizes: Vec<usize> = p
        .arrays
        .iter()
        .map(|x| x.elements(space) as usize)
        .collect();
    let mut sink = CacheSink::new(LruCache::new(cache_elems, 1), &sizes);
    let mut interp = Interpreter::new(p, space, &inputs, &HashMap::new()).unwrap();
    interp.run(&mut sink);
    (interp.output().clone(), sink.cache.misses)
}

#[test]
fn model_exact_when_working_set_fits() {
    for n in [8, 24] {
        let (space, tensors, p) = matmul_program(n, [0, 1, 2]);
        // Cache big enough for all three arrays: the model predicts exactly
        // the footprint (3·n²) and the simulator sees exactly the cold misses.
        let cache = 4 * n * n;
        let modeled = access_cost(&p, &space, cache as u128);
        let (_, misses) = run_with_cache(&p, &space, &tensors, n, cache);
        assert_eq!(modeled, 3 * (n * n) as u128);
        assert_eq!(misses, 3 * (n * n) as u64);
    }
}

#[test]
fn simulated_misses_grow_when_cache_shrinks() {
    let n = 16;
    let (space, tensors, p) = matmul_program(n, [0, 1, 2]);
    let (_, big) = run_with_cache(&p, &space, &tensors, n, 4 * n * n);
    let (_, small) = run_with_cache(&p, &space, &tensors, n, n);
    assert!(small > 4 * big, "small-cache misses {small} vs {big}");
    // The model agrees qualitatively.
    let m_big = access_cost(&p, &space, (4 * n * n) as u128);
    let m_small = access_cost(&p, &space, n as u128);
    assert!(m_small > 4 * m_big);
}

#[test]
fn blocking_reduces_simulated_misses() {
    // (32, 384): the cache fits ~3 blocks of 8×8 plus change, not rows of B.
    for (n, cache) in [(32, 384), (24, 256)] {
        let (space, tensors, p) = matmul_program(n, [0, 1, 2]);
        let nests = perfect_nests(&p);
        let best = search_nest_tiles(&p, &space, &nests[0], cache as u128);
        assert!(best.cost < access_cost(&p, &space, cache as u128));
        let (out_plain, misses_plain) = run_with_cache(&p, &space, &tensors, n, cache);
        let (out_tiled, misses_tiled) = run_with_cache(&best.program, &space, &tensors, n, cache);
        assert!(
            out_tiled.approx_eq(&out_plain, 1e-9),
            "tiling changed results"
        );
        assert!(
            misses_tiled < misses_plain,
            "tiled {misses_tiled} vs untiled {misses_plain}"
        );
        // §6: the same model over memory-over-disk ("replace the cache size
        // by the physical memory size") ranks the blocking no worse.
        let hier = MemoryHierarchy::cache_and_disk(cache as u128, (2 * n * n) as u128);
        assert!(hier.cost(&best.program, &space) <= hier.cost(&p, &space));
    }
}

/// Tiling any subset of the loops with any block sizes never changes the
/// computed values.
#[test]
fn tiling_preserves_semantics() {
    let orders = [[0usize, 1, 2], [2, 1, 0], [1, 2, 0]];
    let bis = [1usize, 2, 3, 4, 8, 16];
    let bjs = [1usize, 2, 5, 8, 16];
    let bks = [1usize, 3, 4, 16];
    let mut rng = Rng::new(0xc001);
    for _ in 0..24 {
        let order = orders[rng.usize_in(0..orders.len())];
        let bi = bis[rng.usize_in(0..bis.len())];
        let bj = bjs[rng.usize_in(0..bjs.len())];
        let bk = bks[rng.usize_in(0..bks.len())];
        let n = 16;
        let (space, tensors, p) = matmul_program(n, order);
        let nests = perfect_nests(&p);
        let mut blocks = HashMap::new();
        blocks.insert(nests[0].vars[0], bi);
        blocks.insert(nests[0].vars[1], bj);
        blocks.insert(nests[0].vars[2], bk);
        let tiled = tile_nest(&p, &space, &nests[0], &blocks);
        tiled.validate().unwrap();

        let a = Tensor::random(&[n, n], 5);
        let b = Tensor::random(&[n, n], 6);
        let mut inputs = HashMap::new();
        inputs.insert(tensors.by_name("A").unwrap(), &a);
        inputs.insert(tensors.by_name("B").unwrap(), &b);
        let mut i1 = Interpreter::new(&p, &space, &inputs, &HashMap::new()).unwrap();
        i1.run(&mut NoSink);
        let mut i2 = Interpreter::new(&tiled, &space, &inputs, &HashMap::new()).unwrap();
        i2.run(&mut NoSink);
        assert!(i2.output().approx_eq(i1.output(), 1e-9));
        // Tiling never changes the flop count (ragged iterations skip).
        assert_eq!(i1.stats.contraction_flops, i2.stats.contraction_flops);
    }
}

/// The analytic cost model is monotone non-increasing in cache size.
#[test]
fn model_monotone_in_cache() {
    let cases = [
        (12, [0usize, 1, 2], [2u128, 8, 32, 128, 512, 4096]),
        (12, [2, 0, 1], [2, 8, 32, 128, 512, 4096]),
        (24, [0, 1, 2], [8, 32, 64, 256, 1024, 4 * 24 * 24]),
    ];
    for (n, order, caches) in cases {
        let (space, _, p) = matmul_program(n, order);
        let mut last = u128::MAX;
        for c in caches {
            let cost = access_cost(&p, &space, c);
            assert!(cost <= last);
            last = cost;
        }
    }
}
