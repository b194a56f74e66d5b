//! The paper's figure claims that no unit test owns: each `#[test]` names
//! its figure and the claim, on the shared scenarios (`A3AScenario`,
//! `section2_source`).  The rest of Figs. 1–7 and §2/§7 are checked next
//! to the code they exercise; EXPERIMENTS.md maps every figure to its
//! tests and keeps the recorded tables.

use std::collections::HashMap;
use tce_core::dist::Machine;
use tce_core::exec::{execute_tree, CacheSink, Interpreter, LruCache, NoSink};
use tce_core::fusion::{
    fusable_set, memmin_bruteforce, memmin_dp, FusionConfig, Illegal, Lowering,
};
use tce_core::locality::MemoryHierarchy;
use tce_core::par::ProcessorGrid;
use tce_core::scenarios::{section2_source, A3AScenario};
use tce_core::spacetime::{search_tiles, spacetime_dp, tiled_memory, tiled_ops, SpaceTimeConfig};
use tce_core::tensor::{EinsumSpec, IntegralFn, Tensor};
use tce_core::{synthesize, SynthesisConfig};

fn close(got: f64, expect: f64) -> bool {
    (got - expect).abs() < 1e-9 * expect.abs().max(1.0)
}

/// Fig. 3: redundant loops around the integral producers fuse every A3A
/// temporary to a scalar, at a `V²` growth of the integral time (exact
/// at paper scale, V = 5000).  At V = 6, O = 3, C_i = 200 the space-time
/// DP's minimum-memory point is that configuration: 4 scalars, two
/// redundant indices at each integral.  Memory minimization alone, which
/// recomputes nothing, stays above 4 (and its DP matches brute force).
/// The executed B = 1 program evaluates the table's integral count and
/// computes E.
#[test]
fn fig3_redundant_computation_fuses_every_temporary_to_a_scalar() {
    let paper = A3AScenario::new(5000, 100, 1000);
    let factor = paper.fig4_table(1)[1].2 / paper.fig2_table()[1].2;
    assert_eq!(factor, 5000u128.pow(2));

    let sc = A3AScenario::new(6, 3, 200);
    let front = spacetime_dp(&sc.tree, &sc.space, usize::MAX).unwrap();
    let min = front.min_mem().unwrap();
    assert_eq!(min.mem, 4, "X, T1, T2, Y all scalars");
    for node in [sc.x_node, sc.t1_node, sc.t2_node, sc.y_node] {
        assert!(min.tag.array_indices(&sc.tree, node).is_empty());
    }
    assert_eq!(min.tag.redundant[sc.t1_node.0 as usize].len(), 2);
    assert_eq!(min.tag.redundant[sc.t2_node.0 as usize].len(), 2);

    // C_i does not enter memory minimization.
    let fusion_only = memmin_dp(&sc.tree, &sc.space);
    assert_eq!(
        fusion_only.memory,
        memmin_bruteforce(&sc.tree, &sc.space).memory
    );
    assert!(fusion_only.memory > 4);

    let table = sc.fig4_table(1);
    let amps = sc.amplitudes(2);
    let inputs = HashMap::from([(sc.tensors.by_name("T").unwrap(), &amps)]);
    let funcs = sc.functions();
    let p = sc.fig4_program(1);
    let mut interp = Interpreter::new(&p, &sc.space, &inputs, &funcs).unwrap();
    interp.run(&mut NoSink);
    assert_eq!(interp.stats.func_flops, table[1].2 + table[2].2);
    assert!(close(interp.output().get(&[]), sc.reference_energy(&amps)));
}

/// Fig. 4 and §3: tiling the fused A3A by B trades memory for integral
/// recomputation.  At V = 8, O = 3, C_i = 500 the executed program at
/// every B matches the table's memory and integral flops and computes E.
/// Under a 700-element fast memory with miss cost 100, "performance will
/// improve and then level off and then deteriorate": B = 1 and B = V both
/// cost more than an interior B.  On the minimum-memory configuration the
/// tile search picks the largest block each memory limit admits.
#[test]
fn fig4_tiling_trades_memory_for_recomputation() {
    let sc = A3AScenario::new(8, 3, 500);
    let amps = sc.amplitudes(3);
    let inputs = HashMap::from([(sc.tensors.by_name("T").unwrap(), &amps)]);
    let funcs = sc.functions();
    let expect = sc.reference_energy(&amps);
    let mut costs = Vec::new();
    for bb in [1usize, 2, 4, 8] {
        let table = sc.fig4_table(bb);
        let p = sc.fig4_program(bb);
        let sizes: Vec<usize> = p
            .arrays
            .iter()
            .map(|a| a.elements(&sc.space) as usize)
            .collect();
        // One cache-simulated run gives both the counters and the misses.
        let mut sink = CacheSink::new(LruCache::new(700, 1), &sizes);
        let mut interp = Interpreter::new(&p, &sc.space, &inputs, &funcs).unwrap();
        interp.run(&mut sink);
        assert!(close(interp.output().get(&[]), expect), "B = {bb}");
        let mem_model: u128 = table[..4].iter().map(|r| r.1).sum::<u128>() + 1;
        assert_eq!(interp.allocated_temp_elements(), mem_model, "B = {bb}");
        assert_eq!(interp.stats.func_flops, table[1].2 + table[2].2, "B = {bb}");
        costs.push(interp.stats.total_flops() as f64 + 100.0 * sink.cache.misses as f64);
    }
    let best = costs.iter().copied().fold(f64::MAX, f64::min);
    assert!(costs[0] > best, "B = 1 must not be optimal: {costs:?}");
    assert!(costs[3] > best, "B = V must not be optimal: {costs:?}");

    let front = spacetime_dp(&sc.tree, &sc.space, usize::MAX).unwrap();
    let cfg = &front.min_mem().unwrap().tag;
    let mut last_ops = u128::MAX;
    for (limit, max_b, mem) in [(10, 2, 7), (50, 4, 40), (600, 8, 544), (10_000, 8, 8_320)] {
        let r = search_tiles(&sc.tree, &sc.space, cfg, limit).unwrap();
        let picked = r.blocks.values().copied().max().unwrap_or(1);
        assert_eq!((picked, r.memory), (max_b, mem), "limit {limit}");
        assert!(r.memory <= limit);
        assert_eq!(r.memory, tiled_memory(&sc.tree, &sc.space, cfg, &r.blocks));
        assert_eq!(r.ops, tiled_ops(&sc.tree, &sc.space, cfg, &r.blocks));
        // A larger limit never costs more recomputation.
        assert!(r.ops <= last_ops);
        last_ops = r.ops;
    }
    let unlimited = search_tiles(&sc.tree, &sc.space, cfg, u128::MAX).unwrap();
    assert!(unlimited.ops <= last_ops);
}

/// Fig. 6: the fusion graph of the unfused A3A form has four potential
/// fusion edges on each producer-consumer pair — the fusable sets of
/// X→E, Y→E, T1→Y and T2→Y.
#[test]
fn fig6_graph_structure() {
    let sc = A3AScenario::new(4, 2, 100);
    let tree = &sc.tree;
    for (child, parent) in [
        (sc.x_node, tree.root),
        (sc.y_node, tree.root),
        (sc.t1_node, sc.y_node),
        (sc.t2_node, sc.y_node),
    ] {
        assert_eq!(
            fusable_set(tree, child, parent).len(),
            4,
            "node {}",
            child.0
        );
    }
}

/// Fig. 6 and §5, under the legality rule synthesis uses: X fuses to a
/// scalar on (a,e,c,f), and Y on (c,e,a,f) beside it; T1 fuses with Y on
/// (c,e); after that every nonempty fusion of T2 creates partially
/// overlapping chains.
#[test]
fn fig6_claims_hold() {
    let sc = A3AScenario::new(4, 2, 100);
    let (tree, set) = (&sc.tree, |s: &str| sc.space.parse_set(s).unwrap());
    let mut cfg = FusionConfig::unfused(tree);
    cfg.set(sc.x_node, set("a,e,c,f"));
    cfg.check(tree).unwrap();
    cfg.set(sc.y_node, set("c,e,a,f"));
    cfg.check(tree).unwrap();

    let mut cfg = FusionConfig::unfused(tree);
    cfg.set(sc.t1_node, set("c,e"));
    cfg.check(tree).unwrap();
    for sub in fusable_set(tree, sc.t2_node, sc.y_node).subsets() {
        cfg.set(sc.t2_node, sub);
        match Lowering::new(tree, &cfg.fused, &[]) {
            Ok(_) => assert!(sub.is_empty(), "T2 fused on {sub:?}"),
            Err(e) => assert!(matches!(e, Illegal::Overlap(..)), "T2 on {sub:?}: {e}"),
        }
    }
}

/// The Fig. 7 configurations as space-time labels: X and Y fused to
/// scalars, T1 fused on its own indices with `t1_redundant` repeated,
/// T2 likewise.
fn fig7_config(sc: &A3AScenario, t1: (&str, &str), t2: (&str, &str)) -> SpaceTimeConfig {
    let set = |s: &str| sc.space.parse_set(s).unwrap();
    let mut cfg = SpaceTimeConfig::unfused(&sc.tree);
    cfg.fused[sc.x_node.0 as usize] = set("a,e,c,f");
    cfg.fused[sc.y_node.0 as usize] = set("c,e,a,f");
    for (node, (fused, redundant)) in [(sc.t1_node, t1), (sc.t2_node, t2)] {
        cfg.fused[node.0 as usize] = set(fused);
        cfg.redundant[node.0 as usize] = set(redundant);
    }
    cfg
}

/// Fig. 7(a): redundant vertices (a,f) at T1 and (c,e) at T2 make
/// complete fusion legal, down to every temporary a scalar; without them
/// (the same loops claimed as fused indices) the rule rejects it.
#[test]
fn fig7_redundant_vertices_enable_full_fusion() {
    let sc = A3AScenario::new(4, 2, 100);
    for (t1, t2) in [("c,e", "a,f"), ("c,e,b,k", "a,f,b,k")] {
        let cfg = fig7_config(&sc, (t1, "a,f"), (t2, "c,e"));
        cfg.lowering_configs(&sc.tree).unwrap();
        let mut plain = cfg.clone();
        for node in [sc.t1_node, sc.t2_node] {
            let q = node.0 as usize;
            plain.fused[q] = plain.fused[q].union(plain.redundant[q]);
            plain.redundant[q] = Default::default();
        }
        let err = plain.lowering_configs(&sc.tree).unwrap_err();
        assert!(
            matches!(err, Illegal::NotFusable(n, _) if n == sc.t1_node),
            "{err}"
        );
    }
    let scalars = fig7_config(&sc, ("c,e,b,k", "a,f"), ("a,f,b,k", "c,e"));
    assert_eq!(scalars.temp_memory(&sc.tree, &sc.space), 4);
}

/// Fig. 7: "removing the additional vertices for (a,f) at T2 does not
/// violate the non-partial-overlap condition" — with redundancy at T1
/// only, T1 fuses completely and T2 fuses on (a,f), a (b,k) block
/// computed once per (a,f).
#[test]
fn fig7_redundancy_on_one_side_suffices() {
    let sc = A3AScenario::new(4, 2, 100);
    let cfg = fig7_config(&sc, ("c,e,b,k", "a,f"), ("a,f", ""));
    cfg.lowering_configs(&sc.tree).unwrap();
    let vo = (sc.v() * sc.o()) as u128;
    assert_eq!(cfg.temp_memory(&sc.tree, &sc.space), 3 + vo);
}

/// Fig. 7's redundant vertices are parent loops the producer lacks: a
/// loop of the producer itself (`c` at T1), or an index that is no loop
/// of the parent (`i` at T1, whose parent is Y), is rejected.
#[test]
fn redundant_vertices_must_be_parent_loops() {
    let sc = A3AScenario::new(4, 2, 100);
    let (a, c, i) = (sc.vars.a, sc.vars.c, sc.vars.i);
    let mut cfg = SpaceTimeConfig::unfused(&sc.tree);
    cfg.redundant[sc.t1_node.0 as usize] = a.singleton();
    cfg.lowering_configs(&sc.tree).unwrap();
    for x in [c, i] {
        cfg.redundant[sc.t1_node.0 as usize] = x.singleton();
        let err = cfg.lowering_configs(&sc.tree).unwrap_err();
        assert_eq!(err, Illegal::NotRedundant(sc.t1_node, x));
    }
}

/// Fig. 7: redundant computation makes complete fusion realizable, and
/// redundancy on one of T1/T2 suffices.  The space-time frontier at
/// V = 4, O = 2, C_i = 100 holds both regimes: the all-scalar point
/// (memory 4) and the one-sided point that recomputes only `a,f` at T1,
/// 3 scalars plus a (b,k) block of T2, so 4 < memory ≤ 3 + V·O.
#[test]
fn fig7_frontier_holds_full_and_one_sided_redundancy() {
    let sc = A3AScenario::new(4, 2, 100);
    let front = spacetime_dp(&sc.tree, &sc.space, usize::MAX).unwrap();
    assert_eq!(front.min_mem().unwrap().mem, 4);
    let af = sc.space.parse_set("a,f").unwrap();
    let one_sided = front
        .points()
        .iter()
        .find(|p| p.tag.recomputation_indices() == af)
        .expect("a point recomputing only a,f");
    assert!(one_sided.mem > 4 && one_sided.mem <= 3 + (sc.v() * sc.o()) as u128);
    assert_eq!((one_sided.mem, one_sided.ops), (11, 224_256));
}

/// Fig. 5: the synthesis system end to end.  The §2 term synthesized with
/// every stage on (cache, cache-and-disk hierarchy, 2×2 grid) and an
/// integral-bearing energy under a 100-element memory limit both execute
/// to the plain tree executor's values, and the second plan fits its
/// limit.
#[test]
fn fig5_synthesis_system_end_to_end() {
    let cfg = SynthesisConfig {
        memory_limit: u128::MAX,
        cache_elements: Some(512),
        hierarchy: MemoryHierarchy::cache_and_disk(512, 1 << 24),
        machine: Some(Machine {
            grid: ProcessorGrid::new(vec![2, 2]),
            word_cost: 1,
        }),
        calibration: None,
    };
    let syn = synthesize(&section2_source(6), &cfg).unwrap();
    let (plan, space) = (&syn.plans[0], &syn.program.space);
    let data: Vec<Tensor> = (0..4).map(|s| Tensor::random(&[6; 4], s)).collect();
    let inputs: HashMap<_, _> = ["A", "B", "C", "D"]
        .iter()
        .zip(&data)
        .map(|(nm, t)| (syn.program.tensors.by_name(nm).unwrap(), t))
        .collect();
    let got = plan.execute(space, &inputs, &HashMap::new()).unwrap();
    let expect = execute_tree(&plan.tree, space, &inputs, &HashMap::new(), 1).unwrap();
    assert!(got.approx_eq(&expect, 1e-9));

    let src = "
        range V = 6; range O = 3;
        index a, c, e, f, b1 : V; index k : O;
        tensor E();
        function f1(V, V, V, O) cost 500;
        function f2(V, V, V, O) cost 500;
        E = sum[a,c,e,f,b1,k] f1(c,e,b1,k) * f2(a,f,b1,k);
    ";
    let tight = SynthesisConfig {
        memory_limit: 100,
        ..SynthesisConfig::default()
    };
    let syn = synthesize(src, &tight).unwrap();
    let (plan, space) = (&syn.plans[0], &syn.program.space);
    let memory = plan
        .spacetime
        .as_ref()
        .map_or(plan.memmin.memory, |(_, tiles)| tiles.memory);
    assert!(memory <= 100);
    let funcs = HashMap::from([
        ("f1".to_string(), IntegralFn::new(500, 1)),
        ("f2".to_string(), IntegralFn::new(500, 2)),
    ]);
    let e = plan.execute(space, &HashMap::new(), &funcs).unwrap();
    let e_ref = execute_tree(&plan.tree, space, &HashMap::new(), &funcs, 1).unwrap();
    assert!(close(e.get(&[]), e_ref.get(&[])));
}

/// §3/§4: A3A's energy is a sum of six X·Y spin-case terms, and the
/// algebraic transformations work across the whole input.  With
/// closed-shell symmetry the six terms' 18 intermediates (each term
/// pre-reduces both factors, then takes an {i1,j1} dot product) collapse
/// to 7 distinct ones, more than halving the flops, and the summed
/// statement executes to the direct value.
#[test]
fn section3_six_spin_terms_share_intermediates() {
    let src = "
        range V = 6; range O = 3;
        index a, c, e, f : V; index i1, j1 : O;
        tensor T(O, O, V, V);
        tensor U(O, O, V, V);
        tensor E();
        E = sum[a,c,e,f,i1,j1]
              T[i1,j1,a,e] * T[i1,j1,c,f]
            + T[i1,j1,a,e] * U[i1,j1,c,f]
            + U[i1,j1,a,e] * U[i1,j1,c,f]
            + T[i1,j1,a,e] * T[i1,j1,c,f]
            + T[i1,j1,a,e] * U[i1,j1,c,f]
            + U[i1,j1,a,e] * U[i1,j1,c,f];
    ";
    let syn = synthesize(src, &SynthesisConfig::default()).unwrap();
    assert_eq!(syn.plans.len(), 6);
    assert_eq!(syn.cse.len(), 1);
    let c = &syn.cse[0];
    assert_eq!(c.total_intermediates, 18);
    assert_eq!(c.unique_intermediates, 7);
    assert!(c.ops_with_cse * 2 < c.ops_independent);

    let tt = Tensor::random(&[3, 3, 6, 6], 1);
    let uu = Tensor::random(&[3, 3, 6, 6], 2);
    let tensors = &syn.program.tensors;
    let ext = HashMap::from([
        (tensors.by_name("T").unwrap(), &tt),
        (tensors.by_name("U").unwrap(), &uu),
    ]);
    let out = syn.execute(&ext, &HashMap::new()).unwrap();
    let e = out[&tensors.by_name("E").unwrap()].get(&[]);

    let space = &syn.program.space;
    let v = |n: &str| space.var_by_name(n).unwrap();
    let pair = EinsumSpec::new(
        vec![],
        vec![
            vec![v("i1"), v("j1"), v("a"), v("e")],
            vec![v("i1"), v("j1"), v("c"), v("f")],
        ],
        space.parse_set("a,c,e,f,i1,j1").unwrap(),
    )
    .unwrap();
    let dot = |x: &Tensor, y: &Tensor| pair.eval(space, &[x, y]).get(&[]);
    let expect = 2.0 * (dot(&tt, &tt) + dot(&tt, &uu) + dot(&uu, &uu));
    assert!((e - expect).abs() < 1e-8 * expect.abs().max(1.0));
}
