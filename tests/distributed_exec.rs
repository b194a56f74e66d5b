//! Differential validation of the sharded distributed executor
//! (`tce_dist::exec`) against the sequential GETT kernel, the closed-form
//! §7 cost model, and the element-wise simulator oracle.

use std::collections::HashMap;
use tce_core::dist::{
    execute_plan_sharded, gather, move_cost, optimize_distribution, redistribute, scatter,
    simulate_plan, DistEntry, DistPlan, DistTuple, Machine, ReduceMode,
};
use tce_core::exec::execute_tree;
use tce_core::ir::{IndexSpace, IndexVar, OpKind, OpTree, TensorId};
use tce_core::par::ProcessorGrid;
use tce_core::scenarios::{section2_source, A3AScenario};
use tce_core::tensor::{IntegralFn, Tensor};
use tce_core::{synthesize, ExecOptions, SynthesisConfig};

/// Hand-build an *output-partitioned* plan: every contraction's γ
/// distributes only that node's result indices (grid dim `d` carries the
/// `d`-th output variable, surplus dims are `1`).  No summation index is
/// ever distributed, so every rank accumulates its disjoint output block
/// in exactly the sequential kernel's order — the sharded result must be
/// **bit-identical** to the sequential one.
fn output_partitioned_plan(tree: &OpTree, grid_rank: usize) -> DistPlan {
    let out_tuple = |u| {
        let outs: Vec<IndexVar> = tree.node(u).indices.iter().collect();
        DistTuple(
            (0..grid_rank)
                .map(|d| {
                    outs.get(d)
                        .map(|&v| DistEntry::Idx(v))
                        .unwrap_or(DistEntry::One)
                })
                .collect(),
        )
    };
    let mut node_dist = vec![None; tree.nodes.len()];
    let mut node_gamma = vec![None; tree.nodes.len()];
    let node_input_source = vec![None; tree.nodes.len()];
    node_dist[tree.root.0 as usize] = Some(out_tuple(tree.root));
    for (i, node) in tree.nodes.iter().enumerate() {
        if matches!(node.kind, OpKind::Contract { .. }) {
            let u = tce_core::ir::NodeId(i as u32);
            node_gamma[i] = Some((out_tuple(u), ReduceMode::Combine));
        }
    }
    DistPlan {
        total_cost: 0,
        node_dist,
        node_gamma,
        node_input_source,
    }
}

const GRIDS: &[&[usize]] = &[&[1], &[1, 1], &[2, 2], &[2, 4], &[4, 2, 2]];

type Fixture = (
    OpTree,
    IndexSpace,
    Vec<(TensorId, Tensor)>,
    HashMap<String, IntegralFn>,
);

fn section2_fixture() -> Fixture {
    let syn = synthesize(&section2_source(4), &SynthesisConfig::default()).unwrap();
    let tree = syn.plans[0].tree.clone();
    let space = syn.program.space.clone();
    let shape = [4usize; 4];
    let owned: Vec<(TensorId, Tensor)> = ["A", "B", "C", "D"]
        .iter()
        .enumerate()
        .map(|(i, nm)| {
            (
                syn.program.tensors.by_name(nm).unwrap(),
                Tensor::random(&shape, 100 + i as u64),
            )
        })
        .collect();
    (tree, space, owned, HashMap::new())
}

/// A two-contraction matmul chain `OUT = A·B·C` at extent `n`.
fn matmul_chain_fixture(n: usize) -> Fixture {
    let src = format!(
        "range N = {n};
         index i, j, k, l : N;
         tensor A(N, N); tensor B(N, N); tensor C(N, N); tensor OUT(N, N);
         OUT[i,l] = sum[j,k] A[i,j] * B[j,k] * C[k,l];"
    );
    let syn = synthesize(&src, &SynthesisConfig::default()).unwrap();
    let owned: Vec<(TensorId, Tensor)> = ["A", "B", "C"]
        .iter()
        .enumerate()
        .map(|(i, nm)| {
            (
                syn.program.tensors.by_name(nm).unwrap(),
                Tensor::random(&[n, n], 200 + i as u64),
            )
        })
        .collect();
    (
        syn.plans[0].tree.clone(),
        syn.program.space.clone(),
        owned,
        HashMap::new(),
    )
}

fn a3a_fixture() -> Fixture {
    let sc = A3AScenario::new(4, 3, 50);
    let amps = sc.amplitudes(7);
    let owned = vec![(sc.tensors.by_name("T").unwrap(), amps)];
    (sc.tree.clone(), sc.space.clone(), owned, sc.functions())
}

#[test]
fn output_partitioned_sharding_is_bitwise_identical() {
    // Acceptance: sharded output bit-identical to the sequential kernel
    // on the §2 and A3A scenarios for every tested grid shape.
    for (name, (tree, space, owned, funcs)) in
        [("section2", section2_fixture()), ("a3a", a3a_fixture())]
    {
        let inputs: HashMap<TensorId, &Tensor> = owned.iter().map(|(id, t)| (*id, t)).collect();
        let expect = execute_tree(&tree, &space, &inputs, &funcs, 1).unwrap();
        for dims in GRIDS {
            let machine = Machine::new(ProcessorGrid::new(dims.to_vec()));
            let plan = output_partitioned_plan(&tree, machine.grid.rank());
            let report = execute_plan_sharded(&tree, &space, &plan, &machine, &inputs, &funcs, 4)
                .expect("plan covers tree");
            assert_eq!(
                report.result, expect,
                "{name} on grid {dims:?}: sharded result changed bits"
            );
            // No summation index is distributed → no reduction traffic,
            // and block moves always match the model.
            assert_eq!(report.reduce_words, 0, "{name} on grid {dims:?}");
            assert_eq!(
                report.moved_elements, report.predicted_move_elements,
                "{name} on grid {dims:?}: redistribution diverged from move_cost"
            );
        }
    }
}

#[test]
fn dp_plans_agree_with_simulator_and_cost_model() {
    // The DP's own plans (which may distribute summation indices and thus
    // regroup floating-point sums) must agree with the element-wise
    // simulator oracle numerically and with the closed-form model exactly.
    // A word cost of 1 makes communication cheap, so the DP spreads work
    // over more of the grid than at the default price.
    for (name, (tree, space, owned, funcs)) in [
        ("section2", section2_fixture()),
        ("a3a", a3a_fixture()),
        ("matmul_chain", matmul_chain_fixture(6)),
    ] {
        let inputs: HashMap<TensorId, &Tensor> = owned.iter().map(|(id, t)| (*id, t)).collect();
        let expect = execute_tree(&tree, &space, &inputs, &funcs, 1).unwrap();
        let machines = [&[2usize, 2][..], &[2, 4], &[4, 4]].map(|d| {
            let m = Machine::new(ProcessorGrid::new(d.to_vec()));
            [m.clone(), Machine { word_cost: 1, ..m }]
        });
        for machine in machines.iter().flatten() {
            let dims = format!(
                "{:?} at word cost {}",
                machine.grid.dims(),
                machine.word_cost
            );
            let plan = optimize_distribution(&tree, &space, machine);
            let report = execute_plan_sharded(&tree, &space, &plan, machine, &inputs, &funcs, 4)
                .expect("plan covers tree");
            assert_eq!(
                report.moved_elements, report.predicted_move_elements,
                "{name} on grid {dims}"
            );
            assert_eq!(
                report.reduce_words, report.predicted_reduce_words,
                "{name} on grid {dims}"
            );
            assert!(
                report.result.approx_eq(&expect, 1e-9),
                "{name} on grid {dims}: diff {:e}",
                report.result.max_abs_diff(&expect)
            );
            let sim = simulate_plan(&tree, &space, &plan, machine, &inputs, &funcs)
                .expect("plan covers tree");
            assert_eq!(
                report.moved_elements, sim.measured_move_elements,
                "{name} on grid {dims}: block transfers vs element enumeration"
            );
            assert_eq!(report.predicted_reduce_words, sim.predicted_reduce_words);
            assert!(report.result.approx_eq(&sim.result, 1e-9));
        }
    }
}

#[test]
fn graph_schedule_matches_sequential_walk_bitwise_with_exact_counters() {
    // Task-graph scheduling only changes *when* independent subtrees run,
    // never what each node computes: results must be bit-identical to the
    // one-thread (one-slot, sequential) walk and every measured/predicted
    // counter must agree, for every worker count.
    for (name, (tree, space, owned, funcs)) in
        [("section2", section2_fixture()), ("a3a", a3a_fixture())]
    {
        let inputs: HashMap<TensorId, &Tensor> = owned.iter().map(|(id, t)| (*id, t)).collect();
        for dims in [&[2usize, 2][..], &[2, 4]] {
            let machine = Machine::new(ProcessorGrid::new(dims.to_vec()));
            for plan in [
                output_partitioned_plan(&tree, machine.grid.rank()),
                optimize_distribution(&tree, &space, &machine),
            ] {
                let seq = execute_plan_sharded(&tree, &space, &plan, &machine, &inputs, &funcs, 1)
                    .expect("plan covers tree");
                for threads in [1, 2, 4, 8] {
                    let g = execute_plan_sharded(
                        &tree, &space, &plan, &machine, &inputs, &funcs, threads,
                    )
                    .expect("plan covers tree");
                    assert_eq!(
                        g.result, seq.result,
                        "{name} grid {dims:?} threads {threads}: graph result changed bits"
                    );
                    assert_eq!(g.moved_elements, seq.moved_elements, "{name} {dims:?}");
                    assert_eq!(
                        g.predicted_move_elements, seq.predicted_move_elements,
                        "{name} {dims:?}"
                    );
                    assert_eq!(g.reduce_words, seq.reduce_words, "{name} {dims:?}");
                    assert_eq!(
                        g.predicted_reduce_words, seq.predicted_reduce_words,
                        "{name} {dims:?}"
                    );
                    assert_eq!(g.redistributions, seq.redistributions, "{name} {dims:?}");
                    assert_eq!(g.per_rank_flops, seq.per_rank_flops, "{name} {dims:?}");
                }
            }
        }
    }
}

#[test]
fn paper_redistribution_cases_measure_exactly() {
    // Paper §7 on the 2×4×8 grid: T2 ⟨j,*,1⟩ → ⟨j,t,1⟩ moves nothing
    // (every destination block is already replicated locally), while
    // T1 ⟨1,t,j⟩ → ⟨j,t,1⟩ moves data; both measure exactly `move_cost`.
    let mut sp = IndexSpace::new();
    let rn = sp.add_range("N", 16);
    let j = sp.add_var("j", rn);
    let t = sp.add_var("t", rn);
    let grid = ProcessorGrid::new(vec![2, 4, 8]);
    let dims = [j, t];
    let value = Tensor::random(&[16, 16], 3);
    let target = DistTuple(vec![DistEntry::Idx(j), DistEntry::Idx(t), DistEntry::One]);

    let t2_from = DistTuple(vec![
        DistEntry::Idx(j),
        DistEntry::Replicate,
        DistEntry::One,
    ]);
    let sharded = scatter(&value, &dims, &t2_from, &sp, &grid);
    let (re, moved) = redistribute(&sharded, &target, &sp, &grid);
    assert_eq!(move_cost(&dims, &sp, &grid, &t2_from, &target), 0);
    assert_eq!(moved, 0, "⟨j,*,1⟩ → ⟨j,t,1⟩ must move nothing");
    assert_eq!(gather(&re, &sp, &grid), value);

    let t1_from = DistTuple(vec![DistEntry::One, DistEntry::Idx(t), DistEntry::Idx(j)]);
    let sharded = scatter(&value, &dims, &t1_from, &sp, &grid);
    let (re, moved) = redistribute(&sharded, &target, &sp, &grid);
    let predicted = move_cost(&dims, &sp, &grid, &t1_from, &target);
    assert!(predicted > 0, "the T1 case does move data");
    assert_eq!(moved, predicted, "⟨1,t,j⟩ → ⟨j,t,1⟩ must measure move_cost");
    assert_eq!(gather(&re, &sp, &grid), value);
}

#[test]
fn pipeline_distributed_execution_matches_sequential() {
    // End-to-end: synthesize with a machine, execute the statement
    // sequence on the sharded machine, compare against the sequential
    // path and check the aggregate accounting is exact.
    let src = "
        range N = 8;
        index i, j, k, l : N;
        tensor A(N, N); tensor B(N, N); tensor C(N, N);
        tensor T(N, N); tensor S(N, N);
        T[i,k] = sum[j] A[i,j] * B[j,k];
        S[i,l] = sum[k] T[i,k] * C[k,l];
    ";
    for dims in [&[1usize, 1][..], &[2, 2], &[2, 4]] {
        let cfg = SynthesisConfig {
            machine: Some(Machine::new(ProcessorGrid::new(dims.to_vec()))),
            ..SynthesisConfig::default()
        };
        let syn = synthesize(src, &cfg).unwrap();
        let a = Tensor::random(&[8, 8], 1);
        let b = Tensor::random(&[8, 8], 2);
        let c = Tensor::random(&[8, 8], 3);
        let mut ext = HashMap::new();
        for (nm, t) in [("A", &a), ("B", &b), ("C", &c)] {
            ext.insert(syn.program.tensors.by_name(nm).unwrap(), t);
        }
        let opts = ExecOptions::with_threads(4);
        let sequential = syn.execute_opts(&ext, &HashMap::new(), &opts).unwrap();
        let summary = syn
            .execute_distributed_opts(&ext, &HashMap::new(), &opts)
            .unwrap();
        assert_eq!(summary.moved_elements, summary.predicted_move_elements);
        assert_eq!(summary.reduce_words, summary.predicted_reduce_words);
        assert_eq!(summary.per_rank_flops.len(), dims.iter().product::<usize>());
        assert!(summary.max_rank_flops() > 0);
        for (id, t) in &sequential {
            assert!(
                summary.outputs[id].approx_eq(t, 1e-9),
                "grid {dims:?}: outputs diverged"
            );
        }
    }
}

#[test]
fn malformed_plans_surface_typed_errors_not_panics() {
    // Bugfix acceptance: a plan that does not cover the tree, or a missing
    // binding, must come back as a `DistError` (and through tce-exec as an
    // `ExecError`) instead of panicking mid-walk.
    use tce_core::dist::DistError;

    let (tree, space, owned, funcs) = section2_fixture();
    let inputs: HashMap<TensorId, &Tensor> = owned.iter().map(|(id, t)| (*id, t)).collect();
    let machine = Machine::new(ProcessorGrid::new(vec![2, 2]));
    let good = output_partitioned_plan(&tree, machine.grid.rank());

    // Root left unassigned.
    let mut no_root = good.clone();
    no_root.node_dist[tree.root.0 as usize] = None;
    for (label, err) in [
        (
            "exec",
            execute_plan_sharded(&tree, &space, &no_root, &machine, &inputs, &funcs, 2)
                .expect_err("unassigned root must error"),
        ),
        (
            "sim",
            simulate_plan(&tree, &space, &no_root, &machine, &inputs, &funcs)
                .expect_err("unassigned root must error"),
        ),
    ] {
        assert_eq!(err, DistError::UnassignedRoot, "{label}");
    }

    // A contraction node left unassigned.
    let mut no_gamma = good.clone();
    let cnode = tree
        .nodes
        .iter()
        .position(|n| matches!(n.kind, OpKind::Contract { .. }))
        .expect("fixture has a contraction") as u32;
    no_gamma.node_gamma[cnode as usize] = None;
    let err = execute_plan_sharded(&tree, &space, &no_gamma, &machine, &inputs, &funcs, 2)
        .expect_err("unassigned contraction must error");
    assert_eq!(err, DistError::UnassignedContraction { node: cnode });

    // An input binding withheld.
    let (missing_id, _) = owned[0];
    let partial: HashMap<TensorId, &Tensor> = owned[1..].iter().map(|(id, t)| (*id, t)).collect();
    let err = execute_plan_sharded(&tree, &space, &good, &machine, &partial, &funcs, 2)
        .expect_err("missing input must error");
    assert_eq!(err, DistError::MissingInput { tensor: missing_id });
    // Display strings are the CLI-facing diagnostics; keep them one-line.
    assert!(!err.to_string().contains('\n'));
}

#[test]
fn mis_shaped_bindings_are_typed_errors_not_panics_or_truncation() {
    // Bugfix acceptance: the distributed walker shares the tree and fused
    // executors' binding validation, so a too-small binding (used to panic
    // in `scatter` → `extract_block`), a too-large one (used to be silently
    // truncated) and a wrong-rank one all come back as
    // `InputShapeMismatch` — from `execute_tree_distributed` and from the
    // pipeline's `execute_distributed_opts`.
    use tce_core::exec::{execute_tree_distributed, ExecError};

    let (tree, space, owned, funcs) = section2_fixture();
    let machine = Machine::new(ProcessorGrid::new(vec![2, 2]));
    let plan = optimize_distribution(&tree, &space, &machine);
    let (bad_id, good) = (owned[0].0, owned[0].1.shape().to_vec());
    let smaller: Vec<usize> = good.iter().map(|&e| e - 1).collect();
    let larger: Vec<usize> = good.iter().map(|&e| e + 1).collect();
    let wrong_rank = &good[1..];

    let syn = synthesize(
        &section2_source(good[0]),
        &SynthesisConfig {
            machine: Some(machine.clone()),
            ..SynthesisConfig::default()
        },
    )
    .unwrap();

    for (label, shape) in [
        ("too small", &smaller[..]),
        ("too large", &larger[..]),
        ("wrong rank", wrong_rank),
    ] {
        let bad = Tensor::random(shape, 99);
        let mut inputs: HashMap<TensorId, &Tensor> = owned.iter().map(|(id, t)| (*id, t)).collect();
        inputs.insert(bad_id, &bad);
        for opts in [ExecOptions::serial(), ExecOptions::with_threads(4)] {
            let err =
                execute_tree_distributed(&tree, &space, &plan, &machine, &inputs, &funcs, &opts)
                    .expect_err("mis-shaped binding must error");
            assert!(
                matches!(
                    &err,
                    ExecError::InputShapeMismatch { expect, got, .. }
                        if expect == &good && got == shape
                ),
                "{label}: {err}"
            );
            assert!(!err.to_string().contains('\n'));
        }

        // The same bindings through the pipeline entry point (the same
        // source text lowers to the same tensor ids).
        let err = syn
            .execute_distributed_opts(&inputs, &funcs, &ExecOptions::serial())
            .expect_err("mis-shaped binding must error");
        assert!(
            matches!(err, ExecError::InputShapeMismatch { .. }),
            "{label} via pipeline: {err}"
        );
    }
}

#[test]
fn distributed_execution_without_a_machine_is_a_typed_error() {
    // A synthesis configured without a machine has no grid to run on:
    // `execute_distributed_opts` used to `expect` one and panic.
    use tce_core::exec::ExecError;

    let syn = synthesize(&section2_source(3), &SynthesisConfig::default()).unwrap();
    let err = syn
        .execute_distributed_opts(&HashMap::new(), &HashMap::new(), &ExecOptions::serial())
        .expect_err("no machine must error");
    assert!(
        matches!(&err, ExecError::InvalidProgram { reason }
            if reason == "distributed execution requires a machine-configured synthesis"),
        "{err}"
    );
    assert!(!err.to_string().contains('\n'));
}

#[test]
fn a_term_without_a_distribution_plan_is_a_typed_error() {
    // Synthesis gives every term a distribution plan when it has a
    // machine, so a term without one is an invalid program.
    use tce_core::exec::ExecError;

    let mut syn = synthesize(
        &section2_source(3),
        &SynthesisConfig {
            machine: Some(Machine::new(ProcessorGrid::new(vec![2, 2]))),
            ..SynthesisConfig::default()
        },
    )
    .unwrap();
    let plan = syn.plans.last_mut().expect("one term at least");
    let (stmt, term) = (plan.stmt_index, plan.term_index);
    plan.distribution = None;
    let owned = tce_core::serve::bind_random_inputs(&syn, 5);
    let inputs: HashMap<TensorId, &Tensor> = owned.iter().map(|(id, t)| (*id, t)).collect();
    let funcs = tce_core::serve::bind_functions(&syn, 5);
    let err = syn
        .execute_distributed_opts(&inputs, &funcs, &ExecOptions::serial())
        .expect_err("a term without a distribution plan must error");
    assert!(
        matches!(&err, ExecError::InvalidProgram { reason }
            if reason == &format!("statement {stmt} term {term} has no distribution plan")),
        "{err}"
    );
}
