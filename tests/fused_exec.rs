//! Differential suite for the fused-slice executor (`tce_exec::fusedexec`).
//!
//! Every fusion configuration — the memmin optimum, the unfused baseline,
//! and partially-fused variants — must execute to the same value as the
//! operator-tree GETT executor and the scalar loop interpreter, at every
//! thread count, while the measured peak intermediate live-set equals the
//! memory-minimization model's `temp_memory` prediction **exactly**.
//! Exercised on the paper's §2 CCSD term and the A3A scenario behind
//! Figs. 2–4.  The same holds for every point of the space-time frontier
//! (fusion plus recomputation), whose model is the DP's memory for that
//! point.

use std::collections::HashMap;
use std::sync::{RwLock, RwLockReadGuard};
use tce_core::exec::{execute_tree_fused, execute_tree_lowered, execute_tree_opts, ExecOptions};
use tce_core::fusion::{
    enumerate_legal_configs, fusion_schedule, is_fusable_producer, memmin_dp, FusionConfig,
    Lowering, ScheduleStep,
};
use tce_core::ir::{
    IndexSet, IndexSpace, IndexVar, Leaf, NodeId, OpKind, OpTree, TensorDecl, TensorId, TensorTable,
};
use tce_core::scenarios::{section2_source, A3AScenario};
use tce_core::spacetime::spacetime_dp;
use tce_core::tensor::dense::row_major_strides;
use tce_core::tensor::{
    kernels, plan_for_strided, reduce_exclusive, BinaryContraction, IntegralFn, Tensor,
};
use tce_core::{synthesize, SynthesisConfig};

const THREADS: [usize; 3] = [1, 2, 4];

/// `tce_trace`'s memory high-water mark is process-wide: the live-set test
/// measures under the write lock, every other test executes under a read
/// lock so its arrays never land in that measurement.
static TRACED_MEMORY: RwLock<()> = RwLock::new(());

fn untraced() -> RwLockReadGuard<'static, ()> {
    TRACED_MEMORY.read().unwrap_or_else(|e| e.into_inner())
}

/// Relative agreement within `tol` (scale = max |expect|, at least 1).
fn rel_close(got: &Tensor, expect: &Tensor, tol: f64) -> bool {
    let scale = expect.data().iter().fold(1.0f64, |m, x| m.max(x.abs()));
    got.max_abs_diff(expect) <= tol * scale
}

/// Random values for the §2 term's four inputs at extent `n`, by tensor id.
fn section2_values(syn: &tce_core::Synthesis, n: usize, seed: u64) -> Vec<(TensorId, Tensor)> {
    ["A", "B", "C", "D"]
        .iter()
        .enumerate()
        .map(|(q, nm)| {
            let id = syn.program.tensors.by_name(nm).unwrap();
            (id, Tensor::random(&[n; 4], seed + q as u64))
        })
        .collect()
}

fn bind(values: &[(TensorId, Tensor)]) -> HashMap<TensorId, &Tensor> {
    values.iter().map(|(id, t)| (*id, t)).collect()
}

/// The memmin optimum, the unfused baseline, and every legal variant
/// obtained by clearing one producer's fused set from the optimum —
/// a spread of configurations from scalar temporaries to full arrays.
fn config_spread(tree: &OpTree, space: &IndexSpace) -> Vec<FusionConfig> {
    let memmin = memmin_dp(tree, space);
    let mut configs = vec![FusionConfig::unfused(tree), memmin.config.clone()];
    for id in tree.postorder() {
        if memmin.config.get(id).is_empty() {
            continue;
        }
        let mut partial = memmin.config.clone();
        partial.set(id, IndexSet::EMPTY);
        if partial.check(tree).is_ok() && configs.iter().all(|c| *c != partial) {
            configs.push(partial);
        }
    }
    assert!(
        configs.len() >= 3,
        "need at least three distinct fusion configurations, got {}",
        configs.len()
    );
    configs
}

#[test]
fn section2_fused_matches_oracles_across_configs_and_threads() {
    let _untraced = untraced();
    let syn = synthesize(&section2_source(4), &SynthesisConfig::default()).unwrap();
    let plan = &syn.plans[0];
    let space = &syn.program.space;
    let shape = [4usize; 4];
    let ta = Tensor::random(&shape, 41);
    let tb = Tensor::random(&shape, 42);
    let tc = Tensor::random(&shape, 43);
    let td = Tensor::random(&shape, 44);
    let mut inputs: HashMap<TensorId, &Tensor> = HashMap::new();
    for (nm, t) in [("A", &ta), ("B", &tb), ("C", &tc), ("D", &td)] {
        inputs.insert(syn.program.tensors.by_name(nm).unwrap(), t);
    }
    let funcs = HashMap::new();
    // Oracle 1: the operator-tree GETT executor.
    let gett =
        execute_tree_opts(&plan.tree, space, &inputs, &funcs, &ExecOptions::serial()).unwrap();
    // Oracle 2: the scalar interpreter over the synthesized fused program.
    let interpreted = plan.execute_interpreted(space, &inputs, &funcs).unwrap();
    assert!(rel_close(&interpreted, &gett, 1e-10));

    for config in config_spread(&plan.tree, space) {
        let modeled = config.temp_memory(&plan.tree, space);
        let mut per_thread = Vec::new();
        for threads in THREADS {
            let report = execute_tree_fused(
                &plan.tree,
                space,
                &config,
                &inputs,
                &funcs,
                &ExecOptions::with_threads(threads),
            )
            .unwrap();
            assert!(
                rel_close(&report.result, &gett, 1e-10),
                "threads {threads}: diff {:e}",
                report.result.max_abs_diff(&gett)
            );
            // Measured peak live-set equals the model for EVERY config.
            assert_eq!(report.peak_live_elements, modeled, "threads {threads}");
            assert!(report.peak_matches_model());
            per_thread.push(report.result);
        }
        // Bitwise deterministic across thread counts.
        for r in &per_thread[1..] {
            assert_eq!(*r, per_thread[0]);
        }
    }
}

#[test]
fn section2_memmin_peak_equals_dp_prediction() {
    let _untraced = untraced();
    // Paper Fig. 1(c): at extent N, fused memory = 1 (T1 scalar) + N²
    // (T2 reduced to {j,k}).
    let n = 4usize;
    let syn = synthesize(&section2_source(n), &SynthesisConfig::default()).unwrap();
    let plan = &syn.plans[0];
    let space = &syn.program.space;
    assert_eq!(plan.memmin.memory, 1 + (n as u128).pow(2));
    let values = section2_values(&syn, n, 50);
    let inputs = bind(&values);
    let report = execute_tree_fused(
        &plan.tree,
        space,
        &plan.memmin.config,
        &inputs,
        &HashMap::new(),
        &ExecOptions::serial(),
    )
    .unwrap();
    assert_eq!(report.peak_live_elements, plan.memmin.memory);
    assert_eq!(report.modeled_elements, plan.memmin.memory);
}

#[test]
fn a3a_fused_matches_reference_across_configs_and_threads() {
    let _untraced = untraced();
    // The scenario behind paper Figs. 2–4: E = (Σ T·T)·(Σ f1·f2).
    let sc = A3AScenario::new(4, 2, 50);
    let amps = sc.amplitudes(7);
    let funcs = sc.functions();
    let mut inputs: HashMap<TensorId, &Tensor> = HashMap::new();
    inputs.insert(sc.tensors.by_name("T").unwrap(), &amps);
    let expect = sc.reference_energy(&amps);

    let memmin = memmin_dp(&sc.tree, &sc.space);
    for config in config_spread(&sc.tree, &sc.space) {
        let modeled = config.temp_memory(&sc.tree, &sc.space);
        let mut per_thread = Vec::new();
        for threads in THREADS {
            let report = execute_tree_fused(
                &sc.tree,
                &sc.space,
                &config,
                &inputs,
                &funcs,
                &ExecOptions::with_threads(threads),
            )
            .unwrap();
            let got = report.result.get(&[]);
            assert!(
                (got - expect).abs() <= 1e-10 * expect.abs().max(1.0),
                "threads {threads}: {got} vs {expect}"
            );
            assert_eq!(report.peak_live_elements, modeled, "threads {threads}");
            per_thread.push(got);
        }
        for g in &per_thread[1..] {
            assert_eq!(g.to_bits(), per_thread[0].to_bits());
        }
    }
    // The memmin optimum's peak is the DP's predicted element count.
    let report = execute_tree_fused(
        &sc.tree,
        &sc.space,
        &memmin.config,
        &inputs,
        &funcs,
        &ExecOptions::serial(),
    )
    .unwrap();
    assert_eq!(report.peak_live_elements, memmin.memory);
}

/// Every point of the space-time frontier of `tree` — fusion *and*
/// recomputation configurations — passes the legality rule and runs
/// through the fused executor to the tree executor's value, bitwise
/// identically at every thread count, with the measured peak live-set
/// equal to the DP's memory for that point.
fn frontier_points_execute_exactly(
    tree: &OpTree,
    space: &IndexSpace,
    inputs: &HashMap<TensorId, &Tensor>,
    funcs: &HashMap<String, IntegralFn>,
) {
    let expect = execute_tree_opts(tree, space, inputs, funcs, &ExecOptions::serial()).unwrap();
    let front = spacetime_dp(tree, space, usize::MAX).unwrap();
    assert!(front.len() >= 3, "need several regimes to exercise");
    let mut recomputing = 0;
    for point in front.points() {
        let lowering = point.tag.lowering_configs(tree).unwrap();
        recomputing += usize::from(lowering.chain_labels() != lowering.array_config());
        let mut per_thread = Vec::new();
        for threads in THREADS {
            let report = execute_tree_lowered(
                tree,
                space,
                &lowering,
                inputs,
                funcs,
                &ExecOptions::with_threads(threads),
            )
            .unwrap();
            assert!(
                rel_close(&report.result, &expect, 1e-9),
                "mem {} ops {} threads {threads}: diff {:e}",
                point.mem,
                point.ops,
                report.result.max_abs_diff(&expect)
            );
            assert_eq!(report.peak_live_elements, point.mem, "threads {threads}");
            assert!(report.peak_matches_model());
            per_thread.push(report.result);
        }
        for r in &per_thread[1..] {
            assert_eq!(*r, per_thread[0], "mem {} ops {}", point.mem, point.ops);
        }
    }
    assert!(recomputing > 0, "no frontier point recomputes");
}

#[test]
fn a3a_spacetime_frontier_executes_exactly() {
    let _untraced = untraced();
    let sc = A3AScenario::new(3, 2, 20);
    let amps = sc.amplitudes(9);
    let mut inputs: HashMap<TensorId, &Tensor> = HashMap::new();
    inputs.insert(sc.tensors.by_name("T").unwrap(), &amps);
    frontier_points_execute_exactly(&sc.tree, &sc.space, &inputs, &sc.functions());
}

#[test]
fn section2_spacetime_frontier_executes_exactly() {
    let _untraced = untraced();
    let syn = synthesize(&section2_source(4), &SynthesisConfig::default()).unwrap();
    let values = section2_values(&syn, 4, 70);
    frontier_points_execute_exactly(
        &syn.plans[0].tree,
        &syn.program.space,
        &bind(&values),
        &HashMap::new(),
    );
}

#[test]
fn pipeline_fused_execution_honours_a_binding_memory_limit() {
    let _untraced = untraced();
    // Under a limit that memmin alone (1 + N² = 17) exceeds, synthesis
    // selects a recomputing configuration — and that, not the memmin one,
    // is what the fused executor runs.
    let cfg = SynthesisConfig {
        memory_limit: 10,
        ..SynthesisConfig::default()
    };
    let syn = synthesize(&section2_source(4), &cfg).unwrap();
    assert!(syn.plans[0].spacetime.is_some());
    let values = section2_values(&syn, 4, 80);
    let ext = bind(&values);
    let funcs = HashMap::new();
    let direct = syn.execute(&ext, &funcs).unwrap();
    let fused = syn
        .execute_fused_opts(&ext, &funcs, &ExecOptions::serial())
        .unwrap();
    assert!(fused.peak_matches_model());
    assert!(
        fused.peak_live_elements <= 10,
        "{}",
        fused.peak_live_elements
    );
    for (id, t) in &direct {
        assert!(rel_close(&fused.outputs[id], t, 1e-9), "tensor #{}", id.0);
    }
}

#[test]
fn pipeline_fused_execution_agrees_with_direct_on_sequences() {
    let _untraced = untraced();
    // Statement sequences with dataflow, coefficients and accumulation run
    // identically through the fused and direct whole-program executors.
    let src = "
        range N = 5;
        index i, j, k : N;
        tensor A(N, N); tensor B(N, N); tensor T(N, N); tensor S(N, N);
        T[i,j] = sum[k] A[i,k] * B[k,j];
        S[i,j] = sum[k] T[i,k] * A[k,j] + 2 * T[i,j] * B[i,j];
        S[i,j] += sum[k] B[i,k] * B[k,j];
    ";
    let syn = synthesize(src, &SynthesisConfig::default()).unwrap();
    let a = Tensor::random(&[5, 5], 61);
    let b = Tensor::random(&[5, 5], 62);
    let mut ext: HashMap<TensorId, &Tensor> = HashMap::new();
    ext.insert(syn.program.tensors.by_name("A").unwrap(), &a);
    ext.insert(syn.program.tensors.by_name("B").unwrap(), &b);
    let funcs: HashMap<String, IntegralFn> = HashMap::new();
    let direct = syn.execute(&ext, &funcs).unwrap();
    for threads in THREADS {
        let fused = syn
            .execute_fused_opts(&ext, &funcs, &ExecOptions::with_threads(threads))
            .unwrap();
        assert!(fused.peak_matches_model(), "threads {threads}");
        for (id, t) in &direct {
            assert!(
                rel_close(&fused.outputs[id], t, 1e-10),
                "threads {threads}, tensor #{}",
                id.0
            );
        }
        for term in &fused.per_term {
            assert_eq!(
                term.peak_live_elements, term.modeled_elements,
                "stmt {} term {}",
                term.stmt_index, term.term_index
            );
        }
    }
}

/// `S[i,j] = Σ_k A[i,k]·Y[i,j]` with `Y[i,j] = B[i,j]·E[j]`, and the
/// configuration fusing `Y` into `S`'s loop over `i`.  At every iteration
/// A's slice keeps only `k`, which S sums and Y lacks: an index exclusive
/// to one operand, summed out of A read in place through its base offset
/// and strides.  Returns the space, tree, configuration and the bound
/// values of A, B and E.
fn exclusive_summation_case() -> (IndexSpace, OpTree, FusionConfig, Vec<(TensorId, Tensor)>) {
    let mut space = IndexSpace::new();
    let (ri, rj, rk) = (
        space.add_range("I", 5),
        space.add_range("J", 4),
        space.add_range("K", 6),
    );
    let (i, j, k) = (
        space.add_var("i", ri),
        space.add_var("j", rj),
        space.add_var("k", rk),
    );
    let mut tensors = TensorTable::new();
    let ta = tensors.add(TensorDecl::dense("A", vec![ri, rk]));
    let tb = tensors.add(TensorDecl::dense("B", vec![ri, rj]));
    let te = tensors.add(TensorDecl::dense("E", vec![rj]));
    let mut tree = OpTree::new();
    let lb = tree.leaf_input(tb, vec![i, j]);
    let le = tree.leaf_input(te, vec![j]);
    let y = tree.contract(lb, le, IndexSet::from_vars([i, j]));
    let la = tree.leaf_input(ta, vec![i, k]);
    tree.contract(la, y, IndexSet::from_vars([i, j]));
    let mut config = FusionConfig::unfused(&tree);
    config.set(y, i.singleton());
    let values = vec![
        (ta, Tensor::random(&[5, 6], 91)),
        (tb, Tensor::random(&[5, 4], 92)),
        (te, Tensor::random(&[4], 93)),
    ];
    (space, tree, config, values)
}

#[test]
fn exclusive_summation_index_under_a_fusing_config() {
    let _untraced = untraced();
    let (space, tree, config, values) = exclusive_summation_case();
    let inputs = bind(&values);
    let funcs = HashMap::new();
    let (a, b, e) = (&values[0].1, &values[1].1, &values[2].1);

    let expect = execute_tree_opts(&tree, &space, &inputs, &funcs, &ExecOptions::serial()).unwrap();
    let oracle = Tensor::from_fn(&[5, 4], |ix| {
        let row: f64 = (0..6).map(|kk| a.get(&[ix[0], kk])).sum();
        row * b.get(ix) * e.get(&ix[1..])
    });
    assert!(rel_close(&expect, &oracle, 1e-12));

    let mut results = Vec::new();
    for threads in THREADS {
        let opts = ExecOptions::with_threads(threads);
        let report = execute_tree_fused(&tree, &space, &config, &inputs, &funcs, &opts).unwrap();
        assert!(
            rel_close(&report.result, &expect, 1e-12),
            "threads {threads}: diff {:e}",
            report.result.max_abs_diff(&expect)
        );
        // Y keeps only `j`: 4 elements, as the model says.
        assert_eq!(report.peak_live_elements, 4);
        assert!(report.peak_matches_model(), "threads {threads}");
        assert_eq!(report.sliced_contractions, 2 * 5);
        results.push(report.result);
    }
    for r in &results[1..] {
        assert_eq!(*r, results[0], "fused results differ across threads");
    }
}

/// The per-slice reference the slice programs must match bit for bit: the
/// schedule walked recursively, each production one
/// `ContractionPlan::execute_into` on the whole arrays at `Σ idx·stride`
/// bases, with the same plans, the same reductions and the same thread
/// count.
fn per_slice_oracle(
    tree: &OpTree,
    space: &IndexSpace,
    lowering: &Lowering,
    inputs: &HashMap<TensorId, &Tensor>,
    funcs: &HashMap<String, IntegralFn>,
    threads: usize,
) -> Tensor {
    struct Oracle<'a> {
        tree: &'a OpTree,
        space: &'a IndexSpace,
        inputs: &'a HashMap<TensorId, &'a Tensor>,
        funcs: &'a HashMap<String, IntegralFn>,
        pinned: Vec<IndexSet>,
        dims: Vec<Vec<IndexVar>>,
        arrays: Vec<Option<Tensor>>,
        env: Vec<usize>,
        threads: usize,
    }
    impl Oracle<'_> {
        fn shape(&self, dims: &[IndexVar]) -> Vec<usize> {
            dims.iter().map(|&d| self.space.extent(d)).collect()
        }

        fn run(&mut self, step: &ScheduleStep) {
            match step {
                ScheduleStep::Loop { index, body } => {
                    for i in 0..self.space.extent(*index) {
                        self.env[index.0 as usize] = i;
                        body.iter().for_each(|s| self.run(s));
                    }
                }
                ScheduleStep::Zero(v) => {
                    if let Some(t) = &mut self.arrays[v.0 as usize] {
                        t.fill_zero();
                    }
                }
                ScheduleStep::Produce(v) => self.produce(*v),
            }
        }

        fn produce(&mut self, v: NodeId) {
            let n = v.0 as usize;
            let shape = self.shape(&self.dims[n]);
            let mut out = (self.arrays[n].take()).unwrap_or_else(|| Tensor::zeros(&shape));
            let pinned = self.pinned[n];
            // Σ idx·stride over the pinned dims, and the kept dims' strides.
            let slice = |dims: &[IndexVar], shape: &[usize]| {
                let (mut base, mut kept, mut strides) = (0, Vec::new(), Vec::new());
                for (&d, s) in dims.iter().zip(row_major_strides(shape)) {
                    if pinned.contains(d) {
                        base += self.env[d.0 as usize] * s;
                    } else {
                        kept.push(d);
                        strides.push(s);
                    }
                }
                (base, kept, strides)
            };
            match &self.tree.node(v).kind {
                OpKind::Contract { left, right } => {
                    let operand = |c: NodeId| -> (&[f64], Vec<IndexVar>, Vec<usize>) {
                        match &self.tree.node(c).kind {
                            OpKind::Leaf(Leaf::Input { tensor, indices }) => {
                                let t = self.inputs[tensor];
                                (t.data(), indices.clone(), t.shape().to_vec())
                            }
                            OpKind::Leaf(Leaf::One) => (&[1.0], vec![], vec![]),
                            _ => {
                                let dims = self.dims[c.0 as usize].clone();
                                let t = self.arrays[c.0 as usize].as_ref().unwrap();
                                (t.data(), dims, t.shape().to_vec())
                            }
                        }
                    };
                    let [(a, a_dims, a_shape), (b, b_dims, b_shape)] =
                        [operand(*left), operand(*right)];
                    let (a_base, a_kept, a_strides) = slice(&a_dims, &a_shape);
                    let (b_base, b_kept, b_strides) = slice(&b_dims, &b_shape);
                    let (c_base, c_kept, c_strides) = slice(&self.dims[n], &shape);
                    let spec = BinaryContraction {
                        a: a_kept,
                        b: b_kept,
                        out: c_kept,
                    };
                    let ar = reduce_exclusive(&spec, self.space, a, a_base, &a_strides, true);
                    let br = reduce_exclusive(&spec, self.space, b, b_base, &b_strides, false);
                    let dense = |t: &Tensor| row_major_strides(t.shape());
                    let a_strides = ar.as_ref().map_or(a_strides, dense);
                    let b_strides = br.as_ref().map_or(b_strides, dense);
                    let plan = plan_for_strided(
                        &spec.pre_reduced(),
                        self.space,
                        [&a_strides, &b_strides, &c_strides],
                    );
                    let (a, a_base) = ar.as_ref().map_or((a, a_base), |t| (t.data(), 0));
                    let (b, b_base) = br.as_ref().map_or((b, b_base), |t| (t.data(), 0));
                    let c = out.data_mut();
                    plan.execute_into(a, a_base, b, b_base, c, c_base, self.threads);
                }
                OpKind::Leaf(Leaf::Func { name, indices, .. }) => {
                    let f = &self.funcs[name];
                    let dims = &self.dims[n];
                    let mut idx = vec![0usize; dims.len()];
                    for x in out.data_mut() {
                        let arg = |iv: &IndexVar| match pinned.contains(*iv) {
                            true => self.env[iv.0 as usize],
                            false => idx[dims.iter().position(|d| d == iv).unwrap()],
                        };
                        *x = f.eval(&indices.iter().map(arg).collect::<Vec<_>>());
                        Tensor::advance(&mut idx, &shape);
                    }
                }
                OpKind::Leaf(_) => unreachable!("only producers are scheduled"),
            }
            self.arrays[n] = Some(out);
        }
    }

    let schedule = fusion_schedule(tree, lowering);
    let arrays = lowering.array_config();
    let mut oracle = Oracle {
        tree,
        space,
        inputs,
        funcs,
        dims: (0..tree.len())
            .map(|n| match NodeId(n as u32) {
                id if is_fusable_producer(tree, id) => {
                    arrays.array_indices(tree, id).iter().collect()
                }
                _ => Vec::new(),
            })
            .collect(),
        pinned: schedule.pinned.clone(),
        arrays: (0..tree.len()).map(|_| None).collect(),
        env: vec![0; IndexSet::MAX_VARS],
        threads,
    };
    schedule.steps.iter().for_each(|s| oracle.run(s));
    oracle.arrays[tree.root.0 as usize].take().unwrap()
}

fn bits(t: &Tensor) -> Vec<u64> {
    t.data().iter().map(|x| x.to_bits()).collect()
}

#[test]
fn slice_programs_match_the_per_slice_oracle_bitwise() {
    // The kernel override is process-wide: hold every other test off.
    let _exclusive = TRACED_MEMORY.write().unwrap_or_else(|e| e.into_inner());
    let frontier = |tree: &OpTree, space: &IndexSpace| -> Vec<Lowering> {
        let front = spacetime_dp(tree, space, usize::MAX).unwrap();
        let points = front.points().iter();
        points
            .map(|p| p.tag.lowering_configs(tree).unwrap())
            .collect()
    };
    let spread = |tree: &OpTree, space: &IndexSpace| -> Vec<Lowering> {
        let configs = config_spread(tree, space).into_iter();
        configs.map(|c| c.lowering(tree).unwrap()).collect()
    };
    let mut cases = Vec::new();
    // Fig. 1: the §2 term, its configuration spread (memmin among them)
    // and its space-time frontier.
    let syn = synthesize(&section2_source(4), &SynthesisConfig::default()).unwrap();
    let (tree, space) = (syn.plans[0].tree.clone(), syn.program.space.clone());
    let lowerings = [spread(&tree, &space), frontier(&tree, &space)].concat();
    let values = section2_values(&syn, 4, 70);
    cases.push(("section 2", tree, space, lowerings, values, HashMap::new()));
    // The A3A scenario (function slices), its spread and its frontier.
    let sc = A3AScenario::new(3, 2, 20);
    let lowerings = [spread(&sc.tree, &sc.space), frontier(&sc.tree, &sc.space)].concat();
    let values = vec![(sc.tensors.by_name("T").unwrap(), sc.amplitudes(9))];
    let funcs = sc.functions();
    cases.push(("A3A", sc.tree, sc.space, lowerings, values, funcs));
    // A site that sums an exclusive index out first.
    let (space, tree, config, values) = exclusive_summation_case();
    let lowerings = vec![config.lowering(&tree).unwrap()];
    cases.push((
        "exclusive summation",
        tree,
        space,
        lowerings,
        values,
        HashMap::new(),
    ));

    for variant in kernels::supported_variants() {
        kernels::set_override(Some(variant)).unwrap();
        for (what, tree, space, lowerings, values, funcs) in &cases {
            let inputs = bind(values);
            for (l, lowering) in lowerings.iter().enumerate() {
                for threads in THREADS {
                    let opts = ExecOptions::with_threads(threads);
                    let got = execute_tree_lowered(tree, space, lowering, &inputs, funcs, &opts);
                    let want = per_slice_oracle(tree, space, lowering, &inputs, funcs, threads);
                    let what = format!("{variant}, {what}, lowering {l}, {threads} threads");
                    assert_eq!(bits(&got.unwrap().result), bits(&want), "{what}");
                }
            }
        }
    }
    kernels::set_override(None).unwrap();
}

/// Run one configuration traced and return the real high-water mark of
/// its intermediate arrays, in elements.
fn traced_peak_elements(
    tree: &OpTree,
    space: &IndexSpace,
    lowering: &Lowering,
    inputs: &HashMap<TensorId, &Tensor>,
    funcs: &HashMap<String, IntegralFn>,
    opts: &ExecOptions,
) -> u128 {
    tce_trace::reset();
    tce_trace::set_enabled(true);
    let report = execute_tree_lowered(tree, space, lowering, inputs, funcs, opts);
    tce_trace::set_enabled(false);
    report.unwrap();
    u128::from(tce_trace::take().mem_peak_bytes) / 8
}

#[test]
fn traced_high_water_is_the_schedules_static_peak() {
    // Arrays live by the schedule's lifetimes, so the *real* high-water
    // mark is a static property of the schedule: at one thread the traced
    // peak equals `FusionSchedule::sequential_peak`, never more than all
    // arrays at once (`temp_memory` + the root).
    let _exclusive = TRACED_MEMORY.write().unwrap_or_else(|e| e.into_inner());
    let serial = ExecOptions::serial();
    let four = ExecOptions::with_threads(4);
    let check = |tree: &OpTree,
                 space: &IndexSpace,
                 lowering: &Lowering,
                 inputs: &HashMap<TensorId, &Tensor>,
                 funcs: &HashMap<String, IntegralFn>|
     -> (u128, u128) {
        let arrays = lowering.array_config();
        let elements = |n| space.iteration_points(arrays.array_indices(tree, n));
        let static_peak = fusion_schedule(tree, lowering).sequential_peak(elements);
        let all = arrays.temp_memory(tree, space) + elements(tree.root);
        let serial_peak = traced_peak_elements(tree, space, lowering, inputs, funcs, &serial);
        let labels = &lowering.chain_labels().fused;
        assert_eq!(serial_peak, static_peak, "labels {labels:?}");
        assert!(static_peak <= all);
        let four_peak = traced_peak_elements(tree, space, lowering, inputs, funcs, &four);
        assert!(four_peak <= all, "{four_peak} > {all}");
        (static_peak, four_peak)
    };

    // Every legal fusion configuration of the §2 tree, unfused included.
    // Steps run in order whatever the thread count, so four threads change
    // nothing at all.
    let n = 3usize;
    let syn = synthesize(&section2_source(n), &SynthesisConfig::default()).unwrap();
    let (tree, space) = (&syn.plans[0].tree, &syn.program.space);
    let values = section2_values(&syn, n, 60);
    let inputs = bind(&values);
    let configs = enumerate_legal_configs(tree, space);
    assert!(configs.len() > 10);
    for (config, _) in &configs {
        let lowering = config.lowering(tree).unwrap();
        let (static_peak, four_peak) = check(tree, space, &lowering, &inputs, &HashMap::new());
        assert_eq!(four_peak, static_peak);
        if *config == FusionConfig::unfused(tree) {
            // T1 + T2, then T2 + S: two full arrays, and no input copies.
            assert_eq!(static_peak, 2 * (n as u128).pow(4));
        }
    }

    // Every space-time frontier point of the A3A tree (independent
    // subtrees; recomputing chain labels).
    let sc = A3AScenario::new(3, 2, 20);
    let amps = sc.amplitudes(9);
    let inputs = HashMap::from([(sc.tensors.by_name("T").unwrap(), &amps)]);
    let funcs = sc.functions();
    for point in spacetime_dp(&sc.tree, &sc.space, usize::MAX)
        .unwrap()
        .points()
    {
        let lowering = point.tag.lowering_configs(&sc.tree).unwrap();
        check(&sc.tree, &sc.space, &lowering, &inputs, &funcs);
    }
}
