//! Property-based tests: every transformation in the framework is
//! semantics-preserving and every optimizer matches its oracle, on
//! randomized instances drawn from the workspace's seeded [`Rng`].
//!
//! Set `TCE_TEST_SEED` (decimal or `0x` hex) to replay every property
//! test under a different campaign seed; the active seed is printed when
//! a test fails.

use std::collections::HashMap;
use tce_core::exec::{Interpreter, NoSink};
use tce_core::fusion::{
    check_chainwise, enumerate_legal_configs, fusable_set, fused_program, memmin_bruteforce,
    memmin_dp, FusionConfig,
};
use tce_core::ir::rng::Rng;
use tce_core::ir::rng::{seed_from_env, SeedGuard};
use tce_core::ir::{
    IndexSet, IndexSpace, IndexVar, Leaf, NodeId, OpTree, TensorDecl, TensorId, TensorTable,
};
use tce_core::opmin::{optimize_branch_bound, optimize_subset_dp, OpMinProblem};
use tce_core::tensor::{EinsumSpec, Tensor};

/// A randomly generated single-term contraction problem plus data.
#[derive(Debug, Clone)]
struct RandomProblem {
    space: IndexSpace,
    tensors: TensorTable,
    /// (tensor, ordered indices) per factor.
    factors: Vec<(TensorId, Vec<IndexVar>)>,
    output: IndexSet,
}

fn arb_problem(rng: &mut Rng) -> RandomProblem {
    // 2-4 factors over up to 5 index variables with extents 2..5.
    let extents: Vec<usize> = (0..5).map(|_| rng.usize_in(2..5)).collect();
    let factor_vars: Vec<Vec<usize>> = (0..rng.usize_in(2..5))
        .map(|_| {
            (0..rng.usize_in(1..4))
                .map(|_| rng.usize_in(0..5))
                .collect()
        })
        .collect();
    let out_flags: Vec<bool> = (0..5).map(|_| rng.bool_with(0.5)).collect();

    let mut space = IndexSpace::new();
    let ranges: Vec<_> = extents
        .iter()
        .enumerate()
        .map(|(q, &e)| space.add_range(&format!("R{q}"), e))
        .collect();
    let vars: Vec<_> = (0..5)
        .map(|q| space.add_var(&format!("x{q}"), ranges[q]))
        .collect();
    let mut tensors = TensorTable::new();
    let mut factors = Vec::new();
    let mut used = IndexSet::EMPTY;
    for (fi, pick) in factor_vars.iter().enumerate() {
        let mut set = IndexSet::EMPTY;
        let mut idxs = Vec::new();
        for &q in pick {
            let v = vars[q];
            if !set.contains(v) {
                set.insert(v);
                idxs.push(v);
                used.insert(v);
            }
        }
        let dims = idxs.iter().map(|&v| space.range_of(v)).collect();
        let id = tensors.add(TensorDecl::dense(&format!("F{fi}"), dims));
        factors.push((id, idxs));
    }
    let mut output = IndexSet::EMPTY;
    for (q, &flag) in out_flags.iter().enumerate() {
        if flag && used.contains(vars[q]) {
            output.insert(vars[q]);
        }
    }
    RandomProblem {
        space,
        tensors,
        factors,
        output,
    }
}

fn problem_to_opmin(p: &RandomProblem) -> OpMinProblem {
    OpMinProblem {
        output: p.output,
        factors: p
            .factors
            .iter()
            .map(|(t, idxs)| Leaf::Input {
                tensor: *t,
                indices: idxs.clone(),
            })
            .collect(),
    }
}

fn reference(p: &RandomProblem, data: &[Tensor]) -> Tensor {
    let all = p.factors.iter().fold(IndexSet::EMPTY, |s, (_, idxs)| {
        s.union(IndexSet::from_vars(idxs.iter().copied()))
    });
    let spec = EinsumSpec::new(
        p.output.iter().collect(),
        p.factors.iter().map(|(_, idxs)| idxs.clone()).collect(),
        all.minus(p.output),
    )
    .unwrap();
    let refs: Vec<&Tensor> = data.iter().collect();
    spec.eval(&p.space, &refs)
}

fn make_data(p: &RandomProblem, seed: u64) -> Vec<Tensor> {
    p.factors
        .iter()
        .enumerate()
        .map(|(i, (_, idxs))| {
            let shape: Vec<usize> = idxs.iter().map(|&v| p.space.extent(v)).collect();
            Tensor::random(&shape, seed + i as u64)
        })
        .collect()
}

/// Operation minimization: the DP optimum equals branch-and-bound, and
/// the optimized tree evaluates to the same values as the reference.
#[test]
fn opmin_is_exact_and_semantics_preserving() {
    let seed = seed_from_env(0xb001);
    let _guard = SeedGuard::new("opmin_is_exact_and_semantics_preserving", seed);
    let mut rng = Rng::new(seed);
    for _ in 0..48 {
        let p = arb_problem(&mut rng);
        let seed = rng.u64_in(0..1000);
        let problem = problem_to_opmin(&p);
        let dp = optimize_subset_dp(&problem, &p.space);
        let bb = optimize_branch_bound(&problem, &p.space);
        assert_eq!(dp.contraction_ops, bb.contraction_ops);
        dp.tree.validate().unwrap();

        let data = make_data(&p, seed);
        let inputs: HashMap<TensorId, &Tensor> = p
            .factors
            .iter()
            .zip(&data)
            .map(|((t, _), d)| (*t, d))
            .collect();
        let got =
            tce_core::exec::execute_tree(&dp.tree, &p.space, &inputs, &HashMap::new(), 1).unwrap();
        let expect = reference(&p, &data);
        // Result dims: canonical ascending order — same as the reference.
        assert!(
            got.approx_eq(&expect, 1e-8),
            "diff {:e}",
            got.max_abs_diff(&expect)
        );
    }
}

/// Memory minimization matches brute force, and the fused program
/// computes the same values while allocating exactly the predicted
/// temporaries.
#[test]
fn memmin_is_exact_and_fused_code_is_correct() {
    let seed = seed_from_env(0xb002);
    let _guard = SeedGuard::new("memmin_is_exact_and_fused_code_is_correct", seed);
    let mut rng = Rng::new(seed);
    for _ in 0..48 {
        let p = arb_problem(&mut rng);
        let seed = rng.u64_in(0..1000);
        let problem = problem_to_opmin(&p);
        let tree = optimize_subset_dp(&problem, &p.space).tree;
        let dp = memmin_dp(&tree, &p.space);
        let bf = memmin_bruteforce(&tree, &p.space);
        assert_eq!(dp.memory, bf.memory);

        let built = fused_program(&tree, &p.space, &p.tensors, &dp.config, "OUT");
        built.program.validate().unwrap();
        let data = make_data(&p, seed);
        let inputs: HashMap<TensorId, &Tensor> = p
            .factors
            .iter()
            .zip(&data)
            .map(|((t, _), d)| (*t, d))
            .collect();
        let mut interp =
            Interpreter::new(&built.program, &p.space, &inputs, &HashMap::new()).unwrap();
        interp.run(&mut NoSink);
        let expect = reference(&p, &data);
        assert!(interp.output().approx_eq(&expect, 1e-8));
        // Allocated temps = DP memory + output array.
        let out_elems = p.space.iteration_points(p.output);
        assert_eq!(interp.allocated_temp_elements(), dp.memory + out_elems);
    }
}

/// Every legal fusion configuration (not just the optimum) produces a
/// semantics-preserving program, and the local legality check agrees
/// with the paper's global chain-scope condition.
#[test]
fn every_legal_config_is_executable() {
    let seed = seed_from_env(0xb003);
    let _guard = SeedGuard::new("every_legal_config_is_executable", seed);
    let mut rng = Rng::new(seed);
    for _ in 0..48 {
        let p = arb_problem(&mut rng);
        let seed = rng.u64_in(0..1000);
        let problem = problem_to_opmin(&p);
        let tree = optimize_subset_dp(&problem, &p.space).tree;
        let configs = enumerate_legal_configs(&tree, &p.space);
        assert!(!configs.is_empty());
        let data = make_data(&p, seed);
        let inputs: HashMap<TensorId, &Tensor> = p
            .factors
            .iter()
            .zip(&data)
            .map(|((t, _), d)| (*t, d))
            .collect();
        let expect = reference(&p, &data);
        // Cap the per-case work: check up to 12 configurations.
        for (config, mem) in configs.iter().take(12) {
            assert!(check_chainwise(&tree, config, &p.space).is_ok());
            let built = fused_program(&tree, &p.space, &p.tensors, config, "OUT");
            let mut interp =
                Interpreter::new(&built.program, &p.space, &inputs, &HashMap::new()).unwrap();
            interp.run(&mut NoSink);
            assert!(
                interp.output().approx_eq(&expect, 1e-8),
                "config {:?} diverges",
                config.fused
            );
            let out_elems = p.space.iteration_points(p.output);
            assert_eq!(interp.allocated_temp_elements(), mem + out_elems);
        }
    }
}

/// Illegal configurations (random fused sets that fail the local check)
/// also fail the global chain condition.
#[test]
fn illegal_configs_rejected_by_both_checks() {
    let seed = seed_from_env(0xb004);
    let _guard = SeedGuard::new("illegal_configs_rejected_by_both_checks", seed);
    let mut rng = Rng::new(seed);
    for _ in 0..48 {
        let p = arb_problem(&mut rng);
        let picks: Vec<u64> = (0..8).map(|_| rng.u64_in(0..64)).collect();
        let problem = problem_to_opmin(&p);
        let tree = optimize_subset_dp(&problem, &p.space).tree;
        let parents = tree.parents();
        let mut config = FusionConfig::unfused(&tree);
        let mut pi = 0;
        for id in tree.postorder() {
            if id == tree.root {
                continue;
            }
            let u = parents[id.0 as usize].unwrap();
            let fs = fusable_set(&tree, id, u);
            if fs.is_empty() || pi >= picks.len() {
                continue;
            }
            // Random subset of the fusable set.
            let members: Vec<IndexVar> = fs.iter().collect();
            let mut sub = IndexSet::EMPTY;
            for (bit, v) in members.iter().enumerate() {
                if picks[pi] & (1 << bit) != 0 {
                    sub.insert(*v);
                }
            }
            pi += 1;
            config.set(id, sub);
        }
        let local = config.check(&tree).is_ok();
        let global = check_chainwise(&tree, &config, &p.space).is_ok();
        assert_eq!(local, global);
    }
}

/// Problems containing expensive-function leaves: every legal fusion
/// configuration (sampled) executes to the same values as a reference
/// built by materializing the functions into dense arrays first.
#[test]
fn func_leaf_problems_are_semantics_preserving() {
    use tce_core::tensor::IntegralFn;
    let seed = seed_from_env(0xb005);
    let _guard = SeedGuard::new("func_leaf_problems_are_semantics_preserving", seed);
    let mut rng = Rng::new(seed);
    for _ in 0..32 {
        let p = arb_problem(&mut rng);
        let fn_mask = rng.u64_in(1..8) as u8;
        let seed = rng.u64_in(0..500);
        // Convert a subset of factors into function leaves.
        let mut problem = problem_to_opmin(&p);
        let mut funcs: HashMap<String, IntegralFn> = HashMap::new();
        for (fi, leaf) in problem.factors.iter_mut().enumerate() {
            if fn_mask & (1 << (fi % 3)) == 0 {
                continue;
            }
            if let Leaf::Input { indices, .. } = leaf.clone() {
                let name = format!("g{fi}");
                funcs.insert(name.clone(), IntegralFn::new(10, seed + fi as u64));
                *leaf = Leaf::Func {
                    name,
                    indices,
                    cost_per_eval: 10,
                };
            }
        }
        let tree = optimize_subset_dp(&problem, &p.space).tree;

        // Reference: materialize every factor (tensor or function) into a
        // dense array and run the einsum.
        let mut materialized: Vec<Tensor> = Vec::new();
        for (fi, leaf) in problem.factors.iter().enumerate() {
            let value: Tensor = match leaf {
                Leaf::Input { indices, .. } => {
                    let shape: Vec<usize> = indices.iter().map(|&v| p.space.extent(v)).collect();
                    Tensor::random(&shape, seed + 1000 + fi as u64)
                }
                Leaf::Func { name, indices, .. } => {
                    let f = &funcs[name];
                    let shape: Vec<usize> = indices.iter().map(|&v| p.space.extent(v)).collect();
                    Tensor::from_fn(&shape, |idx| f.eval(idx))
                }
                Leaf::One => unreachable!(),
            };
            materialized.push(value);
        }
        let all = problem.factors.iter().fold(IndexSet::EMPTY, |s, l| {
            s.union(tce_core::opmin::leaf_indices(l))
        });
        let spec = EinsumSpec::new(
            problem.output.iter().collect(),
            problem
                .factors
                .iter()
                .map(|l| match l {
                    Leaf::Input { indices, .. } | Leaf::Func { indices, .. } => indices.clone(),
                    Leaf::One => unreachable!(),
                })
                .collect(),
            all.minus(problem.output),
        )
        .unwrap();
        let refs: Vec<&Tensor> = materialized.iter().collect();
        let expect = spec.eval(&p.space, &refs);

        // Inputs binding: only the Input leaves.
        let inputs: HashMap<TensorId, &Tensor> = problem
            .factors
            .iter()
            .zip(&materialized)
            .filter_map(|(l, t)| match l {
                Leaf::Input { tensor, .. } => Some((*tensor, t)),
                _ => None,
            })
            .collect();

        // Sample several legal configurations, including the memory-min.
        let configs = enumerate_legal_configs(&tree, &p.space);
        let dp = memmin_dp(&tree, &p.space);
        let mut picked: Vec<&FusionConfig> = configs
            .iter()
            .map(|(c, _)| c)
            .step_by((configs.len() / 6).max(1))
            .collect();
        picked.push(&dp.config);
        for config in picked {
            let built = fused_program(&tree, &p.space, &p.tensors, config, "OUT");
            let mut interp = Interpreter::new(&built.program, &p.space, &inputs, &funcs).unwrap();
            interp.run(&mut NoSink);
            assert!(
                interp.output().approx_eq(&expect, 1e-8),
                "config {:?} diverges by {:e}",
                config.fused,
                interp.output().max_abs_diff(&expect)
            );
        }
    }
}

/// Non-proptest regression: a deep chain where fusion must cascade.
#[test]
fn deep_chain_fusion_cascades() {
    let mut space = IndexSpace::new();
    let n = space.add_range("N", 4);
    let vars: Vec<_> = (0..6).map(|q| space.add_var(&format!("x{q}"), n)).collect();
    let mut tensors = TensorTable::new();
    let mut tree = OpTree::new();
    // (((A·B)·C)·D) chain sharing one index at each step.
    let mut prev: Option<NodeId> = None;
    for s in 0..4 {
        let dims = vec![n, n];
        let t = tensors.add(TensorDecl::dense(&format!("M{s}"), dims));
        let leaf = tree.leaf_input(t, vec![vars[s], vars[s + 1]]);
        prev = Some(match prev {
            None => leaf,
            Some(p) => {
                let keep = IndexSet::from_vars([vars[0], vars[s + 1]]);
                tree.contract(p, leaf, keep)
            }
        });
    }
    let r = memmin_dp(&tree, &space);
    let bf = memmin_bruteforce(&tree, &space);
    assert_eq!(r.memory, bf.memory);
    // Execute the fused result.
    let built = fused_program(&tree, &space, &tensors, &r.config, "OUT");
    let data: Vec<Tensor> = (0..4).map(|s| Tensor::random(&[4, 4], s as u64)).collect();
    let inputs: HashMap<TensorId, &Tensor> = (0..4)
        .map(|s| (tensors.by_name(&format!("M{s}")).unwrap(), &data[s]))
        .collect();
    let mut interp = Interpreter::new(&built.program, &space, &inputs, &HashMap::new()).unwrap();
    interp.run(&mut NoSink);
    let expect = tce_core::exec::execute_tree(&tree, &space, &inputs, &HashMap::new(), 1).unwrap();
    assert!(interp.output().approx_eq(&expect, 1e-9));
}
