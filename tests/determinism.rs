//! Thread-count determinism: every executed scenario — raw GETT
//! contractions, operator trees, the A3A §3 scenario, and whole
//! synthesized statement sequences — produces bitwise-identical output
//! at every thread count.  This is the contract that makes `--threads`
//! purely a performance knob: the parallel kernels partition *output*
//! elements disjointly and keep every per-element accumulation order
//! fixed, so not a single ulp may move.

use std::collections::HashMap;
use tce_core::exec::{execute_tree, execute_tree_opts, ExecOptions};
use tce_core::ir::rng::Rng;
use tce_core::ir::{
    IndexSet, IndexSpace, IndexVar, Leaf, NodeId, OpKind, OpTree, TensorDecl, TensorId, TensorTable,
};
use tce_core::scenarios::{section2_source, A3AScenario};
use tce_core::tensor::{contract_gett, BinaryContraction, IntegralFn, Tensor};
use tce_core::{synthesize, SynthesisConfig};

const THREADS: [usize; 3] = [2, 3, 7];

/// Worker counts for the sweep against the one-thread run: every walk
/// runs its nodes in order, and at `w` workers its kernels split their
/// loops over up to `w` threads (1 runs everything inline).
const WORKERS: [usize; 4] = [1, 2, 4, 8];

#[test]
fn a3a_scenario_tree_is_bitwise_deterministic() {
    let sc = A3AScenario::new(10, 4, 25);
    let amp = sc.amplitudes(77);
    let funcs = sc.functions();
    let t_id = sc.tensors.by_name("T").unwrap();
    let mut inputs = HashMap::new();
    inputs.insert(t_id, &amp);
    let base = execute_tree(&sc.tree, &sc.space, &inputs, &funcs, 1).unwrap();
    for threads in THREADS {
        let got = execute_tree(&sc.tree, &sc.space, &inputs, &funcs, threads).unwrap();
        assert_eq!(base, got, "A3A energy changed bits at {threads} threads");
    }
}

#[test]
fn section2_pipeline_is_bitwise_deterministic() {
    let syn = synthesize(&section2_source(5), &SynthesisConfig::default()).unwrap();
    let shape = [5usize; 4];
    let ta = Tensor::random(&shape, 1);
    let tb = Tensor::random(&shape, 2);
    let tc = Tensor::random(&shape, 3);
    let td = Tensor::random(&shape, 4);
    let mut ext = HashMap::new();
    for (nm, t) in [("A", &ta), ("B", &tb), ("C", &tc), ("D", &td)] {
        ext.insert(syn.program.tensors.by_name(nm).unwrap(), t);
    }
    let base = syn
        .execute_opts(&ext, &HashMap::new(), &ExecOptions::serial())
        .unwrap();
    for threads in THREADS {
        let got = syn
            .execute_opts(&ext, &HashMap::new(), &ExecOptions::with_threads(threads))
            .unwrap();
        assert_eq!(base.len(), got.len());
        for (id, t) in &base {
            assert_eq!(
                t,
                &got[id],
                "tensor {:?} changed bits at {threads} threads",
                syn.program.tensors.get(*id).name
            );
        }
    }
}

#[test]
fn a3a_walk_is_bitwise_deterministic_at_every_worker_count() {
    // The walk over the A3A operator tree must reproduce the one-thread
    // run bit for bit at every worker count: workers split a kernel's
    // loops, never the order of the sums inside a node.
    let sc = A3AScenario::new(10, 4, 25);
    let amp = sc.amplitudes(77);
    let funcs = sc.functions();
    let t_id = sc.tensors.by_name("T").unwrap();
    let mut inputs = HashMap::new();
    inputs.insert(t_id, &amp);
    let seq = execute_tree(&sc.tree, &sc.space, &inputs, &funcs, 1).unwrap();
    for workers in WORKERS {
        let opts = ExecOptions::with_threads(workers);
        let got = execute_tree_opts(&sc.tree, &sc.space, &inputs, &funcs, &opts).unwrap();
        assert_eq!(seq, got, "changed bits at {workers} workers");
    }
}

#[test]
fn multi_statement_walk_is_bitwise_deterministic_at_every_worker_count() {
    // A statement sequence with independent chains and a diamond join:
    // T and U depend only on inputs, S joins them, and the accumulate
    // extends S's chain.  Statements run in source order.
    let src = "
        range N = 6;
        index i, j, k, l : N;
        tensor A(N, N); tensor B(N, N);
        tensor T(N, N); tensor U(N, N); tensor S(N, N);
        T[i,j] = sum[k] A[i,k] * B[k,j];
        U[i,j] = sum[k] B[i,k] * B[k,j];
        S[i,j] = sum[k] T[i,k] * U[k,j];
        S[i,j] += sum[k,l] U[i,k] * A[k,l] * T[l,j];
    ";
    let syn = synthesize(src, &SynthesisConfig::default()).unwrap();
    let ta = Tensor::random(&[6, 6], 11);
    let tb = Tensor::random(&[6, 6], 12);
    let mut ext = HashMap::new();
    ext.insert(syn.program.tensors.by_name("A").unwrap(), &ta);
    ext.insert(syn.program.tensors.by_name("B").unwrap(), &tb);
    let funcs = HashMap::new();
    let seq = syn
        .execute_opts(&ext, &funcs, &ExecOptions::serial())
        .unwrap();
    for workers in WORKERS {
        let opts = ExecOptions::with_threads(workers);
        let got = syn.execute_opts(&ext, &funcs, &opts).unwrap();
        assert_eq!(seq.len(), got.len());
        for (id, t) in &seq {
            assert_eq!(
                t,
                &got[id],
                "tensor {:?} changed bits at {workers} workers",
                syn.program.tensors.get(*id).name
            );
        }
    }
}

#[test]
fn accumulate_onto_externally_bound_target_starts_from_zeros_on_every_path() {
    // `S` is read by the first statement, so it carries an external
    // binding; the `+=` has no prior writer.  The oracle's rule — a `+=`
    // starts from the last *computed* value of its target, else zeros,
    // never from an external binding — must hold at every thread count and
    // on every executor (a statement scheduler, since deleted, used to
    // accumulate onto the bound value).
    let n = 5;
    let src = "
        range N = 5;
        index i, j, k : N;
        tensor A(N, N); tensor B(N, N); tensor R(N, N); tensor S(N, N);
        R[i,j] = sum[k] S[i,k] * B[k,j];
        S[i,j] += sum[k] A[i,k] * B[k,j];
    ";
    let cfg = SynthesisConfig {
        machine: Some(tce_core::dist::Machine::new(
            tce_core::par::ProcessorGrid::new(vec![2, 2]),
        )),
        ..SynthesisConfig::default()
    };
    let syn = synthesize(src, &cfg).unwrap();
    let id = |name: &str| syn.program.tensors.by_name(name).unwrap();
    let (ta, tb, ts) = (
        Tensor::random(&[n, n], 21),
        Tensor::random(&[n, n], 22),
        Tensor::random(&[n, n], 23),
    );
    let mut ext = HashMap::new();
    ext.insert(id("A"), &ta);
    ext.insert(id("B"), &tb);
    ext.insert(id("S"), &ts);
    let funcs = HashMap::new();

    // By hand: S = A·B from zeros, R = S_bound·B.
    let matmul = |x: &Tensor, y: &Tensor| {
        Tensor::from_fn(&[n, n], |ix| {
            (0..n)
                .map(|k| x.get(&[ix[0], k]) * y.get(&[k, ix[1]]))
                .sum()
        })
    };
    let seq = syn
        .execute_opts(&ext, &funcs, &ExecOptions::serial())
        .unwrap();
    assert!(seq[&id("S")].approx_eq(&matmul(&ta, &tb), 1e-10));
    assert!(seq[&id("R")].approx_eq(&matmul(&ts, &tb), 1e-10));

    for workers in WORKERS {
        let opts = ExecOptions::with_threads(workers);
        let tree = syn.execute_opts(&ext, &funcs, &opts).unwrap();
        let fused = syn.execute_fused_opts(&ext, &funcs, &opts).unwrap().outputs;
        let dist = syn
            .execute_distributed_opts(&ext, &funcs, &opts)
            .unwrap()
            .outputs;
        for (tensor, want) in &seq {
            let name = &syn.program.tensors.get(*tensor).name;
            assert_eq!(
                &tree[tensor], want,
                "`{name}` differs between 1 and {workers} workers"
            );
            assert!(fused[tensor].approx_eq(want, 1e-10), "fused `{name}`");
            assert!(dist[tensor].approx_eq(want, 1e-10), "distributed `{name}`");
        }
    }
}

#[test]
fn section2_walk_is_bitwise_deterministic_at_every_worker_count() {
    let syn = synthesize(&section2_source(5), &SynthesisConfig::default()).unwrap();
    let shape = [5usize; 4];
    let ta = Tensor::random(&shape, 1);
    let tb = Tensor::random(&shape, 2);
    let tc = Tensor::random(&shape, 3);
    let td = Tensor::random(&shape, 4);
    let mut ext = HashMap::new();
    for (nm, t) in [("A", &ta), ("B", &tb), ("C", &tc), ("D", &td)] {
        ext.insert(syn.program.tensors.by_name(nm).unwrap(), t);
    }
    let funcs = HashMap::new();
    let seq = syn
        .execute_opts(&ext, &funcs, &ExecOptions::serial())
        .unwrap();
    for workers in WORKERS {
        let opts = ExecOptions::with_threads(workers);
        let got = syn.execute_opts(&ext, &funcs, &opts).unwrap();
        for (id, t) in &seq {
            assert_eq!(
                t,
                &got[id],
                "tensor {:?} changed bits at {workers} workers",
                syn.program.tensors.get(*id).name
            );
        }
    }
}

#[test]
fn random_contractions_are_bitwise_deterministic() {
    // Random shapes around the tile boundaries, including CCSD-like
    // four-index contractions.
    let mut rng = Rng::new(0xe001);
    for _ in 0..8 {
        let v = rng.usize_in(6..14);
        let o = rng.usize_in(2..5);
        let mut sp = tce_core::ir::IndexSpace::new();
        let rv = sp.add_range("V", v);
        let ro = sp.add_range("O", o);
        let a = sp.add_var("a", rv);
        let e = sp.add_var("e", rv);
        let c = sp.add_var("c", rv);
        let f = sp.add_var("f", rv);
        let i = sp.add_var("i", ro);
        let j = sp.add_var("j", ro);
        let spec = BinaryContraction {
            a: vec![i, j, a, e],
            b: vec![i, j, c, f],
            out: vec![a, e, c, f],
        };
        let ta = Tensor::random(&[o, o, v, v], rng.u64_in(0..1000));
        let tb = Tensor::random(&[o, o, v, v], rng.u64_in(0..1000));
        let base = contract_gett(&spec, &sp, &ta, &tb, 1);
        for threads in THREADS {
            assert_eq!(base, contract_gett(&spec, &sp, &ta, &tb, threads));
        }
    }
}

/// The direct form written out by hand: one `contract_gett` call per
/// contraction node in postorder, every leaf materialized in its declared
/// dimension order — what `execute_tree_opts` must reproduce bit for bit.
fn postorder_chain(
    tree: &OpTree,
    space: &IndexSpace,
    inputs: &HashMap<TensorId, &Tensor>,
    funcs: &HashMap<String, IntegralFn>,
) -> Tensor {
    let dims = |n: NodeId| -> Vec<IndexVar> {
        match &tree.node(n).kind {
            OpKind::Leaf(Leaf::Input { indices, .. })
            | OpKind::Leaf(Leaf::Func { indices, .. }) => indices.clone(),
            _ => tree.node(n).indices.iter().collect(),
        }
    };
    let mut values: Vec<Option<Tensor>> = vec![None; tree.len()];
    for id in tree.postorder() {
        let value = match &tree.node(id).kind {
            OpKind::Leaf(Leaf::Input { tensor, .. }) => inputs[tensor].clone(),
            OpKind::Leaf(Leaf::One) => Tensor::from_elem(&[], 1.0),
            OpKind::Leaf(Leaf::Func { name, indices, .. }) => {
                let shape: Vec<usize> = indices.iter().map(|&v| space.extent(v)).collect();
                Tensor::from_fn(&shape, |idx| funcs[name].eval(idx))
            }
            OpKind::Contract { left, right } => {
                let spec = BinaryContraction {
                    a: dims(*left),
                    b: dims(*right),
                    out: dims(id),
                };
                let lv = values[left.0 as usize].take().unwrap();
                let rv = values[right.0 as usize].take().unwrap();
                contract_gett(&spec, space, &lv, &rv, 1)
            }
        };
        values[id.0 as usize] = Some(value);
    }
    values[tree.root.0 as usize].take().unwrap()
}

fn assert_tree_executor_is_the_postorder_chain(
    tree: &OpTree,
    space: &IndexSpace,
    inputs: &HashMap<TensorId, &Tensor>,
    funcs: &HashMap<String, IntegralFn>,
) {
    let expect = postorder_chain(tree, space, inputs, funcs);
    let bits = |t: &Tensor| -> Vec<u64> { t.data().iter().map(|x| x.to_bits()).collect() };
    for threads in [1, 2, 4] {
        let opts = ExecOptions::with_threads(threads);
        let got = execute_tree_opts(tree, space, inputs, funcs, &opts).unwrap();
        assert_eq!(got.shape(), expect.shape());
        assert_eq!(
            bits(&got),
            bits(&expect),
            "{threads} threads diverged from the postorder chain"
        );
    }
}

#[test]
fn unfused_lowering_is_bitwise_the_hand_rolled_postorder_chain() {
    // `execute_tree_opts` lowers the tree onto the fused walker as the
    // empty fusion configuration; the value must be exactly what one
    // whole-array GETT call per node computes.
    let syn = synthesize(&section2_source(5), &SynthesisConfig::default()).unwrap();
    let owned: Vec<(TensorId, Tensor)> = ["A", "B", "C", "D"]
        .iter()
        .enumerate()
        .map(|(q, nm)| {
            let id = syn.program.tensors.by_name(nm).unwrap();
            (id, Tensor::random(&[5; 4], 90 + q as u64))
        })
        .collect();
    let inputs: HashMap<TensorId, &Tensor> = owned.iter().map(|(id, t)| (*id, t)).collect();
    assert_tree_executor_is_the_postorder_chain(
        &syn.plans[0].tree,
        &syn.program.space,
        &inputs,
        &HashMap::new(),
    );

    // Two independent subtrees: Σ_k A[i,k]·g(k,j) — a function leaf whose
    // declared order is not the canonical one — and the copy term
    // Σ_l B[j,l]·1, joined over j.
    let mut space = IndexSpace::new();
    let n = space.add_range("N", 5);
    let vs = space.add_vars("i j k l", n);
    let (i, j, k, l) = (vs[0], vs[1], vs[2], vs[3]);
    let mut tensors = TensorTable::new();
    let ta = tensors.add(TensorDecl::dense("A", vec![n, n]));
    let tb = tensors.add(TensorDecl::dense("B", vec![n, n]));
    let mut tree = OpTree::new();
    let la = tree.leaf_input(ta, vec![i, k]);
    let lg = tree.leaf_func("g", vec![k, j], 10);
    let left = tree.contract(la, lg, IndexSet::from_vars([i, j]));
    let lb = tree.leaf_input(tb, vec![j, l]);
    let one = tree.leaf_one();
    let copy = tree.contract(lb, one, j.singleton());
    tree.contract(left, copy, i.singleton());
    let (va, vb) = (Tensor::random(&[5, 5], 7), Tensor::random(&[5, 5], 8));
    let inputs = HashMap::from([(ta, &va), (tb, &vb)]);
    let funcs = HashMap::from([("g".to_string(), IntegralFn::new(10, 0x6))]);
    assert_tree_executor_is_the_postorder_chain(&tree, &space, &inputs, &funcs);
}
