//! Micro-benchmark: the execution substrate — naive vs packed-GETT
//! contraction kernels (scalar and dispatched micro-kernel variants), blocked vs naive permutes, and the
//! loop-program interpreter vs the array-at-a-time tree executor.

use std::collections::HashMap;
use tce_bench::harness::{black_box, BenchmarkId, Criterion};
use tce_bench::{criterion_group, criterion_main};
use tce_core::exec::{Interpreter, NoSink};
use tce_core::ir::{IndexSpace, IndexVar};
use tce_core::scenarios::section2_source;
use tce_core::tensor::kernels::KernelVariant;
use tce_core::tensor::{
    contract_gett, contract_gett_with_variant, contract_naive, BinaryContraction, Tensor,
};
use tce_core::{synthesize, SynthesisConfig};

fn setup(n: usize) -> (IndexSpace, [IndexVar; 3]) {
    let mut sp = IndexSpace::new();
    let r = sp.add_range("N", n);
    let i = sp.add_var("i", r);
    let j = sp.add_var("j", r);
    let k = sp.add_var("k", r);
    (sp, [i, j, k])
}

fn bench(c: &mut Criterion) {
    let n = 96usize;
    let (sp, [i, j, k]) = setup(n);
    let spec = BinaryContraction {
        a: vec![i, k],
        b: vec![k, j],
        out: vec![i, j],
    };
    let a = Tensor::random(&[n, n], 1);
    let b = Tensor::random(&[n, n], 2);

    assert!(
        contract_gett(&spec, &sp, &a, &b, 2).approx_eq(&contract_naive(&spec, &sp, &a, &b), 1e-10),
        "gett diverged from contract_naive"
    );

    let mut g = c.benchmark_group("contract_kernels_96");
    g.sample_size(20);
    g.bench_function("naive", |bch| {
        bch.iter(|| contract_naive(black_box(&spec), &sp, &a, &b))
    });
    for threads in [1usize, 2, 4] {
        g.bench_with_input(BenchmarkId::new("gett", threads), &threads, |bch, &t| {
            bch.iter(|| contract_gett(black_box(&spec), &sp, &a, &b, t))
        });
    }
    g.finish();

    // Dispatched SIMD micro-kernel vs the scalar variant of the same packed
    // engine, at a size where register blocking and panel packing pay off.
    let n2 = 192usize;
    let (sp2, [i2, j2, k2]) = setup(n2);
    let spec2 = BinaryContraction {
        a: vec![i2, k2],
        b: vec![k2, j2],
        out: vec![i2, j2],
    };
    let a2 = Tensor::random(&[n2, n2], 3);
    let b2 = Tensor::random(&[n2, n2], 4);
    let mut gp = c.benchmark_group("gemm_packed_vs_scalar_192");
    gp.sample_size(10);
    gp.bench_function("gett_scalar", |bch| {
        bch.iter(|| {
            contract_gett_with_variant(black_box(&spec2), &sp2, &a2, &b2, 1, KernelVariant::Scalar)
        })
    });
    for threads in [1usize, 2, 4] {
        gp.bench_with_input(
            BenchmarkId::new("gett_packed", threads),
            &threads,
            |bch, &t| bch.iter(|| contract_gett(black_box(&spec2), &sp2, &a2, &b2, t)),
        );
    }
    gp.finish();

    // Blocked (cache-oblivious) permute vs a naive odometer walk.
    let pt = Tensor::random(&[96, 96, 96], 5);
    let perm = [2usize, 0, 1];
    let naive_permute = |t: &Tensor| -> Tensor {
        let new_shape: Vec<usize> = perm.iter().map(|&p| t.shape()[p]).collect();
        Tensor::from_fn(&new_shape, |idx| {
            let mut src = [0usize; 3];
            for (d, &p) in perm.iter().enumerate() {
                src[p] = idx[d];
            }
            t.get(&src)
        })
    };
    let mut gt = c.benchmark_group("permute_96x96x96");
    gt.sample_size(10);
    gt.bench_function("naive_odometer", |bch| {
        bch.iter(|| naive_permute(black_box(&pt)))
    });
    for threads in [1usize, 2, 4] {
        gt.bench_with_input(BenchmarkId::new("blocked", threads), &threads, |bch, &t| {
            bch.iter(|| black_box(&pt).permute_with_threads(&perm, t))
        });
    }
    gt.finish();

    // Interpreter vs tree executor on the synthesized §2 program.
    let syn = synthesize(&section2_source(6), &SynthesisConfig::default()).unwrap();
    let plan = &syn.plans[0];
    let space = &syn.program.space;
    let shape = [6usize; 4];
    let data: Vec<Tensor> = (0..4).map(|s| Tensor::random(&shape, s as u64)).collect();
    let mut inputs = HashMap::new();
    for (q, nm) in ["A", "B", "C", "D"].iter().enumerate() {
        inputs.insert(syn.program.tensors.by_name(nm).unwrap(), &data[q]);
    }
    let mut g2 = c.benchmark_group("section2_execution");
    g2.sample_size(20);
    g2.bench_function("interpreter_fused", |bch| {
        bch.iter(|| {
            let mut it =
                Interpreter::new(&plan.built.program, space, &inputs, &HashMap::new()).unwrap();
            it.run(&mut NoSink);
            black_box(it.stats.contraction_flops)
        })
    });
    g2.bench_function("tree_executor_gemm", |bch| {
        bch.iter(|| {
            black_box(tce_core::exec::execute_tree(
                &plan.tree,
                space,
                &inputs,
                &HashMap::new(),
                1,
            ))
        })
    });
    g2.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
