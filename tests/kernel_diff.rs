//! Differential and property tests for the SIMD kernel layer.
//!
//! The scalar kernel is the oracle: every SIMD variant the host supports
//! must agree with it to 1e-10 on the GETT engine (FMA changes rounding,
//! so bitwise equality across variants is *not* expected), must be
//! bitwise deterministic across thread counts *within* a variant, and the
//! unit-stride and gather pack paths (pure copies) must agree bitwise.
//! The permute, one strided copy with no variant, matches element lookup.
//! A pinned golden-bits test locks `TCE_KERNEL=scalar` to the exact
//! results the engine produced before runtime dispatch existed.

use std::collections::HashMap;
use std::sync::Mutex;
use tce_core::dist::Machine;
use tce_core::ir::rng::{seed_from_env, split_seed, SeedGuard};
use tce_core::ir::{IndexSpace, IndexVar, TensorId};
use tce_core::par::ProcessorGrid;
use tce_core::tensor::{
    contract_gett_with_variant, contract_naive, kernels, BinaryContraction, KernelVariant, Tensor,
};
use tce_core::{synthesize, ExecOptions, SynthesisConfig};

/// Serializes tests that flip the process-wide kernel override (the
/// pipeline executors read [`kernels::active`]).
static OVERRIDE_LOCK: Mutex<()> = Mutex::new(());

fn spec_path(name: &str) -> String {
    format!("{}/../../examples/specs/{name}", env!("CARGO_MANIFEST_DIR"))
}

/// Data seed for the property-style tests: the literal default normally,
/// or a value derived from `TCE_TEST_SEED` when it is set.  The pinned
/// golden-bits test below deliberately bypasses this — its literals ARE
/// the contract.
fn dseed(base: u64) -> u64 {
    if std::env::var_os("TCE_TEST_SEED").is_some() {
        split_seed(seed_from_env(base) ^ base)
    } else {
        base
    }
}

fn matmul(m: usize, n: usize, k: usize) -> (BinaryContraction, IndexSpace, Tensor, Tensor) {
    let mut sp = IndexSpace::new();
    let rm = sp.add_range("M", m);
    let rn = sp.add_range("N", n);
    let rk = sp.add_range("K", k);
    let i = sp.add_var("i", rm);
    let j = sp.add_var("j", rn);
    let kk = sp.add_var("k", rk);
    let spec = BinaryContraction {
        a: vec![i, kk],
        b: vec![kk, j],
        out: vec![i, j],
    };
    let a = Tensor::random(&[m, k], dseed((m * 31 + k) as u64));
    let b = Tensor::random(&[k, n], dseed((k * 17 + n) as u64));
    (spec, sp, a, b)
}

/// Shapes chosen to exercise every remainder case of the register tiles
/// (MR ∈ {4, 8}, NR ∈ {4, 6}): exact multiples, one-off edges, degenerate
/// extent-1 dims, and sizes straddling the MC/NC/KC macro blocks.
const GEMM_SHAPES: [(usize, usize, usize); 8] = [
    (1, 1, 1),
    (5, 1, 9),
    (1, 7, 1),
    (8, 6, 8),
    (9, 7, 13),
    (16, 12, 40),
    (31, 29, 37),
    (8, 4, 192),
];

/// The shapes that straddle the MC/NC/KC macro blocks — the slowest part
/// of the sweep, only worthwhile with optimized kernels, so release-only.
#[cfg(not(debug_assertions))]
const GEMM_SHAPES_LARGE: [(usize, usize, usize); 4] =
    [(64, 64, 192), (65, 67, 193), (127, 5, 200), (100, 90, 110)];
#[cfg(debug_assertions)]
const GEMM_SHAPES_LARGE: [(usize, usize, usize); 0] = [];

#[test]
fn gemm_simd_matches_scalar_on_remainder_shapes() {
    let _guard = SeedGuard::new(
        "gemm_simd_matches_scalar_on_remainder_shapes",
        seed_from_env(0),
    );
    for &(m, n, k) in GEMM_SHAPES.iter().chain(&GEMM_SHAPES_LARGE) {
        let (spec, sp, a, b) = matmul(m, n, k);
        let oracle = contract_gett_with_variant(&spec, &sp, &a, &b, 1, KernelVariant::Scalar);
        for variant in kernels::supported_variants() {
            let got = contract_gett_with_variant(&spec, &sp, &a, &b, 1, variant);
            assert!(
                oracle.approx_eq(&got, 1e-10),
                "{variant} ({m},{n},{k}): diff {:e}",
                oracle.max_abs_diff(&got)
            );
        }
    }
}

#[test]
fn gemm_bitwise_deterministic_across_threads_within_variant() {
    let _guard = SeedGuard::new(
        "gemm_bitwise_deterministic_across_threads_within_variant",
        seed_from_env(0),
    );
    // The macro-block-straddling shapes are release-only (debug builds
    // run unoptimized kernels, where they dominate the suite's runtime).
    let shapes: &[(usize, usize, usize)] = if cfg!(debug_assertions) {
        &[(9, 7, 13), (33, 21, 48)]
    } else {
        &[(65, 67, 193), (9, 7, 13), (127, 5, 200)]
    };
    for &(m, n, k) in shapes {
        let (spec, sp, a, b) = matmul(m, n, k);
        for variant in kernels::supported_variants() {
            let t1 = contract_gett_with_variant(&spec, &sp, &a, &b, 1, variant);
            for threads in [2, 3, 5] {
                let tn = contract_gett_with_variant(&spec, &sp, &a, &b, threads, variant);
                assert_eq!(t1, tn, "{variant} ({m},{n},{k}) threads={threads}");
            }
        }
    }
}

#[test]
fn high_rank_contraction_with_degenerate_extents() {
    // Batched four-index contraction where two extents are 1: all pack
    // paths must handle single-element groups.
    for extents in [[1usize, 5, 4, 9, 1, 7], [2, 1, 1, 8, 6, 1]] {
        let mut sp = IndexSpace::new();
        let names = ["b", "c", "d", "e", "f", "l"];
        let vars: Vec<IndexVar> = names
            .iter()
            .zip(extents)
            .map(|(n, e)| {
                let r = sp.add_range(&format!("R{n}"), e);
                sp.add_var(n, r)
            })
            .collect();
        let (b, c, d, e, f, l) = (vars[0], vars[1], vars[2], vars[3], vars[4], vars[5]);
        let spec = BinaryContraction {
            a: vec![b, e, f, l],
            b: vec![c, d, e, l],
            out: vec![b, c, d, f],
        };
        let ta = Tensor::random(&[extents[0], extents[3], extents[4], extents[5]], dseed(51));
        let tb = Tensor::random(&[extents[1], extents[2], extents[3], extents[5]], dseed(52));
        let oracle = contract_naive(&spec, &sp, &ta, &tb);
        for variant in kernels::supported_variants() {
            let got = contract_gett_with_variant(&spec, &sp, &ta, &tb, 2, variant);
            assert!(
                oracle.approx_eq(&got, 1e-10),
                "{variant} {extents:?}: diff {:e}",
                oracle.max_abs_diff(&got)
            );
        }
    }
}

#[test]
fn unit_stride_and_gather_pack_paths_agree_bitwise() {
    // The same logical contraction through both pack paths: a[k,i] makes
    // the M group unit-stride (vector-copy pack), a[i,k] makes it
    // strided (gather pack).  The packed panels contain identical values
    // either way, so each variant must produce bitwise-identical output.
    let (m, n, k) = (61, 35, 77);
    let mut sp = IndexSpace::new();
    let rm = sp.add_range("M", m);
    let rn = sp.add_range("N", n);
    let rk = sp.add_range("K", k);
    let i = sp.add_var("i", rm);
    let j = sp.add_var("j", rn);
    let kk = sp.add_var("k", rk);
    let a_ik = Tensor::random(&[m, k], dseed(71));
    let a_ki = a_ik.permute(&[1, 0]);
    let b = Tensor::random(&[k, n], dseed(72));
    let gather_spec = BinaryContraction {
        a: vec![i, kk],
        b: vec![kk, j],
        out: vec![i, j],
    };
    let unit_spec = BinaryContraction {
        a: vec![kk, i],
        b: vec![kk, j],
        out: vec![i, j],
    };
    for variant in kernels::supported_variants() {
        let via_gather = contract_gett_with_variant(&gather_spec, &sp, &a_ik, &b, 2, variant);
        let via_unit = contract_gett_with_variant(&unit_spec, &sp, &a_ki, &b, 2, variant);
        assert_eq!(via_gather, via_unit, "{variant}");
    }
}

/// Check every element of `t.permute(perm)` against element lookup:
/// `out[idx]` reads the source at coordinates `c` with `c[perm[d]] = idx[d]`.
fn assert_permute_matches_lookup(t: &Tensor, perm: &[usize]) {
    let got = t.permute(perm);
    let want: Vec<usize> = perm.iter().map(|&p| t.shape()[p]).collect();
    assert_eq!(got.shape(), &want[..], "perm {perm:?}");
    let mut idx = vec![0usize; perm.len()];
    let mut src = vec![0usize; perm.len()];
    for _ in 0..got.len() {
        for (d, &p) in perm.iter().enumerate() {
            src[p] = idx[d];
        }
        assert_eq!(got.get(&idx), t.get(&src), "perm {perm:?} at {idx:?}");
        Tensor::advance(&mut idx, got.shape());
    }
}

/// The permute is one strided copy with no kernel-variant or thread
/// dimension; transpose-heavy, aligned-innermost, full-reversal and
/// identity permutations all match element lookup.
#[test]
fn permute_bitwise_identical_across_variants_and_threads() {
    let t = Tensor::random(&[7, 5, 9, 4, 3], dseed(81));
    for perm in [
        vec![4, 3, 2, 1, 0],
        vec![1, 0, 2, 3, 4],
        vec![2, 0, 1, 4, 3],
        vec![0, 1, 2, 3, 4],
        vec![4, 0, 1, 2, 3],
    ] {
        assert_permute_matches_lookup(&t, &perm);
    }
}

/// A large permute matches element lookup and round-trips bitwise
/// through its inverse.
#[test]
fn large_permute_parallel_matches_scalar() {
    let t = Tensor::random(&[48, 37, 53], dseed(82));
    for perm in [vec![2, 1, 0], vec![1, 2, 0], vec![2, 0, 1]] {
        assert_permute_matches_lookup(&t, &perm);
        let mut inverse = vec![0usize; perm.len()];
        for (d, &p) in perm.iter().enumerate() {
            inverse[p] = d;
        }
        assert_eq!(t.permute(&perm).permute(&inverse), t, "perm {perm:?}");
    }
}

/// Run a synthesized program end-to-end under one kernel variant.
fn run_pipeline(
    src: &str,
    cfg: &SynthesisConfig,
    variant: KernelVariant,
    mode: &str,
) -> HashMap<TensorId, Tensor> {
    kernels::set_override(Some(variant)).unwrap();
    let syn = synthesize(src, cfg).unwrap();
    let mut written: Vec<bool> = vec![false; syn.program.tensors.len()];
    let mut owned: Vec<(TensorId, Tensor)> = Vec::new();
    for stmt in &syn.program.stmts {
        for term in &stmt.terms {
            for f in &term.factors {
                if let tce_core::ir::Factor::Tensor(r) = f {
                    if !written[r.tensor.0 as usize] && !owned.iter().any(|(id, _)| *id == r.tensor)
                    {
                        let decl = syn.program.tensors.get(r.tensor);
                        let shape: Vec<usize> = decl
                            .dims
                            .iter()
                            .map(|&rg| syn.program.space.range_extent(rg))
                            .collect();
                        owned.push((
                            r.tensor,
                            Tensor::random(&shape, dseed(7 ^ r.tensor.0 as u64)),
                        ));
                    }
                }
            }
        }
        written[stmt.lhs.tensor.0 as usize] = true;
    }
    let inputs: HashMap<_, _> = owned.iter().map(|(id, t)| (*id, t)).collect();
    let funcs = HashMap::new();
    let opts = ExecOptions::with_threads(2);
    let out = match mode {
        "tree" => syn.execute_opts(&inputs, &funcs, &opts).unwrap(),
        "fused" => {
            syn.execute_fused_opts(&inputs, &funcs, &opts)
                .unwrap()
                .outputs
        }
        "dist" => {
            syn.execute_distributed_opts(&inputs, &funcs, &opts)
                .unwrap()
                .outputs
        }
        other => panic!("unknown mode {other}"),
    };
    kernels::set_override(None).unwrap();
    out
}

fn assert_outputs_close(
    scalar: &HashMap<TensorId, Tensor>,
    simd: &HashMap<TensorId, Tensor>,
    label: &str,
) {
    assert_eq!(scalar.len(), simd.len(), "{label}: output sets differ");
    for (id, t) in scalar {
        let u = &simd[id];
        assert!(
            t.approx_eq(u, 1e-10),
            "{label}: tensor {id:?} diverges by {:e}",
            t.max_abs_diff(u)
        );
    }
}

#[test]
fn treeexec_and_fused_simd_match_scalar() {
    let _guard = OVERRIDE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let src = std::fs::read_to_string(spec_path("ccsd_section2.tce")).unwrap();
    let cfg = SynthesisConfig::default();
    let best = kernels::detect_best();
    for mode in ["tree", "fused"] {
        let scalar = run_pipeline(&src, &cfg, KernelVariant::Scalar, mode);
        if best == KernelVariant::Scalar {
            continue;
        }
        let simd = run_pipeline(&src, &cfg, best, mode);
        assert_outputs_close(&scalar, &simd, mode);
    }
}

#[test]
fn distributed_simd_matches_scalar() {
    let _guard = OVERRIDE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let src = std::fs::read_to_string(spec_path("ccsd_section2.tce")).unwrap();
    let cfg = SynthesisConfig {
        machine: Some(Machine {
            grid: ProcessorGrid::new(vec![2, 2]),
            word_cost: 100,
        }),
        ..SynthesisConfig::default()
    };
    let scalar = run_pipeline(&src, &cfg, KernelVariant::Scalar, "dist");
    let best = kernels::detect_best();
    if best != KernelVariant::Scalar {
        let simd = run_pipeline(&src, &cfg, best, "dist");
        assert_outputs_close(&scalar, &simd, "dist");
    }
}

/// `(Σ elements, first element, last element)` as raw f64 bit patterns.
fn sig(t: &Tensor) -> (u64, u64, u64) {
    let d = t.data();
    (
        d.iter().copied().sum::<f64>().to_bits(),
        d[0].to_bits(),
        d[d.len() - 1].to_bits(),
    )
}

/// Pinned bit patterns captured from the engine as it shipped before
/// runtime dispatch existed: the scalar variant must reproduce them
/// forever (`TCE_KERNEL=scalar` is the compatibility escape hatch).
#[test]
fn golden_bits_scalar_reproduces_pre_dispatch_engine() {
    // C[i,j] = Σ_k A[i,k]·B[k,j] at (100, 90, 110).
    let (spec, sp, a, b) = {
        let mut sp = IndexSpace::new();
        let rm = sp.add_range("M", 100);
        let rn = sp.add_range("N", 90);
        let rk = sp.add_range("K", 110);
        let i = sp.add_var("i", rm);
        let j = sp.add_var("j", rn);
        let k = sp.add_var("k", rk);
        let spec = BinaryContraction {
            a: vec![i, k],
            b: vec![k, j],
            out: vec![i, j],
        };
        let a = Tensor::random(&[100, 110], 11);
        let b = Tensor::random(&[110, 90], 12);
        (spec, sp, a, b)
    };
    let out = contract_gett_with_variant(&spec, &sp, &a, &b, 1, KernelVariant::Scalar);
    assert_eq!(
        sig(&out),
        (0xc0759222311a46fc, 0x3fd15d768e65096f, 0xc009bf2ef7ba45c0),
        "matmul golden bits moved"
    );

    // X[a,e,c,f] = Σ_ij T[i,j,a,e]·U[i,j,c,f] at V=13, O=9.
    let (spec, sp, t, u) = {
        let mut sp = IndexSpace::new();
        let rv = sp.add_range("V", 13);
        let ro = sp.add_range("O", 9);
        let av = sp.add_var("a", rv);
        let ev = sp.add_var("e", rv);
        let cv = sp.add_var("c", rv);
        let fv = sp.add_var("f", rv);
        let i = sp.add_var("i", ro);
        let j = sp.add_var("j", ro);
        let spec = BinaryContraction {
            a: vec![i, j, av, ev],
            b: vec![i, j, cv, fv],
            out: vec![av, ev, cv, fv],
        };
        let t = Tensor::random(&[9, 9, 13, 13], 21);
        let u = Tensor::random(&[9, 9, 13, 13], 22);
        (spec, sp, t, u)
    };
    let out = contract_gett_with_variant(&spec, &sp, &t, &u, 1, KernelVariant::Scalar);
    assert_eq!(
        sig(&out),
        (0xc075403bcdc7eb68, 0x3fe1ceef04ff471a, 0x400080103c9934dd),
        "ccsd golden bits moved"
    );

    // out[p,j,i] = Σ_k a[i,p,k]·b[k,j,p] — batched, transposed output.
    let (spec, sp, a, b) = {
        let mut sp = IndexSpace::new();
        let rp = sp.add_range("P", 3);
        let ri = sp.add_range("I", 17);
        let rj = sp.add_range("J", 19);
        let rk = sp.add_range("K", 23);
        let p = sp.add_var("p", rp);
        let i = sp.add_var("i", ri);
        let j = sp.add_var("j", rj);
        let k = sp.add_var("k", rk);
        let spec = BinaryContraction {
            a: vec![i, p, k],
            b: vec![k, j, p],
            out: vec![p, j, i],
        };
        let a = Tensor::random(&[17, 3, 23], 31);
        let b = Tensor::random(&[23, 19, 3], 32);
        (spec, sp, a, b)
    };
    let out = contract_gett_with_variant(&spec, &sp, &a, &b, 1, KernelVariant::Scalar);
    assert_eq!(
        sig(&out),
        (0xc04b7e1aa300e251, 0xbff5eb276b32dce7, 0xbfa83dd65077a067),
        "batch golden bits moved"
    );
}

/// A traced multi-threaded run must surface the kernel-layer counters:
/// variant dispatch, block sizes, pack/kernel time, and pool accounting.
#[test]
fn traced_run_reports_kernel_and_pool_counters() {
    let _guard = OVERRIDE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // Batched so the tile grid has several tasks: a single-task run
    // would collapse to one thread and never engage the worker pool.
    let mut sp = IndexSpace::new();
    let rp = sp.add_range("P", 4);
    let rm = sp.add_range("M", 48);
    let rn = sp.add_range("N", 40);
    let rk = sp.add_range("K", 64);
    let p = sp.add_var("p", rp);
    let i = sp.add_var("i", rm);
    let j = sp.add_var("j", rn);
    let k = sp.add_var("k", rk);
    let spec = BinaryContraction {
        a: vec![p, i, k],
        b: vec![p, k, j],
        out: vec![p, i, j],
    };
    let a = Tensor::random(&[4, 48, 64], dseed(91));
    let b = Tensor::random(&[4, 64, 40], dseed(92));
    let variant = kernels::active();
    tce_trace::reset();
    tce_trace::set_enabled(true);
    {
        let _s = tce_trace::span("stage.exec");
        std::hint::black_box(contract_gett_with_variant(&spec, &sp, &a, &b, 2, variant));
    }
    tce_trace::set_enabled(false);
    let trace = tce_trace::take();
    let report = trace.report();
    let active_name = variant.name();
    assert_eq!(
        trace.counter_total(&format!("gett.kernel_variant.{active_name}")),
        1,
        "dispatched variant not recorded"
    );
    assert!(trace.counter_max("gett.mc") > 0 && trace.counter_max("gett.kc") > 0);
    assert!(trace.counter_total("gett.kernel_ns") > 0);
    assert!(
        trace.counter_total("pool.busy_ns") + trace.counter_total("pool.idle_ns") > 0,
        "pool accounting missing from traced threads=2 run"
    );
    assert!(
        report.kernel_variants.iter().any(|(n, _)| n == active_name),
        "report missing kernel variant: {report}"
    );
    assert!(report.to_string().contains("gett kernel:"));
}
