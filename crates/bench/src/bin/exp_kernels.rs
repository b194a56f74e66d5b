//! `exp_kernels` — GETT contraction engine throughput sweep.
//!
//! Times the packed parallel GETT kernel over a grid of contraction
//! sizes × thread counts, against its own scalar micro-kernel variant on
//! one thread (the bit-exact baseline every SIMD variant is diffed
//! against), and writes the measurements to `BENCH_kernels.json` (machine-readable:
//! seconds, GFLOP/s, speedup vs 1 thread per run).  The headline case is
//! the CCSD-like `X[a,e,c,f] = Σ_ij T[i,j,a,e]·T[i,j,c,f]` contraction
//! at V=48, O=8; `dot_v40_o10` and `gemv_v40_o10` are the thin energy
//! and singles nodes of `cc_doubles.tce` at V=40, O=10, which run the
//! no-pack direct kernel.  Every timing is the best run of a case
//! repeated at least five times and for at least a quarter second, so a
//! 0.1 ms case is the best of thousands of runs.
//!
//! ```text
//! cargo run --release --bin exp_kernels [-- --max-threads T] [--out PATH]
//!                                       [--trace TRACE.json]
//! ```
//!
//! With `--trace`, one extra (untimed) traced pass of every case runs at
//! the top thread count after the sweep; the chrome://tracing event file
//! and a `ProfileReport` summary come from that pass, so tracing never
//! perturbs the timed numbers.
//!
//! The dispatched SIMD kernel variant (and its cache-derived MC/NC/KC
//! blocks) is recorded per case; `TCE_KERNEL` pins a variant for A/B
//! comparisons.  On a single-hardware-thread host the
//! multi-thread sweep is skipped — scaling numbers there would only
//! measure scheduler noise.

use std::fmt::Write as _;
use std::time::Instant;
use tce_core::ir::{IndexSpace, IndexVar};
use tce_core::tensor::{
    contract_gett, contract_gett_with_variant, contract_naive, kernels, BinaryContraction, Tensor,
};

/// Fewest timed runs of one case at one thread count.
const MIN_REPS: usize = 5;
/// Least total wall time of one case's timed runs at one thread count, in
/// seconds: a thin case repeats until one slow run among thousands can no
/// longer set its best.
const MIN_SECS: f64 = 0.25;

/// Best wall time of `f`, in seconds, over at least [`MIN_REPS`] runs
/// that together take at least [`MIN_SECS`].
fn time_best<R>(mut f: impl FnMut() -> R) -> f64 {
    let (mut best, mut total, mut reps) = (f64::INFINITY, 0.0, 0);
    while reps < MIN_REPS || total < MIN_SECS {
        let t = Instant::now();
        std::hint::black_box(f());
        let secs = t.elapsed().as_secs_f64();
        (best, total, reps) = (best.min(secs), total + secs, reps + 1);
    }
    best
}

struct Case {
    name: String,
    spec: BinaryContraction,
    space: IndexSpace,
    a: Tensor,
    b: Tensor,
    flops: u128,
}

/// CCSD-like four-index contraction `X[a,e,c,f] = Σ_ij T[ijae]·T[ijcf]`.
fn ccsd_case(v: usize, o: usize) -> Case {
    let mut sp = IndexSpace::new();
    let rv = sp.add_range("V", v);
    let ro = sp.add_range("O", o);
    let names_v = ["a", "e", "c", "f"];
    let vv: Vec<IndexVar> = names_v.iter().map(|n| sp.add_var(n, rv)).collect();
    let i = sp.add_var("i", ro);
    let j = sp.add_var("j", ro);
    let (a_v, e_v, c_v, f_v) = (vv[0], vv[1], vv[2], vv[3]);
    let spec = BinaryContraction {
        a: vec![i, j, a_v, e_v],
        b: vec![i, j, c_v, f_v],
        out: vec![a_v, e_v, c_v, f_v],
    };
    let flops = spec.flops(&sp);
    let a = Tensor::random(&[o, o, v, v], 1);
    let b = Tensor::random(&[o, o, v, v], 2);
    Case {
        name: format!("ccsd_v{v}_o{o}"),
        spec,
        space: sp,
        a,
        b,
        flops,
    }
}

/// Square matmul `C[i,j] = Σ_k A[i,k]·B[k,j]`.
fn matmul_case(n: usize) -> Case {
    let mut sp = IndexSpace::new();
    let r = sp.add_range("N", n);
    let i = sp.add_var("i", r);
    let j = sp.add_var("j", r);
    let k = sp.add_var("k", r);
    let spec = BinaryContraction {
        a: vec![i, k],
        b: vec![k, j],
        out: vec![i, j],
    };
    let flops = spec.flops(&sp);
    Case {
        name: format!("matmul_{n}"),
        spec,
        space: sp,
        a: Tensor::random(&[n, n], 3),
        b: Tensor::random(&[n, n], 4),
        flops,
    }
}

/// The CC energy node `E = Σ_abij R2[a,b,i,j]·T2[a,b,i,j]`: a dot product
/// of two V²O² tensors (M = N = 1, K = V²O²).
fn dot_case(v: usize, o: usize) -> Case {
    let mut sp = IndexSpace::new();
    let rv = sp.add_range("V", v);
    let ro = sp.add_range("O", o);
    let a = sp.add_var("a", rv);
    let b = sp.add_var("b", rv);
    let i = sp.add_var("i", ro);
    let j = sp.add_var("j", ro);
    let spec = BinaryContraction {
        a: vec![a, b, i, j],
        b: vec![a, b, i, j],
        out: vec![],
    };
    let flops = spec.flops(&sp);
    Case {
        name: format!("dot_v{v}_o{o}"),
        spec,
        space: sp,
        a: Tensor::random(&[v, v, o, o], 5),
        b: Tensor::random(&[v, v, o, o], 6),
        flops,
    }
}

/// The CC singles node `R1[a,i] = Σ_bj W[a,b,i,j]·T1[b,j]`: a GEMV (N = 1)
/// whose M group `(a, i)` and K group `(b, j)` are both strided in `W`.
fn gemv_case(v: usize, o: usize) -> Case {
    let mut sp = IndexSpace::new();
    let rv = sp.add_range("V", v);
    let ro = sp.add_range("O", o);
    let a = sp.add_var("a", rv);
    let b = sp.add_var("b", rv);
    let i = sp.add_var("i", ro);
    let j = sp.add_var("j", ro);
    let spec = BinaryContraction {
        a: vec![a, b, i, j],
        b: vec![b, j],
        out: vec![a, i],
    };
    let flops = spec.flops(&sp);
    Case {
        name: format!("gemv_v{v}_o{o}"),
        spec,
        space: sp,
        a: Tensor::random(&[v, v, o, o], 7),
        b: Tensor::random(&[v, o], 8),
        flops,
    }
}

/// Print a one-line `exp_kernels: …` diagnostic and exit with status 2.
fn usage_error(msg: impl std::fmt::Display) -> ! {
    eprintln!("exp_kernels: {msg}");
    std::process::exit(2);
}

fn main() {
    let mut max_threads = tce_core::par::default_threads().max(8);
    let mut out_path = "BENCH_kernels.json".to_string();
    let mut trace_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--max-threads" => {
                max_threads = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&t: &usize| t > 0)
                    .unwrap_or_else(|| usage_error("--max-threads needs a positive integer"));
            }
            "--out" => {
                out_path = args
                    .next()
                    .unwrap_or_else(|| usage_error("--out needs a path"))
            }
            "--trace" => {
                trace_path = Some(
                    args.next()
                        .unwrap_or_else(|| usage_error("--trace needs a path")),
                )
            }
            other => usage_error(format!(
                "unknown argument `{other}` (usage: exp_kernels [--max-threads T] \
                 [--out PATH] [--trace TRACE.json])"
            )),
        }
    }
    // Validate TCE_KERNEL up front: a clean one-line diagnostic instead
    // of a panic inside the first contraction.
    if let Err(e) = kernels::env_requested() {
        usage_error(e);
    }
    let hw_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    // On a single-hardware-thread host the scaling sweep only measures
    // scheduler noise; run the 1-thread point and say why.
    let sweep_skipped = hw_threads == 1;
    let mut threads_sweep = vec![1usize];
    if !sweep_skipped {
        let mut t = 2;
        while t <= max_threads {
            threads_sweep.push(t);
            t *= 2;
        }
    }

    // Every case family agrees with the naive oracle at a size where the
    // oracle is affordable, before anything is timed.
    for small in [
        ccsd_case(7, 3),
        matmul_case(33),
        dot_case(7, 3),
        gemv_case(7, 3),
    ] {
        let naive = contract_naive(&small.spec, &small.space, &small.a, &small.b);
        let fast = contract_gett(&small.spec, &small.space, &small.a, &small.b, max_threads);
        assert!(
            fast.approx_eq(&naive, 1e-10),
            "{}: gett diverged from contract_naive by {:e}",
            small.name,
            fast.max_abs_diff(&naive)
        );
    }

    let cases = [
        ccsd_case(48, 8),
        ccsd_case(32, 6),
        matmul_case(256),
        matmul_case(384),
        dot_case(40, 10),
        gemv_case(40, 10),
    ];

    let variant = kernels::active();
    println!(
        "exp_kernels: GETT throughput sweep (host parallelism {hw_threads}, \
         kernel {variant}, sweep {threads_sweep:?}{})\n",
        if sweep_skipped {
            " — thread sweep skipped: single hardware thread"
        } else {
            ""
        }
    );

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"bench\": \"kernels\",");
    let _ = writeln!(json, "  \"host_parallelism\": {hw_threads},");
    let _ = writeln!(json, "  \"kernel_variant\": \"{variant}\",");
    if sweep_skipped {
        let _ = writeln!(
            json,
            "  \"thread_sweep\": \"skipped (single hardware thread)\","
        );
    }
    let _ = writeln!(json, "  \"cases\": [");
    for (ci, case) in cases.iter().enumerate() {
        let scalar_secs = time_best(|| {
            contract_gett_with_variant(
                &case.spec,
                &case.space,
                &case.a,
                &case.b,
                1,
                kernels::KernelVariant::Scalar,
            )
        });
        let gflops = |secs: f64| case.flops as f64 / secs / 1e9;
        println!(
            "{:<14} {:>14} flops   scalar gett: {:>8.4}s ({:6.2} GF/s)",
            case.name,
            case.flops,
            scalar_secs,
            gflops(scalar_secs)
        );
        let mut runs = Vec::new();
        let mut t1_secs = f64::NAN;
        for &threads in &threads_sweep {
            let secs =
                time_best(|| contract_gett(&case.spec, &case.space, &case.a, &case.b, threads));
            if threads == 1 {
                t1_secs = secs;
            }
            let speedup = t1_secs / secs;
            println!(
                "    gett x{threads:<3}  {secs:>8.4}s  {:>7.2} GF/s  speedup {speedup:>5.2}",
                gflops(secs)
            );
            runs.push((threads, secs, gflops(secs), speedup));
        }
        // These specs have no exclusive summation indices, so the plan
        // for `case.spec` is exactly what `contract_gett` executed.
        let cfg = *tce_core::tensor::plan_for(&case.spec, &case.space).kernel_config();
        let _ = writeln!(json, "    {{");
        let _ = writeln!(json, "      \"name\": \"{}\",", case.name);
        let _ = writeln!(json, "      \"flops\": {},", case.flops);
        let _ = writeln!(json, "      \"kernel_variant\": \"{}\",", cfg.variant);
        let _ = writeln!(
            json,
            "      \"blocks\": {{\"mc\": {}, \"nc\": {}, \"kc\": {}}},",
            cfg.blocks.mc, cfg.blocks.nc, cfg.blocks.kc
        );
        let _ = writeln!(json, "      \"scalar_gett_secs\": {scalar_secs:.6},");
        let _ = writeln!(
            json,
            "      \"scalar_gett_gflops\": {:.4},",
            gflops(scalar_secs)
        );
        let _ = writeln!(json, "      \"runs\": [");
        for (ri, (threads, secs, gf, speedup)) in runs.iter().enumerate() {
            let _ = writeln!(
                json,
                "        {{\"threads\": {threads}, \"secs\": {secs:.6}, \
                 \"gflops\": {gf:.4}, \"speedup\": {speedup:.4}}}{}",
                if ri + 1 < runs.len() { "," } else { "" }
            );
        }
        let _ = writeln!(json, "      ]");
        let _ = writeln!(
            json,
            "    }}{}",
            if ci + 1 < cases.len() { "," } else { "" }
        );
    }
    let _ = writeln!(json, "  ]");
    let _ = writeln!(json, "}}");

    if let Err(e) = std::fs::write(&out_path, &json) {
        eprintln!("cannot write {out_path}: {e}");
        std::process::exit(1);
    }
    println!("\nwrote {out_path}");

    if let Some(trace_path) = trace_path {
        let threads = *threads_sweep.last().unwrap();
        println!("\ntraced pass (x{threads}, untimed) ...");
        tce_trace::reset();
        tce_trace::set_enabled(true);
        for case in &cases {
            let _s = tce_trace::span("stage.exec");
            std::hint::black_box(contract_gett(
                &case.spec,
                &case.space,
                &case.a,
                &case.b,
                threads,
            ));
        }
        tce_trace::set_enabled(false);
        let trace = tce_trace::take();
        if let Err(e) = std::fs::write(&trace_path, trace.to_chrome_json()) {
            eprintln!("cannot write trace {trace_path}: {e}");
            std::process::exit(1);
        }
        println!("{}", trace.report());
        println!("wrote {trace_path}");
    }
}
