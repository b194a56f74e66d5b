//! exp_sched — the statement/tree walk on one scheduler slot (`seq`) vs.
//! one slot per worker (`graph`).
//!
//! Runs a multi-statement program of independent contraction chains (the
//! shape where inter-statement parallelism pays: each chain is too small
//! for intra-kernel threading to saturate the machine) under both
//! schedules at a sweep of thread counts, verifying bitwise identity and
//! reporting throughput.  Also measures the buffer pool's effect on
//! allocator traffic: a warm pass must allocate strictly less than the
//! cold pass (hits replace misses).  Writes `BENCH_sched.json`.
//!
//! ```text
//! exp_sched [--out BENCH_sched.json] [--chains K] [--extent N] [--repeats R]
//! ```

use std::collections::HashMap;
use std::fmt::Write as _;
use std::time::Instant;
use tce_bench::tables::Table;
use tce_core::tensor::bufpool::DEFAULT_BUFPOOL_CAP;
use tce_core::tensor::{bufpool_stats, set_bufpool_capacity, Tensor};
use tce_core::{synthesize, ExecOptions, Schedule, SynthesisConfig};

/// `chains` independent two-matmul chains whose results all feed one
/// cheap join statement.  The fan-in keeps every chain output live until
/// the join in the *sequential* accounting too, so the memmin-preserving
/// live-set cap admits the chains concurrently — the shape where
/// inter-statement parallelism pays (each matmul is too small for
/// intra-kernel threading to saturate the machine).
fn source(chains: usize, extent: usize) -> String {
    let mut src = format!("range N = {extent};\nindex i, j, k : N;\n");
    for c in 0..chains {
        let _ = writeln!(
            src,
            "tensor A{c}(N, N); tensor B{c}(N, N); tensor T{c}(N, N); tensor U{c}(N, N);"
        );
    }
    let _ = writeln!(src, "tensor E(N, N);");
    for c in 0..chains {
        let _ = writeln!(src, "T{c}[i,k] = sum[j] A{c}[i,j] * B{c}[j,k];");
        let _ = writeln!(src, "U{c}[i,k] = sum[j] T{c}[i,j] * A{c}[j,k];");
    }
    let join = (0..chains)
        .map(|c| format!("U{c}[i,k]"))
        .collect::<Vec<_>>()
        .join(" + ");
    let _ = writeln!(src, "E[i,k] = {join};");
    src
}

fn main() {
    let mut out_path = "BENCH_sched.json".to_string();
    let mut chains = 12usize;
    let mut extent = 96usize;
    let mut repeats = 3usize;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => out_path = args.next().expect("--out needs a path"),
            "--chains" => {
                chains = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--chains needs a positive integer");
            }
            "--extent" => {
                extent = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--extent needs a positive integer");
            }
            "--repeats" => {
                repeats = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--repeats needs a positive integer");
            }
            other => panic!("unknown argument `{other}`"),
        }
    }
    println!("exp_sched: task-graph vs sequential schedule ({chains} chains, N={extent})\n");

    let syn = synthesize(&source(chains, extent), &SynthesisConfig::default()).expect("synthesize");
    let tensors: Vec<(String, Tensor)> = (0..chains)
        .flat_map(|c| {
            [
                (
                    format!("A{c}"),
                    Tensor::random(&[extent, extent], 2 * c as u64 + 1),
                ),
                (
                    format!("B{c}"),
                    Tensor::random(&[extent, extent], 2 * c as u64 + 2),
                ),
            ]
        })
        .collect();
    let mut ext = HashMap::new();
    for (name, t) in &tensors {
        ext.insert(syn.program.tensors.by_name(name).unwrap(), t);
    }
    let funcs = HashMap::new();

    // ---- Allocator traffic: cold pass vs warm pass --------------------
    // The pool starts empty (cold): every intermediate is a miss.  The
    // second pass re-acquires the same size classes, so it must hit.
    set_bufpool_capacity(DEFAULT_BUFPOOL_CAP);
    let serial = ExecOptions::serial();
    let before = bufpool_stats();
    let baseline = syn.execute_opts(&ext, &funcs, &serial).expect("cold run");
    let mid = bufpool_stats();
    let warm_result = syn.execute_opts(&ext, &funcs, &serial).expect("warm run");
    let after = bufpool_stats();
    assert_eq!(baseline.len(), warm_result.len());
    let (cold_hits, cold_misses) = (mid.0 - before.0, mid.1 - before.1);
    let (warm_hits, warm_misses) = (after.0 - mid.0, after.1 - mid.1);
    println!(
        "allocations: cold {cold_misses} misses / {cold_hits} hits, \
         warm {warm_misses} misses / {warm_hits} hits"
    );
    assert!(
        warm_misses < cold_misses,
        "warm pass must allocate less than cold: {warm_misses} >= {cold_misses}"
    );

    // ---- Schedule sweep ----------------------------------------------
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut table = Table::new(&["threads", "seq (s)", "graph (s)", "graph/seq speedup"]);
    let mut sweep_json = Vec::new();
    let mut best_speedup = 0.0f64;
    let time_best = |opts: &ExecOptions| {
        let mut best = f64::INFINITY;
        let mut result = None;
        for _ in 0..repeats {
            let start = Instant::now();
            let r = syn.execute_opts(&ext, &funcs, opts).expect("execute");
            best = best.min(start.elapsed().as_secs_f64());
            result = Some(r);
        }
        (best, result.unwrap())
    };
    for threads in [1usize, 2, 4, 8] {
        let (seq_s, seq_r) = time_best(&ExecOptions::with_threads(threads));
        let (graph_s, graph_r) =
            time_best(&ExecOptions::with_threads(threads).with_schedule(Schedule::Graph));
        for (id, t) in &seq_r {
            assert_eq!(
                t, &graph_r[id],
                "graph schedule changed bits at {threads} threads"
            );
        }
        let speedup = seq_s / graph_s;
        best_speedup = best_speedup.max(speedup);
        table.row(&[
            threads.to_string(),
            format!("{seq_s:.4}"),
            format!("{graph_s:.4}"),
            format!("{speedup:.2}x"),
        ]);
        sweep_json.push(format!(
            "    {{ \"threads\": {threads}, \"seq_s\": {seq_s:.6}, \"graph_s\": {graph_s:.6}, \
             \"speedup\": {speedup:.3} }}"
        ));
    }
    println!("{}", table.render());
    println!("cpus: {cpus}, best graph/seq speedup: {best_speedup:.2}x");

    // The speedup is reported, never asserted: a wall-clock gate on a
    // shared 2-vCPU runner is noise (performance gates belong to
    // `exp_perf --compare`).

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"bench\": \"sched\",");
    let _ = writeln!(json, "  \"chains\": {chains},");
    let _ = writeln!(json, "  \"extent\": {extent},");
    let _ = writeln!(json, "  \"statements\": {},", syn.program.stmts.len());
    let _ = writeln!(json, "  \"cpus\": {cpus},");
    let _ = writeln!(json, "  \"best_speedup\": {best_speedup:.3},");
    let _ = writeln!(
        json,
        "  \"alloc\": {{ \"cold_misses\": {cold_misses}, \"cold_hits\": {cold_hits}, \
         \"warm_misses\": {warm_misses}, \"warm_hits\": {warm_hits} }},"
    );
    let _ = writeln!(json, "  \"sweep\": [");
    let _ = writeln!(json, "{}", sweep_json.join(",\n"));
    let _ = writeln!(json, "  ]");
    let _ = writeln!(json, "}}");
    if let Err(e) = std::fs::write(&out_path, &json) {
        eprintln!("cannot write {out_path}: {e}");
        std::process::exit(1);
    }
    println!("wrote {out_path}");
}
