//! exp_serve — load generation against the compile-and-execute service.
//!
//! Starts an in-process `tce-serve` server backed by the real pipeline
//! handler, measures (a) cold vs. warm-cache throughput on repeat
//! expressions — a warm repeat is answered from the deterministic
//! response memo without re-synthesizing or re-executing; the ratio is
//! reported, not asserted — and (b) a worker-count sweep under 8 concurrent
//! clients reporting throughput and p50/p99 request latency.  Clients
//! hold persistent connections, as a real caller batching requests
//! would.  Writes the measurements to `BENCH_serve.json`.
//!
//! ```text
//! exp_serve [--out BENCH_serve.json] [--clients C] [--repeats R]
//! ```

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tce_bench::tables::Table;
use tce_core::serve::PipelineHandler;
use tce_serve::client;
use tce_serve::protocol::format_run;
use tce_serve::{ServeConfig, Server, ServerHandle};

/// Distinct expressions: every one is a separate synthesis-cache entry.
fn programs() -> Vec<(String, String)> {
    let mut out = vec![(
        "ccsd_section2".to_string(),
        tce_core::scenarios::section2_source(6),
    )];
    for n in [48usize, 56, 64] {
        out.push((
            format!("chain_n{n}"),
            format!(
                "range N = {n};
                 index i, j, k, l : N;
                 tensor A(N, N); tensor B(N, N); tensor C(N, N); tensor OUT(N, N);
                 OUT[i,l] = sum[j,k] A[i,j] * B[j,k] * C[k,l];"
            ),
        ));
    }
    out
}

fn start(workers: usize) -> (ServerHandle, String) {
    let cfg = ServeConfig {
        workers,
        queue_cap: 256,
        timeout: Duration::from_secs(60),
        ..ServeConfig::default()
    };
    let server = Server::bind(&cfg, Arc::new(PipelineHandler::default())).expect("bind");
    let addr = server.local_addr().to_string();
    (server.spawn(), addr)
}

fn run_request(conn: &mut client::Client, program: &str) -> Duration {
    let line = format_run(program, &[("seed", "7")]);
    let start = Instant::now();
    let reply = conn.round_trip(&line).expect("request");
    assert!(reply.starts_with("ok "), "request failed: {reply}");
    start.elapsed()
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

fn main() {
    let mut out_path = "BENCH_serve.json".to_string();
    let mut clients = 8usize;
    let mut repeats = 10usize;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => out_path = args.next().expect("--out needs a path"),
            "--clients" => {
                clients = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--clients needs a positive integer");
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
    let progs = programs();
    println!("exp_serve: load generation against tce-serve\n");

    // ---- Cold vs. warm: sequential single client, fresh server --------
    let (handle, addr) = start(4);
    let mut conn = client::Client::connect(&addr).expect("connect");
    let cold_start = Instant::now();
    for (_, src) in &progs {
        run_request(&mut conn, src);
    }
    let cold_wall = cold_start.elapsed().as_secs_f64();
    let warm_passes = 3usize;
    let warm_start = Instant::now();
    for _ in 0..warm_passes {
        for (_, src) in &progs {
            run_request(&mut conn, src);
        }
    }
    let warm_wall = warm_start.elapsed().as_secs_f64();
    let cold_rps = progs.len() as f64 / cold_wall;
    let warm_rps = (warm_passes * progs.len()) as f64 / warm_wall;
    let speedup = warm_rps / cold_rps;
    let stats_line = conn.round_trip("stats").expect("stats");
    drop(conn);
    handle.shutdown();
    handle.join();
    println!(
        "cold: {} reqs in {:.3}s ({:.1} req/s); warm: {} reqs in {:.3}s ({:.1} req/s); warm/cold = {:.1}x",
        progs.len(),
        cold_wall,
        cold_rps,
        warm_passes * progs.len(),
        warm_wall,
        warm_rps,
        speedup
    );
    println!("server stats: {stats_line}\n");
    // The warm/cold ratio is reported, never asserted: a wall-clock gate
    // on a shared CI runner is noise (performance gates belong to
    // `exp_perf --compare`).

    // ---- Worker sweep under concurrent clients ------------------------
    let mut table = Table::new(&[
        "workers", "clients", "reqs", "wall (s)", "req/s", "p50 (ms)", "p99 (ms)",
    ]);
    let mut sweep_json = Vec::new();
    for workers in [1usize, 2, 4, 8] {
        let (handle, addr) = start(workers);
        // Prime the caches so the sweep measures steady-state serving.
        {
            let mut prime = client::Client::connect(&addr).expect("connect");
            for (_, src) in &progs {
                run_request(&mut prime, src);
            }
        }
        let wall_start = Instant::now();
        let latencies: Vec<f64> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..clients)
                .map(|c| {
                    let (addr, progs) = (addr.clone(), &progs);
                    s.spawn(move || {
                        let mut conn = client::Client::connect(&addr).expect("connect");
                        let mut lat = Vec::with_capacity(repeats);
                        for r in 0..repeats {
                            let (_, src) = &progs[(c + r) % progs.len()];
                            lat.push(run_request(&mut conn, src).as_secs_f64() * 1e3);
                        }
                        lat
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect()
        });
        let wall = wall_start.elapsed().as_secs_f64();
        handle.shutdown();
        handle.join();
        let mut sorted = latencies.clone();
        sorted.sort_by(f64::total_cmp);
        let reqs = latencies.len();
        let rps = reqs as f64 / wall;
        let p50 = percentile(&sorted, 0.50);
        let p99 = percentile(&sorted, 0.99);
        table.row(&[
            workers.to_string(),
            clients.to_string(),
            reqs.to_string(),
            format!("{wall:.3}"),
            format!("{rps:.1}"),
            format!("{p50:.2}"),
            format!("{p99:.2}"),
        ]);
        sweep_json.push(format!(
            "    {{ \"workers\": {workers}, \"clients\": {clients}, \"requests\": {reqs}, \
             \"wall_s\": {wall:.6}, \"throughput_rps\": {rps:.3}, \"p50_ms\": {p50:.3}, \
             \"p99_ms\": {p99:.3} }}"
        ));
    }
    println!("{}", table.render());

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"bench\": \"serve\",");
    let _ = writeln!(json, "  \"programs\": {},", progs.len());
    let _ = writeln!(
        json,
        "  \"cold\": {{ \"requests\": {}, \"wall_s\": {cold_wall:.6}, \"throughput_rps\": {cold_rps:.3} }},",
        progs.len()
    );
    let _ = writeln!(
        json,
        "  \"warm\": {{ \"requests\": {}, \"wall_s\": {warm_wall:.6}, \"throughput_rps\": {warm_rps:.3} }},",
        warm_passes * progs.len()
    );
    let _ = writeln!(json, "  \"warm_over_cold\": {speedup:.3},");
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
