//! End-to-end tests of the compile-and-execute service: concurrent
//! clients must get bitwise-identical answers to the one-shot `tce`
//! binary, the shed/timeout/panic paths must return clean one-line
//! replies and leave the server serving, `stats` must reflect the
//! traffic, and `shutdown` must drain gracefully.

use std::process::Command;
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;
use tce_core::serve::PipelineHandler;
use tce_serve::client;
use tce_serve::protocol::{format_run, unescape};
use tce_serve::{Handler, ServeConfig, Server, ServerHandle};

/// These tests are registered from `crates/core`, so the examples live
/// two levels up.
fn spec_path(name: &str) -> String {
    format!("{}/../../examples/specs/{name}", env!("CARGO_MANIFEST_DIR"))
}

fn start(cfg: &ServeConfig) -> (ServerHandle, String) {
    let server = Server::bind(cfg, Arc::new(PipelineHandler::default())).unwrap();
    let addr = server.local_addr().to_string();
    (server.spawn(), addr)
}

/// The result block the one-shot CLI prints for `--execute`: the
/// per-tensor `  NAME: shape …, |sum| = …` lines plus the final `OK` —
/// exactly what a served `run` returns as its payload.
fn cli_result_block(spec: &str, seed: u64, threads: usize) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_tce"))
        .args([
            spec,
            "--execute",
            "--seed",
            &seed.to_string(),
            "--threads",
            &threads.to_string(),
        ])
        .output()
        .expect("spawn tce");
    assert!(out.status.success(), "one-shot tce failed: {out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    let mut block: Vec<&str> = stdout
        .lines()
        .filter(|l| l.starts_with("  ") && l.contains("|sum|"))
        .collect();
    block.push("OK");
    block.join("\n")
}

#[test]
fn eight_concurrent_clients_match_the_one_shot_cli_bitwise() {
    let spec = spec_path("matrix_chain.tce");
    let program = std::fs::read_to_string(&spec).unwrap();
    let expect = cli_result_block(&spec, 7, 2);
    assert!(expect.contains("|sum|"), "CLI block empty:\n{expect}");

    let cfg = ServeConfig {
        workers: 8,
        ..ServeConfig::default()
    };
    let (handle, addr) = start(&cfg);
    // 8 in-flight clients, same request: every reply must unescape to the
    // identical bytes the cold CLI process printed.
    std::thread::scope(|s| {
        for _ in 0..8 {
            let (addr, program, expect) = (addr.clone(), program.clone(), expect.clone());
            s.spawn(move || {
                let line = format_run(&program, &[("seed", "7"), ("threads", "2")]);
                let reply = client::request(&addr, &line).unwrap();
                let payload = reply.strip_prefix("ok ").expect(&reply).to_string();
                assert_eq!(unescape(&payload).unwrap(), expect);
            });
        }
    });
    let stats = handle.stats();
    assert_eq!(stats.served, 8);
    assert_eq!(stats.panics, 0);

    // The 8 identical requests collapsed onto the response memo (the
    // shard lock is held across the fill, so concurrent same-key misses
    // dedup): one executed, seven got the memoized reply, and the
    // program was compiled exactly once.
    let reply = client::request(&addr, "stats").unwrap();
    assert!(reply.contains("resp_misses=1"), "{reply}");
    assert!(reply.contains("resp_hits=7"), "{reply}");
    assert!(reply.contains("synth_misses=1"), "{reply}");

    handle.shutdown();
    handle.join();
}

/// A handler whose `run` blocks until the test releases its latch, so a
/// request against it outlives any budget without a wall-clock assumption.
struct Latched(Mutex<mpsc::Receiver<()>>);

impl Handler for Latched {
    fn run(&self, _program: &str, _opts: &[(String, String)]) -> Result<String, String> {
        // Returns once the test sends, or drops its sender.
        let _ = self.0.lock().unwrap().recv();
        Ok("late".to_string())
    }
}

#[test]
fn error_paths_reply_cleanly_and_server_keeps_serving() {
    let cfg = ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    };
    let (handle, addr) = start(&cfg);

    // Malformed request line.
    let reply = client::request(&addr, "run this is not key=value").unwrap();
    assert!(reply.starts_with("err "), "{reply}");
    // Program that does not parse.
    let reply = client::request(&addr, &format_run("range N = ;", &[])).unwrap();
    assert!(reply.starts_with("err "), "{reply}");
    // Program whose range is empty.
    let zero = "range N = 0; index i, j, k : N; tensor A(N, N); tensor B(N, N); \
                tensor C(N, N); C[i,j] = sum[k] A[i,k] * B[k,j];";
    let reply = client::request(&addr, &format_run(zero, &[])).unwrap();
    let msg = reply.strip_prefix("err ").expect(&reply);
    assert!(unescape(msg).unwrap().contains("extent 0"), "{reply}");
    // Bad numeric option.
    let reply = client::request(&addr, &format_run("x", &[("threads", "banana")])).unwrap();
    assert!(reply.starts_with("err "), "{reply}");

    // After all of that the server still answers.
    assert_eq!(client::request(&addr, "ping").unwrap(), "ok pong");
    let stats = handle.stats();
    assert!(stats.errors >= 4, "errors {}", stats.errors);
    handle.shutdown();
    handle.join();

    // Work that outlives its budget: the handler stays blocked on the
    // latch until the reply has been read, so the reply can only be the
    // wall-clock timeout — however slow or loaded the host is.
    let cfg = ServeConfig {
        workers: 2,
        timeout: Duration::from_millis(1),
        ..ServeConfig::default()
    };
    let (release, latch) = mpsc::channel();
    let server = Server::bind(&cfg, Arc::new(Latched(Mutex::new(latch)))).unwrap();
    let addr = server.local_addr().to_string();
    let handle = server.spawn();
    let reply = client::request(&addr, &format_run("x", &[])).unwrap();
    assert_eq!(reply, "timeout");
    drop(release);

    assert_eq!(client::request(&addr, "ping").unwrap(), "ok pong");
    assert_eq!(handle.stats().timeouts, 1);

    handle.shutdown();
    handle.join();
}

#[test]
fn program_larger_than_available_memory_is_refused_and_server_keeps_serving() {
    let (handle, addr) = start(&ServeConfig::default());
    let big = "range N = 300000; index i, j : N; tensor A(N, N); tensor C(N, N); C[i,j] = A[i,j];";
    // Twice: a refusal reflects the host's memory at the time, so the
    // repeat is checked again rather than answered from the reply memo.
    for _ in 0..2 {
        let reply = client::request(&addr, &format_run(big, &[])).unwrap();
        let msg = reply.strip_prefix("err ").expect(&reply);
        assert!(unescape(msg).unwrap().contains("GiB available"), "{reply}");
    }
    let stats = client::request(&addr, "stats").unwrap();
    assert!(stats.contains("resp_hits=0"), "{stats}");
    assert!(stats.contains("resp_misses=0"), "{stats}");
    assert!(stats.contains("synth_hits=1"), "{stats}");
    assert_eq!(client::request(&addr, "ping").unwrap(), "ok pong");
    assert_eq!(handle.stats().errors, 2);
    handle.shutdown();
    handle.join();
}

#[test]
fn full_queue_sheds_and_recovers() {
    let cfg = ServeConfig {
        workers: 1,
        queue_cap: 1,
        timeout: Duration::from_secs(30),
        ..ServeConfig::default()
    };
    let (handle, addr) = start(&cfg);

    // Occupy the single worker with a slow request and fill the queue.
    let slow_src = "
        range N = 128;
        index i, j, k, l : N;
        tensor A(N, N); tensor B(N, N); tensor C(N, N); tensor OUT(N, N);
        OUT[i,l] = sum[j,k] A[i,j] * B[j,k] * C[k,l];
    ";
    let mut slow = client::Client::connect(&addr).unwrap();
    slow.send(&format_run(slow_src, &[])).unwrap();
    // Wait until the acceptor has picked the slow connection up (it polls
    // every few ms) and the worker has popped it, else the next
    // connection is the one that fills (or overflows) the queue.
    std::thread::sleep(Duration::from_millis(300));
    for _ in 0..100 {
        if handle.stats().queue_depth == 0 {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    let mut queued = client::Client::connect(&addr).unwrap();
    queued.send("ping").unwrap();
    std::thread::sleep(Duration::from_millis(200));

    // Probe without sending: a shed connection gets `busy` at accept time.
    let mut shed_seen = false;
    for _ in 0..50 {
        use std::io::Read;
        let mut probe = std::net::TcpStream::connect(&addr).unwrap();
        probe
            .set_read_timeout(Some(Duration::from_millis(200)))
            .unwrap();
        let mut buf = [0u8; 8];
        if matches!(probe.read(&mut buf), Ok(n) if buf[..n].starts_with(b"busy")) {
            shed_seen = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(shed_seen, "full queue never answered busy");

    // The slow request completes; freeing its connection lets the worker
    // pop the queued one — nothing was lost to the shedding.
    assert!(slow.recv().unwrap().starts_with("ok "));
    drop(slow);
    assert_eq!(queued.recv().unwrap(), "ok pong");
    assert!(handle.stats().shed >= 1);

    handle.shutdown();
    handle.join();
}

#[test]
fn shutdown_request_drains_and_listener_closes() {
    let (handle, addr) = start(&ServeConfig::default());
    assert_eq!(client::request(&addr, "ping").unwrap(), "ok pong");
    assert_eq!(client::request(&addr, "shutdown").unwrap(), "ok bye");
    handle.join();
    // Give the OS a beat, then the port must refuse (or reset) clients.
    std::thread::sleep(Duration::from_millis(50));
    assert!(
        client::request(&addr, "ping").is_err(),
        "listener still accepting after drain"
    );
}

#[test]
fn slow_request_racing_shutdown_gets_a_complete_reply() {
    use std::io::{Read, Write};
    let spec = spec_path("matrix_chain.tce");
    let program = std::fs::read_to_string(&spec).unwrap();
    let expect = cli_result_block(&spec, 11, 1);

    let (handle, addr) = start(&ServeConfig::default());
    // Send only the first half of the request line, so the worker that
    // owns this connection is mid-read when the drain begins.
    let line = format!("{}\n", format_run(&program, &[("seed", "11")]));
    let (head, tail) = line.split_at(line.len() / 2);
    let mut racer = std::net::TcpStream::connect(&addr).unwrap();
    racer.set_nodelay(true).unwrap();
    racer.write_all(head.as_bytes()).unwrap();
    std::thread::sleep(Duration::from_millis(250));
    assert_eq!(client::request(&addr, "shutdown").unwrap(), "ok bye");
    std::thread::sleep(Duration::from_millis(250));
    // The rest of the request arrives during the drain: it must still be
    // compiled, executed, and answered in full before the socket closes.
    racer.write_all(tail.as_bytes()).unwrap();
    racer
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut reply = String::new();
    let mut buf = [0u8; 4096];
    loop {
        let n = racer.read(&mut buf).unwrap();
        if n == 0 {
            break;
        }
        reply.push_str(std::str::from_utf8(&buf[..n]).unwrap());
        if reply.ends_with('\n') {
            break;
        }
    }
    let payload = reply
        .trim_end()
        .strip_prefix("ok ")
        .unwrap_or_else(|| panic!("drained reply not ok: {reply:?}"))
        .to_string();
    assert_eq!(unescape(&payload).unwrap(), expect);
    let stats = handle.join();
    assert_eq!(stats.served, 1);
}

#[test]
fn serve_cli_flags_are_audited() {
    for args in [
        vec!["serve", "--workers", "0"],
        vec!["serve", "--workers", "banana"],
        vec!["serve", "--queue", "0"],
        vec!["serve", "--timeout-ms", "0"],
        vec!["serve", "--timeout-ms", "soon"],
        vec!["serve", "--bogus"],
        vec!["serve", "--addr"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_tce"))
            .args(&args)
            .output()
            .expect("spawn tce");
        assert!(!out.status.success(), "tce {args:?} should exit nonzero");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            !stderr.is_empty() && !stderr.contains("panicked"),
            "{args:?}: {stderr}"
        );
    }
}
