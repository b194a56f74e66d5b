//! `serve_cold` and `serve_hot`: an in-process `tce serve` (the real
//! `Server` and `PipelineHandler`) loaded over loopback by closed-loop
//! clients on persistent connections — what a client of the service pays.

use crate::exec_wl::{node_table, refs};
use crate::gates::Tally;
use crate::json::{num, obj, Json};
use crate::programs::{a3a_energy, cc_doubles, matmul_chain, matrix_chain, section2_source};
use crate::replay::{replay_synthesis, replay_tree_exec, NodeCall, StageCounts};
use crate::run::{measure_cycles, ms_since, Host, RunArgs, RunReport, Timed};
use crate::span::{totals, Recorder};
use crate::spec::BenchmarkDef;
use crate::stats::{median, percentile};
use crate::synth_wl::{set_counts, STAGE_SPANS};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};
use tce_core::calib::probe::{run_probes, ProbeOptions};
use tce_core::ir::rng::{split_seed, Rng};
use tce_core::serve::{bind_functions, bind_random_inputs, format_results, PipelineHandler};
use tce_core::serving::client::Client;
use tce_core::serving::protocol::format_run;
use tce_core::serving::{
    escape, parse_request, Handler, ServeConfig, Server, ServerHandle, ShardedLru,
};
use tce_core::{synthesize, ExecOptions, Synthesis, SynthesisConfig};

/// Closed-loop clients, each on its own persistent connection.  A server
/// worker owns a connection until the client closes it, so the server
/// runs exactly this many workers — on any core count.
pub const CLIENTS: usize = 2;

/// Fresh data seeds start here, far above any run seed, so a "fresh"
/// request can never repeat a primed one.
const FRESH_BASE: u64 = 1 << 32;

/// One in this many fresh-seed replies is recomputed directly after the
/// timed phase (at most [`FRESH_CHECKS`] per client).
const FRESH_SAMPLE: u64 = 8;
const FRESH_CHECKS: usize = 32;

/// One program shape of the request mix.
#[derive(Debug, Clone, PartialEq)]
pub struct Shape {
    /// Short name for reports.
    pub name: String,
    /// Source text (without nonce).
    pub src: String,
}

/// The fixed shape set.  Cold traffic draws from the first seven; hot
/// traffic primes all eight.  Seven, not six: with an odd number of
/// equally likely shapes the median request falls inside the middle
/// shape's latency class instead of on the boundary between two.
pub fn deck(hot: bool, quick: bool) -> Vec<Shape> {
    let pick = |full: usize, toy: usize| if quick { toy } else { full };
    let shape = |name: String, src: String| Shape { name, src };
    let mut shapes = Vec::new();
    for n in [pick(48, 6), pick(64, 8), pick(96, 10)] {
        shapes.push(shape(format!("chain_n{n}"), matmul_chain(n)));
    }
    for n in [pick(6, 3), pick(8, 4)] {
        shapes.push(shape(format!("section2_n{n}"), section2_source(n)));
    }
    let (v, o) = (pick(6, 3), pick(3, 2));
    shapes.push(shape(format!("a3a_v{v}"), a3a_energy(v, o)));
    shapes.push(shape("matrix_chain".into(), matrix_chain()));
    if hot {
        shapes.push(shape(format!("cc_doubles_v{v}"), cc_doubles(v, o)));
    }
    shapes
}

/// How a request relates to the server's caches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Program text never seen: memo miss, synthesis-cache miss.
    Cold,
    /// Exact repeat of a primed request: memo hit.
    Repeat,
    /// Primed program, data seed never seen: memo miss, synthesis-cache
    /// hit.
    Fresh,
}

/// One generated request.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Index into the deck.
    pub shape: usize,
    /// Cache relation.
    pub kind: Kind,
    /// Program text as sent.
    pub program: String,
    /// `seed=` option: which random tensors the server binds.
    pub data_seed: u64,
}

impl Request {
    /// The `key=value` options sent with the program: one kernel thread
    /// per request (the clients supply the concurrency) and the data seed.
    pub fn opts(&self) -> Vec<(String, String)> {
        vec![
            ("seed".to_string(), self.data_seed.to_string()),
            ("threads".to_string(), "1".to_string()),
        ]
    }

    /// The wire line.
    pub fn line(&self) -> String {
        let opts = self.opts();
        let borrowed: Vec<(&str, &str)> =
            opts.iter().map(|(k, v)| (k.as_str(), v.as_str())).collect();
        format_run(&self.program, &borrowed)
    }
}

/// A request stream: the mix, its deck and the seed that orders it.
#[derive(Debug, Clone, PartialEq)]
pub struct Stream {
    /// `serve_hot` (primed programs, repeats and fresh seeds) or
    /// `serve_cold` (unique programs).
    pub hot: bool,
    /// The program shapes drawn from.
    pub deck: Vec<Shape>,
    /// Orders the stream and seeds the tensor data.
    pub seed: u64,
}

impl Stream {
    /// The stream of workload `serve_hot` / `serve_cold` under `seed`.
    pub fn new(hot: bool, quick: bool, seed: u64) -> Self {
        Self {
            hot,
            deck: deck(hot, quick),
            seed,
        }
    }

    /// Request number `i`.  A pure function of the stream and `i`: the
    /// same seed gives the same byte sequence whichever client happens to
    /// send which request.
    ///
    /// Cold: requests come in blocks of `deck.len()`, each block a seeded
    /// permutation of the deck, so every shape has exactly the same share
    /// and p95 lands inside the heaviest shape instead of on a class
    /// boundary; each program carries a `# nonce` comment that makes its
    /// text unique.  Hot: blocks of ten, nine exact repeats of uniformly
    /// drawn primed programs and, at a drawn position, one with a
    /// never-used data seed.
    pub fn request(&self, i: u64) -> Request {
        let (deck, seed) = (&self.deck, self.seed);
        let (block, pos) = (i / self.block_len(), (i % self.block_len()) as usize);
        let mut rng = Rng::new(split_seed(seed ^ split_seed(block)));
        if self.hot {
            let fresh_pos = rng.usize_in(0..10);
            let shapes: Vec<usize> = (0..10).map(|_| rng.usize_in(0..deck.len())).collect();
            let fresh = pos == fresh_pos;
            Request {
                shape: shapes[pos],
                kind: if fresh { Kind::Fresh } else { Kind::Repeat },
                program: deck[shapes[pos]].src.clone(),
                data_seed: if fresh { FRESH_BASE + i } else { seed },
            }
        } else {
            let mut order: Vec<usize> = (0..deck.len()).collect();
            for k in (1..order.len()).rev() {
                order.swap(k, rng.usize_in(0..k + 1));
            }
            Request {
                shape: order[pos],
                kind: Kind::Cold,
                program: format!("# nonce {seed}-{i}\n{}", deck[order[pos]].src),
                data_seed: seed,
            }
        }
    }

    /// The exact-repeat request for deck shape `index` — what priming
    /// sends.
    fn primed(&self, index: usize) -> Request {
        Request {
            shape: index,
            kind: Kind::Repeat,
            program: self.deck[index].src.clone(),
            data_seed: self.seed,
        }
    }

    /// Requests per block of the generator.
    fn block_len(&self) -> u64 {
        if self.hot {
            10
        } else {
            self.deck.len() as u64
        }
    }

    /// Requests per timing sample: whole blocks, so every sample carries
    /// the stream's exact mix (50 blocks of ten hot requests, ten
    /// permutations of the cold deck — some tens of milliseconds each).
    fn batch(&self) -> u64 {
        self.block_len() * if self.hot { 50 } else { 10 }
    }
}

/// A handler's result framed as the server frames it on the wire.
fn frame(result: Result<String, String>) -> String {
    match result {
        Ok(payload) => format!("ok {}", escape(&payload)),
        Err(diag) => format!("err {}", escape(&diag)),
    }
}

/// A running server plus what its replies must equal.  Dropping it drains
/// and joins the server.
struct Service {
    handle: Option<ServerHandle>,
    addr: String,
    /// A second handler, never behind the server: the source of expected
    /// replies.
    direct: PipelineHandler,
    /// Expected reply line per deck shape at the run's data seed.
    expected: Vec<String>,
}

impl Service {
    /// Bind and spawn the server, compute the expected replies directly,
    /// and (hot) prime the server's caches through a client.
    fn start(stream: &Stream, tally: &mut Tally) -> Result<Self, String> {
        let config = ServeConfig {
            workers: CLIENTS,
            queue_cap: 64,
            timeout: Duration::from_secs(30),
            ..ServeConfig::default()
        };
        let server = Server::bind(&config, Arc::new(PipelineHandler::default()))
            .map_err(|e| format!("bind: {e}"))?;
        let addr = server.local_addr().to_string();
        let handle = server.spawn();
        let direct = PipelineHandler::default();
        let mut expected = Vec::with_capacity(stream.deck.len());
        let mut conn = Client::connect(&addr).map_err(|e| format!("connect: {e}"))?;
        for (index, shape) in stream.deck.iter().enumerate() {
            let req = stream.primed(index);
            let want = frame(direct.run(&req.program, &req.opts()));
            tally.check(want.starts_with("ok "), || {
                format!("{}: {want}", shape.name)
            });
            if stream.hot {
                let got = conn
                    .round_trip(&req.line())
                    .map_err(|e| format!("prime: {e}"))?;
                tally.check(got == want, || {
                    format!("{}: primed reply differs", shape.name)
                });
            }
            expected.push(want);
        }
        Ok(Self {
            handle: Some(handle),
            addr,
            direct,
            expected,
        })
    }

    /// The server's `stats` reply as numbers.
    fn stats(&self) -> Result<HashMap<String, f64>, String> {
        let reply = tce_core::serving::client::request(&self.addr, "stats")
            .map_err(|e| format!("stats: {e}"))?;
        Ok(reply
            .split(' ')
            .filter_map(|tok| tok.split_once('='))
            .filter_map(|(k, v)| Some((k.to_string(), v.parse::<f64>().ok()?)))
            .collect())
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        if let Some(handle) = self.handle.take() {
            handle.shutdown();
            // `join` re-raises a server thread's panic; a destructor must
            // not.  Such a panic has already failed the requests it hit.
            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| handle.join()));
        }
    }
}

/// What one block of traffic measured.
struct Traffic {
    timed: Timed,
    /// `ok` replies.
    ok: u64,
    /// Index after the last request issued (the next block continues
    /// there, so cold programs stay unique and fresh seeds fresh).
    next_index: u64,
    recorder: Recorder,
}

/// Run `CLIENTS` closed-loop clients against `svc` for `seconds`, issuing
/// requests `first_index…` of the stream.  Every reply is checked.
fn traffic(
    svc: &Service,
    stream: &Stream,
    first_index: u64,
    seconds: f64,
    traced: bool,
    tally: &mut Tally,
) -> Result<Traffic, String> {
    let next = AtomicU64::new(first_index);
    let barrier = Barrier::new(CLIENTS + 1);
    let epoch = Instant::now();
    let results = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|_| {
                scope.spawn(|| -> Result<_, String> {
                    let mut conn = Client::connect(&svc.addr).map_err(|e| format!("connect: {e}"));
                    barrier.wait();
                    let conn = conn.as_mut().map_err(|e| e.clone())?;
                    let mut rec = Recorder::with_epoch(traced, epoch);
                    let mut tally = Tally::default();
                    let mut timed = Timed::empty(stream.batch() as usize);
                    let (mut ok, mut fresh) = (0u64, Vec::new());
                    let start = Instant::now();
                    while timed.op_ms.len() < 3 || start.elapsed().as_secs_f64() < seconds {
                        // A client takes a whole sample's worth of the
                        // stream at once and sends it in order.
                        let first = next.fetch_add(stream.batch(), Ordering::Relaxed);
                        let mut total = 0.0;
                        for i in first..first + stream.batch() {
                            let req = stream.request(i);
                            let line = req.line();
                            rec.set_op(i);
                            let sent = Instant::now();
                            let reply = rec.call("serve.request", || conn.round_trip(&line));
                            let ms = ms_since(sent);
                            timed.each_ms.push(ms);
                            total += ms;
                            let reply = reply.map_err(|e| format!("request {i}: {e}"))?;
                            ok += u64::from(reply.starts_with("ok "));
                            if req.kind == Kind::Fresh {
                                tally.check(reply.starts_with("ok "), || {
                                    format!("request {i}: {reply}")
                                });
                                if i.is_multiple_of(FRESH_SAMPLE) && fresh.len() < FRESH_CHECKS {
                                    fresh.push((i, reply));
                                }
                            } else {
                                tally.check(reply == svc.expected[req.shape], || {
                                    format!(
                                        "request {i} ({}): {reply}",
                                        stream.deck[req.shape].name
                                    )
                                });
                            }
                        }
                        timed.op_ms.push(total / stream.batch() as f64);
                    }
                    timed.wall_s = start.elapsed().as_secs_f64();
                    Ok((timed, ok, fresh, tally, rec))
                })
            })
            .collect();
        barrier.wait();
        clients
            .into_iter()
            .map(|c| c.join().expect("client thread"))
            .collect::<Vec<_>>()
    });

    let mut out = Traffic {
        timed: Timed::empty(stream.batch() as usize),
        ok: 0,
        next_index: next.load(Ordering::Relaxed),
        recorder: Recorder::with_epoch(traced, epoch),
    };
    for result in results {
        let (timed, ok, fresh, client_tally, rec) = result?;
        // The clients ran side by side: the block's wall time is the
        // longer of theirs, not the sum.
        let wall_s = out.timed.wall_s.max(timed.wall_s);
        out.timed.extend(timed);
        out.timed.wall_s = wall_s;
        out.ok += ok;
        tally.absorb(client_tally);
        out.recorder.merge(rec);
        // Fresh-seed replies are unique by construction, so the sample is
        // recomputed on the handler that never sat behind the server.
        for (i, reply) in fresh {
            let req = stream.request(i);
            let want = frame(svc.direct.run(&req.program, &req.opts()));
            tally.check(reply == want, || {
                format!("request {i}: fresh-seed reply differs")
            });
        }
    }
    Ok(out)
}

/// Hold the server's own counters against what the clients saw.
fn check_server_counters(stats: &HashMap<String, f64>, tally: &mut Tally) {
    for key in ["errors", "shed", "timeouts", "panics"] {
        let count = stats.get(key).copied().unwrap_or(f64::NAN);
        tally.check(count == 0.0, || format!("server reports {key}={count}"));
    }
}

/// Run `serve_cold` (`hot == false`) or `serve_hot`.
pub fn run(
    args: &RunArgs,
    host: &Host,
    def: &BenchmarkDef,
    hot: bool,
) -> Result<RunReport, String> {
    let stream = Stream::new(hot, args.quick, args.seed);
    let mut tally = Tally::default();
    if args.trace {
        let svc = Service::start(&stream, &mut tally)?;
        let mut report = traced(args, host, def, &stream, &svc, &mut tally)?;
        report.tally = tally;
        return Ok(report);
    }
    // Every cycle is a new server with empty caches; the request stream
    // carries on where the last cycle stopped.
    let (mut next_index, mut ok) = (0, 0);
    let (timed, setup_s) = measure_cycles(
        args,
        &mut tally,
        |tally| Service::start(&stream, tally),
        |svc, seconds, tally| {
            let t = traffic(svc, &stream, next_index, seconds, false, tally)?;
            check_server_counters(&svc.stats()?, tally);
            next_index = t.next_index;
            ok += t.ok;
            Ok(t.timed)
        },
    )?;
    let mut report = RunReport::default();
    report.set_end_to_end(&timed, ok as f64 / timed.wall_s, &setup_s);
    report.notes.push(("clients".into(), num(CLIENTS as f64)));
    report.tally = tally;
    Ok(report)
}

/// The layers under one request that misses the memo, called by hand:
/// (cold only) the synthesis stages, then bind, the tree executor and its
/// per-node replay, then format.  Returns the reply payload.
fn replay_request(
    rec: &mut Recorder,
    req: &Request,
    compiled: &mut HashMap<usize, Synthesis>,
    counts: &mut StageCounts,
    calls: &mut Vec<NodeCall>,
) -> Result<String, String> {
    let cfg = SynthesisConfig::default();
    if req.kind == Kind::Cold {
        counts.add(&rec.scope("replay.stages", |rec| {
            replay_synthesis(rec, &req.program, &cfg)
        })?);
        let syn = rec
            .call("core.synthesize", || synthesize(&req.program, &cfg))
            .map_err(|e| e.to_string())?;
        compiled.insert(req.shape, syn);
    }
    let syn = match compiled.entry(req.shape) {
        Entry::Occupied(slot) => slot.into_mut(),
        // The synthesis-cache hit path: compiled once, outside any span.
        Entry::Vacant(slot) => {
            slot.insert(synthesize(&req.program, &cfg).map_err(|e| e.to_string())?)
        }
    };
    let (owned, funcs) = rec.call("core.bind", || {
        (
            bind_random_inputs(syn, req.data_seed),
            bind_functions(syn, req.data_seed),
        )
    });
    let inputs = refs(&owned);
    let real = rec
        .call("exec.real", || {
            syn.execute_opts(&inputs, &funcs, &ExecOptions::with_threads(1))
        })
        .map_err(|e| e.to_string())?;
    rec.scope("exec.replay", |rec| {
        replay_tree_exec(rec, syn, &inputs, &funcs, 1, req.shape, calls)
    })?;
    Ok(rec.call("core.format", || format_results(syn, &real)))
}

/// The traced run: untraced traffic for the base median, traffic with
/// every round trip in a span and the server's counters read around it,
/// then the front-end probes and the by-hand replay of the same stream.
fn traced(
    args: &RunArgs,
    host: &Host,
    def: &BenchmarkDef,
    stream: &Stream,
    svc: &Service,
    tally: &mut Tally,
) -> Result<RunReport, String> {
    let (hot, seed) = (stream.hot, stream.seed);
    let slice = args.seconds / 3.0;
    let base = traffic(svc, stream, 0, slice, false, tally)?;
    let before = svc.stats()?;
    let spanned = traffic(svc, stream, base.next_index, slice, true, tally)?;
    let after = svc.stats()?;
    check_server_counters(&after, tally);

    let mut report = RunReport::zeroed_layers(def);
    let requests = spanned.timed.each_ms.len() as f64;
    let (p50, base_p50) = (median(&spanned.timed.op_ms), median(&base.timed.op_ms));
    report.set("trace_overhead_pct", (p50 - base_p50) / base_p50 * 100.0);
    let mut sorted = spanned.timed.each_ms.clone();
    sorted.sort_by(f64::total_cmp);
    report.set_median("serve.req_p50_ms", &sorted);
    report.set("serve.req_p95_ms", percentile(&sorted, 95.0));
    report.notes.push((
        "op_ms".into(),
        obj([
            ("untraced", num(base_p50)),
            ("traced", num(p50)),
            ("ops", num(requests)),
        ]),
    ));
    // Cache counters per thousand requests of the spanned block.
    let per_k = |key: &str| {
        (after.get(key).copied().unwrap_or(0.0) - before.get(key).copied().unwrap_or(0.0))
            / requests
            * 1e3
    };
    report.set("serve.memo_hits", per_k("resp_hits"));
    report.set("serve.memo_misses", per_k("resp_misses"));
    report.set("serve.synth_hits", per_k("synth_hits"));
    report.set("serve.synth_misses", per_k("synth_misses"));
    report.set("serve.synth_evictions", per_k("synth_evictions"));
    report.set("serve.shed", after["shed"] - before["shed"]);
    report.set("serve.timeouts", after["timeouts"] - before["timeouts"]);

    // Front end alone: a ping crosses the socket, the worker and the line
    // parser and touches nothing else.
    let mut conn = Client::connect(&svc.addr).map_err(|e| format!("connect: {e}"))?;
    let mut ping_us = Vec::new();
    for _ in 0..if args.quick { 100 } else { 2000 } {
        let sent = Instant::now();
        let reply = conn.round_trip("ping").map_err(|e| format!("ping: {e}"))?;
        ping_us.push(ms_since(sent) * 1e3);
        tally.check(reply == "ok pong", || format!("ping answered `{reply}`"));
    }
    report.set_median("serve.ping_rtt_us", &ping_us);
    drop(conn);

    let sample: Vec<Request> = (0..256).map(|i| stream.request(i)).collect();
    let protocol_us: Vec<f64> = sample
        .iter()
        .map(|req| {
            let start = Instant::now();
            let parsed = parse_request(&req.line());
            let us = ms_since(start) * 1e3;
            assert!(parsed.is_ok(), "generated request does not parse");
            us
        })
        .collect();
    report.set_median("serve.protocol_us", &protocol_us);

    // The sharded LRU by itself, at the response memo's geometry: inserts
    // run past capacity so eviction is part of the cost.
    let lru: ShardedLru<String, String> = ShardedLru::new(256, 8);
    let keys: Vec<String> = (0..1024).map(|i| format!("key-{seed}-{i}")).collect();
    let start = Instant::now();
    for key in &keys {
        lru.get_or_insert_with(key, || key.clone());
    }
    report.set(
        "serve.lru_insert_us",
        ms_since(start) * 1e3 / keys.len() as f64,
    );
    let resident: Vec<&String> = keys[keys.len() - 32..].iter().collect();
    let start = Instant::now();
    let mut hits = 0;
    for round in 0..128 {
        for key in &resident {
            hits += usize::from(lru.get_or_insert_with(key, || round.to_string()).1);
        }
    }
    report.set(
        "serve.lru_hit_us",
        ms_since(start) * 1e3 / (128 * resident.len()) as f64,
    );
    tally.check(hits == 128 * resident.len(), || {
        "LRU probe missed a resident key".into()
    });

    // The same stream against a handler with no server in front, then
    // layer by layer by hand.  Both continue the index sequence.
    let handler = PipelineHandler::default();
    if hot {
        for index in 0..stream.deck.len() {
            let primed = stream.primed(index);
            handler
                .run(&primed.program, &primed.opts())
                .map_err(|e| format!("prime direct handler: {e}"))?;
        }
    }
    let mut rec = Recorder::new(true);
    let mut compiled: HashMap<usize, Synthesis> = HashMap::new();
    let mut counts = StageCounts::default();
    let mut calls: Vec<NodeCall> = Vec::new();
    let mut handler_ms = Vec::new();
    let mut replayed = 0u64;
    let start = Instant::now();
    let mut index = spanned.next_index;
    // Whole blocks only, so the replayed mix is the stream's mix.
    let block = stream.block_len();
    while replayed < 2 * block || start.elapsed().as_secs_f64() < slice {
        for _ in 0..block {
            let req = stream.request(index);
            rec.set_op(index);
            let sent = Instant::now();
            let direct = rec.call("core.handler", || handler.run(&req.program, &req.opts()));
            handler_ms.push(ms_since(sent));
            if req.kind != Kind::Repeat {
                let payload =
                    replay_request(&mut rec, &req, &mut compiled, &mut counts, &mut calls)?;
                tally.check(direct.as_ref() == Ok(&payload), || {
                    format!("request {index}: by-hand layers disagree with the handler")
                });
            }
            index += 1;
            replayed += 1;
        }
    }
    let n = replayed as f64;
    let by_name = totals(rec.spans());
    let mean_ms = |names: &[&str]| {
        names
            .iter()
            .filter_map(|name| by_name.get(name))
            .map(|t| t.total_ns as f64 / 1e6)
            .fold(0.0, |sum, ms| sum + ms)
            / n
    };
    let mean_handler = handler_ms.iter().sum::<f64>() / n;
    let mean_request = spanned.timed.each_ms.iter().sum::<f64>() / requests;
    report.set("core.handler_ms", mean_handler);
    report.set("serve.frontend_ms", mean_request - mean_handler);
    report.set("core.bind_ms", mean_ms(&["core.bind"]));
    report.set("core.format_ms", mean_ms(&["core.format"]));
    let mut staged = 0.0;
    for (metric, names) in STAGE_SPANS {
        let ms = mean_ms(names);
        staged += ms;
        report.set(metric, ms);
    }
    if !hot {
        report.set("core.glue_ms", mean_ms(&["core.synthesize"]) - staged);
        let per_request = StageCounts {
            terms: counts.terms / replayed,
            frontier_points: counts.frontier_points / replayed,
            tree_ops: counts.tree_ops / replayed as u128,
            memmin_elements: counts.memmin_elements / replayed as u128,
            ir_nodes: counts.ir_nodes / replayed,
            nests: counts.nests / replayed,
        };
        set_counts(&mut report, &per_request);
    }
    let gett_ms = mean_ms(&["tensor.gett"]);
    report.set("tensor.gett_ms", gett_ms);
    report.set("tensor.plan_us", mean_ms(&["tensor.plan"]) * 1e3);
    report.set("exec.walk_self_ms", mean_ms(&["exec.real"]) - gett_ms);
    let flops: f64 = calls.iter().map(|c| c.flops as f64).sum();
    if gett_ms > 0.0 {
        report.set("tensor.gett_gflops", flops / n / (gett_ms / 1e3) / 1e9);
    }
    let profile = run_probes(&ProbeOptions {
        seed,
        budget_ms: if args.quick { 20 } else { 300 },
        threads: host.threads,
    });
    let (rows, peak_frac) = node_table(&calls, &calls, &profile);
    report.set("tensor.peak_frac", peak_frac);
    report
        .notes
        .push(("contraction_nodes".into(), Json::Arr(rows)));
    report.notes.push((
        "replayed_requests".into(),
        obj([
            ("count", num(n)),
            ("mean_request_ms", num(mean_request)),
            ("mean_handler_ms", num(mean_handler)),
        ]),
    ));

    let mut spans = spanned.recorder;
    spans.merge(rec);
    report.spans = spans.spans().to_vec();
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lines(hot: bool, seed: u64, n: u64) -> Vec<String> {
        let stream = Stream::new(hot, true, seed);
        (0..n).map(|i| stream.request(i).line()).collect()
    }

    #[test]
    fn the_same_seed_gives_the_same_bytes_and_another_seed_does_not() {
        for hot in [false, true] {
            assert_eq!(lines(hot, 7, 200), lines(hot, 7, 200));
            assert_ne!(lines(hot, 7, 200), lines(hot, 8, 200));
        }
    }

    #[test]
    fn cold_programs_are_unique_and_every_block_covers_the_deck() {
        let stream = Stream::new(false, true, 3);
        assert_eq!(
            stream.deck.len() % 2,
            1,
            "an odd deck keeps p50 off a class boundary"
        );
        let blocks = 17 * stream.deck.len() as u64;
        let reqs: Vec<Request> = (0..blocks).map(|i| stream.request(i)).collect();
        let mut texts: Vec<&str> = reqs.iter().map(|r| r.program.as_str()).collect();
        texts.sort_unstable();
        texts.dedup();
        assert_eq!(texts.len(), reqs.len());
        for block in reqs.chunks(stream.deck.len()) {
            let mut shapes: Vec<usize> = block.iter().map(|r| r.shape).collect();
            shapes.sort_unstable();
            assert_eq!(shapes, (0..stream.deck.len()).collect::<Vec<_>>());
        }
        assert!(reqs
            .iter()
            .all(|r| r.kind == Kind::Cold && r.data_seed == 3));
        // The nonce is a comment: the program still compiles to the shape.
        assert!(tce_core::lang::compile(&reqs[0].program).is_ok());
    }

    #[test]
    fn hot_blocks_hold_exactly_one_fresh_seed_never_reused() {
        let stream = Stream::new(true, true, 5);
        assert_eq!(stream.deck.len(), 8);
        let reqs: Vec<Request> = (0..500).map(|i| stream.request(i)).collect();
        for block in reqs.chunks(10) {
            assert_eq!(block.iter().filter(|r| r.kind == Kind::Fresh).count(), 1);
        }
        let mut fresh: Vec<u64> = reqs
            .iter()
            .filter(|r| r.kind == Kind::Fresh)
            .map(|r| r.data_seed)
            .collect();
        assert!(fresh.iter().all(|&s| s >= FRESH_BASE));
        fresh.dedup();
        assert_eq!(fresh.len(), 50);
        assert!(reqs
            .iter()
            .filter(|r| r.kind == Kind::Repeat)
            .all(|r| r.data_seed == 5 && r.program == stream.deck[r.shape].src));
        let used: std::collections::HashSet<usize> = reqs.iter().map(|r| r.shape).collect();
        assert_eq!(used.len(), 8);
    }
}
