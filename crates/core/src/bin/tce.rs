//! `tce` — command-line driver for the synthesis system.
//!
//! ```text
//! tce SPEC.tce [--memory-limit N] [--cache N] [--grid PxQx…]
//!              [--word-cost N] [--execute] [--fused] [--distributed]
//!              [--seed S] [--threads T] [--trace OUT.json]
//! tce serve [--addr HOST:PORT] [--workers N] [--queue N] [--timeout-ms N]
//! tce calibrate --out PROFILE.json [--budget-ms N] [--seed S] [--threads T]
//! ```
//!
//! Reads a tensor-contraction specification, runs the full optimization
//! pipeline (paper Fig. 5), prints the per-stage report for every term,
//! and — with `--execute` — runs the synthesized statement sequence on
//! deterministic random inputs, printing a summary of every result tensor.
//! `--threads` sets the worker count for the contraction kernels
//! (default: the `TCE_THREADS` environment variable, then the machine's
//! available parallelism); results are bitwise identical either way.
//! Statements and contraction nodes run in order, each kernel on all of
//! those threads.
//! `--trace OUT.json` enables the `tce-trace` observability layer
//! (implies `--execute`), writes a chrome://tracing-compatible event
//! file, and prints a profile report.  `TCE_KERNEL` pins the contraction
//! engine's SIMD micro-kernel variant (default: best the host supports;
//! `scalar` reproduces pre-dispatch results bit for bit).
//! `--distributed` (requires
//! `--grid`, implies `--execute`) runs the statement sequence on the
//! sharded distributed machine and prints measured vs. modeled
//! communication volumes.  `--fused` (implies `--execute`) runs every
//! term through the fused-slice executor at its memory-minimization
//! configuration and prints the measured vs. modeled peak intermediate
//! live-set, failing if they differ.  `tce serve` starts the concurrent
//! compile-and-execute service (see `tce_serve` and `tce_core::serve`):
//! one warm process answering line-protocol requests with the same
//! result lines the one-shot `--execute` path prints.  `tce calibrate`
//! runs the seeded microbenchmark probes of `tce_calib` and writes a
//! versioned JSON profile of measured hardware rates; loading it back
//! with the `TCE_CALIBRATION=FILE` environment variable (for one-shot
//! runs and `tce serve` alike) switches the space-time, locality, and
//! distribution cost models from the paper's abstract unit costs to
//! measured time-based rates and prints a predicted-vs-measured
//! wall-time line after `--execute`.  Without a profile every plan choice
//! is bit-identical to the uncalibrated pipeline.  Output cut short by its
//! reader (`tce … | head -1`) ends the run quietly with status 0.

use std::collections::HashMap;
use std::io::Write as _;
use std::process::ExitCode;
use tce_core::dist::Machine;
use tce_core::locality::MemoryHierarchy;
use tce_core::par::ProcessorGrid;
use tce_core::{synthesize, ExecOptions, SynthesisConfig};

/// Shadows `std::println!` for this file: std's panics once stdout is
/// gone, this one ends the process quietly instead — a reader that closed
/// the pipe wants no more output (exit 0); any other write failure is one
/// line on stderr (exit 1).
macro_rules! println {
    ($($arg:tt)*) => {
        if let Err(e) = writeln!(std::io::stdout(), $($arg)*) {
            stdout_failed(e)
        }
    };
}

fn stdout_failed(e: std::io::Error) -> ! {
    if e.kind() == std::io::ErrorKind::BrokenPipe {
        std::process::exit(0);
    }
    eprintln!("cannot write to stdout: {e}");
    std::process::exit(1)
}

const SERVE_USAGE: &str = "tce serve [--addr HOST:PORT] [--workers N] [--queue N] [--timeout-ms N]";
const CALIBRATE_USAGE: &str =
    "tce calibrate --out PROFILE.json [--budget-ms N] [--seed S] [--threads T]";

/// `--help` is a successful run: the usage goes to stdout, exit status 0.
fn print_usage(usage: &str) -> ! {
    println!("{usage}");
    std::process::exit(0)
}

struct Args {
    spec_path: String,
    memory_limit: u128,
    cache: Option<u128>,
    grid: Option<Vec<usize>>,
    word_cost: u128,
    execute: bool,
    fused: bool,
    distributed: bool,
    seed: u64,
    threads: Option<usize>,
    trace: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        spec_path: String::new(),
        memory_limit: u128::MAX,
        cache: None,
        grid: None,
        word_cost: 100,
        execute: false,
        fused: false,
        distributed: false,
        seed: 42,
        threads: None,
        trace: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--memory-limit" => {
                args.memory_limit = it
                    .next()
                    .ok_or("--memory-limit needs a value")?
                    .parse()
                    .map_err(|e| format!("bad --memory-limit: {e}"))?;
            }
            "--cache" => {
                args.cache = Some(
                    it.next()
                        .ok_or("--cache needs a value")?
                        .parse()
                        .map_err(|e| format!("bad --cache: {e}"))?,
                );
            }
            "--grid" => {
                let spec = it.next().ok_or("--grid needs a value like 2x4")?;
                let dims: Result<Vec<usize>, _> =
                    spec.split('x').map(|d| d.parse::<usize>()).collect();
                let dims = dims.map_err(|e| format!("bad --grid `{spec}`: {e}"))?;
                if dims.is_empty() || dims.contains(&0) {
                    return Err(format!(
                        "bad --grid `{spec}`: every dimension must be at least 1"
                    ));
                }
                if dims.len() > tce_core::MAX_GRID_RANK {
                    return Err(format!(
                        "bad --grid `{spec}`: at most {} dimensions",
                        tce_core::MAX_GRID_RANK
                    ));
                }
                args.grid = Some(dims);
            }
            "--word-cost" => {
                args.word_cost = it
                    .next()
                    .ok_or("--word-cost needs a value")?
                    .parse()
                    .map_err(|e| format!("bad --word-cost: {e}"))?;
            }
            "--execute" => args.execute = true,
            "--fused" => {
                args.fused = true;
                args.execute = true;
            }
            "--distributed" => {
                args.distributed = true;
                args.execute = true;
            }
            "--trace" => {
                args.trace = Some(it.next().ok_or("--trace needs an output path")?);
                args.execute = true;
            }
            "--threads" => {
                let t: usize = it
                    .next()
                    .ok_or("--threads needs a value")?
                    .parse()
                    .map_err(|e| format!("bad --threads: {e}"))?;
                if t == 0 {
                    return Err("--threads must be at least 1".to_string());
                }
                args.threads = Some(t);
            }
            "--seed" => {
                args.seed = it
                    .next()
                    .ok_or("--seed needs a value")?
                    .parse()
                    .map_err(|e| format!("bad --seed: {e}"))?;
            }
            "--help" | "-h" => print_usage(&format!(
                "usage: tce SPEC.tce [--memory-limit N] [--cache N] [--grid PxQ] \
                 [--word-cost N] [--execute] [--fused] [--distributed] [--seed S] \
                 [--threads T] [--trace OUT.json]\n       \
                 {SERVE_USAGE}\n       {CALIBRATE_USAGE}"
            )),
            other if args.spec_path.is_empty() && !other.starts_with('-') => {
                args.spec_path = other.to_string();
            }
            other => return Err(format!("unknown argument `{other}` (try --help)")),
        }
    }
    if args.spec_path.is_empty() {
        return Err("no specification file given (try --help)".to_string());
    }
    if args.distributed && args.grid.is_none() {
        return Err("--distributed requires --grid (e.g. --grid 2x4)".to_string());
    }
    if args.fused && args.distributed {
        return Err("--fused and --distributed are mutually exclusive".to_string());
    }
    Ok(args)
}

fn serve_args() -> Result<tce_serve::ServeConfig, String> {
    let mut cfg = tce_serve::ServeConfig {
        addr: "127.0.0.1:7470".to_string(),
        workers: tce_core::par::default_threads(),
        ..tce_serve::ServeConfig::default()
    };
    let mut it = std::env::args().skip(2);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => cfg.addr = it.next().ok_or("--addr needs HOST:PORT")?,
            "--workers" => {
                let w: usize = it
                    .next()
                    .ok_or("--workers needs a value")?
                    .parse()
                    .map_err(|e| format!("bad --workers: {e}"))?;
                if w == 0 {
                    return Err("--workers must be at least 1".to_string());
                }
                cfg.workers = w;
            }
            "--queue" => {
                let q: usize = it
                    .next()
                    .ok_or("--queue needs a value")?
                    .parse()
                    .map_err(|e| format!("bad --queue: {e}"))?;
                if q == 0 {
                    return Err("--queue must be at least 1".to_string());
                }
                cfg.queue_cap = q;
            }
            "--timeout-ms" => {
                let ms: u64 = it
                    .next()
                    .ok_or("--timeout-ms needs a value")?
                    .parse()
                    .map_err(|e| format!("bad --timeout-ms: {e}"))?;
                if ms == 0 {
                    return Err("--timeout-ms must be at least 1".to_string());
                }
                cfg.timeout = std::time::Duration::from_millis(ms);
            }
            "--help" | "-h" => print_usage(&format!("usage: {SERVE_USAGE}")),
            other => return Err(format!("unknown serve argument `{other}` (try --help)")),
        }
    }
    Ok(cfg)
}

/// Validate every environment knob before any work: a typo'd
/// `TCE_THREADS=banana`, an unreadable `TCE_CALIBRATION` or an unknown
/// `TCE_KERNEL` is a one-line diagnostic and a nonzero exit, not a silent
/// clamp or a panic inside the first contraction.  Returns the
/// `TCE_CALIBRATION` profile, read and parsed once.
fn validate_env() -> Result<Option<tce_core::calib::Profile>, String> {
    tce_core::par::threads_env_requested()?;
    let profile = tce_core::calib::calibration_env_requested()?;
    tce_core::tensor::kernels::env_requested()?;
    Ok(profile)
}

struct CalibrateArgs {
    out: String,
    budget_ms: u64,
    seed: u64,
    threads: Option<usize>,
}

fn calibrate_args() -> Result<CalibrateArgs, String> {
    let mut args = CalibrateArgs {
        out: String::new(),
        budget_ms: tce_core::calib::probe::ProbeOptions::default().budget_ms,
        seed: tce_core::calib::probe::ProbeOptions::default().seed,
        threads: None,
    };
    let mut it = std::env::args().skip(2);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--out" => args.out = it.next().ok_or("--out needs a file path")?,
            "--budget-ms" => {
                let ms: u64 = it
                    .next()
                    .ok_or("--budget-ms needs a value")?
                    .parse()
                    .map_err(|e| format!("bad --budget-ms: {e}"))?;
                if ms == 0 {
                    return Err("--budget-ms must be at least 1".to_string());
                }
                args.budget_ms = ms;
            }
            "--seed" => {
                args.seed = it
                    .next()
                    .ok_or("--seed needs a value")?
                    .parse()
                    .map_err(|e| format!("bad --seed: {e}"))?;
            }
            "--threads" => {
                let t: usize = it
                    .next()
                    .ok_or("--threads needs a value")?
                    .parse()
                    .map_err(|e| format!("bad --threads: {e}"))?;
                if t == 0 {
                    return Err("--threads must be at least 1".to_string());
                }
                args.threads = Some(t);
            }
            "--help" | "-h" => print_usage(&format!("usage: {CALIBRATE_USAGE}")),
            other => return Err(format!("unknown calibrate argument `{other}` (try --help)")),
        }
    }
    if args.out.is_empty() {
        return Err("tce calibrate needs --out PROFILE.json (try --help)".to_string());
    }
    Ok(args)
}

fn calibrate_main() -> ExitCode {
    let args = match calibrate_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = validate_env() {
        eprintln!("{e}");
        return ExitCode::FAILURE;
    }
    let opts = tce_core::calib::probe::ProbeOptions {
        seed: args.seed,
        budget_ms: args.budget_ms,
        threads: args.threads.unwrap_or_else(tce_core::par::default_threads),
    };
    let profile = tce_core::calib::probe::run_probes(&opts);
    if let Err(e) = std::fs::write(&args.out, profile.to_json()) {
        eprintln!("cannot write profile {}: {e}", args.out);
        return ExitCode::FAILURE;
    }
    for (variant, rates) in &profile.gemm_gfs {
        println!(
            "  gemm {variant}: {:.2} / {:.2} / {:.2} GF/s (small/medium/large)",
            rates.small, rates.medium, rates.large
        );
    }
    println!(
        "  copy {:.2} GB/s, permute {:.2} GB/s, dispatch {:.1} ns/task",
        profile.copy_gbs, profile.permute_gbs, profile.dispatch_ns
    );
    for (level, gbs) in &profile.mem_gbs {
        println!("  {level}: {gbs:.2} GB/s");
    }
    println!("calibration profile written to {}", args.out);
    ExitCode::SUCCESS
}

fn serve_main() -> ExitCode {
    let cfg = match serve_args() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    // `TCE_CALIBRATION` applies measured cost rates to every request this
    // service compiles.
    let calibration = match validate_env() {
        Ok(p) => p.map(|p| p.rates(tce_core::tensor::kernels::active().name())),
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    tce_serve::server::install_sigterm_drain();
    let handler = std::sync::Arc::new(
        tce_core::serve::PipelineHandler::default().with_calibration(calibration),
    );
    let server = match tce_serve::Server::bind(&cfg, handler) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot bind {}: {e}", cfg.addr);
            return ExitCode::FAILURE;
        }
    };
    // The OS-resolved address on its own line so scripts (and the CI
    // smoke job) can parse the port when `--addr` used port 0.
    println!("tce-serve listening on {}", server.local_addr());
    println!(
        "  {} workers, queue {}, timeout {:?}",
        cfg.workers, cfg.queue_cap, cfg.timeout
    );
    if let Err(e) = std::io::stdout().flush() {
        stdout_failed(e)
    }
    let handle = server.spawn();
    let final_stats = handle.join();
    println!(
        "tce-serve drained (served {}, errors {}, shed {}, timeouts {}, panics {})",
        final_stats.served,
        final_stats.errors,
        final_stats.shed,
        final_stats.timeouts,
        final_stats.panics
    );
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    match std::env::args().nth(1).as_deref() {
        Some("serve") => return serve_main(),
        Some("calibrate") => return calibrate_main(),
        _ => {}
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let profile = match validate_env() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let src = match std::fs::read_to_string(&args.spec_path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot read {}: {e}", args.spec_path);
            return ExitCode::FAILURE;
        }
    };

    if args.trace.is_some() {
        tce_trace::reset();
        tce_trace::set_enabled(true);
    }

    // The `TCE_CALIBRATION` profile's rates for the kernel variant that
    // will actually run.
    let rates = profile.map(|p| p.rates(tce_core::tensor::kernels::active().name()));

    let cfg = SynthesisConfig {
        memory_limit: args.memory_limit,
        cache_elements: args.cache,
        hierarchy: MemoryHierarchy::cache_and_disk(args.cache.unwrap_or(64 * 1024), 1 << 30),
        machine: args.grid.clone().map(|dims| Machine {
            grid: ProcessorGrid::new(dims),
            word_cost: args.word_cost,
        }),
        calibration: rates.clone(),
    };
    let syn = match synthesize(&src, &cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };

    for plan in &syn.plans {
        println!("{}", plan.report(&syn.program.space, &syn.program));
    }

    if args.execute {
        // Bind deterministic inputs and integrals via the same helpers
        // `tce serve` uses, so served answers diff clean against this
        // one-shot path.
        if let Err(e) = tce_core::serve::check_memory_budget(&syn, args.fused) {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
        let owned = tce_core::serve::bind_random_inputs(&syn, args.seed);
        let inputs: HashMap<_, _> = owned.iter().map(|(id, t)| (*id, t)).collect();
        let funcs = tce_core::serve::bind_functions(&syn, args.seed);

        let opts = match args.threads {
            Some(t) => ExecOptions::with_threads(t),
            None => ExecOptions::default(),
        };
        println!(
            "== execution (seed {}, {} thread{}) ==",
            args.seed,
            opts.threads,
            if opts.threads == 1 { "" } else { "s" }
        );
        // Hidden test hook: `TCE_FAULT_INJECT=comm|liveset` perturbs the
        // *measured* side of a conformance comparison so the MISMATCH exit
        // paths below can be exercised end-to-end (tests/cli.rs).
        let fault = std::env::var("TCE_FAULT_INJECT").ok();
        let exec_started = std::time::Instant::now();
        let results = if args.distributed {
            let mut summary = match syn.execute_distributed_opts(&inputs, &funcs, &opts) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("execution failed: {e}");
                    return ExitCode::FAILURE;
                }
            };
            if fault.as_deref() == Some("comm") {
                summary.moved_elements += 1;
            }
            println!(
                "  distributed over grid {:?}: {} redistribution{}",
                syn.machine
                    .as_ref()
                    .map(|m| m.grid.dims().to_vec())
                    .unwrap_or_default(),
                summary.redistributions,
                if summary.redistributions == 1 {
                    ""
                } else {
                    "s"
                }
            );
            println!(
                "  redistribution elements: measured {} / modeled {}{}",
                summary.moved_elements,
                summary.predicted_move_elements,
                if summary.moved_elements == summary.predicted_move_elements {
                    " (exact)"
                } else {
                    " (MISMATCH)"
                }
            );
            println!(
                "  reduction words: measured {} / modeled {}{}",
                summary.reduce_words,
                summary.predicted_reduce_words,
                if summary.reduce_words == summary.predicted_reduce_words {
                    " (exact)"
                } else {
                    " (MISMATCH)"
                }
            );
            println!("  busiest rank: {} flops", summary.max_rank_flops());
            if summary.moved_elements != summary.predicted_move_elements
                || summary.reduce_words != summary.predicted_reduce_words
            {
                eprintln!("measured communication diverged from the cost model");
                return ExitCode::FAILURE;
            }
            summary.outputs
        } else if args.fused {
            let mut summary = match syn.execute_fused_opts(&inputs, &funcs, &opts) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("execution failed: {e}");
                    return ExitCode::FAILURE;
                }
            };
            if fault.as_deref() == Some("liveset") {
                summary.peak_live_elements += 1;
                if let Some(term) = summary.per_term.first_mut() {
                    term.peak_live_elements += 1;
                }
            }
            println!(
                "  peak intermediate live-set: measured {} / modeled {}{}",
                summary.peak_live_elements,
                summary.modeled_elements,
                if summary.peak_matches_model() {
                    " (exact)"
                } else {
                    " (MISMATCH)"
                }
            );
            println!(
                "  sliced contractions: {}, integral evaluations: {}",
                summary.sliced_contractions, summary.func_evals
            );
            if !summary.peak_matches_model() {
                eprintln!("measured peak live-set diverged from the selected plan's memory model");
                return ExitCode::FAILURE;
            }
            summary.outputs
        } else {
            match syn.execute_opts(&inputs, &funcs, &opts) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("execution failed: {e}");
                    return ExitCode::FAILURE;
                }
            }
        };
        // Close the calibration loop: price the synthesized plans with the
        // measured rates and report predicted vs. measured wall time (also
        // recorded as `calib.*` trace counters for `--trace` reports).
        if let Some(rates) = &rates {
            let measured_ns = exec_started.elapsed().as_nanos() as f64;
            let predicted_ns = syn.predicted_exec_ns(rates);
            tce_core::record_prediction(predicted_ns, measured_ns);
            println!(
                "  calibration: predicted {:.3} ms / measured {:.3} ms (ratio {:.2})",
                predicted_ns / 1e6,
                measured_ns / 1e6,
                predicted_ns / measured_ns.max(1.0)
            );
        }
        println!("{}", tce_core::serve::format_results(&syn, &results));
    }

    if let Some(path) = &args.trace {
        tce_trace::set_enabled(false);
        let trace = tce_trace::take();
        if let Err(e) = std::fs::write(path, trace.to_chrome_json()) {
            eprintln!("cannot write trace {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("{}", trace.report());
        println!("trace written to {path}");
    }
    ExitCode::SUCCESS
}
