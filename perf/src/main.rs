//! `exp_perf` — the repo's one benchmark.
//!
//! ```text
//! exp_perf --workload NAME --seed N --seconds S --trace 0|1 [--quick]
//! exp_perf --all       [--seed N] [--seconds S] [--runs R] [--quick] [--out FILE]
//! exp_perf --selfcheck [--seed N] [--seconds S] [--runs R] [--quick]
//! exp_perf --compare BASE.json [--with NEW.json]
//! ```
//!
//! The first form is one run of one workload (what the driver invokes);
//! its last line of output is the result object.  See `perf/README.md`.

use exp_perf::json::{self, Json};
use exp_perf::report::{
    compare, failed_in, render_compare, render_run, render_set, results_dir, run_set, write_file,
    SetArgs, Verdict,
};
use exp_perf::run::{Host, RunArgs, RunReport};
use exp_perf::spec::BenchmarkDef;
use exp_perf::{exec_wl, serve_wl, span, synth_wl};
use std::path::PathBuf;
use std::process::ExitCode;

/// What the command line asked for.
#[derive(Debug, Default)]
struct Cli {
    workload: Option<String>,
    all: bool,
    selfcheck: bool,
    compare: Option<PathBuf>,
    with: Option<PathBuf>,
    out: Option<PathBuf>,
    seed: Option<u64>,
    seconds: Option<f64>,
    runs: Option<usize>,
    trace: bool,
    quick: bool,
}

fn parse_cli(args: impl Iterator<Item = String>) -> Result<Cli, String> {
    fn value<T: std::str::FromStr>(
        flag: &str,
        args: &mut impl Iterator<Item = String>,
    ) -> Result<T, String> {
        let text = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        text.parse()
            .map_err(|_| format!("bad value `{text}` for {flag}"))
    }
    let mut cli = Cli::default();
    let mut args = args;
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--workload" => cli.workload = Some(value(&flag, &mut args)?),
            "--seed" => cli.seed = Some(value(&flag, &mut args)?),
            "--seconds" => {
                let seconds: f64 = value(&flag, &mut args)?;
                if !(seconds.is_finite() && seconds >= 0.0) {
                    return Err(format!(
                        "--seconds must be a non-negative number, got {seconds}"
                    ));
                }
                cli.seconds = Some(seconds);
            }
            "--trace" => {
                cli.trace = match value::<u8>(&flag, &mut args)? {
                    0 => false,
                    1 => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            "--runs" => {
                cli.runs = Some(value(&flag, &mut args)?);
                if cli.runs == Some(0) {
                    return Err("--runs must be at least 1".into());
                }
            }
            "--quick" => cli.quick = true,
            "--all" => cli.all = true,
            "--selfcheck" => cli.selfcheck = true,
            "--compare" => cli.compare = Some(value(&flag, &mut args)?),
            "--with" => cli.with = Some(value(&flag, &mut args)?),
            "--out" => cli.out = Some(value(&flag, &mut args)?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let modes = [
        cli.workload.is_some(),
        cli.all,
        cli.selfcheck,
        cli.compare.is_some(),
    ];
    if modes.iter().filter(|&&m| m).count() != 1 {
        return Err(
            "give exactly one of --workload NAME, --all, --selfcheck, --compare BASE".into(),
        );
    }
    Ok(cli)
}

/// One run of one workload, in this process.
fn run_workload(args: &RunArgs, host: &Host, def: &BenchmarkDef) -> Result<RunReport, String> {
    match args.workload.as_str() {
        "synth_only" => synth_wl::run(args, host, def),
        "serve_cold" => serve_wl::run(args, host, def, false),
        "serve_hot" => serve_wl::run(args, host, def, true),
        name => match exec_wl::spec_for(name, args.quick) {
            Some(spec) => exec_wl::run(args, host, def, &spec),
            None => {
                let names: Vec<&str> = def.workloads.iter().map(|w| w.name.as_str()).collect();
                Err(format!(
                    "unknown workload `{name}` (expected one of {})",
                    names.join(", ")
                ))
            }
        },
    }
}

fn load(path: &PathBuf) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn real_main() -> Result<ExitCode, String> {
    // Before any tce code reads its environment.
    let host = Host::pin();
    let cli = parse_cli(std::env::args().skip(1))?;
    let def = BenchmarkDef::embedded();
    let seed = cli.seed.unwrap_or(1);
    let seconds = cli.seconds.unwrap_or(def.run_seconds as f64);

    if let Some(workload) = cli.workload {
        let args = RunArgs {
            workload,
            seed,
            seconds,
            trace: cli.trace,
            quick: cli.quick,
        };
        let report = run_workload(&args, &host, &def)?;
        if args.trace {
            let path = results_dir().join(format!("trace_{}.json", args.workload));
            write_file(&path, &json::to_line(&span::to_json(&report.spans)))?;
            println!("wrote {} spans to {}", report.spans.len(), path.display());
        }
        print!("{}", render_run(&args, &host, &def, &report));
        return Ok(if report.tally.failed == 0 {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        });
    }

    if let Some(base_path) = cli.compare {
        let new_path = cli.with.unwrap_or_else(|| results_dir().join("perf.json"));
        let (base, new) = (load(&base_path)?, load(&new_path)?);
        println!("base {} · new {}", base_path.display(), new_path.display());
        print!("{}", render_compare(&def, &base, &new));
        let worse = compare(&def, &base, &new)
            .iter()
            .any(|(_, _, v, _)| *v == Verdict::Worse);
        return Ok(if worse {
            ExitCode::FAILURE
        } else {
            ExitCode::SUCCESS
        });
    }

    let set = SetArgs {
        seed,
        seconds,
        runs: cli.runs.unwrap_or(3),
        quick: cli.quick,
    };
    if cli.all {
        let results = run_set(&def, &set)?;
        let path = cli.out.unwrap_or_else(|| results_dir().join("perf.json"));
        write_file(&path, &json::to_line(&results))?;
        print!("{}", render_set(&def, &results));
        println!("\nwrote {}", path.display());
        return Ok(if failed_in(&results) == 0.0 {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        });
    }

    // --selfcheck: the same build measured twice must agree with itself.
    let mut sets = Vec::new();
    for label in ["a", "b"] {
        eprintln!("selfcheck set {label}");
        let results = run_set(&def, &set)?;
        write_file(
            &results_dir().join(format!("selfcheck_{label}.json")),
            &json::to_line(&results),
        )?;
        print!("{}", render_set(&def, &results));
        sets.push(results);
    }
    println!("\nset b against set a");
    print!("{}", render_compare(&def, &sets[0], &sets[1]));
    // The medians and the throughput must resolve; tails and memory may
    // be unresolved on a noisy host without failing the check.
    let must_resolve = ["op_p50_ms", "throughput_ops"];
    let bad: Vec<String> = compare(&def, &sets[0], &sets[1])
        .into_iter()
        .filter(|(_, metric, v, _)| {
            *v == Verdict::Worse
                || (*v == Verdict::Unresolved && must_resolve.contains(&metric.as_str()))
        })
        .map(|(w, m, v, _)| format!("{w}/{m}: {}", v.label()))
        .collect();
    let failed = sets.iter().map(failed_in).sum::<f64>();
    if bad.is_empty() && failed == 0.0 {
        println!("selfcheck passed");
        Ok(ExitCode::SUCCESS)
    } else {
        println!(
            "selfcheck FAILED: {} failed operations; {}",
            failed,
            bad.join("; ")
        );
        Ok(ExitCode::FAILURE)
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(code) => code,
        Err(message) => {
            eprintln!("exp_perf: {message}");
            ExitCode::from(2)
        }
    }
}
