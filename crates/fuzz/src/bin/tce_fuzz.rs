//! `tce-fuzz` — run a seeded conformance campaign from the command line.
//!
//! ```text
//! tce-fuzz [--seed S] [--budget N] [--check all|exec,cost,dist,roundtrip]
//!          [--grids 1x1,2x2] [--extended] [--out DIR] [--corpus DIR] [--quiet]
//! ```
//!
//! Identical seeds produce identical expression streams and verdicts.
//! Exits 0 when every case passes every configured invariant; exits 1 on
//! any failure, after shrinking it and printing the minimized repro (and
//! its file path when `--out` is given).

use std::path::PathBuf;
use std::process::ExitCode;

use tce_fuzz::{CheckSet, FuzzConfig, GenConfig};

struct Args {
    seed: u64,
    budget: usize,
    check: CheckSet,
    grids: Option<Vec<Vec<usize>>>,
    extended: bool,
    out: Option<PathBuf>,
    corpus: Option<PathBuf>,
    quiet: bool,
}

fn parse_u64(text: &str) -> Result<u64, String> {
    let text = text.trim();
    let parsed = if let Some(hex) = text.strip_prefix("0x").or_else(|| text.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16)
    } else {
        text.parse()
    };
    parsed.map_err(|_| format!("not a number: `{text}`"))
}

fn parse_grids(text: &str) -> Result<Vec<Vec<usize>>, String> {
    text.split(',')
        .filter(|s| !s.is_empty())
        .map(|g| {
            let dims: Vec<usize> = g
                .split('x')
                .map(|d| {
                    d.parse::<usize>()
                        .ok()
                        .filter(|&n| n > 0)
                        .ok_or_else(|| format!("bad grid `{g}`"))
                })
                .collect::<Result<_, _>>()?;
            if dims.len() > tce_core::MAX_GRID_RANK {
                return Err(format!(
                    "bad grid `{g}`: at most {} dimensions",
                    tce_core::MAX_GRID_RANK
                ));
            }
            Ok(dims)
        })
        .collect()
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        seed: 0xCAFE_F00D,
        budget: 200,
        check: CheckSet::all(),
        grids: None,
        extended: false,
        out: None,
        corpus: None,
        quiet: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--seed" => args.seed = parse_u64(&value("--seed")?)?,
            "--budget" => {
                args.budget = value("--budget")?
                    .parse()
                    .map_err(|_| "bad --budget".to_string())?;
            }
            "--check" => args.check = CheckSet::parse(&value("--check")?)?,
            "--grids" => args.grids = Some(parse_grids(&value("--grids")?)?),
            "--extended" => args.extended = true,
            "--out" => args.out = Some(PathBuf::from(value("--out")?)),
            "--corpus" => args.corpus = Some(PathBuf::from(value("--corpus")?)),
            "--quiet" => args.quiet = true,
            "--help" | "-h" => {
                println!(
                    "usage: tce-fuzz [--seed S] [--budget N] [--check all|exec,cost,dist,roundtrip]\n\
                     \x20               [--grids 1x1,2x2] [--extended] [--out DIR] [--corpus DIR] [--quiet]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("tce-fuzz: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut cfg = FuzzConfig::new(args.seed, args.budget);
    if args.extended {
        cfg.gen = GenConfig::extended();
    }
    cfg.check.set = args.check;
    if let Some(grids) = args.grids {
        cfg.check.grids = grids;
    }
    cfg.repro_dir = args.out.clone();
    cfg.corpus_dir = args.corpus;

    if !args.quiet {
        println!(
            "tce-fuzz: seed {:#x}, budget {}, checks {:?}",
            args.seed, args.budget, args.check
        );
    }
    let quiet = args.quiet;
    let report = tce_fuzz::run_campaign_with(&cfg, |case, failed| {
        if !quiet && (case + 1) % 100 == 0 {
            println!("  ... {} cases, {failed} failures", case + 1);
        }
    });

    println!(
        "tce-fuzz: {} cases — {} executor runs, {} kernel-variant runs, {} grids, {} model checks",
        report.cases,
        report.stats.executor_runs,
        report.stats.kernel_variants,
        report.stats.grids,
        report.stats.model_checks,
    );
    if report.passed() {
        println!("tce-fuzz: PASS");
        return ExitCode::SUCCESS;
    }
    for f in &report.failures {
        println!(
            "\ntce-fuzz: FAIL case {} (seed {:#x}) — {}: {}",
            f.case, f.case_seed, f.kind, f.detail
        );
        println!(
            "  minimized to {} operand(s) in {} step(s):",
            f.shrunk_operands, f.shrink_steps
        );
        for line in f.shrunk_src.lines() {
            println!("    {line}");
        }
        match &f.repro_path {
            Some(p) => println!("  repro written to {}", p.display()),
            None => println!("  (rerun with --out DIR to write a repro file)"),
        }
    }
    println!("\ntce-fuzz: {} failure(s)", report.failures.len());
    ExitCode::FAILURE
}
