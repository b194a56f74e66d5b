//! Fixed-seed fuzz conformance smoke corpus, wired into `cargo test`.
//!
//! Pins a deterministic campaign of generated expressions through the full
//! invariant catalog (executor differentials, cost-model conformance,
//! distributed communication volumes, round trips), plus
//! meta-tests proving the harness itself works: determinism of the
//! expression stream, and an intentionally injected executor bug being
//! caught and shrunk to a tiny repro.
//!
//! Override the campaign seed with `TCE_TEST_SEED` (decimal or `0x` hex);
//! the active seed is printed on failure.

use tce_fuzz::{
    case_seed, check_program, gen_case, repro_source, run_campaign, CheckConfig, CheckKind,
    CheckSet, Fault, FuzzConfig, GenConfig,
};
use tce_ir::rng::{seed_from_env, SeedGuard};

const SMOKE_SEED: u64 = 0xF0CC_5EED;

/// Smoke corpus size.  The acceptance bar is ≥200 expressions through all
/// checks; debug builds run the same corpus (the generator's smoke shapes
/// keep every tensor tiny).
const SMOKE_BUDGET: usize = 200;

#[test]
fn smoke_corpus_passes_all_checks() {
    let seed = seed_from_env(SMOKE_SEED);
    let _guard = SeedGuard::new("smoke_corpus_passes_all_checks", seed);
    let cfg = FuzzConfig::new(seed, SMOKE_BUDGET);
    let report = run_campaign(&cfg);
    assert_eq!(report.cases, SMOKE_BUDGET);
    for f in &report.failures {
        eprintln!(
            "case {} (seed {:#x}) failed {}: {}\nminimized:\n{}",
            f.case, f.case_seed, f.kind, f.detail, f.shrunk_src
        );
    }
    assert!(
        report.passed(),
        "{} of {} cases failed conformance",
        report.failures.len(),
        report.cases
    );
    // The corpus must actually exercise the catalog, not vacuously pass.
    assert!(report.stats.executor_runs >= SMOKE_BUDGET * 3);
    assert!(report.stats.grids >= SMOKE_BUDGET);
    assert!(report.stats.model_checks >= SMOKE_BUDGET);
    assert!(
        report.stats.kernel_variants > 0,
        "no kernel variants exercised"
    );
}

#[test]
fn extended_corpus_passes_all_checks() {
    // A smaller run over the larger grammar (3 ranges, deeper statements).
    let seed = seed_from_env(SMOKE_SEED ^ 0xE);
    let _guard = SeedGuard::new("extended_corpus_passes_all_checks", seed);
    let mut cfg = FuzzConfig::new(seed, if cfg!(debug_assertions) { 20 } else { 60 });
    cfg.gen = GenConfig::extended();
    let report = run_campaign(&cfg);
    for f in &report.failures {
        eprintln!(
            "case {} (seed {:#x}) failed {}: {}\nminimized:\n{}",
            f.case, f.case_seed, f.kind, f.detail, f.shrunk_src
        );
    }
    assert!(report.passed());
}

#[test]
fn campaign_is_deterministic() {
    // Identical seeds → identical expression stream and identical verdicts,
    // independent of budget.
    let gen = GenConfig::smoke();
    for case in 0..30 {
        let a = tce_lang::unparse(&gen_case(0x5EED, case, &gen));
        let b = tce_lang::unparse(&gen_case(0x5EED, case, &gen));
        assert_eq!(a, b, "case {case} diverged across regenerations");
        assert_eq!(case_seed(0x5EED, case), case_seed(0x5EED, case));
    }
    // Different campaign seeds decorrelate the stream.
    let a = tce_lang::unparse(&gen_case(0x5EED, 0, &gen));
    let b = tce_lang::unparse(&gen_case(0x5EEE, 0, &gen));
    assert_ne!(a, b);

    let mut cfg = FuzzConfig::new(0x5EED, 12);
    cfg.check.set = CheckSet {
        dist: false,
        ..CheckSet::all()
    };
    let r1 = run_campaign(&cfg);
    let r2 = run_campaign(&cfg);
    assert_eq!(r1.cases, r2.cases);
    assert_eq!(r1.failures.len(), r2.failures.len());
    assert_eq!(r1.stats.executor_runs, r2.stats.executor_runs);
    assert_eq!(r1.stats.model_checks, r2.stats.model_checks);
}

#[test]
fn injected_bug_is_caught_and_shrunk() {
    // Prove the harness catches a real executor bug and minimizes it: a
    // fault biasing the GETT tree executor on any true contraction must be
    // flagged as an exec-diff and shrunk to a repro of at most 3 operands.
    let seed = seed_from_env(SMOKE_SEED ^ 0xB06);
    let _guard = SeedGuard::new("injected_bug_is_caught_and_shrunk", seed);
    let mut cfg = FuzzConfig::new(seed, 40);
    cfg.check.set = CheckSet {
        exec: true,
        cost: false,
        dist: false,
        roundtrip: false,
    };
    cfg.check.fault = Some(Fault::TreeExecBias);
    let report = run_campaign(&cfg);
    assert!(
        !report.failures.is_empty(),
        "injected tree-executor fault was not caught in {} cases",
        report.cases
    );
    let f = &report.failures[0];
    assert_eq!(
        f.kind,
        CheckKind::ExecDiff,
        "fault misattributed: {}",
        f.detail
    );
    assert!(
        f.shrunk_operands <= 3,
        "repro not minimized: {} operands\n{}",
        f.shrunk_operands,
        f.shrunk_src
    );
    // The minimized repro must still contain a true contraction (the fault
    // only fires on ≥2-factor terms) and still reproduce the failure.
    assert!(f.shrunk_operands >= 2);
    let shrunk = tce_lang::compile(&f.shrunk_src).expect("shrunk repro must compile");
    let replay = check_program(&shrunk, &{
        let mut ck = cfg.check.clone();
        ck.data_seed = tce_ir::rng::split_seed(ck.data_seed ^ f.case_seed);
        ck
    });
    assert!(
        matches!(replay, Err(ref e) if e.kind == CheckKind::ExecDiff),
        "minimized repro no longer reproduces: {replay:?}"
    );
    // The self-contained repro file (metadata header + source) compiles
    // as-is — `#` lines are comments to the lexer.
    let text = repro_source(f, cfg.seed);
    assert!(text.contains("# tce-fuzz repro"));
    tce_lang::compile(&text).expect("repro file with metadata header must compile");

    // Without the fault, the same stream is clean: the harness is not
    // flagging healthy executors.
    let mut clean = cfg.clone();
    clean.check.fault = None;
    assert!(run_campaign(&clean).passed());
}

#[test]
fn generated_corpus_is_structurally_diverse() {
    // The generator must actually produce the features the catalog claims
    // to cover: multi-term statements, function factors, accumulations,
    // shared intermediates (a tensor read after being written).
    let gen = GenConfig::smoke();
    let (mut multi_term, mut funcs, mut accum, mut reuse) = (0, 0, 0, 0);
    for case in 0..SMOKE_BUDGET {
        let p = gen_case(SMOKE_SEED, case, &gen);
        p.validate().expect("generated program must validate");
        let mut written = Vec::new();
        for stmt in &p.stmts {
            if stmt.terms.len() > 1 {
                multi_term += 1;
            }
            if stmt.accumulate {
                accum += 1;
            }
            for term in &stmt.terms {
                for factor in &term.factors {
                    match factor {
                        tce_ir::Factor::Func(_) => funcs += 1,
                        tce_ir::Factor::Tensor(r) => {
                            if written.contains(&r.tensor) {
                                reuse += 1;
                            }
                        }
                    }
                }
            }
            written.push(stmt.lhs.tensor);
        }
    }
    assert!(
        multi_term > 10,
        "too few multi-term statements: {multi_term}"
    );
    assert!(funcs > 10, "too few function factors: {funcs}");
    assert!(accum > 5, "too few accumulate statements: {accum}");
    assert!(reuse > 10, "too few shared intermediates: {reuse}");
}

#[test]
fn check_parsing_matches_cli_contract() {
    assert_eq!(CheckSet::parse("all").unwrap(), CheckSet::all());
    let s = CheckSet::parse("exec,cost").unwrap();
    assert!(s.exec && s.cost && !s.dist && !s.roundtrip);
    let s = CheckSet::parse("roundtrip").unwrap();
    assert!(s.roundtrip && !s.exec && !s.cost && !s.dist);
    assert!(CheckSet::parse("bogus").is_err());
    assert!(CheckSet::parse("").is_err());
    // Sparsity and the schedule check were deleted, not renamed: their old
    // check names are unknown.
    assert!(CheckSet::parse("sparse").is_err());
    assert!(CheckSet::parse("sched").is_err());
    assert!(CheckSet::parse("exec,sparse").is_err());
    let _ = CheckConfig::default();
}

#[test]
fn grids_past_the_synthesis_bound_are_rejected_by_the_cli() {
    for grids in ["1x1,1x1x1x1x1", "2x2x2x2x2x2"] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_tce-fuzz"))
            .args(["--budget", "1", "--grids", grids])
            .output()
            .expect("spawn tce-fuzz");
        assert!(!out.status.success(), "--grids {grids} must exit nonzero");
        assert!(out.stdout.is_empty(), "--grids {grids} ran a campaign");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("at most 4 dimensions"), "{stderr}");
    }
}
