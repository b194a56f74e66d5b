//! Black-box tests of the `tce` binary: malformed input must produce a
//! diagnostic on stderr and a nonzero exit status (never a panic), the
//! distributed path must report exact measured-vs-modeled agreement, and
//! the fused path must report an exact measured-vs-modeled peak
//! intermediate live-set.

use std::process::Command;

fn tce() -> Command {
    Command::new(env!("CARGO_BIN_EXE_tce"))
}

/// These tests are registered from `crates/core`, so the examples live
/// two levels up.
fn spec(name: &str) -> String {
    format!("{}/../../examples/specs/{name}", env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn malformed_inputs_fail_cleanly() {
    let chain = spec("matrix_chain.tce");
    let cases: Vec<Vec<&str>> = vec![
        vec![],                                                    // no spec file
        vec!["/nonexistent/never.tce"],                            // unreadable file
        vec![&chain, "--cache", "pow"],                            // bad --cache
        vec![&chain, "--grid", "2y4"],                             // bad --grid format
        vec![&chain, "--grid", "0x2"],                             // zero grid dimension
        vec![&chain, "--grid", "x"],                               // empty grid dimension
        vec![&chain, "--threads", "0"],                            // zero threads
        vec![&chain, "--distributed"],                             // missing --grid
        vec![&chain, "--memory-limit", "-3"],                      // negative limit
        vec![&chain, "--bogus-flag"],                              // unknown flag
        vec![&chain, "--fused", "--distributed", "--grid", "2x2"], // conflict
        vec![&chain, "--schedule", "bogus"],                       // retired flag
        vec![&chain, "--schedule"],                                // retired flag, no value
    ];
    for args in &cases {
        let out = tce().args(args).output().expect("spawn tce");
        assert!(
            !out.status.success(),
            "tce {args:?} should exit nonzero, got {:?}",
            out.status
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!stderr.is_empty(), "tce {args:?} should print a diagnostic");
        assert!(
            !stderr.contains("panicked"),
            "tce {args:?} panicked:\n{stderr}"
        );
    }
    // A 17-factor chain is one factor past what operation minimization
    // tabulates: a one-line synthesis error, not an assertion.
    let vars: Vec<String> = (0..18).map(|q| format!("i{q}")).collect();
    let chain17 = format!(
        "range N = 2;\nindex {} : N;\ntensor A(N, N);\ntensor S(N, N);\n\
         S[i0,i17] = sum[{}] {};\n",
        vars.join(", "),
        vars[1..17].join(","),
        (0..17)
            .map(|q| format!("A[i{q},i{}]", q + 1))
            .collect::<Vec<_>>()
            .join(" * ")
    );
    let out = run_program("chain17", &chain17, &[]);
    assert_eq!(out.status.code(), Some(1), "17-factor chain");
    assert_eq!(
        one_line_failure(&out, "17-factor chain"),
        "synthesis error: statement 0 term 0: a term has 17 factors, more than the 16 \
         operation minimization supports"
    );
    // One index name past `IndexSet::MAX_VARS` is a language error at its
    // declaration, not an assertion inside the index space.
    let names: Vec<String> = (0..65).map(|q| format!("i{q}")).collect();
    let wide = format!("range N = 2;\nindex {} : N;\n", names.join(", "));
    let out = run_program("wide", &wide, &[]);
    assert_eq!(out.status.code(), Some(1), "65 index names");
    assert_eq!(
        one_line_failure(&out, "65 index names"),
        "language error: 2:1: index `i64` is one too many: a program declares at most 64 indices"
    );
    // A term that lacks an output index would have to broadcast: the
    // diagnostic names the statement, the term and the index.
    let broadcast = "range N = 4;\nindex i, j, k : N;\ntensor A(N, N);\ntensor B(N, N);\n\
                     tensor C(N);\ntensor S(N, N);\nS[i,j] = sum[k] A[i,k] * B[k,j] + C[i];\n";
    let out = run_program("broadcast", broadcast, &[]);
    assert_eq!(out.status.code(), Some(1), "term without `j`");
    assert_eq!(
        one_line_failure(&out, "term without `j`"),
        "synthesis error: statement 0 term 1: output index `j` is missing from every factor"
    );
    // `--help`/`-h` print the usage to stdout and succeed, in all three
    // front ends; the top-level usage names both subcommands.
    for args in [
        vec!["--help"],
        vec!["-h"],
        vec!["serve", "--help"],
        vec!["serve", "-h"],
        vec!["calibrate", "--help"],
        vec!["calibrate", "-h"],
    ] {
        let out = tce().args(&args).output().expect("spawn tce");
        assert!(out.status.success(), "tce {args:?}: {:?}", out.status);
        assert!(out.stderr.is_empty(), "tce {args:?} wrote to stderr");
        let usage = String::from_utf8_lossy(&out.stdout);
        let sub = if args.len() == 2 { args[0] } else { "" };
        assert!(usage.starts_with(format!("usage: tce {sub}").trim_end()));
        for line in usage.lines() {
            assert!(!line.trim().contains("  "), "tce {args:?}: {line:?}");
        }
        if sub.is_empty() {
            assert!(usage.contains("tce serve") && usage.contains("tce calibrate"));
        }
    }
    // An unknown argument still fails, pointing at `--help`.
    for args in [
        vec!["--bogus-flag"],
        vec!["serve", "--bogus"],
        vec!["calibrate", "--bogus"],
    ] {
        let out = tce().args(&args).output().expect("spawn tce");
        assert_eq!(out.status.code(), Some(1), "tce {args:?}");
        assert!(String::from_utf8_lossy(&out.stderr).contains("(try --help)"));
    }
}

/// Write `src` to a fresh temporary spec file, run `tce` on it with
/// `args`, and return the output.
fn run_program(tag: &str, src: &str, args: &[&str]) -> std::process::Output {
    let dir = std::env::temp_dir().join(format!("tce-cli-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("spec.tce");
    std::fs::write(&path, src).unwrap();
    let out = tce().arg(&path).args(args).output().expect("spawn tce");
    let _ = std::fs::remove_dir_all(&dir);
    out
}

/// Assert a failed run with exactly one diagnostic line on stderr and no
/// panic; returns that line.
fn one_line_failure(out: &std::process::Output, what: &str) -> String {
    assert!(!out.status.success(), "{what} must exit nonzero");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{what} panicked:\n{stderr}");
    assert_eq!(
        stderr.trim().lines().count(),
        1,
        "{what}: diagnostic should be one line:\n{stderr}"
    );
    stderr.trim().to_string()
}

#[test]
fn sparse_declaration_is_a_one_line_parse_error() {
    // Neither sparsity nor symmetry declarations are part of the language:
    // an annotation after a tensor's dimensions hits the parser's ordinary
    // "expected `;`" error.
    for kw in ["sparse", "symmetric(0, 1)", "antisymmetric(0, 1)"] {
        let src = format!(
            "range N = 4;\nindex i, j, k : N;\ntensor H(N, N) {kw};\n\
             tensor A(N, N); tensor S(N, N);\nS[i,j] = sum[k] H[i,k] * A[k,j];\n"
        );
        let out = run_program("annotation", &src, &["--execute"]);
        let line = one_line_failure(&out, kw);
        let word = kw.split('(').next().unwrap();
        assert!(
            line.contains("3:") && line.contains(&format!("expected `;`, found `{word}`")),
            "diagnostic should name line 3 and the stray keyword:\n{line}"
        );
    }
}

#[test]
fn empty_or_oversized_tensors_are_one_line_errors_in_every_mode() {
    let matmul = "index i, j, k : N;\ntensor A(N, N); tensor B(N, N); tensor C(N, N);\n\
                  C[i,j] = sum[k] A[i,k] * B[k,j];\n";
    let cases = [
        // An empty range: no element to compute on.
        (format!("range N = 0;\n{matmul}"), "language error"),
        // 65536^4 elements: the `usize` element count wraps to 0.
        (
            "range N = 65536;\nindex a, b, c, d : N;\n\
             tensor A(N, N, N, N); tensor C(N, N, N, N);\nC[a,b,c,d] = A[a,b,c,d];\n"
                .to_string(),
            "synthesis error",
        ),
        // 2^64 elements: past what one allocation can hold.
        (
            format!("range N = 4294967296;\n{matmul}"),
            "synthesis error",
        ),
        // Declared tensors fit; the tree's function leaf over (i,j,k) does not.
        (
            "range N = 2097152;\nindex i, j, k : N;\nfunction f(N, N, N) cost 1;\n\
             tensor A(N, N); tensor S(N);\nS[i] = sum[j,k] f(i, j, k) * A[j, k];\n"
                .to_string(),
            "synthesis error",
        ),
    ];
    let modes: [&[&str]; 3] = [
        &["--execute"],
        &["--fused"],
        &["--distributed", "--grid", "2x2"],
    ];
    for (src, kind) in &cases {
        for mode in modes {
            let out = run_program("bounds", src, mode);
            let what = format!("{mode:?} on\n{src}");
            let line = one_line_failure(&out, &what);
            assert!(line.starts_with(kind), "{what}: expected {kind}:\n{line}");
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(!stdout.contains("|sum|"), "{what}: printed sums:\n{stdout}");
        }
    }
}

#[test]
fn programs_larger_than_available_memory_are_one_line_errors_in_every_mode() {
    // Two 300000² matrices: 1.3 TiB of static storage, refused before any
    // input is bound instead of aborting in the allocator.
    let src = "range N = 300000; index i, j : N; tensor A(N, N); tensor C(N, N); C[i,j] = A[i,j];";
    let modes: [&[&str]; 3] = [
        &["--execute"],
        &["--fused"],
        &["--distributed", "--grid", "2x2"],
    ];
    for mode in modes {
        let out = run_program("memory", src, mode);
        assert_eq!(out.status.code(), Some(1), "{mode:?}: {out:?}");
        let line = one_line_failure(&out, &format!("{mode:?}"));
        assert!(line.contains("GiB available"), "{mode:?}: {line}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            !stdout.contains("|sum|"),
            "{mode:?}: printed sums:\n{stdout}"
        );
    }
}

#[test]
fn synthesis_stdout_matches_golden_files() {
    // Chosen blocks, modeled misses and distribution costs are pinned byte
    // for byte; regenerate a file by redirecting the same command into it.
    let golden = |name: &str| {
        let path = format!("{}/../../tests/golden/{name}", env!("CARGO_MANIFEST_DIR"));
        std::fs::read(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
    };
    let cases: [(&str, &[&str]); 2] = [
        (
            "cc_doubles.cache64.grid2x2.txt",
            &["cc_doubles.tce", "--cache", "64", "--grid", "2x2"],
        ),
        (
            "a3a_energy.mem20.cache64.grid2x2.txt",
            &[
                "a3a_energy.tce",
                "--memory-limit",
                "20",
                "--cache",
                "64",
                "--grid",
                "2x2",
            ],
        ),
    ];
    for (file, args) in cases {
        let out = tce()
            .arg(spec(args[0]))
            .args(&args[1..])
            .output()
            .expect("spawn tce");
        assert!(
            out.status.success(),
            "{args:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(
            out.stdout == golden(file),
            "tce {args:?} differs from tests/golden/{file}:\n{}",
            String::from_utf8_lossy(&out.stdout)
        );
    }
}

/// Run `tce` with `args` plus `--trace` into a temporary file; returns the
/// run's stdout and the trace file's contents.
fn traced_run(tag: &str, args: &[&str]) -> (String, String) {
    traced_run_with_env(tag, args, &[])
}

/// [`traced_run`] with extra environment variables.
fn traced_run_with_env(tag: &str, args: &[&str], env: &[(&str, &str)]) -> (String, String) {
    let path = std::env::temp_dir().join(format!("tce-cli-{tag}-{}.json", std::process::id()));
    let out = tce()
        .args(args)
        .arg("--trace")
        .arg(&path)
        .envs(env.iter().copied())
        .output()
        .expect("spawn tce");
    assert!(
        out.status.success(),
        "{args:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let trace = std::fs::read_to_string(&path).expect("trace written");
    let _ = std::fs::remove_file(&path);
    (String::from_utf8_lossy(&out.stdout).into_owned(), trace)
}

/// The sum of every event of counter `name` in a trace file.
fn counter_total(trace: &str, name: &str) -> u64 {
    trace
        .split(&format!("\"name\":\"{name}\""))
        .skip(1)
        .map(|event| {
            let value = event.split("\"value\":").nth(1).expect("counter value");
            let digits: String = value.chars().take_while(char::is_ascii_digit).collect();
            digits.parse::<u64>().expect("integer counter")
        })
        .sum()
}

#[test]
fn tile_search_costs_the_pinned_number_of_candidates() {
    // Exact work counts, not times: the sum of every `locality.tile_candidates`
    // event (one per searched nest).  The paper's doubling lists without the
    // duplicate `B = N` give 300 and 405; with it they were 2,040 and 2,560.
    for (name, expected) in [("cc_doubles.tce", 300u64), ("a3a_energy.tce", 405)] {
        let file = spec(name);
        let (_, trace) = traced_run(
            "candidates",
            &[&file, "--cache", "64", "--grid", "2x2", "--threads", "1"],
        );
        assert_eq!(
            counter_total(&trace, "locality.tile_candidates"),
            expected,
            "{name}"
        );
    }
}

#[test]
fn distribution_and_spacetime_dps_do_the_pinned_work() {
    // Exact work counts, not times: `move_cost` evaluations summed over
    // every term's distribution DP (one table cell each), and edge-label
    // pairs over every space-time DP (only A3A's integral term is over the
    // memory limit).
    let cases: [(&str, &[&str], u64, u64); 2] = [
        ("cc_doubles.tce", &[], 1194, 0),
        ("a3a_energy.tce", &["--memory-limit", "20"], 1332, 4096),
    ];
    for (name, limit, evals, pairs) in cases {
        let file = spec(name);
        let mut args = vec![file.as_str(), "--cache", "64", "--grid", "2x2"];
        args.extend_from_slice(limit);
        let (_, trace) = traced_run("dp-work", &args);
        assert_eq!(
            counter_total(&trace, "dist.move_cost_evals"),
            evals,
            "{name}"
        );
        assert_eq!(
            counter_total(&trace, "spacetime.label_pairs"),
            pairs,
            "{name}"
        );
    }
}

#[test]
fn cc_doubles_gett_calls_split_by_shape_with_exact_flops() {
    // Host-independent work of `cc_doubles` at V=40, O=10: seven GETT calls
    // on one thread.  The three GEMM-shaped nodes pack; the energy dot
    // products, the singles GEMV and the copy `+ F[a,i]` (M or N below
    // every variant's register tile) run the direct kernel, however long
    // their K.
    let src = std::fs::read_to_string(spec("cc_doubles.tce"))
        .unwrap()
        .replace("range V = 6;", "range V = 40;")
        .replace("range O = 3;", "range O = 10;");
    let dir = std::env::temp_dir().join(format!("tce-cli-ledger-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("cc_doubles_v40_o10.tce");
    std::fs::write(&path, src).unwrap();
    let file = path.to_str().unwrap();
    let (stdout, trace) = traced_run("ledger", &[file, "--execute", "--threads", "1"]);
    let _ = std::fs::remove_dir_all(&dir);
    let kernel = stdout
        .lines()
        .find(|l| l.trim_start().starts_with("gett kernel:"))
        .unwrap_or_else(|| panic!("no `gett kernel:` line:\n{stdout}"));
    assert!(kernel.contains(" x7 ("), "{kernel}");
    // Under AVX2 one direct call runs in vector lanes: the copy term
    // `+ F[a,i]` (`F·1`, 400 rows contiguous in `F` and `R1`, n = k = 1).
    let lanes = u64::from(kernel.contains("avx2 x7 ("));
    let tail = match lanes {
        0 => "tasks x7, parallel x0, direct x4".to_string(),
        n => format!("tasks x7, parallel x0, direct x4 (lanes x{n})"),
    };
    assert!(kernel.ends_with(&tail), "{kernel}");
    assert_eq!(counter_total(&trace, "gett.direct"), 4);
    assert_eq!(counter_total(&trace, "gett.direct_lanes"), lanes);
    assert_eq!(counter_total(&trace, "gett.flops"), 384_641_600);
}

#[test]
fn section2_fused_outer_products_run_in_vector_lanes() {
    // Half of §2's fused slices (N = 6, one thread) are `T2[j,k] +=
    // T1·C[d,f,j,k]`: m = 1 against a 36-long N axis contiguous in `C` and
    // in `T2`, which AVX2 runs eight lanes at a time.  The other half are
    // dot products, which have no long axis.
    use tce_core::tensor::kernels::{supported, KernelVariant};
    if !supported(KernelVariant::Avx2) {
        return;
    }
    let section2 = spec("ccsd_section2.tce");
    let (stdout, trace) = traced_run_with_env(
        "lanes",
        &[&section2, "--fused", "--threads", "1"],
        &[("TCE_KERNEL", "avx2")],
    );
    let kernel = stdout
        .lines()
        .find(|l| l.trim_start().starts_with("gett kernel:"))
        .unwrap_or_else(|| panic!("no `gett kernel:` line:\n{stdout}"));
    assert!(kernel.contains("avx2 x2628 ("), "{kernel}");
    assert!(kernel.ends_with("direct x2592 (lanes x1296)"), "{kernel}");
    assert_eq!(counter_total(&trace, "gett.direct_lanes"), 1296);
}

#[test]
fn section2_fused_dots_are_counted_under_every_kernel() {
    // The other half of §2's fused slices (N = 6, one thread) are the
    // scalar `T1` slices, dots over k = 36: a count, not a clock, and the
    // same under every kernel variant this host runs.  It stays off the
    // `gett kernel:` line, which the test above pins with `ends_with`.
    use tce_core::tensor::kernels::supported_variants;
    let section2 = spec("ccsd_section2.tce");
    for variant in supported_variants() {
        let (stdout, trace) = traced_run_with_env(
            &format!("dots-{variant}"),
            &[&section2, "--fused", "--threads", "1"],
            &[("TCE_KERNEL", variant.name())],
        );
        assert_eq!(counter_total(&trace, "gett.direct_dots"), 1296, "{variant}");
        let kernel = stdout
            .lines()
            .find(|l| l.trim_start().starts_with("gett kernel:"))
            .unwrap_or_else(|| panic!("no `gett kernel:` line:\n{stdout}"));
        assert!(
            kernel.contains(", direct x2592") && !kernel.contains("dot"),
            "{variant}: {kernel}"
        );
    }
}

#[test]
fn direct_calls_are_timed_per_step_not_per_slice() {
    // Every fused slice of the matrix chain is a thin call on the direct
    // path, which packs nothing: its kernel time comes from the slice
    // program's loop, so the thread-time line appears even though no call
    // is packed.  Counts, not clocks: the line's presence, and every call
    // direct.
    let (stdout, trace) = traced_run(
        "direct-time",
        &[&spec("matrix_chain.tce"), "--fused", "--threads", "1"],
    );
    let kernel = stdout
        .lines()
        .find(|l| l.trim_start().starts_with("gett kernel:"))
        .unwrap_or_else(|| panic!("no `gett kernel:` line:\n{stdout}"));
    assert!(
        kernel.contains(" x128 (") && kernel.contains("direct x128"),
        "{kernel}"
    );
    assert_eq!(counter_total(&trace, "gett.pack_ns"), 0);
    assert!(
        stdout
            .lines()
            .any(|l| l.trim_start().starts_with("gett thread-time:")),
        "{stdout}"
    );
}

#[test]
fn grids_of_more_than_four_dimensions_are_rejected_before_synthesis() {
    for grid in ["1x1x1x1x1", "1x1x1x1x1x1x1"] {
        let out = tce()
            .args([&spec("cc_doubles.tce"), "--grid", grid])
            .output()
            .expect("spawn tce");
        let line = one_line_failure(&out, grid);
        assert!(line.contains("at most 4 dimensions"), "{grid}: {line}");
        assert!(out.stdout.is_empty(), "{grid}: printed a report");
    }
    // The library refuses the same grids instead of enumerating (m+2)^n
    // distribution tuples per node.
    use tce_core::dist::Machine;
    use tce_core::par::ProcessorGrid;
    use tce_core::{synthesize, SynthesisConfig, MAX_GRID_RANK};
    let src = std::fs::read_to_string(spec("cc_doubles.tce")).unwrap();
    let cfg = SynthesisConfig {
        machine: Some(Machine::new(ProcessorGrid::new(vec![1; MAX_GRID_RANK + 1]))),
        ..Default::default()
    };
    let err = synthesize(&src, &cfg).unwrap_err().to_string();
    assert!(
        err.starts_with("synthesis error") && err.contains("5-dimensional"),
        "{err}"
    );
}

#[test]
fn section2_live_set_pool_and_plan_cache_stay_within_bounds() {
    // The profile block of a one-thread traced run on the §2 term.  Unfused,
    // T1 and T2 then T2 and S are live: 2 × 6⁴ doubles, no input copies.
    // Fused, every pool buffer is returned, so misses are the working set,
    // and one strided plan per contraction producer is resolved once per
    // run (not once per slice): 3 lookups.
    let section2 = spec("ccsd_section2.tce");
    let field = |stdout: &str, label: &str| -> Vec<String> {
        let line = stdout
            .lines()
            .find(|l| l.trim_start().starts_with(label))
            .unwrap_or_else(|| panic!("no `{label}` line:\n{stdout}"));
        line.trim_start()[label.len()..]
            .split_whitespace()
            .map(str::to_string)
            .collect()
    };
    let kib = |stdout: &str| -> f64 {
        let words = field(stdout, "mem high-water:");
        assert_eq!(words[1], "KiB", "{words:?}");
        words[0].parse().unwrap()
    };
    let count = |words: &[String], i: usize| -> u64 { words[i].parse().unwrap() };

    let (unfused, _) = traced_run("exec", &[&section2, "--execute", "--threads", "1"]);
    assert!(kib(&unfused) <= 20.25, "{unfused}");

    let (fused, _) = traced_run("fused", &[&section2, "--fused", "--threads", "1"]);
    assert!(kib(&fused) <= 10.41, "{fused}");
    // `N hits / M misses / E evictions`
    let pool = field(&fused, "buffer pool:");
    assert!(count(&pool, 3) < 10, "{pool:?}");
    let plans = field(&fused, "plan cache:");
    assert!(count(&plans, 0) + count(&plans, 3) <= 3, "{plans:?}");
}

#[test]
fn bad_tce_kernel_env_fails_cleanly() {
    let out = tce()
        .arg(spec("matrix_chain.tce"))
        .arg("--execute")
        .env("TCE_KERNEL", "bogus")
        .output()
        .expect("spawn tce");
    assert!(!out.status.success(), "bad TCE_KERNEL must exit nonzero");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("TCE_KERNEL") && stderr.contains("bogus"),
        "diagnostic should name the bad variable and value:\n{stderr}"
    );
    assert!(!stderr.contains("panicked"), "panicked:\n{stderr}");
}

#[test]
fn distributed_execution_reports_exact_comm_volumes() {
    for grid in ["1x1", "2x4"] {
        let out = tce()
            .args([
                &spec("ccsd_section2.tce"),
                "--distributed",
                "--grid",
                grid,
                "--threads",
                "2",
            ])
            .output()
            .expect("spawn tce");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success(),
            "grid {grid} failed:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(stdout.contains("OK"), "grid {grid}:\n{stdout}");
        assert!(
            stdout.contains("redistribution elements")
                && stdout.matches("(exact)").count() >= 2
                && !stdout.contains("MISMATCH"),
            "grid {grid}: measured-vs-modeled not exact:\n{stdout}"
        );
    }
}

#[test]
fn fused_execution_reports_exact_peak_live_set() {
    // Acceptance: on the §2 scenario, `tce --fused --trace` reports a peak
    // intermediate live-set exactly equal to the memmin DP's prediction
    // (Fig. 1(c) at N=6: T1 scalar + T2 N² = 37 elements).
    let trace_path =
        std::env::temp_dir().join(format!("tce_fused_trace_{}.json", std::process::id()));
    for threads in ["1", "2", "4"] {
        let out = tce()
            .args([
                spec("ccsd_section2.tce").as_str(),
                "--fused",
                "--trace",
                trace_path.to_str().unwrap(),
                "--threads",
                threads,
            ])
            .output()
            .expect("spawn tce");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success(),
            "threads {threads} failed:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(
            stdout.contains("peak intermediate live-set: measured 37 / modeled 37 (exact)"),
            "threads {threads}: peak not exact:\n{stdout}"
        );
        assert!(!stdout.contains("MISMATCH"), "threads {threads}:\n{stdout}");
        // The trace carries the fused live-set counter.
        let trace = std::fs::read_to_string(&trace_path).expect("trace written");
        assert!(trace.contains("fused.live_elements"), "threads {threads}");
    }
    let _ = std::fs::remove_file(&trace_path);
}

#[test]
fn fused_execution_honours_a_binding_memory_limit() {
    // Fusion alone needs 37 elements on the §2 scenario; under a limit of
    // 10 synthesis selects a recomputing space-time plan, and `--fused`
    // must run *that* plan: measured == modeled, and within the limit.
    let out = tce()
        .args([
            &spec("ccsd_section2.tce"),
            "--fused",
            "--memory-limit",
            "10",
        ])
        .output()
        .expect("spawn tce");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        stdout.contains("space-time: memory"),
        "limit not binding:\n{stdout}"
    );
    let line = stdout
        .lines()
        .find(|l| l.contains("peak intermediate live-set"))
        .unwrap_or_else(|| panic!("no live-set line:\n{stdout}"));
    assert!(line.ends_with("(exact)"), "{line}");
    let measured: u128 = line
        .split("measured ")
        .nth(1)
        .and_then(|rest| rest.split(' ').next())
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("unparsable live-set line: {line}"));
    assert!(measured <= 10, "limit 10 exceeded: {line}");
}

#[test]
fn comm_volume_mismatch_exits_nonzero() {
    // When measured communication diverges from the cost model the CLI
    // must flag the line as a MISMATCH *and* exit nonzero — exact model
    // conformance is part of the contract, not a cosmetic report.  The
    // divergence is injected via the hidden TCE_FAULT_INJECT test hook.
    let out = tce()
        .args([&spec("ccsd_section2.tce"), "--distributed", "--grid", "2x2"])
        .env("TCE_FAULT_INJECT", "comm")
        .output()
        .expect("spawn tce");
    assert!(
        !out.status.success(),
        "comm mismatch must exit nonzero, got {:?}",
        out.status
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stdout.contains("MISMATCH"),
        "mismatch not reported:\n{stdout}"
    );
    assert!(
        stderr.contains("diverged from the cost model"),
        "missing diagnostic:\n{stderr}"
    );
    assert!(!stderr.contains("panicked"), "panicked:\n{stderr}");
}

#[test]
fn peak_live_set_mismatch_exits_nonzero() {
    let out = tce()
        .args([&spec("ccsd_section2.tce"), "--fused"])
        .env("TCE_FAULT_INJECT", "liveset")
        .output()
        .expect("spawn tce");
    assert!(
        !out.status.success(),
        "live-set mismatch must exit nonzero, got {:?}",
        out.status
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stdout.contains("MISMATCH"),
        "mismatch not reported:\n{stdout}"
    );
    assert!(
        stderr.contains("diverged from the selected plan's memory model"),
        "missing diagnostic:\n{stderr}"
    );
    assert!(!stderr.contains("panicked"), "panicked:\n{stderr}");
}

#[test]
fn fault_hook_does_not_affect_other_modes() {
    // The hook only touches the branch it names: a fused run under
    // `comm` and a distributed run under `liveset` still pass exactly.
    let out = tce()
        .args([&spec("ccsd_section2.tce"), "--fused"])
        .env("TCE_FAULT_INJECT", "comm")
        .output()
        .expect("spawn tce");
    assert!(out.status.success());
    let out = tce()
        .args([&spec("ccsd_section2.tce"), "--distributed", "--grid", "2x2"])
        .env("TCE_FAULT_INJECT", "liveset")
        .output()
        .expect("spawn tce");
    assert!(out.status.success());
    assert!(!String::from_utf8_lossy(&out.stdout).contains("MISMATCH"));
}

#[test]
fn fused_and_sequential_sums_agree() {
    let run = |extra: &[&str]| {
        let mut args = vec![spec("ccsd_section2.tce"), "--execute".to_string()];
        args.extend(extra.iter().map(|s| s.to_string()));
        let out = tce().args(&args).output().expect("spawn tce");
        assert!(
            out.status.success(),
            "{args:?}:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .filter(|l| l.contains("|sum|"))
            .map(str::to_string)
            .collect::<Vec<_>>()
    };
    let sequential = run(&[]);
    assert!(!sequential.is_empty());
    for threads in ["1", "3"] {
        assert_eq!(
            sequential,
            run(&["--fused", "--threads", threads]),
            "--fused --threads {threads} changed printed sums"
        );
    }
}

#[test]
fn graph_schedule_cli_matches_sequential_sums() {
    // The thread count is purely a performance knob — every walk takes only
    // the task-graph slots its work fills: `--execute --threads 1/2/4`
    // print the default run's sums exactly.  The retired `--schedule` flag
    // is an unknown argument.
    let run = |extra: &[&str]| {
        let mut args = vec![spec("ccsd_section2.tce"), "--execute".to_string()];
        args.extend(extra.iter().map(|s| s.to_string()));
        let out = tce().args(&args).output().expect("spawn tce");
        assert!(
            out.status.success(),
            "{args:?}:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout).to_string()
    };
    let sums = |stdout: &str| {
        stdout
            .lines()
            .filter(|l| l.contains("|sum|"))
            .map(str::to_string)
            .collect::<Vec<_>>()
    };
    let default = run(&[]);
    assert!(!sums(&default).is_empty(), "no sums printed:\n{default}");
    assert!(
        !default.contains("schedule"),
        "the header names no schedule:\n{default}"
    );
    for threads in ["1", "2", "4"] {
        assert_eq!(
            sums(&default),
            sums(&run(&["--threads", threads])),
            "--threads {threads} changed printed sums"
        );
    }
    let out = tce()
        .args([&spec("ccsd_section2.tce"), "--schedule", "graph"])
        .output()
        .expect("spawn tce");
    assert_eq!(out.status.code(), Some(1));
    assert_eq!(
        String::from_utf8_lossy(&out.stderr),
        "unknown argument `--schedule` (try --help)\n"
    );
}

#[test]
fn closed_stdout_ends_the_run_quietly() {
    // `tce … --execute | head -1`: once the reader is gone every write to
    // stdout fails.  A pipe whose reader was dropped before the run makes
    // that deterministic; `tce` must stop without a panic or a backtrace.
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let out = tce()
        .args([&spec("cc_doubles.tce"), "--execute"])
        .stdout(writer)
        .output()
        .expect("spawn tce");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "tce panicked:\n{stderr}");
    assert_ne!(out.status.code(), Some(101), "{:?}", out.status);
    assert!(stderr.is_empty(), "tce was not quiet:\n{stderr}");
}

#[test]
fn zero_threads_is_rejected_by_cli_but_clamped_by_library() {
    // Regression for the CLI/library asymmetry: the CLI refuses
    // `--threads 0` with a one-line diagnostic (covered above in
    // `malformed_inputs_fail_cleanly`), while the library builder
    // documents a clamp to 1 — and the two must stay consistent through
    // the fallible constructor the CLI actually uses.
    use tce_core::ExecOptions;
    let err = ExecOptions::try_with_threads(0).unwrap_err();
    assert_eq!(err, "--threads must be at least 1");
    assert_eq!(ExecOptions::with_threads(0).threads, 1, "documented clamp");
    assert_eq!(ExecOptions::try_with_threads(3).unwrap().threads, 3);
}

#[test]
fn missing_binding_inside_pipeline_is_a_clean_diagnostic() {
    // The executors report missing/mismatched bindings as typed errors;
    // the CLI must surface them as one-line diagnostics, never a panic.
    // (The CLI binds everything itself, so drive the library path the same
    // way the CLI does but with an empty binding map.)
    use std::collections::HashMap;
    use tce_core::{synthesize, ExecOptions, SynthesisConfig};
    let src = std::fs::read_to_string(spec("matrix_chain.tce")).unwrap();
    let syn = synthesize(&src, &SynthesisConfig::default()).unwrap();
    let err = syn
        .execute_opts(&HashMap::new(), &HashMap::new(), &ExecOptions::serial())
        .unwrap_err();
    let msg = err.to_string();
    assert!(
        msg.contains("no binding for input tensor"),
        "unexpected diagnostic: {msg}"
    );
    let err = syn
        .execute_fused_opts(&HashMap::new(), &HashMap::new(), &ExecOptions::serial())
        .unwrap_err();
    assert!(err.to_string().contains("no binding for input tensor"));
}

#[test]
fn tight_memory_limit_with_cache_does_not_panic_in_tile_search() {
    // Regression: a tight --memory-limit routes synthesis through the
    // space-time stage, whose emitted programs carry strip-mined loops;
    // the locality search must skip those nests gracefully (it previously
    // panicked on "can only tile Full-range loops").
    let out = tce()
        .args([
            spec("a3a_energy.tce").as_str(),
            "--memory-limit",
            "40",
            "--cache",
            "64",
            "--execute",
            "--threads",
            "2",
        ])
        .output()
        .expect("spawn tce");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        !stderr.contains("panicked"),
        "tile search panicked:\n{stderr}"
    );
    assert!(out.status.success(), "expected success, stderr:\n{stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("OK"), "{stdout}");
}

#[test]
fn sequential_and_distributed_sums_agree() {
    let run = |extra: &[&str]| {
        let mut args = vec![spec("matrix_chain.tce"), "--execute".to_string()];
        args.extend(extra.iter().map(|s| s.to_string()));
        let out = tce().args(&args).output().expect("spawn tce");
        assert!(out.status.success(), "{args:?}");
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .filter(|l| l.contains("|sum|"))
            .map(str::to_string)
            .collect::<Vec<_>>()
    };
    let sequential = run(&[]);
    assert!(!sequential.is_empty());
    for grid in ["1x1", "2x2", "2x4"] {
        assert_eq!(
            sequential,
            run(&["--distributed", "--grid", grid]),
            "grid {grid} changed printed sums"
        );
    }
}

#[test]
fn bad_numeric_env_vars_fail_cleanly() {
    // The numeric-flag audit extends to the environment: a typo'd or
    // degenerate value is a one-line diagnostic naming the variable and
    // a nonzero exit — never a silent clamp, never a panic.
    for (var, value) in [
        ("TCE_THREADS", "0"),
        ("TCE_THREADS", "banana"),
        ("TCE_THREADS", "-2"),
    ] {
        let out = tce()
            .arg(spec("matrix_chain.tce"))
            .arg("--execute")
            .env(var, value)
            .output()
            .expect("spawn tce");
        assert!(
            !out.status.success(),
            "{var}={value} must exit nonzero, got {:?}",
            out.status
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(var),
            "{var}={value}: diagnostic should name the variable:\n{stderr}"
        );
        assert_eq!(
            stderr.trim().lines().count(),
            1,
            "{var}={value}: diagnostic should be one line:\n{stderr}"
        );
        assert!(
            !stderr.contains("panicked"),
            "{var}={value} panicked:\n{stderr}"
        );
        // The same validation guards the serve subcommand.
        let out = tce()
            .args(["serve", "--addr", "127.0.0.1:0"])
            .env(var, value)
            .output()
            .expect("spawn tce serve");
        assert!(
            !out.status.success(),
            "serve with {var}={value} must exit nonzero"
        );
    }
    // Valid values still run.
    let out = tce()
        .arg(spec("matrix_chain.tce"))
        .arg("--execute")
        .env("TCE_THREADS", "2")
        .output()
        .expect("spawn tce");
    assert!(
        out.status.success(),
        "valid env rejected: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn bad_calibration_env_and_flag_fail_cleanly() {
    let chain = spec("matrix_chain.tce");
    // A garbage profile: unreadable path, then readable-but-not-a-profile.
    let dir = std::env::temp_dir().join(format!("tce-cli-calib-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let garbage = dir.join("garbage.json");
    std::fs::write(&garbage, "this is not a calibration profile").unwrap();
    let wrong_version = dir.join("version99.json");
    std::fs::write(&wrong_version, "{\"version\": 99}").unwrap();

    for path in [
        "/nonexistent/profile.json",
        garbage.to_str().unwrap(),
        wrong_version.to_str().unwrap(),
    ] {
        // Via the environment: diagnostic names TCE_CALIBRATION, one line.
        let out = tce()
            .arg(&chain)
            .env("TCE_CALIBRATION", path)
            .output()
            .expect("spawn tce");
        assert!(
            !out.status.success(),
            "TCE_CALIBRATION={path} must exit nonzero"
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("TCE_CALIBRATION"),
            "diagnostic should name the variable:\n{stderr}"
        );
        assert_eq!(
            stderr.trim().lines().count(),
            1,
            "diagnostic should be one line:\n{stderr}"
        );
        assert!(!stderr.contains("panicked"), "panicked:\n{stderr}");
        // The same validation guards the serve subcommand.
        let out = tce()
            .args(["serve", "--addr", "127.0.0.1:0"])
            .env("TCE_CALIBRATION", path)
            .output()
            .expect("spawn tce serve");
        assert!(
            !out.status.success(),
            "serve with TCE_CALIBRATION={path} must exit nonzero"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
    // `TCE_CALIBRATION` is the one way to load a profile: the old flag is
    // an unknown argument.
    let out = tce()
        .args([chain.as_str(), "--calibration", "x"])
        .output()
        .expect("spawn tce");
    assert_eq!(out.status.code(), Some(1));
    assert_eq!(
        String::from_utf8_lossy(&out.stderr),
        "unknown argument `--calibration` (try --help)\n"
    );
}

#[test]
fn calibrate_writes_a_loadable_profile_and_audits_failures() {
    let dir = std::env::temp_dir().join(format!("tce-cli-calibrate-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let out_path = dir.join("profile.json");

    // A tiny-budget calibrate must produce a complete, loadable profile.
    let out = tce()
        .args([
            "calibrate",
            "--out",
            out_path.to_str().unwrap(),
            "--budget-ms",
            "20",
            "--seed",
            "7",
        ])
        .output()
        .expect("spawn tce calibrate");
    assert!(
        out.status.success(),
        "calibrate failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let profile = tce_core::calib::Profile::load(out_path.to_str().unwrap())
        .expect("written profile must load");
    assert_eq!(profile.version, tce_core::calib::PROFILE_VERSION);

    // The profile round-trips through `TCE_CALIBRATION` on a real run and
    // surfaces the predicted-vs-measured line.
    let out = tce()
        .args([spec("matrix_chain.tce").as_str(), "--execute"])
        .env("TCE_CALIBRATION", &out_path)
        .output()
        .expect("spawn tce");
    assert!(
        out.status.success(),
        "calibrated run failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("calibration: predicted"),
        "missing prediction line:\n{stdout}"
    );

    // Write failures are a one-line diagnostic and a nonzero exit.
    let out = tce()
        .args([
            "calibrate",
            "--out",
            "/nonexistent-dir/profile.json",
            "--budget-ms",
            "1",
        ])
        .output()
        .expect("spawn tce calibrate");
    assert!(!out.status.success(), "unwritable --out must exit nonzero");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("cannot write profile"),
        "diagnostic:\n{stderr}"
    );
    assert_eq!(
        stderr.trim().lines().count(),
        1,
        "diagnostic should be one line:\n{stderr}"
    );
    assert!(!stderr.contains("panicked"), "panicked:\n{stderr}");

    // Flag audit: missing --out, degenerate budget, unknown flag.
    for args in [
        vec!["calibrate"],
        vec!["calibrate", "--out"],
        vec!["calibrate", "--out", "x.json", "--budget-ms", "0"],
        vec!["calibrate", "--out", "x.json", "--budget-ms", "soon"],
        vec!["calibrate", "--out", "x.json", "--threads", "0"],
        vec!["calibrate", "--bogus"],
    ] {
        let out = tce().args(&args).output().expect("spawn tce calibrate");
        assert!(!out.status.success(), "tce {args:?} should exit nonzero");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            !stderr.is_empty() && !stderr.contains("panicked"),
            "{args:?}: {stderr}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
