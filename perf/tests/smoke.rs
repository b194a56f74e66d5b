//! End-to-end smoke: the built binary, every workload, both kinds of run,
//! at toy extents (`--quick`).  Checks the driver's contract on the last
//! line of output, that nothing fails, and the error paths' exit codes.

use exp_perf::json::Json;
use exp_perf::spec::BenchmarkDef;
use std::process::{Command, Output};

fn exp_perf(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_exp_perf"))
        .args(args)
        .output()
        .expect("spawn exp_perf")
}

#[test]
fn every_workload_runs_clean_and_prints_the_contract_line() {
    let def = BenchmarkDef::embedded();
    assert_eq!(def.workloads.len(), 7);
    for workload in &def.workloads {
        for (trace, metrics) in [("0", &def.end_to_end), ("1", &def.per_layer)] {
            let out = exp_perf(&[
                "--workload",
                &workload.name,
                "--seed",
                "3",
                "--seconds",
                "0.3",
                "--trace",
                trace,
                "--quick",
            ]);
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(
                out.status.success(),
                "{} trace {trace}: {}\n{stdout}\n{}",
                workload.name,
                out.status,
                String::from_utf8_lossy(&out.stderr)
            );
            let last = stdout.lines().last().expect("some output");
            let doc = Json::parse(last).expect("last line is one JSON object");
            let keys: Vec<&str> = doc
                .entries()
                .unwrap()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(
                keys,
                ["correct", "attempted", "failed", "metrics"],
                "{}",
                workload.name
            );
            assert_eq!(
                doc.get("correct"),
                Some(&Json::Bool(true)),
                "{}",
                workload.name
            );
            assert_eq!(doc.get_u64("failed").unwrap(), 0, "{}", workload.name);
            assert!(doc.get_u64("attempted").unwrap() >= 1);
            let reported = doc.get("metrics").unwrap().entries().unwrap();
            let names: Vec<&str> = reported.iter().map(|(k, _)| k.as_str()).collect();
            let want: Vec<&str> = metrics.iter().map(|m| m.name.as_str()).collect();
            assert_eq!(names, want, "{} trace {trace}", workload.name);
            for ((name, value), m) in reported.iter().zip(metrics.iter()) {
                let v = value
                    .get_f64("value")
                    .unwrap_or_else(|e| panic!("{name}: {e}"));
                assert!(v.is_finite(), "{}: {name} = {v}", workload.name);
                assert_eq!(value.get("unit"), Some(&Json::Str(m.unit.clone())));
                if trace == "0" {
                    assert!(
                        v > 0.0,
                        "{}: end-to-end {name} must never be 0",
                        workload.name
                    );
                }
            }
        }
    }
}

#[test]
fn bad_invocations_exit_nonzero_without_a_result() {
    for args in [
        &[
            "--workload",
            "no_such_workload",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &["--workload", "ccsd_big", "--seed", "banana"],
        &["--workload", "ccsd_big", "--trace", "2"],
        &["--seconds", "1"],
        &["--compare", "/nonexistent/base.json"],
        &["--frobnicate"],
    ] {
        let out = exp_perf(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            err.lines().count(),
            1,
            "{args:?}: one-line diagnostic, got {err}"
        );
    }
}
