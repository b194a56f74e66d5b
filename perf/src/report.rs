//! What a run prints, how a set of runs is collected from fresh child
//! processes, and how two sets are compared.

use crate::json::{self, num, nums, obj, s, Json};
use crate::run::{Host, RunArgs, RunReport};
use crate::spec::{BenchmarkDef, Better, MetricDef};
use crate::stats::{iqr_share, quartiles};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::Command;

/// `perf/results/`, next to this package's manifest: the one place the
/// benchmark writes.
pub fn results_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("results")
}

/// Write `text` to `path`, creating the directory; a failure is reported,
/// never a panic.
pub fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Marks the machine-readable record in a run's standard output.
const DETAIL_PREFIX: &str = "detail ";

/// The metric list a run of this kind must report.
fn metric_set(def: &BenchmarkDef, trace: bool) -> &[MetricDef] {
    if trace {
        &def.per_layer
    } else {
        &def.end_to_end
    }
}

/// The full record of one run.
fn detail(args: &RunArgs, host: &Host, def: &BenchmarkDef, report: &RunReport) -> Json {
    let metrics = metric_set(def, args.trace).iter().map(|m| {
        let mut fields = vec![
            ("value".to_string(), num(report.values[&m.name])),
            ("unit".to_string(), s(m.unit.clone())),
        ];
        if let Some(sum) = report.samples.get(&m.name) {
            fields.push(("n".to_string(), num(sum.n as f64)));
            fields.push(("q1".to_string(), num(sum.q1)));
            fields.push(("q3".to_string(), num(sum.q3)));
        }
        (m.name.clone(), Json::Obj(fields))
    });
    obj([
        ("workload", s(args.workload.clone())),
        ("seed", num(args.seed as f64)),
        ("seconds", num(args.seconds)),
        ("trace", Json::Bool(args.trace)),
        ("quick", Json::Bool(args.quick)),
        ("host", host.to_json()),
        ("attempted", num(report.tally.attempted as f64)),
        ("failed", num(report.tally.failed as f64)),
        (
            "reasons",
            Json::Arr(
                report
                    .tally
                    .reasons
                    .iter()
                    .cloned()
                    .map(Json::Str)
                    .collect(),
            ),
        ),
        ("metrics", obj(metrics)),
        ("notes", Json::Obj(report.notes.clone())),
    ])
}

/// The last line the driver reads: exactly `correct`, `attempted`,
/// `failed` and `metrics`, each metric exactly `value` and `unit`.
pub fn contract_line(args: &RunArgs, def: &BenchmarkDef, report: &RunReport) -> String {
    let metrics = metric_set(def, args.trace).iter().map(|m| {
        (
            m.name.clone(),
            obj([
                ("value", num(report.values[&m.name])),
                ("unit", s(m.unit.clone())),
            ]),
        )
    });
    json::to_line(&obj([
        ("correct", Json::Bool(report.tally.failed == 0)),
        ("attempted", num(report.tally.attempted.max(1) as f64)),
        ("failed", num(report.tally.failed as f64)),
        ("metrics", obj(metrics)),
    ]))
}

/// Everything one run prints: a readable table, the `detail` record, and
/// the contract line last.
pub fn render_run(args: &RunArgs, host: &Host, def: &BenchmarkDef, report: &RunReport) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "exp_perf workload={} seed={} seconds={} trace={} exec_threads={} nproc={} kernel={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        host.threads,
        host.nproc,
        tce_core::tensor::kernels::active().name()
    );
    let _ = writeln!(
        out,
        "  {:<26} {:>8} {:>16} {:>7} {:>14} {:>14}",
        "metric", "unit", "value", "n", "q1", "q3"
    );
    let mut not_entered = 0;
    for m in metric_set(def, args.trace) {
        let value = report.values[&m.name];
        // A per-layer metric is 0 when the operation never enters the
        // layer; those rows would only bury the others.
        if args.trace && value == 0.0 {
            not_entered += 1;
            continue;
        }
        let (n, q1, q3) = report.samples.get(&m.name).map_or_else(
            || ("-".to_string(), "-".to_string(), "-".to_string()),
            |sum| {
                (
                    sum.n.to_string(),
                    format!("{:.6}", sum.q1),
                    format!("{:.6}", sum.q3),
                )
            },
        );
        let _ = writeln!(
            out,
            "  {:<26} {:>8} {:>16.6} {:>7} {:>14} {:>14}",
            m.name, m.unit, value, n, q1, q3
        );
    }
    if not_entered > 0 {
        let _ = writeln!(
            out,
            "  ({not_entered} per-layer metrics are 0: layer not entered)"
        );
    }
    let share = report.tally.failed as f64 / report.tally.attempted.max(1) as f64;
    let _ = writeln!(
        out,
        "  fail_share {share} ({} failed / {} attempted)",
        report.tally.failed, report.tally.attempted
    );
    for reason in &report.tally.reasons {
        let _ = writeln!(out, "  FAILED: {reason}");
    }
    for (key, note) in &report.notes {
        match note {
            // One row per contraction node: what it achieved and the
            // probed peak it is held against.
            Json::Arr(rows) => {
                let _ = writeln!(out, "  {key}:");
                for row in rows {
                    let _ = writeln!(out, "    {}", json::to_line(row));
                }
            }
            _ => {
                let _ = writeln!(out, "  {key}: {}", json::to_line(note));
            }
        }
    }
    let _ = writeln!(
        out,
        "{DETAIL_PREFIX}{}",
        json::to_line(&detail(args, host, def, report))
    );
    out.push_str(&contract_line(args, def, report));
    out.push('\n');
    out
}

/// Arguments of a set of runs (`--all`, `--selfcheck`).
#[derive(Debug, Clone, PartialEq)]
pub struct SetArgs {
    /// First seed; run `r` of a workload uses `seed + r`.
    pub seed: u64,
    /// Seconds per run.
    pub seconds: f64,
    /// Untraced runs per workload.
    pub runs: usize,
    /// Smoke mode.
    pub quick: bool,
}

/// Run one workload in a fresh child process of this executable and
/// return its `detail` record.  A child that exits nonzero still yields
/// its record when it printed one (its failures are in it).
fn child_run(args: &RunArgs) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", &args.workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }]);
    if args.quick {
        cmd.arg("--quick");
    }
    let output = cmd.output().map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout
        .lines()
        .find_map(|l| l.strip_prefix(DETAIL_PREFIX))
        .ok_or_else(|| {
            format!(
                "{} (trace {}) printed no result; status {}; stderr: {}",
                args.workload,
                u8::from(args.trace),
                output.status,
                String::from_utf8_lossy(&output.stderr).trim()
            )
        })?;
    Json::parse(line)
}

fn metric_value(detail: &Json, name: &str) -> Result<f64, String> {
    detail
        .get("metrics")
        .and_then(|m| m.get(name))
        .ok_or_else(|| format!("run reports no `{name}`"))?
        .get_f64("value")
}

/// Run the full set: per workload `runs` untraced runs (seeds `seed…`)
/// and one traced run, each in a fresh child.  Returns the results
/// document.
pub fn run_set(def: &BenchmarkDef, set: &SetArgs) -> Result<Json, String> {
    let mut workloads = Vec::new();
    let mut host = Json::Null;
    for w in &def.workloads {
        let mut runs = Vec::new();
        for r in 0..set.runs {
            let args = RunArgs {
                workload: w.name.clone(),
                seed: set.seed + r as u64,
                seconds: set.seconds,
                trace: false,
                quick: set.quick,
            };
            eprintln!("  {} run {}/{} …", w.name, r + 1, set.runs);
            runs.push(child_run(&args)?);
        }
        eprintln!("  {} traced run …", w.name);
        let traced = child_run(&RunArgs {
            workload: w.name.clone(),
            seed: set.seed,
            seconds: set.seconds,
            trace: true,
            quick: set.quick,
        })?;
        host = runs[0].get("host").cloned().unwrap_or(Json::Null);

        let mut end_to_end = Vec::new();
        for m in &def.end_to_end {
            let values = runs
                .iter()
                .map(|run| metric_value(run, &m.name))
                .collect::<Result<Vec<f64>, _>>()?;
            // Sample counts and quartiles of the run whose value is the
            // median one (the first such run).
            let (_, med, _) = quartiles(&values);
            let typical = runs
                .iter()
                .zip(&values)
                .min_by(|a, b| (a.1 - med).abs().total_cmp(&(b.1 - med).abs()))
                .map(|(run, _)| run)
                .expect("at least one run");
            let sample = typical
                .get("metrics")
                .and_then(|ms| ms.get(&m.name))
                .cloned()
                .unwrap_or(Json::Null);
            end_to_end.push((
                m.name.clone(),
                obj([("values", nums(&values)), ("sample", sample)]),
            ));
        }
        let per_layer = def
            .per_layer
            .iter()
            .map(|m| Ok((m.name.clone(), num(metric_value(&traced, &m.name)?))))
            .collect::<Result<Vec<_>, String>>()?;
        let count = |key: &str| -> f64 {
            runs.iter()
                .chain([&traced])
                .map(|run| run.get_f64(key).unwrap_or(0.0))
                .sum()
        };
        let reasons: Vec<Json> = runs
            .iter()
            .chain([&traced])
            .filter_map(|run| match run.get("reasons") {
                Some(Json::Arr(items)) => Some(items.clone()),
                _ => None,
            })
            .flatten()
            .collect();
        workloads.push((
            w.name.clone(),
            obj([
                ("attempted", num(count("attempted"))),
                ("failed", num(count("failed"))),
                ("reasons", Json::Arr(reasons)),
                ("end_to_end", Json::Obj(end_to_end)),
                ("per_layer", Json::Obj(per_layer)),
                ("notes", traced.get("notes").cloned().unwrap_or(Json::Null)),
            ]),
        ));
    }
    Ok(obj([
        ("schema", s("exp_perf/1")),
        ("seed", num(set.seed as f64)),
        ("seconds", num(set.seconds)),
        ("runs", num(set.runs as f64)),
        ("quick", Json::Bool(set.quick)),
        ("host", host),
        ("workloads", Json::Obj(workloads)),
    ]))
}

fn values_of(set: &Json, workload: &str, metric: &str) -> Option<Vec<f64>> {
    match set
        .get("workloads")?
        .get(workload)?
        .get("end_to_end")?
        .get(metric)?
        .get("values")?
    {
        Json::Arr(items) => items.iter().map(|v| v.as_f64().ok()).collect(),
        _ => None,
    }
}

/// Total failed operations a set recorded.
pub fn failed_in(set: &Json) -> f64 {
    match set.get("workloads") {
        Some(Json::Obj(ws)) => ws
            .iter()
            .map(|(_, w)| w.get_f64("failed").unwrap_or(1.0))
            .sum(),
        _ => 1.0,
    }
}

/// Print every metric of a set by name: per workload the end-to-end
/// table (unit, runs, median and quartiles across runs, sample count and
/// quartiles inside the median run), then the per-layer table.
pub fn render_set(def: &BenchmarkDef, set: &Json) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "exp_perf: seed {} · {} s per run · {} run(s) per workload · host {}",
        set.get_f64("seed").unwrap_or(f64::NAN),
        set.get_f64("seconds").unwrap_or(f64::NAN),
        set.get_f64("runs").unwrap_or(f64::NAN),
        set.get("host").map_or_else(String::new, json::to_line)
    );
    for w in &def.workloads {
        let Some(record) = set.get("workloads").and_then(|ws| ws.get(&w.name)) else {
            continue;
        };
        let attempted = record.get_f64("attempted").unwrap_or(0.0);
        let failed = record.get_f64("failed").unwrap_or(0.0);
        let _ = writeln!(out, "\n== {} — {}", w.name, w.why);
        let _ = writeln!(
            out,
            "   fail_share {} ({failed} failed / {attempted} attempted)",
            failed / attempted.max(1.0)
        );
        if let Some(Json::Arr(reasons)) = record.get("reasons") {
            for reason in reasons {
                let _ = writeln!(out, "   FAILED: {}", json::to_line(reason));
            }
        }
        let _ = writeln!(
            out,
            "   {:<16} {:>5} {:>5} {:>14} {:>14} {:>14} | {:>7} {:>13} {:>13}",
            "end-to-end", "unit", "runs", "median", "q1", "q3", "n", "sample q1", "sample q3"
        );
        for m in &def.end_to_end {
            let Some(values) = values_of(set, &w.name, &m.name) else {
                continue;
            };
            let (q1, med, q3) = quartiles(&values);
            let sample = record
                .get("end_to_end")
                .and_then(|e| e.get(&m.name))
                .and_then(|e| e.get("sample"));
            let field = |key: &str| {
                sample
                    .and_then(|sm| sm.get_f64(key).ok())
                    .map_or_else(|| "-".to_string(), |x| format!("{x:.6}"))
            };
            let n = sample
                .and_then(|sm| sm.get_f64("n").ok())
                .map_or_else(|| "-".to_string(), |x| format!("{x}"));
            let _ = writeln!(
                out,
                "   {:<16} {:>5} {:>5} {:>14.6} {:>14.6} {:>14.6} | {:>7} {:>13} {:>13}",
                m.name,
                m.unit,
                values.len(),
                med,
                q1,
                q3,
                n,
                field("q1"),
                field("q3")
            );
        }
        let _ = writeln!(
            out,
            "   {:<26} {:>8} {:>18}   (0 = layer not entered, omitted)",
            "per-layer (traced run)", "unit", "value"
        );
        for m in &def.per_layer {
            match record
                .get("per_layer")
                .and_then(|p| p.get_f64(&m.name).ok())
            {
                Some(value) if value != 0.0 => {
                    let _ = writeln!(out, "   {:<26} {:>8} {:>18.6}", m.name, m.unit, value);
                }
                _ => {}
            }
        }
    }
    out
}

/// How a metric moved between two sets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Improved by more than its bound.
    Better,
    /// Moved by no more than its bound.
    WithinBound,
    /// Worsened by more than its bound.
    Worse,
    /// Either side's run-to-run spread exceeds the bound, so a move of
    /// that size cannot be told from noise.
    Unresolved,
}

impl Verdict {
    /// Table label.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::WithinBound => "within bound",
            Verdict::Worse => "WORSE",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Compare one metric's per-run values, `base` against `new`.  Returns
/// the verdict and the share of the base median by which the metric
/// worsened (negative: improved).
pub fn verdict(m: &MetricDef, base: &[f64], new: &[f64]) -> (Verdict, f64) {
    let bound = m.bound.expect("only bounded metrics are compared");
    let (b, n) = (quartiles(base).1, quartiles(new).1);
    let worsened = match m.better {
        Better::Lower => (n - b) / b.abs(),
        Better::Higher => (b - n) / b.abs(),
    };
    let verdict = if iqr_share(base) > bound || iqr_share(new) > bound {
        Verdict::Unresolved
    } else if worsened > bound {
        Verdict::Worse
    } else if worsened < -bound {
        Verdict::Better
    } else {
        Verdict::WithinBound
    };
    (verdict, worsened)
}

/// Every (workload, end-to-end metric) pairing of `new` against `base`.
pub fn compare(def: &BenchmarkDef, base: &Json, new: &Json) -> Vec<(String, String, Verdict, f64)> {
    let mut rows = Vec::new();
    for w in &def.workloads {
        for m in &def.end_to_end {
            if let (Some(b), Some(n)) = (
                values_of(base, &w.name, &m.name),
                values_of(new, &w.name, &m.name),
            ) {
                let (v, worsened) = verdict(m, &b, &n);
                rows.push((w.name.clone(), m.name.clone(), v, worsened));
            }
        }
    }
    rows
}

/// The comparison as a table, one row per pairing.
pub fn render_compare(def: &BenchmarkDef, base: &Json, new: &Json) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<16} {:<16} {:>14} {:>8} {:>14} {:>8} {:>9} {:>6}  verdict",
        "workload", "metric", "base median", "iqr %", "new median", "iqr %", "worse %", "bound"
    );
    for (workload, metric, v, worsened) in compare(def, base, new) {
        let m = def.metric(&metric).expect("defined metric");
        let (b, n) = (
            values_of(base, &workload, &metric).expect("compared"),
            values_of(new, &workload, &metric).expect("compared"),
        );
        let _ = writeln!(
            out,
            "{:<16} {:<16} {:>14.6} {:>8.2} {:>14.6} {:>8.2} {:>9.2} {:>6.0}  {}",
            workload,
            metric,
            quartiles(&b).1,
            iqr_share(&b) * 100.0,
            quartiles(&n).1,
            iqr_share(&n) * 100.0,
            worsened * 100.0,
            m.bound.unwrap_or(0.0) * 100.0,
            v.label()
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gates::Tally;
    use crate::stats::Summary;

    fn metric(better: Better, bound: f64) -> MetricDef {
        MetricDef {
            name: "m".into(),
            unit: "ms".into(),
            better,
            bound: Some(bound),
        }
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let lower = metric(Better::Lower, 0.10);
        let base = [100.0, 101.0, 99.0];
        assert_eq!(
            verdict(&lower, &base, &[104.0, 105.0, 103.0]).0,
            Verdict::WithinBound
        );
        assert_eq!(
            verdict(&lower, &base, &[115.0, 116.0, 114.0]).0,
            Verdict::Worse
        );
        assert_eq!(
            verdict(&lower, &base, &[80.0, 81.0, 79.0]).0,
            Verdict::Better
        );
        // A side whose own quartiles are further apart than the bound
        // cannot resolve a move of that size.
        assert_eq!(
            verdict(&lower, &base, &[80.0, 120.0, 100.0]).0,
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(&lower, &[80.0, 120.0, 100.0], &base).0,
            Verdict::Unresolved
        );
        let higher = metric(Better::Higher, 0.10);
        assert_eq!(
            verdict(&higher, &base, &[80.0, 81.0, 79.0]).0,
            Verdict::Worse
        );
        assert_eq!(
            verdict(&higher, &base, &[120.0, 121.0, 119.0]).0,
            Verdict::Better
        );
        let (_, worsened) = verdict(&higher, &[100.0], &[90.0]);
        assert!((worsened - 0.10).abs() < 1e-12);
        // One run a side: no spread to exceed the bound, the medians decide.
        assert_eq!(verdict(&lower, &[100.0], &[120.0]).0, Verdict::Worse);
    }

    fn sample_report(def: &BenchmarkDef, trace: bool) -> RunReport {
        let mut report = RunReport::default();
        for (i, m) in metric_set(def, trace).iter().enumerate() {
            report.values.insert(m.name.clone(), 1.5 + i as f64);
        }
        report.samples.insert(
            metric_set(def, trace)[0].name.clone(),
            Summary {
                n: 40,
                median: 1.5,
                q1: 1.25,
                q3: 1.75,
            },
        );
        report.tally = Tally {
            attempted: 41,
            failed: 0,
            reasons: Vec::new(),
        };
        report
    }

    #[test]
    fn contract_line_has_exactly_the_contract_keys() {
        let def = BenchmarkDef::embedded();
        for trace in [false, true] {
            let args = RunArgs {
                workload: "ccsd_big".into(),
                seed: 1,
                seconds: 10.0,
                trace,
                quick: false,
            };
            let host = Host {
                nproc: 2,
                threads: 2,
                pins: Vec::new(),
            };
            let text = render_run(&args, &host, &def, &sample_report(&def, trace));
            let last = text.lines().last().unwrap();
            let doc = Json::parse(last).unwrap();
            let keys: Vec<&str> = doc
                .entries()
                .unwrap()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
            assert!(last.contains("\"attempted\": 41, \"failed\": 0"));
            let metrics = doc.get("metrics").unwrap().entries().unwrap();
            let want = metric_set(&def, trace);
            assert_eq!(metrics.len(), want.len());
            for ((name, value), m) in metrics.iter().zip(want) {
                assert_eq!(name, &m.name);
                let fields: Vec<&str> = value
                    .entries()
                    .unwrap()
                    .iter()
                    .map(|(k, _)| k.as_str())
                    .collect();
                assert_eq!(fields, ["value", "unit"]);
            }
            // The detail record round-trips and carries the sample counts.
            let detail = text
                .lines()
                .find_map(|l| l.strip_prefix(DETAIL_PREFIX))
                .map(|l| Json::parse(l).unwrap())
                .unwrap();
            assert_eq!(metric_value(&detail, &want[0].name).unwrap(), 1.5);
            assert_eq!(
                detail
                    .get("metrics")
                    .unwrap()
                    .get(&want[0].name)
                    .unwrap()
                    .get_f64("n")
                    .unwrap(),
                40.0
            );
        }
    }
}
