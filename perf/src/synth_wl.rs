//! `synth_only`: compile time.  One operation is one pass of
//! `tce_core::synthesize` over four programs chosen so that every stage
//! of the pipeline does real work in at least one of them.

use crate::exec_wl::{small_extent, small_extent_gate, Mode};
use crate::gates::Tally;
use crate::json::{num, obj};
use crate::programs::{a3a_energy, cc_doubles, matrix_chain, section2_source};
use crate::replay::{replay_synthesis, synthesis_counts, StageCounts};
use crate::run::{measure_cycles, ms_since, timed_loop, Host, RunArgs, RunReport};
use crate::span::{per_op_ms, Recorder};
use crate::spec::BenchmarkDef;
use crate::stats::median;
use std::time::Instant;
use tce_core::dist::Machine;
use tce_core::locality::MemoryHierarchy;
use tce_core::par::ProcessorGrid;
use tce_core::{synthesize, Schedule, Synthesis, SynthesisConfig};

/// A `SynthesisConfig` as the `tce` CLI builds it from `--memory-limit`,
/// `--cache` and `--grid`.
pub fn config(
    memory_limit: Option<u128>,
    cache: Option<u128>,
    grid: Option<&[usize]>,
) -> SynthesisConfig {
    SynthesisConfig {
        memory_limit: memory_limit.unwrap_or(u128::MAX),
        cache_elements: cache,
        hierarchy: MemoryHierarchy::cache_and_disk(cache.unwrap_or(64 * 1024), 1 << 30),
        machine: grid.map(|dims| Machine::new(ProcessorGrid::new(dims.to_vec()))),
        calibration: None,
    }
}

/// The program set of one pass: name, source, options.
///
/// * §2 term — four-factor opmin, fusion DP, tile search, 8-rank grid;
/// * A3A under a memory limit — the only member that enters space-time;
/// * `cc_doubles` — multi-term statements (CSE), six terms, the largest
///   tile search;
/// * `matrix_chain` — a near-empty pipeline, the fixed cost per program.
pub fn program_set(quick: bool) -> Vec<(&'static str, String, SynthesisConfig)> {
    if quick {
        return vec![
            (
                "section2",
                section2_source(6),
                config(None, Some(64), Some(&[2, 2])),
            ),
            (
                "a3a",
                a3a_energy(4, 2),
                config(Some(20), Some(64), Some(&[2, 2])),
            ),
            (
                "cc_doubles",
                cc_doubles(6, 3),
                config(None, Some(64), Some(&[2, 2])),
            ),
            ("matrix_chain", matrix_chain(), config(None, None, None)),
        ];
    }
    vec![
        (
            "section2",
            section2_source(16),
            config(None, Some(4096), Some(&[2, 4])),
        ),
        (
            "a3a",
            a3a_energy(12, 4),
            config(Some(100), Some(4096), Some(&[2, 2])),
        ),
        (
            "cc_doubles",
            cc_doubles(40, 10),
            config(None, Some(8192), Some(&[2, 2])),
        ),
        ("matrix_chain", matrix_chain(), config(None, None, None)),
    ]
}

/// What must not change from pass to pass: the plans' sizes and costs.
fn signature(syn: &Synthesis) -> Vec<u128> {
    let mut sig = Vec::new();
    for plan in &syn.plans {
        sig.extend([plan.tree_ops, plan.memmin.memory, plan.tree_rank as u128]);
        sig.push(plan.spacetime.as_ref().map_or(0, |(_, tiles)| tiles.ops));
        sig.extend(plan.locality.iter().map(|l| l.cost));
        sig.push(plan.distribution.as_ref().map_or(0, |d| d.total_cost));
    }
    sig
}

type Set = [(&'static str, String, SynthesisConfig)];

/// One pass over the set; returns its duration and each program's
/// synthesis.
fn pass(set: &Set) -> Result<(f64, Vec<Synthesis>), String> {
    let start = Instant::now();
    let mut out = Vec::with_capacity(set.len());
    for (name, src, cfg) in set {
        out.push(synthesize(src, cfg).map_err(|e| format!("{name}: {e}"))?);
    }
    Ok((ms_since(start), out))
}

/// One set-up pass: every member is checked at small extents against the
/// direct evaluation (through the tree executor — this workload times no
/// executor), then one warm pass fixes the signatures.
fn prepare(
    set: &Set,
    args: &RunArgs,
    threads: usize,
    tally: &mut Tally,
) -> Result<Vec<Vec<u128>>, String> {
    let (tree, extent) = (Mode::Tree(Schedule::Seq), small_extent(args.quick));
    for (name, src, cfg) in set {
        tally.record(
            small_extent_gate(src, cfg, tree, extent, args.seed, threads)
                .map_err(|e| format!("{name}: {e}")),
        );
    }
    let (_, syns) = pass(set)?;
    Ok(syns.iter().map(signature).collect())
}

fn timed_pass(set: &Set, want: &[Vec<u128>], tally: &mut Tally) -> f64 {
    match pass(set) {
        Ok((ms, syns)) => {
            let got: Vec<Vec<u128>> = syns.iter().map(signature).collect();
            tally.check(got == want, || "synthesis is not deterministic".into());
            ms
        }
        Err(e) => {
            tally.record(Err(e));
            0.0
        }
    }
}

/// Run `synth_only`.
pub fn run(args: &RunArgs, host: &Host, def: &BenchmarkDef) -> Result<RunReport, String> {
    let set = program_set(args.quick);
    let mut tally = Tally::default();
    if !args.trace {
        let (timed, setup_s) = measure_cycles(
            args,
            &mut tally,
            |tally| prepare(&set, args, host.threads, tally),
            |want, seconds, tally| Ok(timed_loop(seconds, 1, |_| timed_pass(&set, want, tally))),
        )?;
        let mut report = RunReport::default();
        report.set_end_to_end(&timed, timed.ops_per_busy_second(), &setup_s);
        report.tally = tally;
        return Ok(report);
    }

    let want = prepare(&set, args, host.threads, &mut tally)?;
    let slice = args.seconds / 3.0;
    let base = timed_loop(slice, 1, |_| timed_pass(&set, &want, &mut tally));
    let mut rec = Recorder::new(true);
    let mut counts = StageCounts::default();
    let mut failure = None;
    // Two thirds: each operation is the real pass in a span, then the
    // stage-by-stage replay of the same four programs.
    let traced = timed_loop(2.0 * slice, 1, |i| {
        rec.set_op(i);
        let ms = rec.scope("op", |_| timed_pass(&set, &want, &mut tally));
        counts = StageCounts::default();
        let replayed = rec.scope("replay", |rec| {
            for (name, src, cfg) in &set {
                let c = replay_synthesis(rec, src, cfg).map_err(|e| format!("{name}: {e}"))?;
                counts.add(&c);
            }
            Ok::<(), String>(())
        });
        if let Err(e) = replayed {
            failure.get_or_insert(e);
        }
        ms
    });
    tally.record(failure.map_or(Ok(()), Err));

    let (_, syns) = pass(&set)?;
    let real = syns
        .iter()
        .map(synthesis_counts)
        .fold((0, 0, 0), |a, b| (a.0 + b.0, a.1 + b.1, a.2 + b.2));
    tally.check(
        (counts.terms, counts.tree_ops, counts.memmin_elements) == real,
        || format!("stage replay chose {counts:?}, synthesize chose {real:?}"),
    );

    let mut report = RunReport::zeroed_layers(def);
    let op_ms = median(&traced.op_ms);
    let base_ms = median(&base.op_ms);
    report.set("trace_overhead_pct", (op_ms - base_ms) / base_ms * 100.0);
    report.notes.push((
        "op_ms".into(),
        obj([
            ("untraced", num(base_ms)),
            ("traced", num(op_ms)),
            ("ops", num(traced.op_ms.len() as f64)),
        ]),
    ));
    let spans = rec.spans();
    let mut staged = 0.0;
    for (metric, names) in STAGE_SPANS {
        let per_op = per_op_ms(spans, "replay", names);
        staged += median(&per_op);
        report.set_median(metric, &per_op);
    }
    report.set("core.glue_ms", op_ms - staged);
    set_counts(&mut report, &counts);
    report.spans = spans.to_vec();
    report.tally = tally;
    Ok(report)
}

/// Which replay spans make up each stage metric.
pub const STAGE_SPANS: [(&str, &[&str]); 7] = [
    ("lang.ms", &["lang.compile"]),
    ("opmin.ms", &["opmin.pareto", "opmin.assignment"]),
    ("fusion.ms", &["fusion.memmin"]),
    ("loops.ms", &["loops.fused_program"]),
    ("spacetime.ms", &["spacetime.optimize", "spacetime.program"]),
    ("locality.ms", &["locality.nests", "locality.search"]),
    ("dist.plan_ms", &["dist.plan"]),
];

/// Report the sizes the stages produced, per operation.
pub fn set_counts(report: &mut RunReport, counts: &StageCounts) {
    report.set("lang.terms", counts.terms as f64);
    report.set("opmin.frontier_points", counts.frontier_points as f64);
    report.set("opmin.tree_ops", counts.tree_ops as f64);
    report.set("fusion.memmin_elements", counts.memmin_elements as f64);
    report.set("loops.ir_nodes", counts.ir_nodes as f64);
    report.set("locality.nests", counts.nests as f64);
}
