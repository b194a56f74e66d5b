//! The four execution workloads: one synthesized program, inputs bound
//! once, executed back to back in the workload's mode with a warm plan
//! cache — what a user who compiles once and runs many times pays.

use crate::gates::{direct_outputs, outputs_agree, outputs_identical, shrunk, Outputs, Tally};
use crate::json::{num, obj, s, Json};
use crate::programs::{cc_doubles, section2_source};
use crate::replay::{replay_dist_exec, replay_tree_exec, DistCounts, NodeCall};
use crate::run::{measure_cycles, ms_since, timed_loop, Host, RunArgs, RunReport};
use crate::span::{per_op_ms, Recorder};
use crate::spec::BenchmarkDef;
use crate::stats::median;
use std::collections::{BTreeMap, HashMap};
use std::time::Instant;
use tce_core::calib::probe::{run_probes, ProbeOptions};
use tce_core::calib::{shape_class, Profile};
use tce_core::dist::Machine;
use tce_core::ir::TensorId;
use tce_core::par::ProcessorGrid;
use tce_core::serve::{bind_functions, bind_random_inputs};
use tce_core::tensor::kernels::{self, KernelVariant};
use tce_core::tensor::{bufpool_stats, plan_cache_stats, IntegralFn, Tensor};
use tce_core::{synthesize, synthesize_program, ExecOptions, Schedule, Synthesis, SynthesisConfig};

/// Which `Synthesis::execute_*` entry point a workload times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// `execute_opts`: the array-at-a-time tree executor.
    Tree(Schedule),
    /// `execute_fused_opts`: the fused-slice memory-minimal executor.
    Fused,
    /// `execute_distributed_opts`: the sharded executor on the config's
    /// grid.
    Dist,
}

/// One execution workload: what to compile and how to run it.
#[derive(Debug, Clone)]
pub struct ExecSpec {
    /// Program source.
    pub src: String,
    /// Compilation options.
    pub cfg: SynthesisConfig,
    /// Execution entry point.
    pub mode: Mode,
    /// Executions per timing sample, sized so that a sample is about a
    /// quarter of a second of sustained work on a ~25 GF/s core.
    pub batch: usize,
    /// Extent cap of the small-extent correctness gate.
    pub gate_extent: usize,
}

/// The execution workload called `name` (`quick`: at toy extents), or
/// `None` when `name` is not one of the four.
pub fn spec_for(name: &str, quick: bool) -> Option<ExecSpec> {
    let pick = |full: usize, toy: usize| if quick { toy } else { full };
    let plain = SynthesisConfig::default();
    Some(match name {
        "ccsd_big" => ExecSpec {
            src: section2_source(pick(24, 8)),
            cfg: plain,
            mode: Mode::Tree(Schedule::Seq),
            batch: pick(6, 1),
            gate_extent: small_extent(quick),
        },
        "ccsd_fused" => ExecSpec {
            src: section2_source(pick(10, 4)),
            cfg: plain,
            mode: Mode::Fused,
            batch: pick(4, 1),
            gate_extent: small_extent(quick),
        },
        "cc_multi_graph" => ExecSpec {
            src: cc_doubles(pick(40, 6), pick(10, 3)),
            cfg: plain,
            mode: Mode::Tree(Schedule::Graph),
            batch: pick(10, 1),
            gate_extent: small_extent(quick),
        },
        "dist_grid" => ExecSpec {
            src: section2_source(pick(16, 6)),
            cfg: SynthesisConfig {
                machine: Some(Machine::new(ProcessorGrid::new(vec![2, 2]))),
                ..plain
            },
            mode: Mode::Dist,
            batch: pick(64, 1),
            gate_extent: small_extent(quick),
        },
        _ => return None,
    })
}

/// Extent cap of the direct sum-of-products check: 4¹⁰ ≈ a million points
/// for the ten-index §2 term (3 in smoke mode, where the naive evaluation
/// runs unoptimized).
pub fn small_extent(quick: bool) -> usize {
    if quick {
        3
    } else {
        4
    }
}

/// What an execution reports beside its outputs; the model equalities
/// (peak live-set == memmin, communication == move/reduce cost) are
/// checked where these are produced.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Facts {
    /// Sliced GETT calls (fused mode).
    pub sliced: u64,
    /// Measured peak intermediate live-set, elements (fused mode).
    pub peak_live: u128,
    /// Elements that changed rank (distributed mode).
    pub moved: u128,
    /// Reduction-tree words (distributed mode).
    pub reduce_words: u128,
}

/// Borrowed view of bound inputs.
pub fn refs(owned: &[(TensorId, Tensor)]) -> HashMap<TensorId, &Tensor> {
    owned.iter().map(|(id, t)| (*id, t)).collect()
}

/// Execute `syn` once in `mode`.  A model mismatch is an error, like a
/// failed execution.
pub fn run_mode(
    syn: &Synthesis,
    inputs: &HashMap<TensorId, &Tensor>,
    funcs: &HashMap<String, IntegralFn>,
    threads: usize,
    mode: Mode,
) -> Result<(Outputs, Facts), String> {
    let opts = ExecOptions::with_threads(threads);
    match mode {
        Mode::Tree(schedule) => syn
            .execute_opts(inputs, funcs, &opts.with_schedule(schedule))
            .map(|out| (out, Facts::default()))
            .map_err(|e| e.to_string()),
        Mode::Fused => {
            let sum = syn
                .execute_fused_opts(inputs, funcs, &opts)
                .map_err(|e| e.to_string())?;
            if !sum.peak_matches_model() {
                return Err(format!(
                    "peak live-set {} != memmin model {}",
                    sum.peak_live_elements, sum.modeled_elements
                ));
            }
            let facts = Facts {
                sliced: sum.sliced_contractions,
                peak_live: sum.peak_live_elements,
                ..Facts::default()
            };
            Ok((sum.outputs, facts))
        }
        Mode::Dist => {
            let sum = syn
                .execute_distributed_opts(inputs, funcs, &opts)
                .map_err(|e| e.to_string())?;
            if sum.moved_elements != sum.predicted_move_elements
                || sum.reduce_words != sum.predicted_reduce_words
            {
                return Err(format!(
                    "communication moved {} / reduced {} != modeled {} / {}",
                    sum.moved_elements,
                    sum.reduce_words,
                    sum.predicted_move_elements,
                    sum.predicted_reduce_words
                ));
            }
            let facts = Facts {
                moved: sum.moved_elements,
                reduce_words: sum.reduce_words,
                ..Facts::default()
            };
            Ok((sum.outputs, facts))
        }
    }
}

/// The small-extent gate: compile `src`, cap every range at `extent`,
/// synthesize under `cfg`, execute in `mode`, and hold the result to the
/// direct sum-of-products evaluation within 1e-10.
pub fn small_extent_gate(
    src: &str,
    cfg: &SynthesisConfig,
    mode: Mode,
    extent: usize,
    seed: u64,
    threads: usize,
) -> Result<(), String> {
    let program = tce_core::lang::compile(src).map_err(|e| e.to_string())?;
    let small = shrunk(&program, extent);
    let syn = synthesize_program(small.clone(), cfg).map_err(|e| e.to_string())?;
    let owned = bind_random_inputs(&syn, seed);
    let inputs = refs(&owned);
    let funcs = bind_functions(&syn, seed);
    let (got, _) = run_mode(&syn, &inputs, &funcs, threads, mode)?;
    let want = direct_outputs(&small, &inputs, &funcs)?;
    outputs_agree(&got, &want, 1e-10).map_err(|e| format!("vs direct sum of products: {e}"))
}

/// Run `f` with the scalar micro-kernel forced, then restore dispatch.
fn with_scalar_kernel<R>(f: impl FnOnce() -> R) -> R {
    kernels::set_override(Some(KernelVariant::Scalar)).expect("scalar kernel is always supported");
    let result = f();
    kernels::set_override(None).expect("clearing the override cannot fail");
    result
}

/// A workload ready for its timed phase.
struct Prepared {
    syn: Synthesis,
    owned: Vec<(TensorId, Tensor)>,
    funcs: HashMap<String, IntegralFn>,
    /// Output of the first execution; every later one must equal it bit
    /// for bit.
    first: Outputs,
    facts: Facts,
    /// Duration of that first execution (no plan for its signatures
    /// cached yet), milliseconds.
    cold_ms: f64,
}

/// One set-up pass: compile, bind, first execution, both correctness
/// references, warm-up.
fn prepare(
    spec: &ExecSpec,
    seed: u64,
    threads: usize,
    tally: &mut Tally,
) -> Result<Prepared, String> {
    let syn = synthesize(&spec.src, &spec.cfg).map_err(|e| e.to_string())?;
    let owned = bind_random_inputs(&syn, seed);
    let funcs = bind_functions(&syn, seed);
    let inputs = refs(&owned);
    let start = Instant::now();
    let (first, facts) = run_mode(&syn, &inputs, &funcs, threads, spec.mode)?;
    let cold_ms = ms_since(start);

    tally.record(small_extent_gate(
        &spec.src,
        &spec.cfg,
        spec.mode,
        spec.gate_extent,
        seed,
        threads,
    ));
    let reference = with_scalar_kernel(|| {
        syn.execute_opts(&inputs, &funcs, &ExecOptions::serial())
            .map_err(|e| e.to_string())
    })?;
    tally.record(
        outputs_agree(&first, &reference, 1e-9)
            .map_err(|e| format!("vs scalar one-thread tree executor: {e}")),
    );
    for _ in 0..2 {
        let (out, _) = run_mode(&syn, &inputs, &funcs, threads, spec.mode)?;
        tally.check(outputs_identical(&out, &first), || {
            "warm-up output differs from the first execution".into()
        });
    }
    drop(inputs);
    Ok(Prepared {
        syn,
        owned,
        funcs,
        first,
        facts,
        cold_ms,
    })
}

impl Prepared {
    /// One timed execution; the output check happens after the clock
    /// stops.  Returns milliseconds.
    fn op(&self, spec: &ExecSpec, threads: usize, tally: &mut Tally) -> f64 {
        let inputs = refs(&self.owned);
        let start = Instant::now();
        let result = run_mode(&self.syn, &inputs, &self.funcs, threads, spec.mode);
        let ms = ms_since(start);
        tally.record(result.and_then(|(out, facts)| {
            if !outputs_identical(&out, &self.first) {
                Err("output differs between iterations".into())
            } else if facts != self.facts {
                Err(format!(
                    "model counters moved: {facts:?} vs {:?}",
                    self.facts
                ))
            } else {
                Ok(())
            }
        }));
        ms
    }
}

/// Run execution workload `spec`.
pub fn run(
    args: &RunArgs,
    host: &Host,
    def: &BenchmarkDef,
    spec: &ExecSpec,
) -> Result<RunReport, String> {
    let threads = host.threads;
    let mut tally = Tally::default();
    if args.trace {
        let prepared = prepare(spec, args.seed, threads, &mut tally)?;
        return traced(args, host, def, spec, &prepared, tally);
    }
    let (timed, setup_s) = measure_cycles(
        args,
        &mut tally,
        |tally| prepare(spec, args.seed, threads, tally),
        |prepared, seconds, tally| {
            Ok(timed_loop(seconds, spec.batch, |_| {
                prepared.op(spec, threads, tally)
            }))
        },
    )?;
    let mut report = RunReport::default();
    report.set_end_to_end(&timed, timed.ops_per_busy_second(), &setup_s);
    report.tally = tally;
    Ok(report)
}

/// Per contraction node: flops, median plan-lookup and `contract_gett`
/// time at the run's thread count (`calls`), and — from a one-thread
/// replay (`single`), because the probes are one-thread — the rate held
/// against the probed peak of the node's shape class.
///
/// Returns the table and the time-weighted share of the probed peak: the
/// time the one-thread replay would take at the probed rates over the
/// time it took.
pub fn node_table(calls: &[NodeCall], single: &[NodeCall], profile: &Profile) -> (Vec<Json>, f64) {
    /// Calls grouped by (program, statement, term, node).
    fn group(calls: &[NodeCall]) -> BTreeMap<(usize, usize, usize, u32), Vec<&NodeCall>> {
        let mut by_node: BTreeMap<_, Vec<&NodeCall>> = BTreeMap::new();
        for call in calls {
            by_node
                .entry((call.program, call.stmt, call.term, call.node))
                .or_default()
                .push(call);
        }
        by_node
    }
    let med = |group: &[&NodeCall], field: fn(&NodeCall) -> u64| {
        median(&group.iter().map(|c| field(c) as f64).collect::<Vec<_>>())
    };
    let single = group(single);
    let rates = profile.gemm_rates(kernels::active().name());
    let mut rows = Vec::new();
    let (mut at_peak_s, mut spent_s) = (0.0, 0.0);
    for ((program, stmt, term, node), group) in group(calls) {
        let flops = group[0].flops as f64;
        let gett_s = med(&group, |c| c.gett_ns) / 1e9;
        let class = shape_class(group[0].flops);
        let peak = rates.for_class(class);
        let single_s = single
            .get(&(program, stmt, term, node))
            .map_or(gett_s, |g| med(g, |c| c.gett_ns) / 1e9);
        at_peak_s += flops / (peak * 1e9);
        spent_s += single_s;
        rows.push(obj([
            ("program", num(program as f64)),
            ("stmt", num(stmt as f64)),
            ("term", num(term as f64)),
            ("node", num(node as f64)),
            ("flops", num(flops)),
            ("calls", num(group.len() as f64)),
            ("plan_us", num(med(&group, |c| c.plan_ns) / 1e3)),
            ("gett_ms", num(gett_s * 1e3)),
            ("gett_gflops", num(flops / gett_s / 1e9)),
            ("one_thread_gflops", num(flops / single_s / 1e9)),
            ("shape_class", s(class.name())),
            ("probed_peak_gflops", num(peak)),
            ("peak_frac", num(flops / single_s / 1e9 / peak)),
        ]));
    }
    (
        rows,
        if spent_s > 0.0 {
            at_peak_s / spent_s
        } else {
            0.0
        },
    )
}

/// The traced run: an untraced block for the base median, a block where
/// every operation runs inside a span and is followed by its replay, then
/// the scheduler and peak probes.
fn traced(
    args: &RunArgs,
    host: &Host,
    def: &BenchmarkDef,
    spec: &ExecSpec,
    prepared: &Prepared,
    mut tally: Tally,
) -> Result<RunReport, String> {
    let threads = host.threads;
    let slice = args.seconds / 3.0;
    let base = timed_loop(slice, 1, |_| prepared.op(spec, threads, &mut tally));

    let inputs = refs(&prepared.owned);
    let mut rec = Recorder::new(true);
    let mut calls: Vec<NodeCall> = Vec::new();
    let mut dist_counts = DistCounts::default();
    let (mut plan_delta, mut pool_delta) = ((0u64, 0u64), (0u64, 0u64));
    let mut failure = None;
    let traced_ops = timed_loop(slice, 1, |i| {
        rec.set_op(i);
        let (plan0, pool0) = (plan_cache_stats(), bufpool_stats());
        let ms = rec.scope("op", |_| prepared.op(spec, threads, &mut tally));
        let (plan1, pool1) = (plan_cache_stats(), bufpool_stats());
        plan_delta = (
            plan_delta.0 + plan1.0 - plan0.0,
            plan_delta.1 + plan1.1 - plan0.1,
        );
        pool_delta = (
            pool_delta.0 + pool1.0 - pool0.0,
            pool_delta.1 + pool1.1 - pool0.1,
        );
        let replayed = rec.scope("replay", |rec| {
            let tree = replay_tree_exec(
                rec,
                &prepared.syn,
                &inputs,
                &prepared.funcs,
                threads,
                0,
                &mut calls,
            )?;
            // The tree replay issues the tree executor's own calls, so it
            // must reproduce it exactly; the fused and sharded executors
            // order their sums differently and agree to rounding.
            match spec.mode {
                Mode::Tree(_) if !outputs_identical(&tree, &prepared.first) => {
                    return Err("tree replay differs from the tree executor".to_string());
                }
                Mode::Tree(_) => {}
                _ => outputs_agree(&tree, &prepared.first, 1e-9)
                    .map_err(|e| format!("tree replay vs timed executor: {e}"))?,
            }
            if spec.mode == Mode::Dist {
                let mut counts = DistCounts::default();
                let out = replay_dist_exec(rec, &prepared.syn, &inputs, threads, &mut counts)?;
                if !outputs_identical(&out, &prepared.first) {
                    return Err("distributed replay differs from the sharded executor".into());
                }
                dist_counts = counts;
            }
            Ok(())
        });
        if let Err(e) = replayed {
            failure.get_or_insert(e);
        }
        ms
    });
    tally.record(failure.map_or(Ok(()), Err));

    let mut report = RunReport::zeroed_layers(def);
    let ops = traced_ops.op_ms.len() as f64;
    let op_ms = median(&traced_ops.op_ms);
    let base_ms = median(&base.op_ms);
    report.set("trace_overhead_pct", (op_ms - base_ms) / base_ms * 100.0);
    report.notes.push((
        "op_ms".into(),
        obj([
            ("untraced", num(base_ms)),
            ("traced", num(op_ms)),
            ("ops", num(ops)),
        ]),
    ));

    // tce-tensor, from the per-node replay.
    let spans = rec.spans();
    let gett_ms = per_op_ms(spans, "replay", &["tensor.gett"]);
    let plan_ms = per_op_ms(spans, "replay", &["tensor.plan"]);
    report.set_median("tensor.gett_ms", &gett_ms);
    report.set_median(
        "tensor.plan_us",
        &plan_ms.iter().map(|ms| ms * 1e3).collect::<Vec<_>>(),
    );
    let flops_per_op = calls.iter().map(|c| c.flops as f64).sum::<f64>() / ops;
    report.set(
        "tensor.gett_gflops",
        flops_per_op / (median(&gett_ms) / 1e3) / 1e9,
    );
    report.set("tensor.plan_hits", plan_delta.0 as f64 / ops);
    report.set("tensor.plan_misses", plan_delta.1 as f64 / ops);
    report.set("tensor.bufpool_hits", pool_delta.0 as f64 / ops);
    report.set("tensor.bufpool_misses", pool_delta.1 as f64 / ops);
    report.set("tensor.cold_exec_ms", prepared.cold_ms);

    // tce-exec: what the timed executor spends beyond the kernel calls.
    report.set("exec.walk_self_ms", op_ms - median(&gett_ms));
    report.set("exec.sliced_contractions", prepared.facts.sliced as f64);
    if prepared.facts.sliced > 0 {
        report.set(
            "exec.us_per_slice",
            op_ms * 1e3 / prepared.facts.sliced as f64,
        );
    }
    report.set("exec.peak_live_elements", prepared.facts.peak_live as f64);

    // tce-dist (execution side).
    if spec.mode == Mode::Dist {
        for (metric, name) in [
            ("dist.scatter_ms", "dist.scatter"),
            ("dist.redistribute_ms", "dist.redistribute"),
            ("dist.contract_ms", "dist.contract"),
            ("dist.reduce_ms", "dist.reduce"),
            ("dist.gather_ms", "dist.gather"),
        ] {
            report.set_median(metric, &per_op_ms(spans, "replay", &[name]));
        }
        tally.check(
            dist_counts.moved == prepared.facts.moved
                && dist_counts.predicted_moved == prepared.facts.moved
                && dist_counts.reduce_words == prepared.facts.reduce_words,
            || {
                format!(
                    "replayed traffic {dist_counts:?} != executor's {:?}",
                    prepared.facts
                )
            },
        );
        report.set("dist.moved_elements", prepared.facts.moved as f64);
        report.set("dist.reduce_words", prepared.facts.reduce_words as f64);
    }

    // tce-par: the task graph against the sequential walk on the tree
    // executor, at one worker (overhead) and at the run's thread count.
    let tree_ms = |threads: usize, schedule: Schedule| -> Result<f64, String> {
        let mut ms = Vec::new();
        for _ in 0..3 {
            let start = Instant::now();
            run_mode(
                &prepared.syn,
                &inputs,
                &prepared.funcs,
                threads,
                Mode::Tree(schedule),
            )?;
            ms.push(ms_since(start));
        }
        Ok(median(&ms))
    };
    let (seq1, graph1) = (tree_ms(1, Schedule::Seq)?, tree_ms(1, Schedule::Graph)?);
    let (seq_n, graph_n) = (
        tree_ms(threads, Schedule::Seq)?,
        tree_ms(threads, Schedule::Graph)?,
    );
    report.set("par.graph_overhead_pct", (graph1 - seq1) / seq1 * 100.0);
    report.set("par.graph_speedup", seq_n / graph_n);

    // The peak each node is held against, probed in this same run.
    let profile = run_probes(&ProbeOptions {
        seed: args.seed,
        budget_ms: if args.quick { 20 } else { 300 },
        threads,
    });
    report.set("par.dispatch_us", profile.dispatch_ns / 1e3);
    // The probes run on one thread, so the nodes are replayed on one
    // thread for the comparison.
    let mut single = Vec::new();
    if threads > 1 {
        for _ in 0..3 {
            replay_tree_exec(
                &mut Recorder::new(false),
                &prepared.syn,
                &inputs,
                &prepared.funcs,
                1,
                0,
                &mut single,
            )?;
        }
    }
    let single = if threads > 1 { &single } else { &calls };
    let (rows, peak_frac) = node_table(&calls, single, &profile);
    report.set("tensor.peak_frac", peak_frac);
    report
        .notes
        .push(("contraction_nodes".into(), Json::Arr(rows)));
    report.notes.push((
        "graph_vs_seq_ms".into(),
        obj([
            ("seq_1", num(seq1)),
            ("graph_1", num(graph1)),
            ("seq_n", num(seq_n)),
            ("graph_n", num(graph_n)),
            ("n", num(threads as f64)),
        ]),
    ));

    report.spans = rec.spans().to_vec();
    report.tally = tally;
    Ok(report)
}
