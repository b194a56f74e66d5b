//! Cost-model conformance: the observability layer (`tce-trace`) measures
//! what the analytic models predict, *exactly*.
//!
//! * executed-FLOP counters (`gett.flops`, `exec.interp.flops`) equal the
//!   `tce_opmin` operation count `OpTree::total_ops` on the §2 running
//!   example and the A3A (Fig. 2/Fig. 4) scenario;
//! * interpreter load/store counters (`exec.interp.reads`/`.writes`)
//!   equal the `tce_locality` access model `access_cost(p, space, 0)` on
//!   untiled programs — with a zero-capacity cache every loop level
//!   spills, so the model degenerates to an exact memory-reference count;
//! * a `tce --trace`-equivalent run produces spans for all six pipeline
//!   stages plus the GETT pack/kernel sub-spans.
//!
//! Trace state is process-global, so every test serializes on
//! [`TRACE_LOCK`] and brackets its workload with `reset`/`take`.

use std::collections::HashMap;
use std::sync::Mutex;

use tce_core::exec::{Interpreter, NoSink};
use tce_core::ir::TensorId;
use tce_core::locality::access_cost;
use tce_core::scenarios::{section2_source, A3AScenario};
use tce_core::tensor::{IntegralFn, Tensor};
use tce_core::{synthesize, ExecOptions, SynthesisConfig};

static TRACE_LOCK: Mutex<()> = Mutex::new(());

/// Run `f` with tracing enabled on an empty buffer; return its result and
/// the captured trace.  Serialized across the whole test binary.
fn traced<R>(f: impl FnOnce() -> R) -> (R, tce_trace::Trace) {
    let _guard = TRACE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    tce_trace::reset();
    tce_trace::set_enabled(true);
    let out = f();
    tce_trace::set_enabled(false);
    (out, tce_trace::take())
}

/// Deterministic random bindings for every input tensor of the §2 program.
fn section2_inputs(syn: &tce_core::Synthesis, n: usize) -> Vec<(TensorId, Tensor)> {
    ["A", "B", "C", "D"]
        .iter()
        .map(|name| {
            let id = syn.program.tensors.by_name(name).unwrap();
            (id, Tensor::random(&[n, n, n, n], 0xC0 ^ id.0 as u64))
        })
        .collect()
}

#[test]
fn gett_flops_counter_equals_opmin_prediction_on_section2() {
    let n = 6;
    let syn = synthesize(&section2_source(n), &SynthesisConfig::default()).unwrap();
    let plan = &syn.plans[0];
    // The opmin prediction for §2 is the paper's 6·N^6.
    let predicted = plan.tree_ops;
    assert_eq!(predicted, 6 * (n as u128).pow(6));

    let owned = section2_inputs(&syn, n);
    let inputs: HashMap<TensorId, &Tensor> = owned.iter().map(|(id, t)| (*id, t)).collect();
    let funcs = HashMap::new();
    // Two threads: per-worker counters must merge to the same exact total.
    let (results, trace) = traced(|| {
        syn.execute_opts(&inputs, &funcs, &ExecOptions::with_threads(2))
            .unwrap()
    });
    assert_eq!(results.len(), 1);
    assert_eq!(trace.counter_total("gett.flops") as u128, predicted);
}

#[test]
fn gett_flops_counter_equals_opmin_prediction_on_fused_section2() {
    // The memmin-fused §2 term runs 2·N⁴ + N² sliced contractions, most of
    // them on GETT's no-pack direct path; every call still counts its
    // flops and its kernel variant, so the total stays the opmin count.
    let n = 6;
    let syn = synthesize(&section2_source(n), &SynthesisConfig::default()).unwrap();
    let predicted = syn.plans[0].tree_ops;
    let owned = section2_inputs(&syn, n);
    let inputs: HashMap<TensorId, &Tensor> = owned.iter().map(|(id, t)| (*id, t)).collect();
    let funcs = HashMap::new();
    let (summary, trace) = traced(|| {
        syn.execute_fused_opts(&inputs, &funcs, &ExecOptions::with_threads(2))
            .unwrap()
    });
    let slices = 2 * (n as u64).pow(4) + (n as u64).pow(2);
    assert_eq!(summary.sliced_contractions, slices);
    assert_eq!(trace.counter_total("gett.flops") as u128, predicted);
    let report = trace.report();
    let calls: u64 = report.kernel_variants.iter().map(|(_, c)| c).sum();
    assert_eq!(calls, slices);
    assert!(report.gett_direct > 0 && report.gett_direct < slices);
}

#[test]
fn interpreter_flops_counter_equals_opmin_prediction_on_section2() {
    for n in [4, 6] {
        let syn = synthesize(&section2_source(n), &SynthesisConfig::default()).unwrap();
        let plan = &syn.plans[0];
        let predicted = plan.tree_ops;

        let owned = section2_inputs(&syn, n);
        let inputs: HashMap<TensorId, &Tensor> = owned.iter().map(|(id, t)| (*id, t)).collect();
        let funcs = HashMap::new();
        let (_out, trace) = traced(|| {
            plan.execute_interpreted(&syn.program.space, &inputs, &funcs)
                .unwrap()
        });
        assert_eq!(
            trace.counter_total("exec.interp.flops") as u128,
            predicted,
            "N = {n}"
        );
    }
}

#[test]
fn interpreter_flops_match_fig4_analytic_tables() {
    let sc = A3AScenario::new(4, 2, 50);
    let amps = sc.amplitudes(7);
    let mut inputs = HashMap::new();
    inputs.insert(sc.tensors.by_name("T").unwrap(), &amps);
    let funcs = sc.functions();
    for bb in [1usize, 2, 4] {
        let p = sc.fig4_program(bb);
        let ((), trace) = traced(|| {
            let mut interp = Interpreter::new(&p, &sc.space, &inputs, &funcs).unwrap();
            interp.run(&mut NoSink);
        });
        // Fig. 4 table rows: X/Y/E are contraction iteration spaces (×2
        // for multiply+add), T1/T2 are integral flops.
        let t = sc.fig4_table(bb);
        let predicted = 2 * (t[0].2 + t[3].2 + t[4].2) + t[1].2 + t[2].2;
        assert_eq!(
            trace.counter_total("exec.interp.flops") as u128,
            predicted,
            "B = {bb}"
        );
        // At B = V there is no recomputation, so the executed count also
        // equals the opmin tree prediction.
        if bb == sc.v() {
            assert_eq!(predicted, sc.tree.total_ops(&sc.space));
        }
    }
}

#[test]
fn interpreter_accesses_match_locality_model_on_untiled_fig2() {
    let sc = A3AScenario::new(4, 2, 50);
    let built = sc.fig2_program();
    let amps = sc.amplitudes(9);
    let mut inputs = HashMap::new();
    inputs.insert(sc.tensors.by_name("T").unwrap(), &amps);
    let funcs = sc.functions();
    let ((), trace) = traced(|| {
        let mut interp = Interpreter::new(&built.program, &sc.space, &inputs, &funcs).unwrap();
        interp.run(&mut NoSink);
    });
    // With zero cache capacity every loop spills and the model counts one
    // access per reference — exactly the interpreter's loads + stores.
    let predicted = access_cost(&built.program, &sc.space, 0);
    let measured = (trace.counter_total("exec.interp.reads")
        + trace.counter_total("exec.interp.writes")) as u128;
    assert_eq!(measured, predicted);
}

#[test]
fn interpreter_accesses_match_locality_model_on_untiled_section2() {
    let n = 4;
    let syn = synthesize(&section2_source(n), &SynthesisConfig::default()).unwrap();
    let plan = &syn.plans[0];
    let owned = section2_inputs(&syn, n);
    let inputs: HashMap<TensorId, &Tensor> = owned.iter().map(|(id, t)| (*id, t)).collect();
    let funcs: HashMap<String, IntegralFn> = HashMap::new();
    let ((), trace) = traced(|| {
        plan.execute_interpreted(&syn.program.space, &inputs, &funcs)
            .unwrap();
    });
    let predicted = access_cost(&plan.built.program, &syn.program.space, 0);
    let measured = (trace.counter_total("exec.interp.reads")
        + trace.counter_total("exec.interp.writes")) as u128;
    assert_eq!(measured, predicted);
}

#[test]
fn full_pipeline_trace_has_all_stage_and_kernel_spans() {
    // One statement driver and one walker per executor: every execution
    // mode reports the same six stages — exactly one `stage.exec` — and
    // accounts materialized intermediates.
    let n = 6;
    let cfg = SynthesisConfig {
        cache_elements: Some(4096),
        machine: Some(tce_core::dist::Machine::new(
            tce_core::par::ProcessorGrid::new(vec![2, 2]),
        )),
        ..SynthesisConfig::default()
    };
    let two = ExecOptions::with_threads(2);
    for mode in ["serial", "threads", "fused", "distributed"] {
        let ((), trace) = traced(|| {
            let syn = synthesize(&section2_source(n), &cfg).unwrap();
            let owned = section2_inputs(&syn, n);
            let inputs: HashMap<TensorId, &Tensor> = owned.iter().map(|(id, t)| (*id, t)).collect();
            let funcs = HashMap::new();
            match mode {
                "serial" => drop(syn.execute_opts(&inputs, &funcs, &ExecOptions::serial())),
                "threads" => drop(syn.execute_opts(&inputs, &funcs, &two)),
                "fused" => drop(syn.execute_fused_opts(&inputs, &funcs, &two)),
                _ => drop(syn.execute_distributed_opts(&inputs, &funcs, &two)),
            }
        });
        for stage in [
            "stage.opmin",
            "stage.fusion",
            "stage.spacetime",
            "stage.locality",
            "stage.distribution",
        ] {
            assert!(trace.span_count(stage) >= 1, "{mode}: missing span {stage}");
        }
        assert_eq!(
            trace.span_count("stage.exec"),
            1,
            "{mode}: stage.exec spans"
        );
        assert!(
            !trace.names().iter().any(|n| n.starts_with("stage.exec.")),
            "{mode}: a second exec stage name appeared"
        );
        assert!(trace.span_count("gett.pack") >= 1, "{mode}");
        assert!(trace.span_count("gett.kernel") >= 1, "{mode}");
        // Counters that must accompany a traced pipeline run.
        assert!(trace.counter_total("opmin.pareto_points") >= 1);
        assert!(trace.counter_total("fusion.memmin_states") >= 1);
        // The fused §2 program has no perfect nest to tile, but the
        // hierarchy access model always runs under the locality stage when
        // tracing.
        assert!(trace
            .names()
            .iter()
            .any(|n| n.starts_with("locality.accesses.")));
        assert!(trace.counter_total("gett.flops") > 0, "{mode}");
        if mode != "distributed" {
            // (The sharded walker's per-rank buffers are accounted by the
            // communication counters, not the intermediate high-water mark.)
            assert!(
                trace.mem_peak_bytes > 0,
                "{mode}: no intermediate accounted"
            );
        }

        let json = trace.to_chrome_json();
        assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
        assert!(json.contains("\"traceEvents\""));
        let report = trace.report().to_string();
        assert!(report.contains("profile report"));
        assert!(report.contains("opmin"));
        assert!(report.contains("exec"));
    }
}

#[test]
fn tracing_disabled_records_nothing() {
    let _guard = TRACE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    tce_trace::reset();
    assert!(!tce_trace::enabled());
    let n = 4;
    let syn = synthesize(&section2_source(n), &SynthesisConfig::default()).unwrap();
    let owned = section2_inputs(&syn, n);
    let inputs: HashMap<TensorId, &Tensor> = owned.iter().map(|(id, t)| (*id, t)).collect();
    syn.execute_opts(&inputs, &HashMap::new(), &ExecOptions::with_threads(1))
        .unwrap();
    let trace = tce_trace::take();
    assert_eq!(trace.events.len(), 0);
    assert_eq!(trace.mem_peak_bytes, 0);
}
