//! Slots from work, end to end: under `--schedule graph` every executor
//! walk runs on `TaskGraph::useful_slots` of the slots its options allow —
//! total modeled flops over the heaviest dependency path — read back from
//! the traced `sched.slots` counter (the most slots any one walk used), and
//! every result stays bitwise equal to the sequential walk.
//!
//! Trace counters are process-wide, so this binary holds a single test: no
//! concurrent test can add its own walks to the counter.

use std::collections::HashMap;
use tce_core::exec::{ExecOptions, Schedule};
use tce_core::scenarios::section2_source;
use tce_core::serve::{bind_functions, bind_random_inputs};
use tce_core::{synthesize, SynthesisConfig};

/// Execute `src` under the graph schedule at each thread count and return
/// the most slots a walk used at each, after checking the outputs against
/// the one-thread sequential walk bit for bit.
fn graph_slots(src: &str, threads: &[usize]) -> Vec<u64> {
    let syn = synthesize(src, &SynthesisConfig::default()).unwrap();
    let owned = bind_random_inputs(&syn, 7);
    let inputs = owned
        .iter()
        .map(|(id, t)| (*id, t))
        .collect::<HashMap<_, _>>();
    let funcs = bind_functions(&syn, 7);
    let seq = syn
        .execute_opts(&inputs, &funcs, &ExecOptions::serial())
        .unwrap();
    threads
        .iter()
        .map(|&t| {
            let opts = ExecOptions::with_threads(t).with_schedule(Schedule::Graph);
            tce_trace::reset();
            tce_trace::set_enabled(true);
            let got = syn.execute_opts(&inputs, &funcs, &opts);
            tce_trace::set_enabled(false);
            let slots = tce_trace::take().counter_max("sched.slots");
            assert_eq!(got.unwrap(), seq, "graph at {t} threads changed bits");
            slots
        })
        .collect()
}

#[test]
fn walks_take_only_the_slots_their_work_fills() {
    // The §2 term is one statement whose tree is a chain: one slot, so its
    // kernels keep the whole pool.
    assert_eq!(graph_slots(&section2_source(8), &[2, 4]), [1, 1]);
    // cc_doubles: R2 outweighs R1, and E needs both — total flops over the
    // R2 → E path is below 2, and every term's tree is a chain.
    let cc_doubles = include_str!("../examples/specs/cc_doubles.tce");
    assert_eq!(graph_slots(cc_doubles, &[2, 4]), [1, 1]);
    // Two independent statements of equal flops fill two slots, never more,
    // and a one-thread graph walk is still one slot.
    let pair = "
        range N = 24;
        index i, j, k : N;
        tensor A(N, N); tensor B(N, N); tensor C(N, N); tensor D(N, N);
        tensor X(N, N); tensor Y(N, N);
        X[i,j] = sum[k] A[i,k] * B[k,j];
        Y[i,j] = sum[k] C[i,k] * D[k,j];
    ";
    assert_eq!(graph_slots(pair, &[1, 2, 4]), [1, 2, 2]);
}
