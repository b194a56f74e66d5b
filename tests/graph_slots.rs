//! Slots from work, end to end: every executor walk runs on
//! `TaskGraph::useful_slots` of the threads its options allow — total
//! modeled flops over the heaviest dependency path — read back from the
//! traced `sched.slots` counter (the most slots any one walk used), and
//! every result stays bitwise equal to the one-thread walk.
//!
//! Trace counters are process-wide, so this binary holds a single test: no
//! concurrent test can add its own walks to the counter.

use std::collections::HashMap;
use tce_core::dist::Machine;
use tce_core::exec::ExecOptions;
use tce_core::par::ProcessorGrid;
use tce_core::scenarios::section2_source;
use tce_core::serve::{bind_functions, bind_random_inputs};
use tce_core::{synthesize, SynthesisConfig};

/// Run `exec` traced; return its value and the most slots a walk used.
fn traced_slots<T>(exec: impl FnOnce() -> T) -> (T, u64) {
    tce_trace::reset();
    tce_trace::set_enabled(true);
    let got = exec();
    tce_trace::set_enabled(false);
    (got, tce_trace::take().counter_max("sched.slots"))
}

/// Execute `src` at each thread count and return the most slots a walk
/// used at each, after checking the outputs against the one-thread walk
/// bit for bit.
fn graph_slots(src: &str, threads: &[usize]) -> Vec<u64> {
    let syn = synthesize(src, &SynthesisConfig::default()).unwrap();
    let owned = bind_random_inputs(&syn, 7);
    let inputs = owned
        .iter()
        .map(|(id, t)| (*id, t))
        .collect::<HashMap<_, _>>();
    let funcs = bind_functions(&syn, 7);
    let serial = syn
        .execute_opts(&inputs, &funcs, &ExecOptions::serial())
        .unwrap();
    threads
        .iter()
        .map(|&t| {
            let opts = ExecOptions::with_threads(t);
            let (got, slots) = traced_slots(|| syn.execute_opts(&inputs, &funcs, &opts));
            assert_eq!(got.unwrap(), serial, "{t} threads changed bits");
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
    // and a one-thread walk is still one slot.
    let pair = "
        range N = 24;
        index i, j, k : N;
        tensor A(N, N); tensor B(N, N); tensor C(N, N); tensor D(N, N);
        tensor X(N, N); tensor Y(N, N);
        X[i,j] = sum[k] A[i,k] * B[k,j];
        Y[i,j] = sum[k] C[i,k] * D[k,j];
    ";
    assert_eq!(graph_slots(pair, &[1, 2, 4]), [1, 2, 2]);

    // The sharded walk sizes itself the same way: §2's chain over a 2×2
    // grid at two threads keeps one slot, bitwise equal to one thread.
    let cfg = SynthesisConfig {
        machine: Some(Machine::new(ProcessorGrid::new(vec![2, 2]))),
        ..SynthesisConfig::default()
    };
    let syn = synthesize(&section2_source(8), &cfg).unwrap();
    let owned = bind_random_inputs(&syn, 7);
    let inputs = owned
        .iter()
        .map(|(id, t)| (*id, t))
        .collect::<HashMap<_, _>>();
    let funcs = bind_functions(&syn, 7);
    let sharded = |threads| {
        syn.execute_distributed_opts(&inputs, &funcs, &ExecOptions::with_threads(threads))
            .unwrap()
            .outputs
    };
    let serial = sharded(1);
    let (two, slots) = traced_slots(|| sharded(2));
    assert_eq!(slots, 1, "the sharded walk took {slots} slots for a chain");
    assert_eq!(two, serial, "the sharded walk changed bits at 2 threads");
}
