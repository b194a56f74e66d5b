//! The conformance invariant catalog: every generated program is pushed
//! through each pipeline/executor configuration and cross-checked against
//! an independent reference oracle and against the analytic cost models.
//!
//! Invariants checked per program (selectable via [`CheckSet`]):
//!
//! * **roundtrip** — `compile(unparse(p))` reproduces the statements and
//!   declarations structurally;
//! * **exec** — treeexec (GETT, serial and each thread count bitwise
//!   identical), the scalar interpreter over the fused loop program, the
//!   fused-slice executor, and every supported SIMD kernel variant all
//!   agree with a direct per-term einsum oracle to ≤ `tol` relative error;
//! * **cost** — the traced interpreter FLOP counter equals
//!   `Σ OpTree::total_ops` over the term plans, and the fused executor's
//!   measured peak intermediate live-set equals the memmin DP prediction;
//! * **dist** — on each configured processor grid, distributed execution
//!   agrees with the oracle and its measured redistribution/reduction
//!   traffic equals the closed-form `move_cost`/`reduce_cost` predictions.

use std::collections::HashMap;
use std::sync::Mutex;

use tce_core::{synthesize_program, ExecOptions, SynthesisConfig, SynthesisError};
use tce_ir::rng::{split_seed, Rng};
use tce_ir::{Factor, Program, TensorId};
use tce_tensor::{kernels, EinsumSpec, IntegralFn, Tensor};

/// Which invariant families to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckSet {
    /// Executor-vs-executor differential checks.
    pub exec: bool,
    /// Model conformance (FLOPs, peak live-set).
    pub cost: bool,
    /// Distributed execution + communication-volume conformance.
    pub dist: bool,
    /// Unparse→parse structural round trip.
    pub roundtrip: bool,
}

impl CheckSet {
    /// Everything on.
    pub fn all() -> Self {
        Self {
            exec: true,
            cost: true,
            dist: true,
            roundtrip: true,
        }
    }

    /// Nothing on (combine with the parser below).
    pub fn none() -> Self {
        Self {
            exec: false,
            cost: false,
            dist: false,
            roundtrip: false,
        }
    }

    /// Parse a `--check` argument: `all` or a comma-separated subset of
    /// `exec,cost,dist,roundtrip`.
    pub fn parse(text: &str) -> Result<Self, String> {
        if text == "all" {
            return Ok(Self::all());
        }
        let mut set = Self::none();
        for part in text.split(',').filter(|s| !s.is_empty()) {
            match part {
                "exec" => set.exec = true,
                "cost" => set.cost = true,
                "dist" => set.dist = true,
                "roundtrip" => set.roundtrip = true,
                other => return Err(format!("unknown check `{other}`")),
            }
        }
        if set == Self::none() {
            return Err("empty check set".into());
        }
        Ok(set)
    }
}

/// Harness-level fault injection, used to prove the harness catches and
/// shrinks real executor bugs without corrupting production kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Bias the GETT tree executor's result whenever the program contains
    /// a term with ≥ 2 factors — a stand-in for a contraction-kernel bug
    /// that only fires on real (non-copy) contractions.
    TreeExecBias,
}

/// Full check configuration.
#[derive(Debug, Clone)]
pub struct CheckConfig {
    /// Invariant families to run.
    pub set: CheckSet,
    /// Processor grids for the `dist` family.
    pub grids: Vec<Vec<usize>>,
    /// Thread counts for the bitwise-determinism sweep (first entry is the
    /// baseline; 1 is always implied).
    pub threads: Vec<usize>,
    /// Relative tolerance for executor-vs-oracle comparisons.
    pub tol: f64,
    /// Seed for input data and integral functions.
    pub data_seed: u64,
    /// Probability an external input is zero-structured (general
    /// numerics: exact zeros and cancellation).
    pub zero_prob: f64,
    /// Fraction of entries zeroed in a zero-structured input.
    pub zero_fraction: f64,
    /// Optional injected fault (tests only).
    pub fault: Option<Fault>,
}

impl Default for CheckConfig {
    fn default() -> Self {
        Self {
            set: CheckSet::all(),
            grids: vec![vec![1, 1], vec![2, 2]],
            threads: vec![2],
            tol: 1e-10,
            data_seed: 0xDA7A,
            zero_prob: 0.4,
            zero_fraction: 0.6,
            fault: None,
        }
    }
}

/// Which invariant family a failure belongs to.  The shrinker treats two
/// failures as "the same bug" when their kinds match.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckKind {
    /// `Program::validate` or a synthesis stage rejected the program.
    Pipeline,
    /// Unparse→parse round trip diverged.
    Roundtrip,
    /// An executor disagreed with the oracle (or thread counts changed
    /// bits).
    ExecDiff,
    /// A traced measurement diverged from its analytic model.
    CostModel,
    /// Distributed execution diverged (values or communication volume).
    DistComm,
    /// A non-finite value appeared.
    NonFinite,
    /// A pipeline stage or executor panicked.
    Panic,
}

impl std::fmt::Display for CheckKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            CheckKind::Pipeline => "pipeline",
            CheckKind::Roundtrip => "roundtrip",
            CheckKind::ExecDiff => "exec-diff",
            CheckKind::CostModel => "cost-model",
            CheckKind::DistComm => "dist-comm",
            CheckKind::NonFinite => "non-finite",
            CheckKind::Panic => "panic",
        };
        f.write_str(s)
    }
}

/// A failed invariant.
#[derive(Debug, Clone)]
pub struct Failure {
    /// Invariant family.
    pub kind: CheckKind,
    /// Human-readable description of the divergence.
    pub detail: String,
}

impl Failure {
    fn new(kind: CheckKind, detail: impl Into<String>) -> Self {
        Self {
            kind,
            detail: detail.into(),
        }
    }
}

/// What a passing case exercised (aggregated per campaign).
#[derive(Debug, Clone, Copy, Default)]
pub struct CaseStats {
    /// Executor runs compared against the oracle.
    pub executor_runs: usize,
    /// SIMD kernel variants exercised beyond the baseline.
    pub kernel_variants: usize,
    /// Grids the dist family covered.
    pub grids: usize,
    /// Cost-model equalities asserted.
    pub model_checks: usize,
}

impl CaseStats {
    /// Elementwise accumulate.
    pub fn add(&mut self, o: &CaseStats) {
        self.executor_runs += o.executor_runs;
        self.kernel_variants += o.kernel_variants;
        self.grids += o.grids;
        self.model_checks += o.model_checks;
    }
}

/// Kernel-variant override and the trace buffer are process-global; every
/// section that touches them serializes here (the test harness runs cases
/// on several threads).
static GLOBAL_STATE_LOCK: Mutex<()> = Mutex::new(());

/// Serializes swaps of the process-wide panic hook (separate from
/// [`GLOBAL_STATE_LOCK`], which [`check_program`] takes internally).
static HOOK_LOCK: Mutex<()> = Mutex::new(());

/// [`check_program`] with panics converted into [`CheckKind::Panic`]
/// failures, so a crashing stage is reported, shrunk, and turned into a
/// repro file like any other divergence instead of killing the campaign.
/// The default panic hook is muted for the duration (the shrinker would
/// otherwise spam one backtrace per candidate).
pub fn check_program_caught(program: &Program, ck: &CheckConfig) -> Result<CaseStats, Failure> {
    let _hook_guard = HOOK_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let result =
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| check_program(program, ck)));
    std::panic::set_hook(prev);
    match result {
        Ok(r) => r,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("opaque panic payload");
            Err(Failure::new(CheckKind::Panic, format!("panicked: {msg}")))
        }
    }
}

/// Relative closeness at the oracle's scale (mirrors the differential test
/// suites): `|got − expect| ≤ tol · max(1, max|expect|)`.
fn rel_close(got: &Tensor, expect: &Tensor, tol: f64) -> bool {
    if got.shape() != expect.shape() {
        return false;
    }
    let scale = expect.data().iter().fold(1.0f64, |m, &v| m.max(v.abs()));
    got.max_abs_diff(expect) <= tol * scale
}

/// External inputs: every tensor read before it is assigned, bound to
/// deterministic (optionally zero-structured) data.
fn make_inputs(program: &Program, ck: &CheckConfig) -> HashMap<TensorId, Tensor> {
    let mut rng = Rng::new(split_seed(ck.data_seed));
    let mut assigned: Vec<TensorId> = Vec::new();
    let mut inputs: HashMap<TensorId, Tensor> = HashMap::new();
    for stmt in &program.stmts {
        for term in &stmt.terms {
            for factor in &term.factors {
                if let Factor::Tensor(r) = factor {
                    if assigned.contains(&r.tensor) || inputs.contains_key(&r.tensor) {
                        continue;
                    }
                    let decl = program.tensors.get(r.tensor);
                    let shape: Vec<usize> = decl
                        .dims
                        .iter()
                        .map(|&d| program.space.range_extent(d))
                        .collect();
                    let mut t =
                        Tensor::random(&shape, split_seed(ck.data_seed ^ (r.tensor.0 as u64 + 1)));
                    if rng.bool_with(ck.zero_prob) {
                        for v in t.data_mut() {
                            if rng.bool_with(ck.zero_fraction) {
                                *v = 0.0;
                            }
                        }
                    }
                    inputs.insert(r.tensor, t);
                }
            }
        }
        assigned.push(stmt.lhs.tensor);
    }
    inputs
}

/// One integral function per name used, seeded from the name.
fn make_funcs(program: &Program, ck: &CheckConfig) -> HashMap<String, IntegralFn> {
    let mut funcs = HashMap::new();
    for stmt in &program.stmts {
        for term in &stmt.terms {
            for factor in &term.factors {
                if let Factor::Func(f) = factor {
                    let seed = f
                        .name
                        .bytes()
                        .fold(ck.data_seed, |h, b| split_seed(h ^ b as u64));
                    funcs
                        .entry(f.name.clone())
                        .or_insert_with(|| IntegralFn::new(f.cost_per_eval, seed));
                }
            }
        }
    }
    funcs
}

/// The independent oracle: direct per-term einsum over the statement
/// sequence, mirroring the executors' dataflow conventions (computed
/// values shadow external bindings; `+=` starts from the previously
/// *computed* value or zeros, never from an external binding).
fn reference_outputs(
    program: &Program,
    inputs: &HashMap<TensorId, Tensor>,
    funcs: &HashMap<String, IntegralFn>,
) -> Result<HashMap<TensorId, Tensor>, Failure> {
    let space = &program.space;
    let mut computed: HashMap<TensorId, Tensor> = HashMap::new();
    for stmt in &program.stmts {
        let shape: Vec<usize> = stmt.lhs.indices.iter().map(|&v| space.extent(v)).collect();
        let mut acc = if stmt.accumulate {
            computed
                .get(&stmt.lhs.tensor)
                .cloned()
                .unwrap_or_else(|| Tensor::zeros(&shape))
        } else {
            Tensor::zeros(&shape)
        };
        let lhs_set = stmt.lhs.index_set();
        for term in &stmt.terms {
            // Materialize operand values (computed shadows external).
            let mut operands: Vec<Tensor> = Vec::with_capacity(term.factors.len());
            for factor in &term.factors {
                match factor {
                    Factor::Tensor(r) => {
                        let t = computed
                            .get(&r.tensor)
                            .or_else(|| inputs.get(&r.tensor))
                            .ok_or_else(|| {
                                Failure::new(CheckKind::Pipeline, "unbound tensor in oracle")
                            })?;
                        operands.push(t.clone());
                    }
                    Factor::Func(f) => {
                        let int = &funcs[&f.name];
                        let fshape: Vec<usize> =
                            f.indices.iter().map(|&v| space.extent(v)).collect();
                        operands.push(Tensor::from_fn(&fshape, |idx| int.eval(idx)));
                    }
                }
            }
            let spec = EinsumSpec::new(
                stmt.lhs.indices.clone(),
                term.factors.iter().map(|f| f.indices().to_vec()).collect(),
                term.index_set().minus(lhs_set),
            )
            .map_err(|e| Failure::new(CheckKind::Pipeline, format!("oracle spec: {e}")))?;
            let refs: Vec<&Tensor> = operands.iter().collect();
            let value = spec.eval(space, &refs);
            acc.axpy(term.coeff, &value);
        }
        if !acc.data().iter().all(|v| v.is_finite()) {
            return Err(Failure::new(
                CheckKind::NonFinite,
                format!(
                    "oracle produced a non-finite value in `{}`",
                    program.tensors.get(stmt.lhs.tensor).name
                ),
            ));
        }
        computed.insert(stmt.lhs.tensor, acc);
    }
    Ok(computed)
}

/// Compare every assigned tensor against the oracle.
fn compare_outputs(
    program: &Program,
    got: &HashMap<TensorId, Tensor>,
    expect: &HashMap<TensorId, Tensor>,
    tol: f64,
    kind: CheckKind,
    label: &str,
) -> Result<(), Failure> {
    for (id, want) in expect {
        let name = &program.tensors.get(*id).name;
        let have = got
            .get(id)
            .ok_or_else(|| Failure::new(kind, format!("{label}: output `{name}` missing")))?;
        if !have.data().iter().all(|v| v.is_finite()) {
            return Err(Failure::new(
                CheckKind::NonFinite,
                format!("{label}: non-finite value in `{name}`"),
            ));
        }
        if !rel_close(have, want, tol) {
            return Err(Failure::new(
                kind,
                format!(
                    "{label}: `{name}` diverges from oracle by {:e} (tol {tol:e})",
                    have.max_abs_diff(want)
                ),
            ));
        }
    }
    Ok(())
}

/// Apply the injected fault to a tree-executor result set.
fn apply_fault(program: &Program, ck: &CheckConfig, outputs: &mut HashMap<TensorId, Tensor>) {
    if ck.fault != Some(Fault::TreeExecBias) {
        return;
    }
    let has_contraction = program
        .stmts
        .iter()
        .any(|s| s.terms.iter().any(|t| t.factors.len() >= 2));
    if !has_contraction {
        return;
    }
    for t in outputs.values_mut() {
        if let Some(first) = t.data_mut().first_mut() {
            *first += 1e-3;
        }
    }
}

/// Restores the kernel override on drop (also on panic).
struct KernelOverrideGuard;

impl Drop for KernelOverrideGuard {
    fn drop(&mut self) {
        let _ = kernels::set_override(None);
    }
}

/// Run every configured invariant on `program`.  Returns coverage stats on
/// success, or the first [`Failure`] encountered.
pub fn check_program(program: &Program, ck: &CheckConfig) -> Result<CaseStats, Failure> {
    let mut stats = CaseStats::default();
    program
        .validate()
        .map_err(|e| Failure::new(CheckKind::Pipeline, format!("validate: {e}")))?;

    if ck.set.roundtrip {
        check_roundtrip(program)?;
        stats.model_checks += 1;
    }

    let syn = synthesize_program(program.clone(), &SynthesisConfig::default()).map_err(
        |e: SynthesisError| Failure::new(CheckKind::Pipeline, format!("synthesis: {e}")),
    )?;

    let inputs = make_inputs(program, ck);
    let funcs = make_funcs(program, ck);
    let input_refs: HashMap<TensorId, &Tensor> = inputs.iter().map(|(id, t)| (*id, t)).collect();
    let expect = reference_outputs(program, &inputs, &funcs)?;

    if ck.set.exec {
        // GETT tree executor, serial baseline.
        let mut base = syn
            .execute_opts(&input_refs, &funcs, &ExecOptions::serial())
            .map_err(|e| Failure::new(CheckKind::ExecDiff, format!("treeexec: {e}")))?;
        apply_fault(program, ck, &mut base);
        compare_outputs(
            program,
            &base,
            &expect,
            ck.tol,
            CheckKind::ExecDiff,
            "treeexec",
        )?;
        stats.executor_runs += 1;

        // Thread counts must not change bits.
        for &t in &ck.threads {
            let mut got = syn
                .execute_opts(&input_refs, &funcs, &ExecOptions::with_threads(t))
                .map_err(|e| Failure::new(CheckKind::ExecDiff, format!("treeexec({t}): {e}")))?;
            apply_fault(program, ck, &mut got);
            for (id, want) in &base {
                if got.get(id) != Some(want) {
                    return Err(Failure::new(
                        CheckKind::ExecDiff,
                        format!(
                            "treeexec with {t} threads changed bits in `{}`",
                            program.tensors.get(*id).name
                        ),
                    ));
                }
            }
            stats.executor_runs += 1;
        }

        // Scalar interpreter over the fused loop programs.
        let interp = syn
            .execute_interpreted(&input_refs, &funcs)
            .map_err(|e| Failure::new(CheckKind::ExecDiff, format!("interp: {e}")))?;
        compare_outputs(
            program,
            &interp,
            &expect,
            ck.tol,
            CheckKind::ExecDiff,
            "interp",
        )?;
        stats.executor_runs += 1;

        // Fused-slice executor.
        let fused = syn
            .execute_fused_opts(&input_refs, &funcs, &ExecOptions::serial())
            .map_err(|e| Failure::new(CheckKind::ExecDiff, format!("fusedexec: {e}")))?;
        compare_outputs(
            program,
            &fused.outputs,
            &expect,
            ck.tol,
            CheckKind::ExecDiff,
            "fusedexec",
        )?;
        stats.executor_runs += 1;
        if ck.set.cost && !fused.peak_matches_model() {
            return Err(Failure::new(
                CheckKind::CostModel,
                format!(
                    "fused peak live-set measured {} ≠ modeled {}",
                    fused.peak_live_elements, fused.modeled_elements
                ),
            ));
        }
        if ck.set.cost {
            stats.model_checks += 1;
        }

        // Every supported SIMD kernel variant (process-global override).
        {
            let _guard = GLOBAL_STATE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
            for v in kernels::supported_variants() {
                let _restore = KernelOverrideGuard;
                kernels::set_override(Some(v))
                    .map_err(|e| Failure::new(CheckKind::ExecDiff, format!("override: {e}")))?;
                let mut got = syn
                    .execute_opts(&input_refs, &funcs, &ExecOptions::serial())
                    .map_err(|e| {
                        Failure::new(CheckKind::ExecDiff, format!("treeexec[{v:?}]: {e}"))
                    })?;
                apply_fault(program, ck, &mut got);
                compare_outputs(
                    program,
                    &got,
                    &expect,
                    ck.tol,
                    CheckKind::ExecDiff,
                    &format!("treeexec[{v:?}]"),
                )?;
                stats.kernel_variants += 1;
            }
        }
    }

    if ck.set.cost {
        // Traced interpreter FLOPs == Σ tree_ops (the exact conformance
        // anchor: GETT pre-reduces exclusive summation indices, so its
        // own flop counter is a lower bound, but the interpreter executes
        // the emitted fused program verbatim).
        let _guard = GLOBAL_STATE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        tce_trace::reset();
        tce_trace::set_enabled(true);
        let run = syn.execute_interpreted(&input_refs, &funcs);
        tce_trace::set_enabled(false);
        let trace = tce_trace::take();
        run.map_err(|e| Failure::new(CheckKind::ExecDiff, format!("interp: {e}")))?;
        let measured = trace.counter_total("exec.interp.flops") as u128;
        let predicted: u128 = syn.plans.iter().map(|p| p.tree_ops).sum();
        if measured != predicted {
            return Err(Failure::new(
                CheckKind::CostModel,
                format!("interp flops measured {measured} ≠ Σ tree_ops {predicted}"),
            ));
        }
        stats.model_checks += 1;
    }

    if ck.set.dist {
        for grid in &ck.grids {
            let cfg = SynthesisConfig {
                machine: Some(tce_dist::Machine::new(tce_par::ProcessorGrid::new(
                    grid.clone(),
                ))),
                ..SynthesisConfig::default()
            };
            let dsyn = synthesize_program(program.clone(), &cfg).map_err(|e| {
                Failure::new(CheckKind::Pipeline, format!("dist synthesis {grid:?}: {e}"))
            })?;
            let summary = dsyn
                .execute_distributed_opts(&input_refs, &funcs, &ExecOptions::serial())
                .map_err(|e| {
                    Failure::new(CheckKind::DistComm, format!("dist exec {grid:?}: {e}"))
                })?;
            compare_outputs(
                program,
                &summary.outputs,
                &expect,
                ck.tol,
                CheckKind::DistComm,
                &format!("dist {grid:?}"),
            )?;
            if summary.moved_elements != summary.predicted_move_elements {
                return Err(Failure::new(
                    CheckKind::DistComm,
                    format!(
                        "grid {grid:?}: moved {} ≠ move_cost {}",
                        summary.moved_elements, summary.predicted_move_elements
                    ),
                ));
            }
            if summary.reduce_words != summary.predicted_reduce_words {
                return Err(Failure::new(
                    CheckKind::DistComm,
                    format!(
                        "grid {grid:?}: reduced {} ≠ reduce_cost {}",
                        summary.reduce_words, summary.predicted_reduce_words
                    ),
                ));
            }
            stats.grids += 1;
        }
    }

    Ok(stats)
}

/// `compile(unparse(p))` must reproduce statements and declarations.
fn check_roundtrip(program: &Program) -> Result<(), Failure> {
    let text = tce_lang::unparse(program);
    let back = tce_lang::compile(&text)
        .map_err(|e| Failure::new(CheckKind::Roundtrip, format!("re-parse failed: {e}")))?;
    if back.stmts != program.stmts {
        return Err(Failure::new(
            CheckKind::Roundtrip,
            "statements changed across unparse→parse",
        ));
    }
    if back.space.num_vars() != program.space.num_vars()
        || back.space.num_ranges() != program.space.num_ranges()
        || back.tensors.len() != program.tensors.len()
    {
        return Err(Failure::new(
            CheckKind::Roundtrip,
            "declarations changed across unparse→parse",
        ));
    }
    for (id, d1) in program.tensors.iter() {
        let d2 = back.tensors.get(id);
        if d1.name != d2.name || d1.dims != d2.dims {
            return Err(Failure::new(
                CheckKind::Roundtrip,
                format!("tensor `{}` changed across unparse→parse", d1.name),
            ));
        }
    }
    Ok(())
}
