//! The synthesis pipeline (paper §4, Fig. 5).
//!
//! Wires the stages together exactly as the paper's block diagram:
//!
//! ```text
//! high-level language → algebraic transformations (operation minimization)
//!   → memory minimization (loop fusion)
//!   → space-time trade-off (redundant loops + tiling)   [if over limit]
//!   → data locality optimization (blocking + tile search)
//!   → data distribution & partitioning                  [if a grid given]
//!   → loop program (+ interpreter execution / verification)
//! ```
//!
//! The feedback edge of Fig. 5 (space-time failing back to memory
//! minimization) is realized by the pareto frontier: the space-time DP
//! explores every fusion alternative jointly with recomputation, so
//! "seeking a different solution" is a frontier lookup rather than an
//! iterative loop.

use std::collections::HashMap;
use std::sync::OnceLock;
use tce_calib::CostRates;
use tce_dist::{optimize_distribution, DistPlan, Machine};
use tce_exec::{ExecError, ExecOptions};
use tce_fusion::{fused_program, memmin_dp, MemMinResult};
use tce_ir::{Assignment, CostPoly, IndexSpace, OpTree, Product, Program, TensorId};
use tce_lang::LangError;
use tce_locality::{
    perfect_nests, search_nest_tiles, search_nest_tiles_hierarchy, MemoryHierarchy,
    TileSearchResult,
};
use tce_loops::{memory_report, op_counts, pretty, BuiltProgram};
use tce_opmin::{optimize_assignment, optimize_pareto, OpMinProblem};
use tce_spacetime::{spacetime_optimize, spacetime_optimize_rated, SpaceTimeConfig, TilingResult};
use tce_tensor::{IntegralFn, Tensor};

/// Pipeline configuration.
#[derive(Debug, Clone)]
pub struct SynthesisConfig {
    /// Memory limit for temporaries, in elements (the paper's disk
    /// capacity bound that triggers the space-time stage).
    pub memory_limit: u128,
    /// Cache size in elements for the locality stage (`None` disables
    /// blocking).
    pub cache_elements: Option<u128>,
    /// Memory hierarchy for reporting multi-level access costs.
    pub hierarchy: MemoryHierarchy,
    /// Target parallel machine (`None` = sequential).
    pub machine: Option<Machine>,
    /// Measured hardware cost rates from a calibration profile
    /// (`tce calibrate`).  `None` keeps every stage on the paper's
    /// abstract unit costs — plan choices and outputs are then
    /// bit-identical to the uncalibrated pipeline.  `Some(rates)`
    /// switches the space-time frontier selection, the locality tile
    /// search, and (for a machine left at the default word cost) the
    /// distribution DP onto time-based costs.
    pub calibration: Option<CostRates>,
}

impl Default for SynthesisConfig {
    fn default() -> Self {
        Self {
            memory_limit: u128::MAX,
            cache_elements: None,
            hierarchy: MemoryHierarchy::cache_and_disk(64 * 1024, 1 << 30),
            machine: None,
            calibration: None,
        }
    }
}

/// The multi-level [`MemoryHierarchy`] a calibration profile induces:
/// level capacities from the measured cache geometry, per-element miss
/// costs in nanoseconds from the measured per-level bandwidth.  The
/// locality stage searches tiles against this hierarchy when calibrated.
pub fn hierarchy_from_rates(rates: &CostRates) -> MemoryHierarchy {
    MemoryHierarchy {
        levels: rates
            .levels
            .iter()
            .map(|l| tce_locality::MemoryLevel {
                name: l.name.clone(),
                capacity_elements: l.capacity_elements,
                miss_cost: l.ns_per_element,
            })
            .collect(),
    }
}

/// The synthesized plan for one product term of one statement.
#[derive(Debug, Clone)]
pub struct TermPlan {
    /// Which statement (source order).
    pub stmt_index: usize,
    /// Which term within the statement.
    pub term_index: usize,
    /// Term coefficient.
    pub coeff: f64,
    /// Operation count of the direct (unoptimized) translation.
    pub direct_ops: u128,
    /// The chosen contraction tree.
    pub tree: OpTree,
    /// Position of the chosen tree on the (ops, intermediate-size) pareto
    /// frontier: 0 = operation-minimal; larger = the Fig. 5 feedback loop
    /// fell back to a costlier association with smaller intermediates to
    /// satisfy the memory limit.
    pub tree_rank: usize,
    /// Operation count of the tree (leaf + contraction flops).
    pub tree_ops: u128,
    /// Symbolic operation count.
    pub tree_ops_poly: CostPoly,
    /// Memory-minimization outcome (pure fusion).
    pub memmin: MemMinResult,
    /// Space-time outcome, engaged when fusion alone exceeds the limit.
    pub spacetime: Option<(SpaceTimeConfig, TilingResult)>,
    /// The executable fused loop program (memory-minimal fusion).
    pub built: BuiltProgram,
    /// Locality stage outcome per perfect nest of the fused program.
    pub locality: Vec<TileSearchResult>,
    /// Distribution plan (when a machine was configured).
    pub distribution: Option<DistPlan>,
}

/// Result of synthesizing a whole program.
#[derive(Debug, Clone)]
pub struct Synthesis {
    /// The validated input program.
    pub program: Program,
    /// One plan per (statement, term).
    pub plans: Vec<TermPlan>,
    /// Common-subexpression statistics per multi-term statement.
    pub cse: Vec<CseSummary>,
    /// The target machine the distribution stage planned for (`None` =
    /// sequential synthesis; [`Synthesis::execute_distributed_opts`]
    /// requires it).
    pub machine: Option<Machine>,
}

/// How [`Synthesis::run_statements`] executes one term: given the plan and
/// the statement's bound inputs, return the term's value (output dims in
/// canonical ascending-id order) and whatever the executor measured.
type TermExecutor<'a, R> =
    dyn Fn(&TermPlan, &HashMap<TensorId, &Tensor>) -> Result<(Tensor, R), ExecError> + Sync + 'a;

/// Aggregate communication/computation accounting from a distributed
/// execution of a whole statement sequence (summed over every term's
/// [`tce_dist::ShardExecReport`]).
#[derive(Debug, Clone)]
pub struct DistExecSummary {
    /// Value of every assigned tensor (same as [`Synthesis::execute`]).
    pub outputs: HashMap<TensorId, Tensor>,
    /// Elements that changed rank during redistribution.
    pub moved_elements: u128,
    /// Closed-form `move_cost` prediction summed over the same plans.
    pub predicted_move_elements: u128,
    /// Reduction-tree traffic measured round by round.
    pub reduce_words: u128,
    /// Closed-form `reduce_cost` prediction summed over the same plans.
    pub predicted_reduce_words: u128,
    /// Redistribution events that actually changed layout.
    pub redistributions: u64,
    /// Per-rank multiply-add flops, summed over all terms.
    pub per_rank_flops: Vec<u128>,
}

impl DistExecSummary {
    /// The busiest rank's flop count (computational makespan).
    pub fn max_rank_flops(&self) -> u128 {
        self.per_rank_flops.iter().copied().max().unwrap_or(0)
    }
}

/// Per-term peak-live-set accounting from a fused execution.
#[derive(Debug, Clone)]
pub struct FusedTermReport {
    /// Statement index (source order).
    pub stmt_index: usize,
    /// Term index within the statement.
    pub term_index: usize,
    /// Measured peak intermediate storage, in elements.
    pub peak_live_elements: u128,
    /// The selected plan's predicted element count for this term (memmin,
    /// or the untiled space-time configuration when that stage engaged).
    pub modeled_elements: u128,
}

/// Result of executing a whole statement sequence through the fused-slice
/// executor ([`tce_exec::execute_tree_fused`]): outputs plus the
/// measured-vs-modeled peak intermediate storage — the §5 discipline of
/// checking the memory model against reality.
#[derive(Debug, Clone)]
pub struct FusedExecSummary {
    /// Value of every assigned tensor (same as [`Synthesis::execute`]).
    pub outputs: HashMap<TensorId, Tensor>,
    /// Largest measured peak intermediate live-set over all terms (terms
    /// run one at a time, freeing their temporaries in between, so the
    /// whole-run peak is the per-term maximum).
    pub peak_live_elements: u128,
    /// The selected plans' prediction for the same maximum.
    pub modeled_elements: u128,
    /// Sliced GETT contraction calls issued.
    pub sliced_contractions: u64,
    /// Integral-function element evaluations.
    pub func_evals: u64,
    /// Per-term measured/modeled accounting.
    pub per_term: Vec<FusedTermReport>,
}

impl FusedExecSummary {
    /// True when every term's measured peak equals its plan's model.
    pub fn peak_matches_model(&self) -> bool {
        self.per_term
            .iter()
            .all(|t| t.peak_live_elements == t.modeled_elements)
    }
}

/// Sharing statistics for one statement's terms (the distributivity-aware
/// part of the paper's Algebraic Transformations module: identical
/// intermediates across terms are evaluated once).
#[derive(Debug, Clone)]
pub struct CseSummary {
    /// Statement index.
    pub stmt_index: usize,
    /// Flops when terms are evaluated independently.
    pub ops_independent: u128,
    /// Flops when common subexpressions are shared.
    pub ops_with_cse: u128,
    /// Distinct intermediates after sharing.
    pub unique_intermediates: usize,
    /// Intermediates before sharing.
    pub total_intermediates: usize,
}

impl Synthesis {
    /// Execute the whole statement sequence: each statement's terms run
    /// through the array-at-a-time tree executor, are scaled by their
    /// coefficients and summed; `=` overwrites the target tensor, `+=`
    /// accumulates onto the value an earlier statement computed for it
    /// (zeros if none did — never an external binding).  Earlier results
    /// feed later statements — the paper's "sequence of tensor contraction
    /// expressions".  Returns the value of every assigned tensor.
    ///
    /// # Errors
    /// [`ExecError`] if an external input binding is missing or mis-shaped.
    pub fn execute(
        &self,
        external_inputs: &HashMap<TensorId, &Tensor>,
        funcs: &HashMap<String, IntegralFn>,
    ) -> Result<HashMap<TensorId, Tensor>, ExecError> {
        self.execute_opts(external_inputs, funcs, &ExecOptions::default())
    }

    /// [`execute`](Self::execute) with explicit [`ExecOptions`]: the thread
    /// count is forwarded to every term's contraction kernels, and the
    /// schedule picks how many task-graph slots statements and tree nodes
    /// run on.  Results are bitwise identical for every choice.
    ///
    /// # Errors
    /// [`ExecError`] if an external input binding is missing or mis-shaped.
    pub fn execute_opts(
        &self,
        external_inputs: &HashMap<TensorId, &Tensor>,
        funcs: &HashMap<String, IntegralFn>,
        opts: &ExecOptions,
    ) -> Result<HashMap<TensorId, Tensor>, ExecError> {
        let space = &self.program.space;
        let (outputs, _) =
            self.run_statements(external_inputs, opts.slots(), &|plan, inputs| {
                Ok((plan.execute_opts(space, inputs, funcs, opts)?, ()))
            })?;
        Ok(outputs)
    }

    /// Execute the statement sequence through the **scalar interpreter**:
    /// every term runs its emitted fused loop program
    /// ([`TermPlan::execute_interpreted`]) — the instrumented verification
    /// path (exact op counts), statement semantics as in
    /// [`execute`](Self::execute).
    ///
    /// # Errors
    /// [`ExecError`] if an external input binding is missing or mis-shaped.
    pub fn execute_interpreted(
        &self,
        external_inputs: &HashMap<TensorId, &Tensor>,
        funcs: &HashMap<String, IntegralFn>,
    ) -> Result<HashMap<TensorId, Tensor>, ExecError> {
        let space = &self.program.space;
        let (outputs, _) = self.run_statements(external_inputs, 1, &|plan, inputs| {
            Ok((plan.execute_interpreted(space, inputs, funcs)?, ()))
        })?;
        Ok(outputs)
    }

    /// The one statement driver behind every `execute_*` entry point: one
    /// task per statement on [`tce_par::TaskGraph`], dependencies following
    /// the RAW dataflow (each statement depends on the last prior writer
    /// of every tensor it reads, including its own target under `+=`), on
    /// at most `slots` scheduler slots — as many as the statements' flops
    /// can fill ([`tce_par::TaskGraph::useful_slots`]).  One slot is source
    /// order; more let independent statements contract concurrently, never
    /// holding more statement results live at once than source order
    /// would.
    ///
    /// Per statement: bind inputs (computed values shadow external
    /// bindings), run every term through `term` — which returns the term's
    /// value with its output dims in canonical (ascending-id) order, plus
    /// whatever the executor measured — permute to the declared LHS order
    /// and `axpy` into the accumulator.  Returns the assigned tensors and
    /// the per-term measurements in (statement, term) order.
    ///
    /// Bitwise identical for every slot count: each statement's value is a
    /// function of its dataflow predecessors only.  Failures surface as
    /// the lowest-index failing statement's error — the one source order
    /// stops at.
    fn run_statements<R: Send + Sync>(
        &self,
        external_inputs: &HashMap<TensorId, &Tensor>,
        slots: usize,
        term: &TermExecutor<'_, R>,
    ) -> Result<(HashMap<TensorId, Tensor>, Vec<R>), ExecError> {
        let _span = tce_trace::span("stage.exec");
        let space = &self.program.space;
        let stmts = &self.program.stmts;

        // RAW dataflow: per statement, the (tensor, writer statement) pairs
        // it reads computed values through.
        let mut last_writer: HashMap<TensorId, usize> = HashMap::new();
        let mut sources: Vec<Vec<(TensorId, usize)>> = Vec::with_capacity(stmts.len());
        let mut graph = tce_par::TaskGraph::new();
        for (si, stmt) in stmts.iter().enumerate() {
            let mut reads: Vec<TensorId> = Vec::new();
            if stmt.accumulate {
                reads.push(stmt.lhs.tensor);
            }
            let mut flops = 0u128;
            for plan in self.plans.iter().filter(|p| p.stmt_index == si) {
                flops = flops.saturating_add(plan.tree_ops);
                for node in &plan.tree.nodes {
                    if let tce_ir::OpKind::Leaf(tce_ir::Leaf::Input { tensor, .. }) = &node.kind {
                        if !reads.contains(tensor) {
                            reads.push(*tensor);
                        }
                    }
                }
            }
            let source: Vec<(TensorId, usize)> = reads
                .into_iter()
                .filter_map(|r| last_writer.get(&r).map(|&w| (r, w)))
                .collect();
            let mut deps: Vec<usize> = source.iter().map(|&(_, w)| w).collect();
            deps.sort_unstable();
            deps.dedup();
            graph.add_task(
                &deps,
                space.iteration_points(stmt.lhs.index_set()).max(1) as u64,
                flops,
            );
            sources.push(source);
            last_writer.insert(stmt.lhs.tensor, si);
        }

        // One write-once cell per statement: its RAW edges order the write
        // before every read, and nothing writes a cell twice.
        type Outcome<R> = Result<(Tensor, Vec<R>), ExecError>;
        let cells: Vec<OnceLock<Outcome<R>>> = stmts.iter().map(|_| OnceLock::new()).collect();
        let slots = graph.useful_slots(slots);
        graph.run(slots, Some(graph.sequential_peak()), &|si| {
            let stmt = &stmts[si];
            let mut computed: Vec<(TensorId, &Tensor)> = Vec::with_capacity(sources[si].len());
            for &(tensor, w) in &sources[si] {
                match cells[w].get() {
                    Some(Ok((value, _))) => computed.push((tensor, value)),
                    // The writer failed (or was itself skipped); its error
                    // is surfaced after the run.
                    _ => return,
                }
            }
            let mut inputs: HashMap<TensorId, &Tensor> = external_inputs.clone();
            inputs.extend(computed.iter().copied());
            // `+=` starts from the last *computed* value of its target —
            // never from an external binding of the same tensor.
            let prior = computed
                .iter()
                .find(|(tensor, _)| stmt.accumulate && *tensor == stmt.lhs.tensor);
            let mut acc = match prior {
                Some((_, value)) => (*value).clone(),
                None => {
                    let shape: Vec<usize> =
                        stmt.lhs.indices.iter().map(|&v| space.extent(v)).collect();
                    Tensor::zeros(&shape)
                }
            };
            let outcome = (|| {
                let mut measured = Vec::new();
                for plan in self.plans.iter().filter(|p| p.stmt_index == si) {
                    let (value, r) = term(plan, &inputs)?;
                    // The plan's output dims are the LHS indices in
                    // canonical order; permute to the declared order.
                    acc.axpy(plan.coeff, &value.permute(&lhs_perm(stmt)));
                    measured.push(r);
                }
                Ok((acc, measured))
            })();
            let _ = cells[si].set(outcome);
        });

        let mut outputs = HashMap::new();
        let mut measured = Vec::new();
        for (stmt, cell) in stmts.iter().zip(cells) {
            // An unset cell sits behind an earlier failure, returned first.
            if let Some(outcome) = cell.into_inner() {
                let (value, r) = outcome?;
                outputs.insert(stmt.lhs.tensor, value);
                measured.extend(r);
            }
        }
        Ok((outputs, measured))
    }

    /// Execute the statement sequence through the **fused-slice
    /// executor**: every term realizes the configuration synthesis
    /// selected for it — its memory-minimization
    /// [`tce_fusion::FusionConfig`], or its space-time
    /// fusion/recomputation configuration when a memory limit engaged that
    /// stage — by allocating each fused intermediate at its reduced shape
    /// and streaming sliced GETT contractions through it.  Returns the
    /// outputs plus measured-vs-modeled peak-live-set accounting;
    /// [`FusedExecSummary::peak_matches_model`] asserts the selected plan's
    /// element count is met exactly.
    ///
    /// # Errors
    /// [`ExecError`] if a binding is missing/mis-shaped or a term's fusion
    /// configuration is rejected.
    pub fn execute_fused_opts(
        &self,
        external_inputs: &HashMap<TensorId, &Tensor>,
        funcs: &HashMap<String, IntegralFn>,
        opts: &ExecOptions,
    ) -> Result<FusedExecSummary, ExecError> {
        let space = &self.program.space;
        // Statements run in source order (one slot): terms free their
        // temporaries in between, so the whole-run peak is the per-term
        // maximum the summary reports.
        let (outputs, reports) = self.run_statements(external_inputs, 1, &|plan, inputs| {
            let mut report = match &plan.spacetime {
                Some((st_cfg, _)) => {
                    let (chain_labels, array_config) = st_cfg
                        .lowering_configs(&plan.tree)
                        .map_err(|overlap| ExecError::InvalidProgram {
                            reason: overlap.describe(space),
                        })?;
                    tce_exec::execute_tree_fused_with_labels(
                        &plan.tree,
                        space,
                        &chain_labels,
                        &array_config,
                        inputs,
                        funcs,
                        opts,
                    )?
                }
                None => tce_exec::execute_tree_fused(
                    &plan.tree,
                    space,
                    &plan.memmin.config,
                    inputs,
                    funcs,
                    opts,
                )?,
            };
            let value = std::mem::replace(&mut report.result, Tensor::zeros(&[]));
            Ok((value, (plan.stmt_index, plan.term_index, report)))
        })?;
        let mut summary = FusedExecSummary {
            outputs,
            peak_live_elements: 0,
            modeled_elements: 0,
            sliced_contractions: 0,
            func_evals: 0,
            per_term: Vec::new(),
        };
        for (stmt_index, term_index, report) in reports {
            summary.peak_live_elements = summary.peak_live_elements.max(report.peak_live_elements);
            summary.modeled_elements = summary.modeled_elements.max(report.modeled_elements);
            summary.sliced_contractions += report.sliced_contractions;
            summary.func_evals += report.func_evals;
            summary.per_term.push(FusedTermReport {
                stmt_index,
                term_index,
                peak_live_elements: report.peak_live_elements,
                modeled_elements: report.modeled_elements,
            });
        }
        Ok(summary)
    }

    /// Execute the statement sequence on the **sharded distributed
    /// machine**: every term that carries a [`DistPlan`] runs through
    /// `tce_exec::execute_tree_distributed` (per-rank shard buffers,
    /// block-transfer redistribution, tree reduction); terms without a
    /// plan fall back to the GETT tree path.  Returns the outputs plus
    /// aggregate measured-vs-modeled communication accounting.
    ///
    /// # Errors
    /// [`ExecError`] if an external input binding is missing or mis-shaped,
    /// or if the synthesis was not configured with a machine.
    pub fn execute_distributed_opts(
        &self,
        external_inputs: &HashMap<TensorId, &Tensor>,
        funcs: &HashMap<String, IntegralFn>,
        opts: &ExecOptions,
    ) -> Result<DistExecSummary, ExecError> {
        let machine = self
            .machine
            .as_ref()
            .ok_or_else(|| ExecError::InvalidProgram {
                reason: "distributed execution requires a machine-configured synthesis".into(),
            })?;
        let space = &self.program.space;
        // Statements run in source order (one slot): the sharded machine is
        // one set of ranks, every term occupies all of it.
        let (outputs, reports) = self.run_statements(external_inputs, 1, &|plan, inputs| {
            Ok(match &plan.distribution {
                Some(dist) => {
                    let mut report = tce_exec::execute_tree_distributed(
                        &plan.tree, space, dist, machine, inputs, funcs, opts,
                    )?;
                    let value = std::mem::replace(&mut report.result, Tensor::zeros(&[]));
                    (value, Some(report))
                }
                None => (plan.execute_opts(space, inputs, funcs, opts)?, None),
            })
        })?;
        let mut summary = DistExecSummary {
            outputs,
            moved_elements: 0,
            predicted_move_elements: 0,
            reduce_words: 0,
            predicted_reduce_words: 0,
            redistributions: 0,
            per_rank_flops: vec![0; machine.grid.num_processors()],
        };
        for report in reports.into_iter().flatten() {
            summary.moved_elements += report.moved_elements;
            summary.predicted_move_elements += report.predicted_move_elements;
            summary.reduce_words += report.reduce_words;
            summary.predicted_reduce_words += report.predicted_reduce_words;
            summary.redistributions += report.redistributions;
            for (slot, f) in summary
                .per_rank_flops
                .iter_mut()
                .zip(&report.per_rank_flops)
            {
                *slot = slot.saturating_add(*f);
            }
        }
        Ok(summary)
    }

    /// Predicted wall-clock nanoseconds for executing this synthesis on
    /// the GETT tree path under measured `rates`: each term's flops
    /// priced at the shape-class GEMM rate, per-contraction operand and
    /// output elements priced as one pass of pack/permute traffic, and
    /// one pool dispatch per contraction node.  This is a first-order
    /// model — it ignores pack reuse factors and cache effects — and is
    /// held to the generous tolerance band `tests/calib_conformance.rs`
    /// documents, not to benchmark accuracy.
    pub fn predicted_exec_ns(&self, rates: &CostRates) -> f64 {
        let space = &self.program.space;
        let mut total = 0.0f64;
        for plan in &self.plans {
            total += plan.tree_ops as f64 * rates.flop_ns_for(plan.tree_ops);
            for node in &plan.tree.nodes {
                if let tce_ir::OpKind::Contract { left, right } = node.kind {
                    let elems = space
                        .iteration_points(plan.tree.node(left).indices)
                        .saturating_add(space.iteration_points(plan.tree.node(right).indices))
                        .saturating_add(space.iteration_points(node.indices));
                    total += elems as f64 * rates.copy_ns;
                    total += rates.dispatch_ns;
                }
            }
        }
        total
    }

    /// The tensors a run binds: every tensor some term reads before any
    /// statement writes it, in first-read order.
    pub fn bound_inputs(&self) -> Vec<TensorId> {
        let mut written: Vec<bool> = vec![false; self.program.tensors.len()];
        let mut needed: Vec<TensorId> = Vec::new();
        for stmt in &self.program.stmts {
            for term in &stmt.terms {
                for f in &term.factors {
                    if let tce_ir::Factor::Tensor(r) = f {
                        if !written[r.tensor.0 as usize] && !needed.contains(&r.tensor) {
                            needed.push(r.tensor);
                        }
                    }
                }
            }
            written[stmt.lhs.tensor.0 as usize] = true;
        }
        needed
    }

    /// Elements a run holds before any temporary is freed, computed
    /// without allocating: every bound input, every assigned tensor, and
    /// the largest intermediate peak of one term (terms run one at a time)
    /// under the schedule the run executes — the unfused tree's
    /// `sequential_peak`, or under `fused` the selected fusion plan's
    /// reduced arrays.  A distributed run's shards together hold at least
    /// as much, since all ranks live in this process.
    pub fn static_elements(&self, fused: bool) -> u128 {
        let space = &self.program.space;
        let tensor_elements = |id: TensorId| -> u128 {
            let dims = &self.program.tensors.get(id).dims;
            dims.iter().fold(1u128, |acc, &r| {
                acc.saturating_mul(space.range_extent(r) as u128)
            })
        };
        let mut assigned: Vec<TensorId> = self.program.stmts.iter().map(|s| s.lhs.tensor).collect();
        assigned.sort_unstable();
        assigned.dedup();
        let peak = self.plans.iter().map(|plan| {
            let tree = &plan.tree;
            match (&plan.spacetime, fused) {
                (Some((st, _)), true) => tce_fusion::FusionConfig {
                    fused: st.fused.clone(),
                }
                .temp_memory(tree, space),
                (None, true) => plan.memmin.memory,
                (_, false) => {
                    let unfused = tce_fusion::FusionConfig::unfused(tree);
                    tce_fusion::schedule::fusion_schedule_with_labels(tree, &unfused)
                        .sequential_peak(|n| {
                            if n != tree.root && tce_fusion::config::is_fusable_producer(tree, n) {
                                space.iteration_points(tree.node(n).indices)
                            } else {
                                0
                            }
                        })
                }
            }
        });
        (self.bound_inputs().into_iter())
            .chain(assigned)
            .map(tensor_elements)
            .chain(peak.max())
            .fold(0u128, u128::saturating_add)
    }
}

/// Record a predicted-vs-measured execution-time pair as trace counters:
/// `calib.predicted_ns`, `calib.measured_ns`, and `calib.ratio_milli`
/// (1000 × predicted/measured, rounded).  `ProfileReport` surfaces the
/// triple as its calibration-conformance line.
pub fn record_prediction(predicted_ns: f64, measured_ns: f64) {
    tce_trace::counter("calib.predicted_ns", predicted_ns.round().max(0.0) as u64);
    tce_trace::counter("calib.measured_ns", measured_ns.round().max(0.0) as u64);
    if measured_ns > 0.0 {
        let ratio = (predicted_ns / measured_ns * 1000.0).round().max(0.0) as u64;
        tce_trace::counter("calib.ratio_milli", ratio);
    }
}

/// Permutation taking a term plan's output (LHS indices in canonical
/// ascending-id order) to the statement's declared index order.
fn lhs_perm(stmt: &Assignment) -> Vec<usize> {
    let canon: Vec<tce_ir::IndexVar> = stmt.lhs.index_set().iter().collect();
    stmt.lhs
        .indices
        .iter()
        .map(|v| canon.iter().position(|c| c == v).unwrap())
        .collect()
}

/// Errors from the pipeline.
#[derive(Debug, Clone)]
pub enum SynthesisError {
    /// Front-end failure.
    Lang(LangError),
    /// Semantic failure in a later stage.
    Stage(String),
}

impl std::fmt::Display for SynthesisError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SynthesisError::Lang(e) => write!(f, "language error: {e}"),
            SynthesisError::Stage(s) => write!(f, "synthesis error: {s}"),
        }
    }
}

impl std::error::Error for SynthesisError {}

impl From<LangError> for SynthesisError {
    fn from(e: LangError) -> Self {
        SynthesisError::Lang(e)
    }
}

/// Compile source text and run the full pipeline.
pub fn synthesize(src: &str, cfg: &SynthesisConfig) -> Result<Synthesis, SynthesisError> {
    let program = tce_lang::compile(src)?;
    synthesize_program(program, cfg)
}

/// The most processor-grid dimensions synthesis accepts.  The distribution
/// DP enumerates `(m+2)ⁿ` tuples per node on an n-dimensional grid, so a
/// rank of 5 already takes seconds and 6 more than a minute; no workload
/// needs more than 3.
pub const MAX_GRID_RANK: usize = 4;

/// Run the pipeline on an already-lowered program.
pub fn synthesize_program(
    program: Program,
    cfg: &SynthesisConfig,
) -> Result<Synthesis, SynthesisError> {
    program.validate().map_err(SynthesisError::Stage)?;
    let rank = cfg.machine.as_ref().map_or(0, |m| m.grid.rank());
    if rank > MAX_GRID_RANK {
        return Err(SynthesisError::Stage(format!(
            "a {rank}-dimensional processor grid is more than the {MAX_GRID_RANK} supported"
        )));
    }
    let mut plans = Vec::new();
    let mut cse = Vec::new();
    for (si, stmt) in program.stmts.iter().enumerate() {
        for (ti, term) in stmt.terms.iter().enumerate() {
            plans.push(plan_term(&program, cfg, si, ti, stmt, term)?);
        }
        if stmt.terms.len() > 1 {
            let m = optimize_assignment(stmt, &program.space).map_err(SynthesisError::Stage)?;
            cse.push(CseSummary {
                stmt_index: si,
                ops_independent: m.ops_independent,
                ops_with_cse: m.ops_with_cse,
                unique_intermediates: m.unique_intermediates,
                total_intermediates: m.total_intermediates,
            });
        }
    }
    Ok(Synthesis {
        program,
        plans,
        cse,
        machine: cfg.machine.clone(),
    })
}

fn plan_term(
    program: &Program,
    cfg: &SynthesisConfig,
    stmt_index: usize,
    term_index: usize,
    stmt: &Assignment,
    term: &Product,
) -> Result<TermPlan, SynthesisError> {
    let space = &program.space;
    // Stage 1: algebraic transformation — the pareto frontier of tree
    // shapes over (operations, largest intermediate).  The first point is
    // operation-minimal; later points realize the Fig. 5 feedback edge
    // ("causing it to seek a different solution") when the memory stages
    // cannot satisfy the limit on the cheaper trees.
    let problem =
        OpMinProblem::from_term(stmt.lhs.index_set(), term).map_err(SynthesisError::Stage)?;
    let frontier = {
        let _s = tce_trace::span("stage.opmin");
        optimize_pareto(&problem, space)
    };

    type Chosen = (
        usize,
        OpTree,
        MemMinResult,
        Option<(SpaceTimeConfig, TilingResult)>,
    );
    let mut chosen: Option<Chosen> = None;
    for (rank, pt) in frontier.iter().enumerate() {
        let mut tree = pt.tree.clone();
        // A single-factor identity term (e.g. `+ F[a,i]`) optimizes to a
        // bare leaf; wrap it as `leaf · 1` so there is a producer nest to
        // emit (a copy).
        if matches!(tree.node(tree.root).kind, tce_ir::OpKind::Leaf(_)) {
            let leaf = tree.root;
            let keep = tree.node(leaf).indices;
            let one = tree.leaf_one();
            tree.contract(leaf, one, keep);
        }
        let tree = tree;
        tree.validate().map_err(SynthesisError::Stage)?;
        // Stage 2: memory minimization (fusion).
        let memmin = {
            let _s = tce_trace::span("stage.fusion");
            memmin_dp(&tree, space)
        };
        if memmin.memory <= cfg.memory_limit {
            chosen = Some((rank, tree, memmin, None));
            break;
        }
        // Stage 3: space-time trade-off.  Calibrated rates price the
        // frontier in predicted nanoseconds (compute at the measured GEMM
        // rate, temporaries at the measured memory bandwidth); without a
        // profile the unit-cost selection is untouched.
        let st = {
            let _s = tce_trace::span("stage.spacetime");
            match &cfg.calibration {
                Some(rates) => spacetime_optimize_rated(
                    &tree,
                    space,
                    cfg.memory_limit,
                    rates.flop_ns_for(tree.total_ops(space)),
                    rates.word_ns,
                )
                .map_err(SynthesisError::Stage)?,
                None => spacetime_optimize(&tree, space, cfg.memory_limit)
                    .map_err(SynthesisError::Stage)?,
            }
        };
        if let Some(r) = st {
            chosen = Some((rank, tree, memmin, Some(r)));
            break;
        }
    }
    let Some((tree_rank, tree, memmin, spacetime)) = chosen else {
        return Err(SynthesisError::Stage(format!(
            "statement {stmt_index} term {term_index}: no tree shape admits a \
             fusion/recomputation configuration within {} elements",
            cfg.memory_limit
        )));
    };
    // The tree executor materializes every node whole, so each must fit
    // one `f64` buffer (declared tensors were checked by `validate`).
    for node in &tree.nodes {
        let elements = space.iteration_points(node.indices);
        if !tce_ir::fits_f64_buffer(elements) {
            return Err(SynthesisError::Stage(format!(
                "statement {stmt_index} term {term_index}: intermediate over `{}` has \
                 {elements} elements, more than one f64 buffer holds",
                space.set_to_string(node.indices)
            )));
        }
    }

    // Executable code: the memory-minimal pure-fusion program when it
    // fits; otherwise the chosen fusion/recomputation configuration,
    // emitted untiled (its memory is ≤ the tiled plan's, so it always
    // fits the limit; the tiled plan's analytics accompany the report).
    let result_name = program.tensors.get(stmt.lhs.tensor).name.clone();
    let built = match &spacetime {
        Some((st_cfg, _)) => {
            tce_spacetime::spacetime_program(&tree, space, &program.tensors, st_cfg, &result_name)
                .map_err(SynthesisError::Stage)?
        }
        None => fused_program(&tree, space, &program.tensors, &memmin.config, &result_name),
    };

    // The space-time stage is bypassed whenever pure fusion already fits;
    // record a zero-length marker so traces always show all six stages.
    if spacetime.is_none() {
        tce_trace::mark("stage.spacetime");
    }

    // Stage 4: data locality (blocking of perfect nests).  With a
    // calibration profile the tile search minimizes the measured-latency
    // weighted multi-level cost (nanoseconds) over the profile's cache
    // geometry instead of unit misses in a single abstract cache.
    let locality = {
        let _s = tce_trace::span("stage.locality");
        let locality: Vec<TileSearchResult> = match (cfg.cache_elements, &cfg.calibration) {
            (Some(_), Some(rates)) => {
                let hier = hierarchy_from_rates(rates);
                perfect_nests(&built.program)
                    .iter()
                    .map(|nest| {
                        let h = search_nest_tiles_hierarchy(&built.program, space, nest, &hier);
                        TileSearchResult {
                            blocks: h.blocks,
                            program: h.program,
                            cost: h.cost.round().max(0.0) as u128,
                        }
                    })
                    .collect()
            }
            (Some(cache), None) => perfect_nests(&built.program)
                .iter()
                .map(|nest| search_nest_tiles(&built.program, space, nest, cache))
                .collect(),
            (None, _) => Vec::new(),
        };
        // With tracing on, also evaluate the hierarchy model on the emitted
        // program so per-level `locality.accesses.*` counters appear.
        if tce_trace::enabled() {
            cfg.hierarchy.cost(&built.program, space);
        }
        locality
    };

    // Stage 5: data distribution.  A machine left at the abstract
    // default word cost adopts the measured flops-per-word rate when a
    // profile is loaded; an explicit non-default word cost always wins.
    let distribution = {
        let _s = tce_trace::span("stage.distribution");
        cfg.machine.as_ref().map(|m| match &cfg.calibration {
            Some(rates) if m.word_cost == tce_dist::DEFAULT_WORD_COST => {
                let calibrated = Machine {
                    grid: m.grid.clone(),
                    word_cost: rates.word_cost_flops(),
                };
                optimize_distribution(&tree, space, &calibrated)
            }
            _ => optimize_distribution(&tree, space, m),
        })
    };

    Ok(TermPlan {
        stmt_index,
        term_index,
        coeff: term.coeff,
        direct_ops: stmt.direct_op_count(space),
        tree_ops: tree.total_ops(space),
        tree_ops_poly: tree.total_ops_poly(space),
        tree,
        tree_rank,
        memmin,
        spacetime,
        built,
        locality,
        distribution,
    })
}

impl TermPlan {
    /// Human-readable stage-by-stage report.
    pub fn report(&self, space: &IndexSpace, program: &Program) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "== statement {} term {} (coeff {}) ==",
            self.stmt_index, self.term_index, self.coeff
        );
        let _ = writeln!(out, "direct translation ops : {}", self.direct_ops);
        let _ = writeln!(
            out,
            "operation-minimal ops  : {}  ({})",
            self.tree_ops,
            self.tree_ops_poly.display(space)
        );
        let _ = writeln!(
            out,
            "formula sequence:\n{}",
            self.tree
                .formula_sequence(space, "OUT", &|t: TensorId| program
                    .tensors
                    .get(t)
                    .name
                    .clone())
        );
        if self.tree_rank > 0 {
            let _ = writeln!(
                out,
                "NOTE: fell back to pareto tree #{} (costlier association with \
                 smaller intermediates) to satisfy the memory limit",
                self.tree_rank
            );
        }
        let _ = writeln!(
            out,
            "memory-minimal temporaries: {} elements",
            self.memmin.memory
        );
        if let Some((st, tiles)) = &self.spacetime {
            let _ = writeln!(
                out,
                "space-time: memory {} elements, ops {} (recomputation indices: {})",
                tiles.memory,
                tiles.ops,
                space.set_to_string(st.recomputation_indices())
            );
        }
        let mem = memory_report(&self.built.program, space);
        let ops = op_counts(&self.built.program, space);
        let _ = writeln!(
            out,
            "fused program: {} temp elements, {} flops",
            mem.temp_elements,
            ops.total()
        );
        for (i, loc) in self.locality.iter().enumerate() {
            let _ = writeln!(out, "locality nest {i}: modeled misses {}", loc.cost);
        }
        if let Some(plan) = &self.distribution {
            let _ = writeln!(out, "distribution cost: {}", plan.total_cost);
        }
        let _ = writeln!(out, "pseudocode:\n{}", pretty(&self.built.program));
        out
    }

    /// Execute this term with default options (all available threads,
    /// `TCE_THREADS` honoured) — see [`execute_opts`](Self::execute_opts).
    pub fn execute(
        &self,
        space: &IndexSpace,
        inputs: &HashMap<TensorId, &Tensor>,
        funcs: &HashMap<String, IntegralFn>,
    ) -> Result<Tensor, ExecError> {
        self.execute_opts(space, inputs, funcs, &ExecOptions::default())
    }

    /// Execute this term's contraction tree on the packed GETT engine
    /// (plan-cached, thread-parallel over output tiles).  The result is
    /// bitwise identical for every thread count and agrees with the
    /// interpreted fused program ([`execute_interpreted`]
    /// (Self::execute_interpreted)) to rounding.
    pub fn execute_opts(
        &self,
        space: &IndexSpace,
        inputs: &HashMap<TensorId, &Tensor>,
        funcs: &HashMap<String, IntegralFn>,
        opts: &ExecOptions,
    ) -> Result<Tensor, ExecError> {
        tce_exec::execute_tree_opts(&self.tree, space, inputs, funcs, opts)
    }

    /// Run the synthesized fused loop program through the scalar
    /// interpreter — the instrumented verification path (memory-access
    /// sinks, exact op counts), not the fast one.
    pub fn execute_interpreted(
        &self,
        space: &IndexSpace,
        inputs: &HashMap<TensorId, &Tensor>,
        funcs: &HashMap<String, IntegralFn>,
    ) -> Result<Tensor, ExecError> {
        let mut interp = tce_exec::Interpreter::new(&self.built.program, space, inputs, funcs)?;
        interp.run(&mut tce_exec::NoSink);
        Ok(interp.output().clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SECTION2: &str = "
        range N = 6;
        index a, b, c, d, e, f, i, j, k, l : N;
        tensor A(N, N, N, N);
        tensor B(N, N, N, N);
        tensor C(N, N, N, N);
        tensor D(N, N, N, N);
        tensor S(N, N, N, N);
        S[a,b,i,j] = sum[c,d,e,f,k,l] A[a,c,i,k] * B[b,e,f,l] * C[d,f,j,k] * D[c,d,e,l];
    ";

    #[test]
    fn pipeline_reproduces_section2_numbers() {
        let syn = synthesize(SECTION2, &SynthesisConfig::default()).unwrap();
        assert_eq!(syn.plans.len(), 1);
        let plan = &syn.plans[0];
        assert_eq!(plan.direct_ops, 4 * 6u128.pow(10));
        assert_eq!(plan.tree_ops, 6 * 6u128.pow(6));
        // Fusion: T1 scalar + T2 2-D.
        assert_eq!(plan.memmin.memory, 1 + 36);
        assert!(plan.spacetime.is_none());
        let report = plan.report(&syn.program.space, &syn.program);
        assert!(report.contains("6·N^6"));
    }

    #[test]
    fn pipeline_executes_correctly() {
        // N = 4 keeps the 10-deep reference einsum (N^10 points) fast.
        let syn = synthesize(
            &SECTION2.replace("N = 6", "N = 4"),
            &SynthesisConfig::default(),
        )
        .unwrap();
        let plan = &syn.plans[0];
        let space = &syn.program.space;
        let shape = [4usize; 4];
        let ta = Tensor::random(&shape, 1);
        let tb = Tensor::random(&shape, 2);
        let tc = Tensor::random(&shape, 3);
        let td = Tensor::random(&shape, 4);
        let mut inputs = HashMap::new();
        for (nm, t) in [("A", &ta), ("B", &tb), ("C", &tc), ("D", &td)] {
            inputs.insert(syn.program.tensors.by_name(nm).unwrap(), t);
        }
        let got = plan.execute(space, &inputs, &HashMap::new()).unwrap();
        // Reference through the direct einsum.
        let v = |n: &str| space.var_by_name(n).unwrap();
        let spec = tce_tensor::EinsumSpec::new(
            vec![v("a"), v("b"), v("i"), v("j")],
            vec![
                vec![v("a"), v("c"), v("i"), v("k")],
                vec![v("b"), v("e"), v("f"), v("l")],
                vec![v("d"), v("f"), v("j"), v("k")],
                vec![v("c"), v("d"), v("e"), v("l")],
            ],
            space.parse_set("c,d,e,f,k,l").unwrap(),
        )
        .unwrap();
        let expect = spec.eval(space, &[&ta, &tb, &tc, &td]);
        assert!(got.approx_eq(&expect, 1e-9));
    }

    #[test]
    fn gett_path_agrees_with_interpreted_fused_program() {
        let syn = synthesize(
            &SECTION2.replace("N = 6", "N = 4"),
            &SynthesisConfig::default(),
        )
        .unwrap();
        let plan = &syn.plans[0];
        let space = &syn.program.space;
        let shape = [4usize; 4];
        let ta = Tensor::random(&shape, 21);
        let tb = Tensor::random(&shape, 22);
        let tc = Tensor::random(&shape, 23);
        let td = Tensor::random(&shape, 24);
        let mut inputs = HashMap::new();
        for (nm, t) in [("A", &ta), ("B", &tb), ("C", &tc), ("D", &td)] {
            inputs.insert(syn.program.tensors.by_name(nm).unwrap(), t);
        }
        let interpreted = plan
            .execute_interpreted(space, &inputs, &HashMap::new())
            .unwrap();
        let fast1 = plan
            .execute_opts(space, &inputs, &HashMap::new(), &ExecOptions::serial())
            .unwrap();
        assert!(interpreted.approx_eq(&fast1, 1e-9));
        // Thread count never changes bits.
        for threads in [2, 3, 7] {
            let fastn = plan
                .execute_opts(
                    space,
                    &inputs,
                    &HashMap::new(),
                    &ExecOptions::with_threads(threads),
                )
                .unwrap();
            assert_eq!(fast1, fastn, "threads={threads} changed bits");
        }
    }

    #[test]
    fn fused_execution_matches_gett_and_model_peak() {
        let syn = synthesize(
            &SECTION2.replace("N = 6", "N = 4"),
            &SynthesisConfig::default(),
        )
        .unwrap();
        let shape = [4usize; 4];
        let ta = Tensor::random(&shape, 31);
        let tb = Tensor::random(&shape, 32);
        let tc = Tensor::random(&shape, 33);
        let td = Tensor::random(&shape, 34);
        let mut ext = HashMap::new();
        for (nm, t) in [("A", &ta), ("B", &tb), ("C", &tc), ("D", &td)] {
            ext.insert(syn.program.tensors.by_name(nm).unwrap(), t);
        }
        let expect = syn.execute(&ext, &HashMap::new()).unwrap();
        let fused = syn
            .execute_fused_opts(&ext, &HashMap::new(), &ExecOptions::serial())
            .unwrap();
        // Measured peak intermediate storage equals the memmin DP model.
        assert!(fused.peak_matches_model());
        assert_eq!(fused.modeled_elements, syn.plans[0].memmin.memory);
        let s_id = syn.program.tensors.by_name("S").unwrap();
        assert!(
            fused.outputs[&s_id].approx_eq(&expect[&s_id], 1e-10),
            "diff {:e}",
            fused.outputs[&s_id].max_abs_diff(&expect[&s_id])
        );
        // Thread count never changes bits.
        let f2 = syn
            .execute_fused_opts(&ext, &HashMap::new(), &ExecOptions::with_threads(4))
            .unwrap();
        assert_eq!(f2.outputs[&s_id], fused.outputs[&s_id]);
        assert_eq!(f2.peak_live_elements, fused.peak_live_elements);
    }

    #[test]
    fn spacetime_engages_when_memory_tight() {
        // Limit below the memory-minimal footprint forces stage 3.
        let src = "
            range V = 4; range O = 2;
            index a, c, e, f, b1 : V; index k : O;
            tensor E();
            function f1(V, V, V, O) cost 100;
            function f2(V, V, V, O) cost 100;
            function fx(V, V, V, V) cost 1;
            E = sum[a,c,e,f,b1,k] f1(c,e,b1,k) * f2(a,f,b1,k) * fx(a,e,c,f);
        ";
        let cfg = SynthesisConfig {
            memory_limit: 50,
            ..SynthesisConfig::default()
        };
        let syn = synthesize(src, &cfg).unwrap();
        let plan = &syn.plans[0];
        if plan.memmin.memory > 50 {
            let (_, tiles) = plan.spacetime.as_ref().expect("space-time engaged");
            assert!(tiles.memory <= 50);
        }
    }

    #[test]
    fn infeasible_limit_reports_error() {
        let src = "
            range N = 8;
            index i, j, k : N;
            tensor A(N, N); tensor B(N, N); tensor C(N, N); tensor S(N, N);
            S[i,j] = sum[k] A[i,k] * B[k,j];
        ";
        let cfg = SynthesisConfig {
            memory_limit: 0,
            ..SynthesisConfig::default()
        };
        // Single contraction has no temporaries at all — always fits.
        assert!(synthesize(src, &cfg).is_ok());
    }

    #[test]
    fn locality_and_distribution_stages_populate() {
        let src = "
            range N = 16;
            index i, j, k : N;
            tensor A(N, N); tensor B(N, N); tensor S(N, N);
            S[i,j] = sum[k] A[i,k] * B[k,j];
        ";
        let cfg = SynthesisConfig {
            cache_elements: Some(128),
            machine: Some(Machine::new(tce_par::ProcessorGrid::new(vec![2, 2]))),
            ..SynthesisConfig::default()
        };
        let syn = synthesize(src, &cfg).unwrap();
        let plan = &syn.plans[0];
        assert!(!plan.locality.is_empty());
        assert!(plan.distribution.is_some());
        let report = plan.report(&syn.program.space, &syn.program);
        assert!(report.contains("locality nest 0"));
        assert!(report.contains("distribution cost"));
    }

    #[test]
    fn multi_term_statements_get_one_plan_each() {
        let src = "
            range N = 4;
            index i, j, k : N;
            tensor A(N, N); tensor B(N, N); tensor S(N, N);
            S[i,j] = sum[k] A[i,k] * B[k,j] - 2 * B[i,k] * A[k,j];
        ";
        let syn = synthesize(src, &SynthesisConfig::default()).unwrap();
        assert_eq!(syn.plans.len(), 2);
        assert_eq!(syn.plans[1].coeff, -2.0);
    }

    #[test]
    fn statement_sequence_executes_with_dataflow() {
        // Two statements: T = A·B, then S = T·A + 2·T, exercising
        // intermediate dataflow, multi-term summation and coefficients.
        let src = "
            range N = 5;
            index i, j, k : N;
            tensor A(N, N); tensor B(N, N); tensor T(N, N); tensor S(N, N);
            T[i,j] = sum[k] A[i,k] * B[k,j];
            S[i,j] = sum[k] T[i,k] * A[k,j] + 2 * T[i,j] * B[i,j];
        ";
        let syn = synthesize(src, &SynthesisConfig::default()).unwrap();
        assert_eq!(syn.plans.len(), 3);
        let a = Tensor::random(&[5, 5], 1);
        let b = Tensor::random(&[5, 5], 2);
        let mut ext = HashMap::new();
        ext.insert(syn.program.tensors.by_name("A").unwrap(), &a);
        ext.insert(syn.program.tensors.by_name("B").unwrap(), &b);
        let out = syn.execute(&ext, &HashMap::new()).unwrap();
        let s_id = syn.program.tensors.by_name("S").unwrap();
        let got = &out[&s_id];
        // Reference by hand.
        let mut t = Tensor::zeros(&[5, 5]);
        for i in 0..5 {
            for j in 0..5 {
                for k in 0..5 {
                    t.add_assign_at(&[i, j], a.get(&[i, k]) * b.get(&[k, j]));
                }
            }
        }
        let mut expect = Tensor::zeros(&[5, 5]);
        for i in 0..5 {
            for j in 0..5 {
                for k in 0..5 {
                    expect.add_assign_at(&[i, j], t.get(&[i, k]) * a.get(&[k, j]));
                }
                expect.add_assign_at(&[i, j], 2.0 * t.get(&[i, j]) * b.get(&[i, j]));
            }
        }
        assert!(
            got.approx_eq(&expect, 1e-9),
            "diff {:e}",
            got.max_abs_diff(&expect)
        );
        // T is also reported.
        let t_id = syn.program.tensors.by_name("T").unwrap();
        assert!(out[&t_id].approx_eq(&t, 1e-9));
    }

    #[test]
    fn statement_graph_schedule_matches_source_order_bitwise() {
        // Mixed dataflow: two independent statements, a join, and an
        // accumulate — the graph path must reproduce source-order results
        // bit for bit at every worker count.
        let src = "
            range N = 5;
            index i, j, k : N;
            tensor A(N, N); tensor B(N, N);
            tensor T(N, N); tensor U(N, N); tensor S(N, N);
            T[i,j] = sum[k] A[i,k] * B[k,j];
            U[i,j] = sum[k] B[i,k] * B[k,j];
            S[i,j] = sum[k] T[i,k] * U[k,j];
            S[i,j] += sum[k] U[i,k] * T[k,j];
        ";
        let syn = synthesize(src, &SynthesisConfig::default()).unwrap();
        let a = Tensor::random(&[5, 5], 51);
        let b = Tensor::random(&[5, 5], 52);
        let mut ext = HashMap::new();
        ext.insert(syn.program.tensors.by_name("A").unwrap(), &a);
        ext.insert(syn.program.tensors.by_name("B").unwrap(), &b);
        let seq = syn
            .execute_opts(&ext, &HashMap::new(), &ExecOptions::serial())
            .unwrap();
        for threads in [1, 2, 4, 8] {
            let opts = ExecOptions::with_threads(threads).with_schedule(tce_exec::Schedule::Graph);
            let graph = syn.execute_opts(&ext, &HashMap::new(), &opts).unwrap();
            assert_eq!(graph.len(), seq.len());
            for (id, t) in &seq {
                assert_eq!(&graph[id], t, "threads={threads} changed bits");
            }
        }
        // A missing binding errors identically under both schedules.
        let partial: HashMap<_, _> = ext
            .iter()
            .filter(|(id, _)| **id != syn.program.tensors.by_name("A").unwrap())
            .map(|(id, t)| (*id, *t))
            .collect();
        let se = syn
            .execute_opts(&partial, &HashMap::new(), &ExecOptions::serial())
            .unwrap_err();
        let ge = syn
            .execute_opts(
                &partial,
                &HashMap::new(),
                &ExecOptions::with_threads(4).with_schedule(tce_exec::Schedule::Graph),
            )
            .unwrap_err();
        assert_eq!(se.to_string(), ge.to_string());
    }

    #[test]
    fn accumulate_statement_adds_to_previous_value() {
        let src = "
            range N = 4;
            index i, k : N;
            tensor A(N, N); tensor S(N);
            S[i] = sum[k] A[i,k] * A[i,k];
            S[i] += sum[k] A[k,i] * A[k,i];
        ";
        let syn = synthesize(src, &SynthesisConfig::default()).unwrap();
        let a = Tensor::random(&[4, 4], 9);
        let mut ext = HashMap::new();
        ext.insert(syn.program.tensors.by_name("A").unwrap(), &a);
        let out = syn.execute(&ext, &HashMap::new()).unwrap();
        let s = &out[&syn.program.tensors.by_name("S").unwrap()];
        for i in 0..4 {
            let mut expect = 0.0;
            for k in 0..4 {
                expect += a.get(&[i, k]).powi(2) + a.get(&[k, i]).powi(2);
            }
            assert!((s.get(&[i]) - expect).abs() < 1e-9);
        }
    }

    #[test]
    fn per_term_summation_convention() {
        // The second term does not mention k; it must NOT be scaled by
        // extent(k) (per-term Σ convention).
        let src = "
            range N = 4;
            index i, k : N;
            tensor A(N, N); tensor B(N); tensor S(N);
            S[i] = sum[k] A[i,k] * A[i,k] + B[i] * B[i];
        ";
        let syn = synthesize(src, &SynthesisConfig::default()).unwrap();
        let a = Tensor::random(&[4, 4], 1);
        let b = Tensor::random(&[4], 2);
        let mut ext = HashMap::new();
        ext.insert(syn.program.tensors.by_name("A").unwrap(), &a);
        ext.insert(syn.program.tensors.by_name("B").unwrap(), &b);
        let out = syn.execute(&ext, &HashMap::new()).unwrap();
        let s = &out[&syn.program.tensors.by_name("S").unwrap()];
        for i in 0..4 {
            let mut expect = b.get(&[i]).powi(2); // NOT ×4
            for k in 0..4 {
                expect += a.get(&[i, k]).powi(2);
            }
            assert!((s.get(&[i]) - expect).abs() < 1e-9);
        }
    }

    #[test]
    fn single_factor_copy_term_executes() {
        // `+ F[a,i]` — a bare copy term (wrapped as leaf·1 internally).
        let src = "
            range N = 4;
            index i, k : N;
            tensor A(N, N); tensor F(N); tensor S(N);
            S[i] = sum[k] A[i,k] * A[k,i] + F[i];
        ";
        let syn = synthesize(src, &SynthesisConfig::default()).unwrap();
        let a = Tensor::random(&[4, 4], 3);
        let f = Tensor::random(&[4], 4);
        let mut ext = HashMap::new();
        ext.insert(syn.program.tensors.by_name("A").unwrap(), &a);
        ext.insert(syn.program.tensors.by_name("F").unwrap(), &f);
        let out = syn.execute(&ext, &HashMap::new()).unwrap();
        let s = &out[&syn.program.tensors.by_name("S").unwrap()];
        for i in 0..4 {
            let mut expect = f.get(&[i]);
            for k in 0..4 {
                expect += a.get(&[i, k]) * a.get(&[k, i]);
            }
            assert!((s.get(&[i]) - expect).abs() < 1e-9);
        }
    }

    #[test]
    fn permuted_lhs_order_is_respected() {
        // LHS declared [j, i] while canonical order is [i, j]: execute()
        // must permute the plan output.
        let src = "
            range N = 3; range M = 4;
            index i : N; index j : M; index k : N;
            tensor A(N, N); tensor B(N, M); tensor S(M, N);
            S[j,i] = sum[k] A[i,k] * B[k,j];
        ";
        let syn = synthesize(src, &SynthesisConfig::default()).unwrap();
        let a = Tensor::random(&[3, 3], 3);
        let b = Tensor::random(&[3, 4], 4);
        let mut ext = HashMap::new();
        ext.insert(syn.program.tensors.by_name("A").unwrap(), &a);
        ext.insert(syn.program.tensors.by_name("B").unwrap(), &b);
        let out = syn.execute(&ext, &HashMap::new()).unwrap();
        let s = &out[&syn.program.tensors.by_name("S").unwrap()];
        assert_eq!(s.shape(), &[4, 3]);
        for j in 0..4 {
            for i in 0..3 {
                let mut expect = 0.0;
                for k in 0..3 {
                    expect += a.get(&[i, k]) * b.get(&[k, j]);
                }
                assert!((s.get(&[j, i]) - expect).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn feedback_falls_back_to_smaller_intermediate_tree() {
        // Four skewed factors where the op-minimal association needs a
        // large intermediate; under a tight limit the pipeline must pick a
        // later pareto tree (or recompute) and still fit.
        let src = "
            range B = 30; range S = 2;
            index i : B; index j, k : S; index l : B;
            tensor A(B, S); tensor P(S, S); tensor Q(S, B); tensor OUT(B, B);
            OUT[i,l] = sum[j,k] A[i,j] * P[j,k] * Q[k,l];
        ";
        let roomy = synthesize(src, &SynthesisConfig::default()).unwrap();
        assert_eq!(roomy.plans[0].tree_rank, 0);
        let tight = SynthesisConfig {
            memory_limit: 8,
            ..SynthesisConfig::default()
        };
        let constrained = synthesize(src, &tight).unwrap();
        let plan = &constrained.plans[0];
        // Whatever route it took, the executable program fits the limit.
        let mem = memory_report(&plan.built.program, &constrained.program.space);
        let out_elems = 30u128 * 30;
        assert!(mem.temp_elements - out_elems <= 8);
        // And still computes the right thing.
        let a = Tensor::random(&[30, 2], 1);
        let p = Tensor::random(&[2, 2], 2);
        let q = Tensor::random(&[2, 30], 3);
        let mut inputs = HashMap::new();
        inputs.insert(constrained.program.tensors.by_name("A").unwrap(), &a);
        inputs.insert(constrained.program.tensors.by_name("P").unwrap(), &p);
        inputs.insert(constrained.program.tensors.by_name("Q").unwrap(), &q);
        let got = plan
            .execute(&constrained.program.space, &inputs, &HashMap::new())
            .unwrap();
        let expect = roomy.plans[0]
            .execute(&roomy.program.space, &inputs, &HashMap::new())
            .unwrap();
        assert!(got.approx_eq(&expect, 1e-9));
    }

    #[test]
    fn cse_summary_reports_sharing() {
        let src = "
            range N = 5; index i, j, k : N;
            tensor A(N, N); tensor B(N, N); tensor S(N, N);
            S[i,j] = sum[k] A[i,k] * B[k,j] + A[i,k] * B[k,j];
        ";
        let syn = synthesize(src, &SynthesisConfig::default()).unwrap();
        assert_eq!(syn.cse.len(), 1);
        let c = &syn.cse[0];
        assert_eq!(c.total_intermediates, 2);
        assert_eq!(c.unique_intermediates, 1);
        assert_eq!(c.ops_with_cse * 2, c.ops_independent);
        // Single-term statements produce no summary.
        let syn2 = synthesize(
            "range N = 4; index i, k : N; tensor A(N, N); tensor S(N);
             S[i] = sum[k] A[i,k] * A[i,k];",
            &SynthesisConfig::default(),
        )
        .unwrap();
        assert!(syn2.cse.is_empty());
    }

    #[test]
    fn language_errors_propagate() {
        assert!(matches!(
            synthesize("range ;", &SynthesisConfig::default()),
            Err(SynthesisError::Lang(_))
        ));
    }
}
