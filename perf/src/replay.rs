//! Layer boundaries, called from outside.
//!
//! `synthesize` and the `execute_*` entry points are single public calls,
//! so a span around them says nothing about the layers underneath.  The
//! functions here re-issue the same sequence of *public* per-layer calls
//! those entry points make internally — `tce_lang::compile`,
//! `optimize_pareto`, `memmin_dp`, …, `plan_for`, `contract_gett`,
//! `scatter`, `redistribute`, … — each inside a benchmark-owned span.  A
//! replay is checked against the real entry point's result, so a layer
//! the replay no longer mirrors shows up as a failed check, not as a
//! silently wrong number.  What cannot be reached through public items is
//! listed under "gaps" in `perf/README.md`.

use crate::gates::Outputs;
use crate::span::Recorder;
use std::collections::HashMap;
use tce_core::dist::{
    contract_sharded, gather, move_cost, optimize_distribution, redistribute, reduce_partial_sums,
    scatter, DistPlan, DistTuple, Machine, ShardedTensor,
};
use tce_core::fusion::{fused_program, memmin_dp};
use tce_core::ir::{
    Assignment, IndexSet, IndexSpace, IndexVar, Leaf, NodeId, OpKind, OpTree, TensorId,
};
use tce_core::locality::{perfect_nests, search_nest_tiles};
use tce_core::loops::Stmt;
use tce_core::opmin::{optimize_assignment, optimize_pareto, OpMinProblem};
use tce_core::spacetime::{spacetime_optimize, spacetime_program};
use tce_core::tensor::{contract_gett, plan_for, BinaryContraction, IntegralFn, Tensor};
use tce_core::{Synthesis, SynthesisConfig};

/// Sizes of what the synthesis stages produced, summed over a program's
/// terms.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageCounts {
    /// Product terms planned.
    pub terms: u64,
    /// Points on the (ops, intermediate-size) pareto frontiers.
    pub frontier_points: u64,
    /// Operation count of the chosen trees.
    pub tree_ops: u128,
    /// Temporary elements under the memory-minimal fusion.
    pub memmin_elements: u128,
    /// Statements in the emitted loop programs.
    pub ir_nodes: u64,
    /// Perfect nests handed to the tile search.
    pub nests: u64,
}

impl StageCounts {
    /// Component-wise sum.
    pub fn add(&mut self, o: &StageCounts) {
        self.terms += o.terms;
        self.frontier_points += o.frontier_points;
        self.tree_ops += o.tree_ops;
        self.memmin_elements += o.memmin_elements;
        self.ir_nodes += o.ir_nodes;
        self.nests += o.nests;
    }
}

fn count_stmts(body: &[Stmt]) -> u64 {
    body.iter()
        .map(|s| match s {
            Stmt::Loop { body, .. } => 1 + count_stmts(body),
            _ => 1,
        })
        .sum()
}

/// The stage calls of `tce_core::synthesize(src, cfg)`, one span each.
/// Calibration is never loaded in benchmark runs, so only the unit-cost
/// branches are mirrored.
pub fn replay_synthesis(
    rec: &mut Recorder,
    src: &str,
    cfg: &SynthesisConfig,
) -> Result<StageCounts, String> {
    let program = rec
        .call("lang.compile", || tce_core::lang::compile(src))
        .map_err(|e| e.to_string())?;
    program.validate()?;
    let space = &program.space;
    let mut counts = StageCounts::default();
    for stmt in &program.stmts {
        for term in &stmt.terms {
            counts.terms += 1;
            let problem = OpMinProblem::from_term(stmt.lhs.index_set(), term)?;
            let frontier = rec.call("opmin.pareto", || optimize_pareto(&problem, space));
            counts.frontier_points += frontier.len() as u64;
            let mut chosen = None;
            for point in &frontier {
                let mut tree = point.tree.clone();
                if matches!(tree.node(tree.root).kind, OpKind::Leaf(_)) {
                    let leaf = tree.root;
                    let keep = tree.node(leaf).indices;
                    let one = tree.leaf_one();
                    tree.contract(leaf, one, keep);
                }
                let memmin = rec.call("fusion.memmin", || memmin_dp(&tree, space));
                if memmin.memory <= cfg.memory_limit {
                    chosen = Some((tree, memmin, None));
                    break;
                }
                let st = rec.call("spacetime.optimize", || {
                    spacetime_optimize(&tree, space, cfg.memory_limit)
                })?;
                if let Some(st) = st {
                    chosen = Some((tree, memmin, Some(st)));
                    break;
                }
            }
            let (tree, memmin, spacetime) = chosen.ok_or("no tree shape fits the memory limit")?;
            counts.tree_ops += tree.total_ops(space);
            counts.memmin_elements += memmin.memory;
            let result_name = &program.tensors.get(stmt.lhs.tensor).name;
            let built = match &spacetime {
                Some((st_cfg, _)) => rec.call("spacetime.program", || {
                    spacetime_program(&tree, space, &program.tensors, st_cfg, result_name)
                })?,
                None => rec.call("loops.fused_program", || {
                    fused_program(&tree, space, &program.tensors, &memmin.config, result_name)
                }),
            };
            counts.ir_nodes += count_stmts(&built.program.body);
            if let Some(cache) = cfg.cache_elements {
                let nests = rec.call("locality.nests", || perfect_nests(&built.program));
                counts.nests += nests.len() as u64;
                for nest in &nests {
                    rec.call("locality.search", || {
                        search_nest_tiles(&built.program, space, nest, cache)
                    });
                }
            }
            if let Some(machine) = &cfg.machine {
                rec.call("dist.plan", || optimize_distribution(&tree, space, machine));
            }
        }
        if stmt.terms.len() > 1 {
            rec.call("opmin.assignment", || optimize_assignment(stmt, space))?;
        }
    }
    Ok(counts)
}

/// What a real [`Synthesis`] says for the fields [`StageCounts`] mirrors;
/// equal to the replay's counts when the replay still follows the
/// pipeline.
pub fn synthesis_counts(syn: &Synthesis) -> (u64, u128, u128) {
    (
        syn.plans.len() as u64,
        syn.plans.iter().map(|p| p.tree_ops).sum(),
        syn.plans.iter().map(|p| p.memmin.memory).sum(),
    )
}

/// One replayed contraction node.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeCall {
    /// Which program of the workload's set (0 where there is one).
    pub program: usize,
    /// Statement index.
    pub stmt: usize,
    /// Term index within the statement.
    pub term: usize,
    /// Node id within the term's operator tree.
    pub node: u32,
    /// Multiply-add flops of the contraction (2 per iteration point).
    pub flops: u128,
    /// One `plan_for` lookup, nanoseconds (0 when the node's spec is not a
    /// plan-cache key as written).
    pub plan_ns: u64,
    /// One `contract_gett` call, nanoseconds.
    pub gett_ns: u64,
}

/// Permutation taking a term's output (LHS indices in ascending-id order)
/// to the statement's declared index order.
fn lhs_perm(stmt: &Assignment) -> Vec<usize> {
    let canon: Vec<IndexVar> = stmt.lhs.index_set().iter().collect();
    stmt.lhs
        .indices
        .iter()
        .map(|v| canon.iter().position(|c| c == v).expect("lhs index"))
        .collect()
}

fn node_dims(tree: &OpTree, n: NodeId) -> Vec<IndexVar> {
    match &tree.node(n).kind {
        OpKind::Leaf(Leaf::Input { indices, .. }) | OpKind::Leaf(Leaf::Func { indices, .. }) => {
            indices.clone()
        }
        _ => tree.node(n).indices.iter().collect(),
    }
}

/// `plan_for` takes specs whose summation indices all appear in both
/// operands (`contract_gett` pre-reduces the others privately).
fn is_plan_key(spec: &BinaryContraction) -> bool {
    let sa = IndexSet::from_vars(spec.a.iter().copied());
    let sb = IndexSet::from_vars(spec.b.iter().copied());
    let so = IndexSet::from_vars(spec.out.iter().copied());
    sa.union(sb).minus(so).is_subset(sa.inter(sb))
}

/// Statement-level driver shared by the tree and distributed replays:
/// source order, computed values shadowing external bindings, terms
/// scaled and summed, `+=` accumulating — as `Synthesis::execute_*` do.
fn replay_statements(
    syn: &Synthesis,
    external: &HashMap<TensorId, &Tensor>,
    mut term_value: impl FnMut(
        usize,
        &tce_core::TermPlan,
        &HashMap<TensorId, &Tensor>,
    ) -> Result<Tensor, String>,
) -> Result<Outputs, String> {
    let space = &syn.program.space;
    let mut computed: Outputs = HashMap::new();
    for (si, stmt) in syn.program.stmts.iter().enumerate() {
        let shape: Vec<usize> = stmt.lhs.indices.iter().map(|&v| space.extent(v)).collect();
        let mut acc = match computed.get(&stmt.lhs.tensor) {
            Some(prev) if stmt.accumulate => prev.clone(),
            _ => Tensor::zeros(&shape),
        };
        for plan in syn.plans.iter().filter(|p| p.stmt_index == si) {
            let mut inputs = external.clone();
            for (id, t) in &computed {
                inputs.insert(*id, t);
            }
            let value = term_value(si, plan, &inputs)?;
            acc.axpy(plan.coeff, &value.permute(&lhs_perm(stmt)));
        }
        computed.insert(stmt.lhs.tensor, acc);
    }
    Ok(computed)
}

/// The tensor-layer calls of `Synthesis::execute_opts` on the sequential
/// tree executor: per contraction node one `plan_for` lookup and one
/// `contract_gett`, each in a span and appended to `calls` under program
/// number `program`.
pub fn replay_tree_exec(
    rec: &mut Recorder,
    syn: &Synthesis,
    external: &HashMap<TensorId, &Tensor>,
    funcs: &HashMap<String, IntegralFn>,
    threads: usize,
    program: usize,
    calls: &mut Vec<NodeCall>,
) -> Result<Outputs, String> {
    let space = &syn.program.space;
    replay_statements(syn, external, |si, plan, inputs| {
        let tree = &plan.tree;
        let mut values: Vec<Option<Tensor>> = vec![None; tree.len()];
        for id in tree.postorder() {
            let value = match &tree.node(id).kind {
                OpKind::Leaf(Leaf::Input { tensor, .. }) => (*inputs
                    .get(tensor)
                    .ok_or_else(|| format!("tensor #{} is unbound", tensor.0))?)
                .clone(),
                OpKind::Leaf(Leaf::One) => Tensor::from_elem(&[], 1.0),
                OpKind::Leaf(Leaf::Func { name, indices, .. }) => {
                    let f = funcs
                        .get(name)
                        .ok_or_else(|| format!("function `{name}` is unbound"))?;
                    let shape: Vec<usize> = indices.iter().map(|&v| space.extent(v)).collect();
                    rec.call("exec.func", || Tensor::from_fn(&shape, |idx| f.eval(idx)))
                }
                OpKind::Contract { left, right } => {
                    let spec = BinaryContraction {
                        a: node_dims(tree, *left),
                        b: node_dims(tree, *right),
                        out: tree.node(id).indices.iter().collect(),
                    };
                    let plan_ns = if is_plan_key(&spec) {
                        rec.call_ns("tensor.plan", || plan_for(&spec, space)).1
                    } else {
                        0
                    };
                    let lv = values[left.0 as usize].take().expect("postorder");
                    let rv = values[right.0 as usize].take().expect("postorder");
                    let (out, gett_ns) = rec.call_ns("tensor.gett", || {
                        contract_gett(&spec, space, &lv, &rv, threads)
                    });
                    lv.recycle();
                    rv.recycle();
                    calls.push(NodeCall {
                        program,
                        stmt: si,
                        term: plan.term_index,
                        node: id.0,
                        flops: spec.flops(space),
                        plan_ns,
                        gett_ns,
                    });
                    out
                }
            };
            values[id.0 as usize] = Some(value);
        }
        Ok(values[tree.root.0 as usize].take().expect("root value"))
    })
}

/// Communication measured by a distributed replay.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DistCounts {
    /// Elements that changed rank.
    pub moved: u128,
    /// `move_cost` for the same redistributions.
    pub predicted_moved: u128,
    /// Reduction-tree traffic, words.
    pub reduce_words: u128,
}

struct DistReplay<'a> {
    tree: &'a OpTree,
    space: &'a IndexSpace,
    plan: &'a DistPlan,
    machine: &'a Machine,
    inputs: &'a HashMap<TensorId, &'a Tensor>,
    threads: usize,
}

impl DistReplay<'_> {
    fn relayout(
        &self,
        rec: &mut Recorder,
        counts: &mut DistCounts,
        value: &ShardedTensor,
        to: &DistTuple,
    ) -> ShardedTensor {
        let grid = &self.machine.grid;
        let set = value.index_set();
        if value.tuple.normalize(set) != to.normalize(set) {
            counts.predicted_moved += move_cost(&value.dims, self.space, grid, &value.tuple, to);
        }
        let (out, moved) = rec.call("dist.redistribute", || {
            redistribute(value, to, self.space, grid)
        });
        counts.moved += moved;
        out
    }

    fn eval(
        &self,
        rec: &mut Recorder,
        counts: &mut DistCounts,
        u: NodeId,
        alpha: &DistTuple,
    ) -> Result<ShardedTensor, String> {
        let grid = &self.machine.grid;
        let indices = self.tree.node(u).indices;
        match &self.tree.node(u).kind {
            OpKind::Leaf(Leaf::Input {
                tensor,
                indices: dims,
            }) => {
                let global = *self
                    .inputs
                    .get(tensor)
                    .ok_or_else(|| format!("tensor #{} is unbound", tensor.0))?;
                if alpha.no_replicate(indices) {
                    Ok(rec.call("dist.scatter", || {
                        scatter(global, dims, alpha, self.space, grid)
                    }))
                } else {
                    let beta = self.plan.node_input_source[u.0 as usize]
                        .clone()
                        .unwrap_or_else(|| DistTuple::all_one(grid.rank()));
                    let staged = rec.call("dist.scatter", || {
                        scatter(global, dims, &beta, self.space, grid)
                    });
                    Ok(self.relayout(rec, counts, &staged, alpha))
                }
            }
            OpKind::Contract { left, right } => {
                let (gamma, mode) = self.plan.node_gamma[u.0 as usize]
                    .clone()
                    .ok_or("contraction node without a distribution")?;
                let lv = self.eval(
                    rec,
                    counts,
                    *left,
                    &gamma.project(self.tree.node(*left).indices),
                )?;
                let rv = self.eval(
                    rec,
                    counts,
                    *right,
                    &gamma.project(self.tree.node(*right).indices),
                )?;
                let out_dims: Vec<IndexVar> = indices.iter().collect();
                let (mut value, _flops) = rec.call("dist.contract", || {
                    contract_sharded(&lv, &rv, &out_dims, self.space, grid, &gamma, self.threads)
                });
                let sums = self.tree.sum_indices(u);
                counts.reduce_words += rec.call("dist.reduce", || {
                    reduce_partial_sums(&mut value, sums, self.space, grid, mode)
                });
                Ok(self.relayout(rec, counts, &value, alpha))
            }
            OpKind::Leaf(_) => {
                Err("function and unit leaves are not mirrored by the distributed replay".into())
            }
        }
    }
}

/// The distribution-layer calls of `Synthesis::execute_distributed_opts`
/// on the sequential plan walk: `scatter`, `redistribute`,
/// `contract_sharded`, `reduce_partial_sums`, `gather`, one span each.
/// Covers trees of stored-tensor leaves (the `dist_grid` workload).
pub fn replay_dist_exec(
    rec: &mut Recorder,
    syn: &Synthesis,
    external: &HashMap<TensorId, &Tensor>,
    threads: usize,
    counts: &mut DistCounts,
) -> Result<Outputs, String> {
    let machine = syn.machine.as_ref().ok_or("synthesis has no machine")?;
    let space = &syn.program.space;
    replay_statements(syn, external, |_, plan, inputs| {
        let dist = plan
            .distribution
            .as_ref()
            .ok_or("term without a distribution plan")?;
        let walk = DistReplay {
            tree: &plan.tree,
            space,
            plan: dist,
            machine,
            inputs,
            threads: threads.max(1),
        };
        let root_alpha = dist.node_dist[plan.tree.root.0 as usize]
            .clone()
            .ok_or("root without a distribution")?;
        let sharded = walk.eval(rec, counts, plan.tree.root, &root_alpha)?;
        Ok(rec.call("dist.gather", || gather(&sharded, space, &machine.grid)))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gates::outputs_identical;
    use crate::programs::{a3a_energy, cc_doubles, section2_source};
    use tce_core::serve::{bind_functions, bind_random_inputs};
    use tce_core::{synthesize, ExecOptions};

    fn bound(syn: &Synthesis, seed: u64) -> Vec<(TensorId, Tensor)> {
        bind_random_inputs(syn, seed)
    }

    #[test]
    fn synthesis_replay_makes_the_pipelines_choices() {
        let machine = Machine::new(tce_core::par::ProcessorGrid::new(vec![2, 2]));
        for (src, cfg) in [
            (cc_doubles(6, 3), SynthesisConfig::default()),
            (
                a3a_energy(4, 2),
                SynthesisConfig {
                    memory_limit: 20,
                    cache_elements: Some(64),
                    machine: Some(machine),
                    ..SynthesisConfig::default()
                },
            ),
        ] {
            let mut rec = Recorder::new(true);
            let counts = replay_synthesis(&mut rec, &src, &cfg).unwrap();
            let syn = synthesize(&src, &cfg).unwrap();
            assert_eq!(
                (counts.terms, counts.tree_ops, counts.memmin_elements),
                synthesis_counts(&syn)
            );
            assert!(counts.frontier_points >= counts.terms && counts.ir_nodes > 0);
            let names: Vec<_> = rec.spans().iter().map(|s| s.name).collect();
            assert!(names.contains(&"lang.compile") && names.contains(&"fusion.memmin"));
            assert_eq!(names.contains(&"dist.plan"), cfg.machine.is_some());
            assert_eq!(
                names.contains(&"locality.search"),
                cfg.cache_elements.is_some()
            );
        }
    }

    #[test]
    fn tree_replay_reproduces_the_tree_executor_bit_for_bit() {
        for src in [cc_doubles(5, 3), a3a_energy(4, 2)] {
            let syn = synthesize(&src, &SynthesisConfig::default()).unwrap();
            let owned = bound(&syn, 3);
            let inputs: HashMap<_, _> = owned.iter().map(|(id, t)| (*id, t)).collect();
            let funcs = bind_functions(&syn, 3);
            let want = syn
                .execute_opts(&inputs, &funcs, &ExecOptions::serial())
                .unwrap();
            let mut rec = Recorder::new(true);
            let mut calls = Vec::new();
            let got = replay_tree_exec(&mut rec, &syn, &inputs, &funcs, 1, 0, &mut calls).unwrap();
            assert!(outputs_identical(&got, &want));
            let contractions: usize = syn
                .plans
                .iter()
                .map(|p| p.tree.internal_postorder().len())
                .sum();
            assert_eq!(calls.len(), contractions);
            let flops: u128 = calls.iter().map(|c| c.flops).sum();
            assert!(flops > 0);
        }
    }

    #[test]
    fn dist_replay_reproduces_the_sharded_executor_and_its_traffic() {
        let cfg = SynthesisConfig {
            machine: Some(Machine::new(tce_core::par::ProcessorGrid::new(vec![2, 2]))),
            ..SynthesisConfig::default()
        };
        let syn = synthesize(&section2_source(5), &cfg).unwrap();
        let owned = bound(&syn, 9);
        let inputs: HashMap<_, _> = owned.iter().map(|(id, t)| (*id, t)).collect();
        let want = syn
            .execute_distributed_opts(&inputs, &HashMap::new(), &ExecOptions::serial())
            .unwrap();
        let mut rec = Recorder::new(true);
        let mut counts = DistCounts::default();
        let got = replay_dist_exec(&mut rec, &syn, &inputs, 1, &mut counts).unwrap();
        assert!(outputs_identical(&got, &want.outputs));
        assert_eq!(counts.moved, want.moved_elements);
        assert_eq!(counts.predicted_moved, want.predicted_move_elements);
        assert_eq!(counts.reduce_words, want.reduce_words);
    }
}
