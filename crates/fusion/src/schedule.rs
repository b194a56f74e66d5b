//! Placement of a fusion configuration: the loop/zero/produce skeleton of
//! the fused program, without scalar statements.
//!
//! This module is the only place that decides *where*, in the laminar
//! family of fusion-chain scopes, each node's initialization and
//! production sit.  The result is a [`FusionSchedule`] whose steps are the
//! fused chain loops ([`ScheduleStep::Loop`]), per-iteration
//! re-initializations of accumulating intermediates ([`ScheduleStep::Zero`])
//! and node productions ([`ScheduleStep::Produce`]).  It has two lowerings:
//!
//! * [`crate::codegen`] expands every `Produce` into the node's scalar
//!   statement wrapped in its *private* loops — the loop IR the
//!   interpreter and the locality stage consume;
//! * the fused *executor* (`tce_exec::fusedexec`) keeps each node's private
//!   loops inside one sliced GETT call and walks only the chain loops (the
//!   BLAS-slicing strategy of Peise et al.).
//!
//! Placement rules (verified end-to-end by the interpreter and executor
//! differential tests against the reference einsum):
//!
//! * a node's production sits inside every chain whose scope contains the
//!   node — those chain indices are the node's *pinned* set, fixed by the
//!   surrounding loops while the production runs on slices; its remaining
//!   loop indices are private to the production;
//! * the zero-initialization of an accumulating intermediate sits inside
//!   exactly the chains running through the node's parent edge — it
//!   re-zeroes once per iteration of those loops, just before the
//!   producer's material;
//! * within any loop body, components are ordered by the highest
//!   evaluation rank they contain, which places every producer (and every
//!   initialization) before its consumers.
//!
//! Placement depends on the per-edge *chain labels* only.  A label may
//! include *redundant* indices that are not indices of the child: their
//! chains wrap the child's whole nest and re-execute it (the space-time
//! transformation of paper Fig. 3).  Which array dimensions a label
//! eliminates is a separate question answered by the lowerings' array
//! configuration.
//!
//! Placement also fixes **lifetimes**, at top-level-step granularity
//! ([`StepLifetime`]): which node arrays each top-level step reads and
//! writes, and which it brings to life on entry (first write) and may
//! drop on exit (last access; never the root).  Nothing is born or dies inside a chain loop.
//! Arrays are born zeroed, so a *top-level* `Zero`, which precedes every
//! other access to its node and runs once, touches nothing: the
//! allocation at the node's first producing step already is that
//! initialization.  Code generation has no allocation and ignores
//! lifetimes (it lowers every `Zero` to an `Init`); the executor obeys
//! them, so an unfused tree — the configuration with no chain at all —
//! holds each intermediate only from its production to its one consumer.

use crate::chains::{chains_of, Chain};
use crate::config::{is_fusable_producer, Lowering};
use std::collections::HashMap;
use tce_ir::{IndexSet, IndexVar, NodeId, OpKind, OpTree};

/// One step of a fused execution schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScheduleStep {
    /// A fused chain loop over all values of `index`.
    Loop {
        /// The source index this loop iterates.
        index: IndexVar,
        /// Steps executed once per iteration.
        body: Vec<ScheduleStep>,
    },
    /// Re-zero the (reduced) array of an accumulating contraction node.
    Zero(NodeId),
    /// Run the node's contraction (or function evaluation) for the current
    /// values of its pinned indices, on slices of its operands.
    Produce(NodeId),
}

/// The node arrays one top-level step touches (see the module docs).
/// Stored inputs are immutable and appear nowhere.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StepLifetime {
    /// Producer nodes whose arrays the step reads.
    pub reads: Vec<NodeId>,
    /// Nodes whose arrays the step writes.
    pub writes: Vec<NodeId>,
    /// Arrays born (zeroed) on entry: this step is their first writer.
    pub allocs: Vec<NodeId>,
    /// Arrays dead on exit: this step is their last accessor.  Never
    /// contains the root.
    pub releases: Vec<NodeId>,
}

/// A compiled fused schedule: the step tree plus, per node, the set of
/// indices pinned by enclosing fused loops at its production site, and
/// per top-level step the arrays it touches, allocates and releases.
#[derive(Debug, Clone)]
pub struct FusionSchedule {
    /// Top-level steps, in execution order.
    pub steps: Vec<ScheduleStep>,
    /// `pinned[n]` = indices of the chains whose scope contains node `n`
    /// (empty for nodes that are not fusable producers).  These are
    /// exactly the loop variables in scope at the node's `Produce` step.
    pub pinned: Vec<IndexSet>,
    /// `lifetimes[k]` = what `steps[k]` reads, writes, allocates and
    /// releases.
    pub lifetimes: Vec<StepLifetime>,
}

impl FusionSchedule {
    /// Peak live storage of running the top-level steps one at a time in
    /// order, allocating on entry and releasing on exit, when node `n`'s
    /// array holds `elements(n)` — the static counterpart of what an
    /// executor obeying the lifetimes measures.
    pub fn sequential_peak(&self, elements: impl Fn(NodeId) -> u128) -> u128 {
        let total = |nodes: &[NodeId]| nodes.iter().map(|&n| elements(n)).sum::<u128>();
        let (mut live, mut peak) = (0u128, 0u128);
        for life in &self.lifetimes {
            live += total(&life.allocs);
            peak = peak.max(live);
            live -= total(&life.releases);
        }
        peak
    }
}

/// Ordering key of a step: (evaluation rank, 0 = init / 1 = production).
/// Unique per item; a chain loop carries the largest key beneath it.
type Key = (usize, u8);

/// What sits at one laminar position before ordering.
enum Entry {
    /// A nested chain (index into the chain list).
    Chain(usize),
    /// A `Zero` or `Produce` step.
    Item(Key, ScheduleStep),
}

/// Compile a checked lowering into an executable fused schedule for
/// `tree`: placement reads its chain labels (possibly including redundant
/// indices, see the module docs).
pub fn fusion_schedule(tree: &OpTree, lowering: &Lowering) -> FusionSchedule {
    let parents = tree.parents();
    let chains = chains_of(tree, lowering.chain_labels());
    let contains = |ci: usize, n: NodeId| chains[ci].scope.contains(&n);

    // --- laminar forest over the chains ---
    // Placed by descending scope size, then index id; a chain's parent is
    // the last chain placed before it whose scope contains its own — the
    // smallest container, with equal scopes forming a path rather than
    // siblings.  `depth` picks an item's innermost position.
    let mut order: Vec<usize> = (0..chains.len()).collect();
    order.sort_by_key(|&ci| (std::cmp::Reverse(chains[ci].scope.len()), chains[ci].index));
    let mut depth = vec![0usize; chains.len()];
    let mut children: HashMap<Option<usize>, Vec<Entry>> = HashMap::new();
    for (pos, &ci) in order.iter().enumerate() {
        let forest_parent = order[..pos]
            .iter()
            .copied()
            .rfind(|&cj| chains[ci].scope.iter().all(|&n| contains(cj, n)));
        depth[ci] = forest_parent.map_or(0, |cj| depth[cj] + 1);
        children
            .entry(forest_parent)
            .or_default()
            .push(Entry::Chain(ci));
    }

    // --- attach every producer's steps at their innermost chain ---
    let mut pinned = vec![IndexSet::EMPTY; tree.len()];
    let innermost = |set: &[usize]| set.iter().copied().max_by_key(|&ci| depth[ci]);
    for (rank, v) in tree.postorder().into_iter().enumerate() {
        if !is_fusable_producer(tree, v) {
            continue;
        }
        let around: Vec<usize> = (0..chains.len()).filter(|&ci| contains(ci, v)).collect();
        pinned[v.0 as usize] = IndexSet::from_vars(around.iter().map(|&ci| chains[ci].index));
        children
            .entry(innermost(&around))
            .or_default()
            .push(Entry::Item((rank, 1), ScheduleStep::Produce(v)));
        // Accumulating intermediates (contractions) are zeroed inside the
        // chains through their parent edge; none (an unfused edge, or the
        // root) means a single zero-fill at top level.
        if matches!(tree.node(v).kind, OpKind::Contract { .. }) {
            let through: Vec<usize> = match parents[v.0 as usize] {
                Some(u) => around.into_iter().filter(|&ci| contains(ci, u)).collect(),
                None => Vec::new(),
            };
            children
                .entry(innermost(&through))
                .or_default()
                .push(Entry::Item((rank, 0), ScheduleStep::Zero(v)));
        }
    }

    let (steps, _) = emit(None, &children, &chains);
    let lifetimes = lifetimes(tree, &steps);
    FusionSchedule {
        steps,
        pinned,
        lifetimes,
    }
}

/// Per top-level step: the arrays it reads and writes, then — from the
/// first and last step touching each node — the ones it allocates and
/// releases.
fn lifetimes(tree: &OpTree, steps: &[ScheduleStep]) -> Vec<StepLifetime> {
    let mut lives: Vec<StepLifetime> = steps
        .iter()
        .map(|step| {
            let mut life = StepLifetime::default();
            // A top-level `Zero` touches nothing: arrays are born zeroed.
            if !matches!(step, ScheduleStep::Zero(_)) {
                touch(tree, step, &mut life);
            }
            for set in [&mut life.reads, &mut life.writes] {
                set.sort_unstable();
                set.dedup();
            }
            life
        })
        .collect();
    for n in (0..tree.len()).map(|n| NodeId(n as u32)) {
        let touches = |life: &StepLifetime| life.writes.contains(&n) || life.reads.contains(&n);
        if let Some(first) = lives.iter().position(|life| life.writes.contains(&n)) {
            lives[first].allocs.push(n);
        }
        if let Some(last) = lives.iter().rposition(touches).filter(|_| n != tree.root) {
            lives[last].releases.push(n);
        }
    }
    lives
}

/// Accumulate the read/write node-sets of `step`, recursing through chain
/// loops.  Reads cover producer operands only.
fn touch(tree: &OpTree, step: &ScheduleStep, life: &mut StepLifetime) {
    match step {
        ScheduleStep::Loop { body, .. } => body.iter().for_each(|s| touch(tree, s, life)),
        ScheduleStep::Zero(v) => life.writes.push(*v),
        ScheduleStep::Produce(v) => {
            life.writes.push(*v);
            let operands = tree.children(*v).into_iter();
            life.reads
                .extend(operands.filter(|&c| is_fusable_producer(tree, c)));
        }
    }
}

/// The steps at laminar position `pos` (`None` = top level) in key order,
/// and the largest key among them.
fn emit(
    pos: Option<usize>,
    children: &HashMap<Option<usize>, Vec<Entry>>,
    chains: &[Chain],
) -> (Vec<ScheduleStep>, Key) {
    let mut keyed: Vec<(Key, ScheduleStep)> = children
        .get(&pos)
        .into_iter()
        .flatten()
        .map(|entry| match entry {
            Entry::Item(key, step) => (*key, step.clone()),
            Entry::Chain(ci) => {
                let (body, key) = emit(Some(*ci), children, chains);
                let index = chains[*ci].index;
                (key, ScheduleStep::Loop { index, body })
            }
        })
        .collect();
    keyed.sort_by_key(|&(key, _)| key);
    let max = keyed.last().map_or((0, 0), |&(key, _)| key);
    (keyed.into_iter().map(|(_, step)| step).collect(), max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codegen::fused_program;
    use crate::config::tests::{fig1, fig1_with_tensors};
    use crate::config::FusionConfig;
    use crate::memmin::{enumerate_legal_configs, memmin_dp};
    use tce_ir::{IndexSpace, TensorDecl, TensorId, TensorTable};
    use tce_loops::{ArrayId, BuiltProgram, Stmt};

    /// Render a schedule compactly for structural assertions.
    fn render(steps: &[ScheduleStep], space: &IndexSpace, out: &mut String) {
        for s in steps {
            match s {
                ScheduleStep::Loop { index, body } => {
                    out.push_str(&format!("for {} {{ ", space.var_name(*index)));
                    render(body, space, out);
                    out.push_str("} ");
                }
                ScheduleStep::Zero(n) => out.push_str(&format!("zero {} ", n.0)),
                ScheduleStep::Produce(n) => out.push_str(&format!("produce {} ", n.0)),
            }
        }
    }

    #[test]
    fn fig1c_schedule_matches_codegen_structure() {
        let (space, tree, t1, t2) = fig1(4);
        let mut cfg = FusionConfig::unfused(&tree);
        cfg.set(t1, space.parse_set("b,c,d,f").unwrap());
        cfg.set(t2, space.parse_set("b,c").unwrap());
        let sched = fusion_schedule(&tree, &cfg.lowering(&tree).unwrap());
        let mut text = String::new();
        render(&sched.steps, &space, &mut text);
        // Paper Fig 1(c), private loops elided:
        //   S = 0; for b,c { T2 = 0; for d,f { T1 = 0; T1 += …; T2 += … };
        //   S += … }
        let expect = format!(
            "zero {root} for b {{ for c {{ zero {t2} for d {{ for f {{ \
             zero {t1} produce {t1} produce {t2} }} }} produce {root} }} }} ",
            root = tree.root.0,
            t1 = t1.0,
            t2 = t2.0
        );
        assert_eq!(text, expect);
        assert_eq!(
            sched.pinned[t1.0 as usize],
            space.parse_set("b,c,d,f").unwrap()
        );
        assert_eq!(
            sched.pinned[t2.0 as usize],
            space.parse_set("b,c,d,f").unwrap()
        );
        assert_eq!(
            sched.pinned[tree.root.0 as usize],
            space.parse_set("b,c").unwrap()
        );
    }

    /// The node whose array is `array`.
    fn node_of(built: &BuiltProgram, array: ArrayId) -> NodeId {
        let node = built.node_array.iter().position(|&a| a == array).unwrap();
        NodeId(node as u32)
    }

    /// The node a (possibly loop-wrapped) single statement produces.
    fn produced(built: &BuiltProgram, stmt: &Stmt) -> Option<NodeId> {
        match stmt {
            Stmt::Loop { body, .. } => match body.as_slice() {
                [only] => produced(built, only),
                _ => None,
            },
            Stmt::Init { .. } => None,
            Stmt::Accum { lhs, .. } | Stmt::Eval { lhs, .. } => Some(node_of(built, lhs.array)),
        }
    }

    /// Invert codegen's lowering: collapse every production's private loop
    /// nest (a loop over an index its node does not have pinned) back into
    /// a `Produce` step.
    fn skeleton(built: &BuiltProgram, sched: &FusionSchedule, stmts: &[Stmt]) -> Vec<ScheduleStep> {
        stmts
            .iter()
            .map(|stmt| match stmt {
                Stmt::Init { array } => ScheduleStep::Zero(node_of(built, *array)),
                Stmt::Accum { .. } | Stmt::Eval { .. } => {
                    ScheduleStep::Produce(produced(built, stmt).unwrap())
                }
                Stmt::Loop { var, body } => {
                    let (&index, _) = built.index_var.iter().find(|(_, v)| *v == var).unwrap();
                    let index = IndexVar(index);
                    match produced(built, stmt) {
                        Some(v) if !sched.pinned[v.0 as usize].contains(index) => {
                            ScheduleStep::Produce(v)
                        }
                        _ => ScheduleStep::Loop {
                            index,
                            body: skeleton(built, sched, body),
                        },
                    }
                }
            })
            .collect()
    }

    #[test]
    fn stripping_private_loops_from_the_fused_program_yields_the_schedule() {
        let (space, tensors, tree, _, _) = fig1_with_tensors(3);
        let configs = enumerate_legal_configs(&tree, &space);
        assert!(configs.len() > 10);
        for (cfg, _) in &configs {
            let sched = fusion_schedule(&tree, &cfg.lowering(&tree).unwrap());
            let built = fused_program(&tree, &space, &tensors, cfg, "S");
            assert_eq!(
                skeleton(&built, &sched, &built.program.body),
                sched.steps,
                "config {:?}",
                cfg.fused
            );
        }
    }

    #[test]
    fn redundant_label_wraps_the_childs_zero_and_produce() {
        // R = Σ_xy (Σ_z A[x,z]·B[z]) · C[x,y].  Labelling mid's edge with
        // {y} — a loop index of the root that is *not* an index of mid — is
        // the space-time transformation: the y chain wraps mid's whole
        // nest, so mid is re-zeroed and recomputed once per y iteration.
        let mut space = IndexSpace::new();
        let n = space.add_range("N", 3);
        let x = space.add_var("x", n);
        let y = space.add_var("y", n);
        let z = space.add_var("z", n);
        let mut tensors = TensorTable::new();
        let ta = tensors.add(TensorDecl::dense("A", vec![n, n]));
        let tb = tensors.add(TensorDecl::dense("B", vec![n]));
        let tc = tensors.add(TensorDecl::dense("C", vec![n, n]));
        let mut tree = OpTree::new();
        let la = tree.leaf_input(ta, vec![x, z]);
        let lb = tree.leaf_input(tb, vec![z]);
        let mid = tree.contract(la, lb, x.singleton());
        let lc = tree.leaf_input(tc, vec![x, y]);
        let root = tree.contract(mid, lc, IndexSet::EMPTY);
        assert!(!tree.loop_indices(mid).contains(y));

        let mut labels = FusionConfig::unfused(&tree);
        labels.set(mid, y.singleton());
        // Not a fusion configuration (y is not fusable on that edge) …
        assert!(labels.check(&tree).is_err());
        // … but a legal redundant label.
        let unfused = FusionConfig::unfused(&tree);
        let lowering = Lowering::new(&tree, &unfused.fused, &labels.fused).unwrap();
        assert_eq!(lowering.chain_labels(), &labels);
        let sched = fusion_schedule(&tree, &lowering);
        let expect = vec![
            ScheduleStep::Zero(root),
            ScheduleStep::Loop {
                index: y,
                body: vec![
                    ScheduleStep::Zero(mid),
                    ScheduleStep::Produce(mid),
                    ScheduleStep::Produce(root),
                ],
            },
        ];
        assert_eq!(sched.steps, expect);
        assert_eq!(sched.pinned[mid.0 as usize], y.singleton());
        assert_eq!(sched.pinned[root.0 as usize], y.singleton());
    }

    #[test]
    fn unfused_schedule_is_flat_in_rank_order() {
        let (_space, tree, t1, t2) = fig1(3);
        let cfg = FusionConfig::unfused(&tree);
        let sched = fusion_schedule(&tree, &cfg.lowering(&tree).unwrap());
        let expect = vec![
            ScheduleStep::Zero(t1),
            ScheduleStep::Produce(t1),
            ScheduleStep::Zero(t2),
            ScheduleStep::Produce(t2),
            ScheduleStep::Zero(tree.root),
            ScheduleStep::Produce(tree.root),
        ];
        assert_eq!(sched.steps, expect);
        assert!(sched.pinned.iter().all(|s| s.is_empty()));
    }

    #[test]
    fn lifetimes_allocate_at_first_write_and_release_after_the_last_reader() {
        // root = x · y with x = A·B produced first and y = (C·D)·E produced
        // in between: x is written in one top-level group and read two
        // groups later.
        let mut space = IndexSpace::new();
        let n = space.add_range("N", 2);
        let vs = space.add_vars("i j k l p q", n);
        let (i, j, k, l, p, q) = (vs[0], vs[1], vs[2], vs[3], vs[4], vs[5]);
        let mut tree = OpTree::new();
        let pair = |tree: &mut OpTree, a: [IndexVar; 2], b: [IndexVar; 2]| {
            let la = tree.leaf_input(TensorId(0), a.to_vec());
            let lb = tree.leaf_input(TensorId(0), b.to_vec());
            tree.contract(la, lb, IndexSet::from_vars([a[0], b[1]]))
        };
        let x = pair(&mut tree, [i, j], [j, k]);
        let m = pair(&mut tree, [k, l], [l, p]);
        let le = tree.leaf_input(TensorId(0), vec![p, q]);
        let y = tree.contract(m, le, IndexSet::from_vars([k, q]));
        let root = tree.contract(x, y, IndexSet::from_vars([i, q]));

        // Unfused: Zero/Produce pairs in rank order; a top-level Zero
        // touches nothing, so each array is born at its Produce.
        let sched = fusion_schedule(&tree, &Lowering::unfused(&tree));
        let life = &sched.lifetimes;
        assert_eq!(sched.steps.len(), 8);
        for zero in [0, 2, 4, 6] {
            assert_eq!(life[zero], StepLifetime::default(), "step {zero}");
        }
        let born_and_dead = |k: usize| (life[k].allocs.clone(), life[k].releases.clone());
        assert_eq!(born_and_dead(1), (vec![x], vec![]));
        assert_eq!(born_and_dead(3), (vec![m], vec![]));
        assert_eq!(born_and_dead(5), (vec![y], vec![m]));
        // x outlives the two groups in between and dies with its reader;
        // the root is never released.
        assert_eq!(life[7].reads, vec![x, y]);
        assert_eq!(born_and_dead(7), (vec![root], vec![x, y]));
        // x | x m | x m y → x y | x y root.
        assert_eq!(sched.sequential_peak(|_| 1), 3);

        // Fusing m into y over k makes them one group: m is born and dies
        // inside it.
        let mut cfg = FusionConfig::unfused(&tree);
        cfg.set(m, k.singleton());
        let sched = fusion_schedule(&tree, &cfg.lowering(&tree).unwrap());
        let is_loop = |s: &ScheduleStep| matches!(s, ScheduleStep::Loop { .. });
        let group = &sched.lifetimes[sched.steps.iter().position(is_loop).unwrap()];
        assert_eq!((&group.allocs, &group.releases), (&vec![m, y], &vec![m]));
        assert_eq!(sched.lifetimes.last().unwrap().releases, vec![x, y]);
        assert_eq!(sched.sequential_peak(|v| if v == m { 5 } else { 1 }), 7);
    }

    #[test]
    fn memmin_schedule_is_legal_and_pins_fused_indices() {
        let (space, tree, t1, t2) = fig1(5);
        let r = memmin_dp(&tree, &space);
        let sched = fusion_schedule(&tree, &r.config.lowering(&tree).unwrap());
        // Every fused index of a node must be pinned at its production.
        for id in tree.postorder() {
            if id != tree.root && is_fusable_producer(&tree, id) {
                assert!(
                    r.config.get(id).is_subset(sched.pinned[id.0 as usize]),
                    "node {} fused set not pinned",
                    id.0
                );
            }
        }
        let _ = (t1, t2);
    }

    #[test]
    fn illegal_config_is_rejected() {
        let (space, tree, t1, t2) = fig1(3);
        let mut cfg = FusionConfig::unfused(&tree);
        cfg.set(t2, space.parse_set("b,c,j,k").unwrap());
        cfg.set(t1, space.parse_set("b,c,d,f").unwrap());
        assert!(cfg.lowering(&tree).is_err());
    }
}
