//! Generation of fused loop programs from a fusion configuration.
//!
//! The legal configurations form laminar families of fusion-chain scopes
//! (see [`crate::chains`]), which translate directly into a loop structure:
//! every chain becomes one loop whose body contains the material of the
//! nodes in its scope, nested according to scope inclusion (paper
//! Fig. 1(c)).  Unfused producers become separate top-level nests emitted
//! in evaluation order.
//!
//! *Where* each initialization and production sits is decided once, by
//! [`crate::schedule`]; this module declares the loop variables and the
//! (dimension-reduced) arrays and then lowers the schedule's step tree to
//! loop-IR statements: a chain loop becomes a `Stmt::Loop`, a `Zero` an
//! `Stmt::Init`, and a `Produce` the node's scalar statement wrapped in
//! its *private* loops (its loop indices not covered by the enclosing
//! chains).

use crate::config::{FusionConfig, Lowering};
use crate::schedule::{fusion_schedule, FusionSchedule, ScheduleStep};
use std::collections::HashMap;
use tce_ir::{IndexSet, IndexSpace, Leaf, NodeId, OpKind, OpTree, TensorTable};
use tce_loops::{
    ARef, ArrayId, ArrayKind, BuiltProgram, LoopProgram, LoopVarId, Stmt, Sub, VarRange,
};

/// Build the fused loop program for `tree` under `config`.
///
/// # Panics
/// Panics if `config` is illegal for `tree` (check it first).
pub fn fused_program(
    tree: &OpTree,
    space: &IndexSpace,
    tensors: &TensorTable,
    config: &FusionConfig,
    result_name: &str,
) -> BuiltProgram {
    let lowering = config
        .lowering(tree)
        .expect("fused_program requires a legal configuration");
    lowered_program(tree, space, tensors, &lowering, result_name)
}

/// Emit the program of a checked [`Lowering`]: its chain labels define
/// the loop structure (a label may include *redundant* indices that are
/// not indices of the child — their chains wrap the child's nest and
/// re-execute it, the space-time transformation of paper Fig. 3), while
/// its array configuration defines the array dimensions (only genuinely
/// fused dimensions are eliminated).
pub fn lowered_program(
    tree: &OpTree,
    space: &IndexSpace,
    tensors: &TensorTable,
    lowering: &Lowering,
    result_name: &str,
) -> BuiltProgram {
    let array_config = lowering.array_config();
    let mut p = LoopProgram::new();
    let mut index_var: HashMap<u8, LoopVarId> = HashMap::new();
    let mut node_array: Vec<ArrayId> = vec![ArrayId(u32::MAX); tree.len()];

    // --- declare loop variables (one per source index in use) ---
    let mut all_indices = IndexSet::EMPTY;
    for id in tree.postorder() {
        all_indices = all_indices.union(tree.loop_indices(id));
    }
    for v in all_indices.iter() {
        let lv = p.add_var(space.var_name(v), VarRange::Full(v));
        index_var.insert(v.0, lv);
    }

    // --- declare arrays (dims reduced by each node's parent-edge fusion) ---
    let mut temp_counter = 0usize;
    let mut func_of: HashMap<u32, tce_loops::FuncId> = HashMap::new();
    for id in tree.postorder() {
        match &tree.node(id).kind {
            OpKind::Leaf(Leaf::Input { tensor, indices }) => {
                let dims = indices.iter().map(|&v| VarRange::Full(v)).collect();
                node_array[id.0 as usize] =
                    p.add_array(&tensors.get(*tensor).name, dims, ArrayKind::Input(*tensor));
            }
            OpKind::Leaf(Leaf::One) => {
                node_array[id.0 as usize] = p.add_array("one", Vec::new(), ArrayKind::One);
            }
            OpKind::Leaf(Leaf::Func {
                name,
                cost_per_eval,
                ..
            }) => {
                let f = p.add_func(name, *cost_per_eval);
                func_of.insert(id.0, f);
                temp_counter += 1;
                let dims = remaining_dims(tree, array_config, id);
                node_array[id.0 as usize] =
                    p.add_array(&format!("T{temp_counter}"), dims, ArrayKind::Intermediate);
            }
            OpKind::Contract { .. } => {
                let (name, kind) = if id == tree.root {
                    (result_name.to_string(), ArrayKind::Output)
                } else {
                    temp_counter += 1;
                    (format!("T{temp_counter}"), ArrayKind::Intermediate)
                };
                let dims = remaining_dims(tree, array_config, id);
                node_array[id.0 as usize] = p.add_array(&name, dims, kind);
            }
        }
    }

    // --- body: the placement's step tree, lowered to statements ---
    let schedule = fusion_schedule(tree, lowering);
    p.body = Emitter {
        tree,
        array_config,
        schedule: &schedule,
        index_var: &index_var,
        node_array: &node_array,
        func_of: &func_of,
    }
    .lower(&schedule.steps);

    let built = BuiltProgram {
        program: p,
        node_array,
        index_var,
    };
    debug_assert!(built.program.validate().is_ok());
    built
}

/// Remaining dimensions (canonical ascending order) of the array produced
/// by `id` under `config`.
fn remaining_dims(tree: &OpTree, config: &FusionConfig, id: NodeId) -> Vec<VarRange> {
    config
        .array_indices(tree, id)
        .iter()
        .map(VarRange::Full)
        .collect()
}

/// Lowering of a [`FusionSchedule`] to loop-IR statements.
struct Emitter<'a> {
    tree: &'a OpTree,
    array_config: &'a FusionConfig,
    schedule: &'a FusionSchedule,
    index_var: &'a HashMap<u8, LoopVarId>,
    node_array: &'a [ArrayId],
    func_of: &'a HashMap<u32, tce_loops::FuncId>,
}

impl Emitter<'_> {
    fn lower(&self, steps: &[ScheduleStep]) -> Vec<Stmt> {
        steps
            .iter()
            .map(|step| match step {
                ScheduleStep::Loop { index, body } => Stmt::Loop {
                    var: self.index_var[&index.0],
                    body: self.lower(body),
                },
                ScheduleStep::Zero(v) => Stmt::Init {
                    array: self.node_array[v.0 as usize],
                },
                ScheduleStep::Produce(v) => self.produce(*v),
            })
            .collect()
    }

    /// `v`'s scalar statement inside its private loops: its loop indices
    /// not already pinned by the enclosing chain loops.
    fn produce(&self, v: NodeId) -> Stmt {
        let aref = |id| {
            ref_for(
                self.tree,
                self.array_config,
                id,
                self.node_array,
                self.index_var,
            )
        };
        let stmt = match &self.tree.node(v).kind {
            OpKind::Contract { left, right } => Stmt::Accum {
                lhs: aref(v),
                rhs: vec![aref(*left), aref(*right)],
                coeff: 1.0,
            },
            OpKind::Leaf(Leaf::Func { indices, .. }) => Stmt::Eval {
                lhs: aref(v),
                func: self.func_of[&v.0],
                args: indices
                    .iter()
                    .map(|iv| Sub::Var(self.index_var[&iv.0]))
                    .collect(),
            },
            OpKind::Leaf(_) => unreachable!("only producers are scheduled"),
        };
        let private: Vec<LoopVarId> = self
            .tree
            .loop_indices(v)
            .minus(self.schedule.pinned[v.0 as usize])
            .iter()
            .map(|iv| self.index_var[&iv.0])
            .collect();
        if private.is_empty() {
            stmt
        } else {
            tce_loops::nest(private, vec![stmt])
        }
    }
}

/// Reference to the (possibly dimension-reduced) array of `id`, subscripted
/// by the loop variables of its remaining indices (inputs keep their
/// declared dimension order).
fn ref_for(
    tree: &OpTree,
    config: &FusionConfig,
    id: NodeId,
    node_array: &[ArrayId],
    index_var: &HashMap<u8, LoopVarId>,
) -> ARef {
    let subs: Vec<Sub> = match &tree.node(id).kind {
        OpKind::Leaf(Leaf::Input { indices, .. }) => {
            indices.iter().map(|v| Sub::Var(index_var[&v.0])).collect()
        }
        OpKind::Leaf(Leaf::One) => Vec::new(),
        _ => config
            .array_indices(tree, id)
            .iter()
            .map(|v| Sub::Var(index_var[&v.0]))
            .collect(),
    };
    ARef {
        array: node_array[id.0 as usize],
        subs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::tests::fig1_with_tensors as fig1;
    use crate::memmin::memmin_dp;
    use tce_ir::TensorDecl;
    use tce_loops::{memory_report, op_counts, pretty, ArrayKind};

    #[test]
    fn fig1c_structure_matches_paper() {
        let (space, tensors, tree, t1, t2) = fig1(4);
        let mut cfg = FusionConfig::unfused(&tree);
        cfg.set(t1, space.parse_set("b,c,d,f").unwrap());
        cfg.set(t2, space.parse_set("b,c").unwrap());
        let built = fused_program(&tree, &space, &tensors, &cfg, "S");
        built.program.validate().unwrap();
        let text = pretty(&built.program);
        // Paper Fig 1(c): S init at top; outer loops b, c; T1 a scalar
        // re-initialized per (d,f) iteration; T2 a 2-D array per (b,c).
        let expect = "\
S = 0
for b, c
  T2 = 0
  for d, f
    T1 = 0
    for e, l
      T1 += B[b,e,f,l] * D[c,d,e,l]
    for j, k
      T2[j,k] += T1 * C[d,f,j,k]
  for a, i, j, k
    S[a,b,i,j] += T2[j,k] * A[a,c,i,k]
";
        assert_eq!(text, expect);
    }

    /// The direct program of `tree`: every intermediate at full size.
    fn direct(tree: &OpTree, space: &IndexSpace, tensors: &TensorTable, name: &str) -> LoopProgram {
        lowered_program(tree, space, tensors, &Lowering::unfused(tree), name).program
    }

    #[test]
    fn unfused_lowering_is_the_direct_program() {
        // Paper Fig. 1(b): one perfect nest per contraction over full-size
        // intermediates.
        let (space, tensors, tree, _, _) = fig1(4);
        let p = direct(&tree, &space, &tensors, "S");
        p.validate().unwrap();
        // 4 inputs + T1 + T2 + S; 3 inits + 3 nests; 10 loop variables.
        assert_eq!((p.arrays.len(), p.body.len(), p.vars.len()), (7, 6, 10));
        let expect = "\
T1 = 0
for b, c, d, e, f, l
  T1[b,c,d,f] += B[b,e,f,l] * D[c,d,e,l]
T2 = 0
for b, c, d, f, j, k
  T2[b,c,j,k] += T1[b,c,d,f] * C[d,f,j,k]
S = 0
for a, b, c, i, j, k
  S[a,b,i,j] += T2[b,c,j,k] * A[a,c,i,k]
";
        assert_eq!(pretty(&p), expect);
    }

    #[test]
    fn intermediate_arrays_have_full_dims() {
        let (space, tensors, tree, _, _) = fig1(4);
        let p = direct(&tree, &space, &tensors, "S");
        let array = |name| p.arrays.iter().find(|a| a.name == name).unwrap();
        assert_eq!(array("T1").dims.len(), 4);
        assert_eq!(array("T1").elements(&space), 256); // N^4 at N=4
        assert_eq!(memory_report(&p, &space).temp_elements, 3 * 256);
        assert!(matches!(array("S").kind, ArrayKind::Output));
    }

    #[test]
    fn func_leaves_get_production_nests() {
        // E = Σ_ce f1(c,e)·f2(c,e): each function is materialized by its own
        // nest (Fig. 2) before the contraction reads it.
        let mut space = IndexSpace::new();
        let n = space.add_range("V", 3);
        let c = space.add_var("c", n);
        let e = space.add_var("e", n);
        let mut tree = OpTree::new();
        let f1 = tree.leaf_func("f1", vec![c, e], 1000);
        let f2 = tree.leaf_func("f2", vec![c, e], 1000);
        tree.contract(f1, f2, IndexSet::EMPTY);
        let p = direct(&tree, &space, &TensorTable::new(), "E");
        p.validate().unwrap();
        assert_eq!(p.funcs.len(), 2);
        let expect = "\
for c, e
  T1[c,e] = f1(c, e)
for c, e
  T2[c,e] = f2(c, e)
E = 0
for c, e
  E += T1[c,e] * T2[c,e]
";
        assert_eq!(pretty(&p), expect);
    }

    #[test]
    fn one_leaf_becomes_constant_array() {
        let mut space = IndexSpace::new();
        let n = space.add_range("N", 5);
        let i = space.add_var("i", n);
        let mut tensors = TensorTable::new();
        let ta = tensors.add(TensorDecl::dense("A", vec![n]));
        let mut tree = OpTree::new();
        let la = tree.leaf_input(ta, vec![i]);
        let one = tree.leaf_one();
        tree.contract(la, one, IndexSet::EMPTY);
        let p = direct(&tree, &space, &tensors, "E");
        p.validate().unwrap();
        assert!(p.arrays.iter().any(|a| matches!(a.kind, ArrayKind::One)));
    }

    #[test]
    fn memmin_config_emits_with_reduced_memory_and_same_ops() {
        // Paper Fig. 1: T1 becomes a scalar and T2 an N×N array "without
        // changing the number of operations".
        for n in [5usize, 6] {
            let (space, tensors, tree, _, _) = fig1(n);
            let r = memmin_dp(&tree, &space);
            let built = fused_program(&tree, &space, &tensors, &r.config, "S");
            built.program.validate().unwrap();
            let mem = memory_report(&built.program, &space);
            // temp = T1 + T2 + S(output, N^4).
            assert_eq!(mem.temp_elements, r.memory + (n as u128).pow(4));
            let elements = |name: &str| mem.arrays.iter().find(|a| a.0 == name).unwrap().1;
            assert_eq!(elements("T1"), 1, "N = {n}");
            assert_eq!(elements("T2"), (n as u128).pow(2), "N = {n}");
            let ops = op_counts(&built.program, &space);
            assert_eq!(ops.contraction_flops, tree.total_ops(&space));
            let direct = direct(&tree, &space, &tensors, "S");
            assert_eq!(ops.total(), op_counts(&direct, &space).total());
        }
    }

    #[test]
    fn func_leaf_fusion_emits_eval_inside_chain() {
        // E = Σ_ce f1(c,e)·f2(c,e), fully fused: everything scalar.
        let mut space = IndexSpace::new();
        let n = space.add_range("V", 4);
        let c = space.add_var("c", n);
        let e = space.add_var("e", n);
        let tensors = TensorTable::new();
        let mut tree = OpTree::new();
        let f1 = tree.leaf_func("f1", vec![c, e], 1000);
        let f2 = tree.leaf_func("f2", vec![c, e], 1000);
        tree.contract(f1, f2, IndexSet::EMPTY);
        let mut cfg = FusionConfig::unfused(&tree);
        cfg.set(f1, IndexSet::from_vars([c, e]));
        cfg.set(f2, IndexSet::from_vars([c, e]));
        let built = fused_program(&tree, &space, &tensors, &cfg, "E");
        built.program.validate().unwrap();
        let text = pretty(&built.program);
        let expect = "\
E = 0
for c, e
  T1 = f1(c, e)
  T2 = f2(c, e)
  E += T1 * T2
";
        assert_eq!(text, expect);
        let mem = memory_report(&built.program, &space);
        assert_eq!(mem.temp_elements, 3); // two scalars + scalar output
    }

    #[test]
    fn split_emission_child_subset_of_parent() {
        // R = Σ_xy (Σ_z A[x,z]B[z]) · C[x,y]: mid fused to root on {x};
        // then a deeper producer fused on a subset is emitted between the
        // openings of the root's fused loops.
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
        let mid = tree.contract(la, lb, x.singleton()); // mid[x] = Σ_z A·B
        let lc = tree.leaf_input(tc, vec![x, y]);
        tree.contract(mid, lc, IndexSet::EMPTY); // R = Σ_xy mid·C
        let mut cfg = FusionConfig::unfused(&tree);
        cfg.set(mid, x.singleton());
        cfg.check(&tree).unwrap();
        let built = fused_program(&tree, &space, &tensors, &cfg, "R");
        built.program.validate().unwrap();
        let text = pretty(&built.program);
        let expect = "\
R = 0
for x
  T1 = 0
  for z
    T1 += A[x,z] * B[z]
  for y
    R += T1 * C[x,y]
";
        assert_eq!(text, expect);
    }
}
