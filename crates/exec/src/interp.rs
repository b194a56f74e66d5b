//! Interpreter for loop programs.
//!
//! Executes a [`tce_loops::LoopProgram`] against real dense tensors,
//! counting operations, function evaluations and element accesses.  Every
//! transformation in the framework (operation minimization, fusion,
//! tiling, locality blocking) is verified by running the transformed
//! program here and comparing against the reference einsum — the
//! interpreter is the semantic oracle of the whole reproduction.
//!
//! Tiled subscripts `tile·B + intra` may reconstruct an index beyond its
//! extent when the block does not divide it; such iterations are skipped,
//! matching the `min(N, (t+1)·B)` upper bounds of real tiled code.

use crate::error::ExecError;
use std::collections::HashMap;
use tce_ir::{IndexSpace, TensorId};
use tce_loops::{ARef, ArrayKind, LoopProgram, Stmt, Sub, VarRange};
use tce_tensor::{IntegralFn, Tensor};

/// Execution statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Multiply/add flops performed by `Accum` statements (`k` per
    /// iteration for `k` operands).
    pub contraction_flops: u128,
    /// Primitive-function evaluations performed.
    pub func_evals: u128,
    /// Flops attributed to primitive functions (`Σ evals · C_i`).
    pub func_flops: u128,
    /// Array element reads.
    pub reads: u128,
    /// Array element writes.
    pub writes: u128,
}

impl ExecStats {
    /// Total flops.
    pub fn total_flops(&self) -> u128 {
        self.contraction_flops + self.func_flops
    }
}

/// Observer for element-level accesses (e.g. the cache simulator).
/// Addresses are `(array id, flat element offset)`.
pub trait AccessSink {
    /// Called on each element read or write.
    fn access(&mut self, array: u32, offset: usize);
}

/// A sink that ignores accesses.
pub struct NoSink;

impl AccessSink for NoSink {
    fn access(&mut self, _: u32, _: usize) {}
}

/// The interpreter: owns storage for every non-input array.
pub struct Interpreter<'a> {
    program: &'a LoopProgram,
    space: &'a IndexSpace,
    /// Storage per array (inputs are cloned in at bind time).
    storage: Vec<Tensor>,
    /// Integral functions by `FuncId` index.
    funcs: Vec<IntegralFn>,
    /// Statistics of the last `run`.
    pub stats: ExecStats,
}

impl<'a> Interpreter<'a> {
    /// Create an interpreter; `inputs` binds declared input tensors,
    /// `funcs` binds primitive functions by name.
    ///
    /// Returns an [`ExecError`] if the program fails validation, an input
    /// binding is missing or has the wrong shape, or a function binding
    /// is missing.
    pub fn new(
        program: &'a LoopProgram,
        space: &'a IndexSpace,
        inputs: &HashMap<TensorId, &Tensor>,
        funcs: &HashMap<String, IntegralFn>,
    ) -> Result<Self, ExecError> {
        program
            .validate()
            .map_err(|e| ExecError::InvalidProgram { reason: e })?;
        let mut storage: Vec<Tensor> = Vec::with_capacity(program.arrays.len());
        for a in &program.arrays {
            let shape: Vec<usize> = a
                .dims
                .iter()
                .map(|d| match *d {
                    VarRange::Full(v) => space.extent(v),
                    VarRange::Tile { index, block } => space.extent(index).div_ceil(block),
                    VarRange::Intra { block, .. } => block,
                })
                .collect();
            storage.push(match &a.kind {
                ArrayKind::Input(t) => {
                    let bound = inputs.get(t).ok_or_else(|| ExecError::MissingInput {
                        name: a.name.clone(),
                    })?;
                    if bound.shape() != &shape[..] {
                        return Err(ExecError::InputShapeMismatch {
                            name: a.name.clone(),
                            expect: shape,
                            got: bound.shape().to_vec(),
                        });
                    }
                    (*bound).clone()
                }
                ArrayKind::One => Tensor::from_elem(&shape, 1.0),
                _ => Tensor::zeros(&shape),
            });
        }
        let mut bound_funcs: Vec<IntegralFn> = Vec::with_capacity(program.funcs.len());
        for f in &program.funcs {
            bound_funcs.push(
                funcs
                    .get(&f.name)
                    .ok_or_else(|| ExecError::MissingFunction {
                        name: f.name.clone(),
                    })?
                    .clone(),
            );
        }
        Ok(Self {
            program,
            space,
            storage,
            funcs: bound_funcs,
            stats: ExecStats::default(),
        })
    }

    /// Total elements allocated for intermediates and outputs — the
    /// measured counterpart of the memory-minimization metric.
    pub fn allocated_temp_elements(&self) -> u128 {
        self.program
            .arrays
            .iter()
            .zip(&self.storage)
            .filter(|(a, _)| matches!(a.kind, ArrayKind::Intermediate | ArrayKind::Output))
            .map(|(_, t)| t.len() as u128)
            .sum()
    }

    /// Run the program.  `sink` observes every element access.
    pub fn run(&mut self, sink: &mut dyn AccessSink) {
        let _span = tce_trace::span("interp.run");
        self.stats = ExecStats::default();
        let mut env = vec![0usize; self.program.vars.len()];
        // Split borrows: move body out temporarily is impossible (shared);
        // instead walk via indices.
        let body = &self.program.body;
        let mut ctx = Ctx {
            program: self.program,
            space: self.space,
            storage: &mut self.storage,
            funcs: &self.funcs,
            stats: &mut self.stats,
        };
        exec_stmts(&mut ctx, body, &mut env, sink);
        // Stats accumulate locally during the walk; one counter flush per
        // run keeps the statement dispatch free of trace calls.
        if tce_trace::enabled() {
            tce_trace::counter_u128("exec.interp.flops", self.stats.total_flops());
            tce_trace::counter_u128("exec.interp.reads", self.stats.reads);
            tce_trace::counter_u128("exec.interp.writes", self.stats.writes);
            tce_trace::counter_u128("exec.interp.func_evals", self.stats.func_evals);
        }
    }

    /// Locate the program's unique output array.
    ///
    /// # Panics
    /// Panics if there is not exactly one output array.
    pub fn output(&self) -> &Tensor {
        let mut found = None;
        for (i, a) in self.program.arrays.iter().enumerate() {
            if matches!(a.kind, ArrayKind::Output) {
                assert!(found.is_none(), "multiple output arrays");
                found = Some(i);
            }
        }
        &self.storage[found.expect("no output array")]
    }
}

struct Ctx<'b, 'a> {
    program: &'a LoopProgram,
    space: &'a IndexSpace,
    storage: &'b mut Vec<Tensor>,
    funcs: &'b [IntegralFn],
    stats: &'b mut ExecStats,
}

/// Evaluate a subscript; `None` when a tiled reconstruction exceeds the
/// source extent (iteration must be skipped).
fn eval_sub(ctx: &Ctx, s: &Sub, env: &[usize]) -> Option<usize> {
    match *s {
        Sub::Var(v) => Some(env[v.0 as usize]),
        Sub::Tiled { tile, intra, block } => {
            let idx = env[tile.0 as usize] * block + env[intra.0 as usize];
            let source = ctx.program.var(tile).source_index();
            if idx < ctx.space.extent(source) {
                Some(idx)
            } else {
                None
            }
        }
    }
}

/// Evaluate all subscripts of a reference into `out`; false → skip.
fn eval_ref(ctx: &Ctx, r: &ARef, env: &[usize], out: &mut Vec<usize>) -> bool {
    out.clear();
    for s in &r.subs {
        match eval_sub(ctx, s, env) {
            Some(i) => out.push(i),
            None => return false,
        }
    }
    true
}

fn exec_stmts(ctx: &mut Ctx, stmts: &[Stmt], env: &mut Vec<usize>, sink: &mut dyn AccessSink) {
    for s in stmts {
        match s {
            Stmt::Loop { var, body } => {
                let extent = ctx.program.var(*var).extent(ctx.space);
                for i in 0..extent {
                    env[var.0 as usize] = i;
                    exec_stmts(ctx, body, env, sink);
                }
            }
            Stmt::Init { array } => {
                ctx.storage[array.0 as usize].fill_zero();
                ctx.stats.writes += ctx.storage[array.0 as usize].len() as u128;
            }
            Stmt::Accum { lhs, rhs, coeff } => {
                let mut idx = Vec::new();
                let mut prod = *coeff;
                let mut ok = true;
                for r in rhs {
                    if !eval_ref(ctx, r, env, &mut idx) {
                        ok = false;
                        break;
                    }
                    let t = &ctx.storage[r.array.0 as usize];
                    let off = t.offset(&idx);
                    sink.access(r.array.0, off);
                    prod *= t.data()[off];
                }
                if !ok {
                    continue;
                }
                if !eval_ref(ctx, lhs, env, &mut idx) {
                    continue;
                }
                let t = &mut ctx.storage[lhs.array.0 as usize];
                let off = t.offset(&idx);
                sink.access(lhs.array.0, off);
                t.data_mut()[off] += prod;
                ctx.stats.reads += rhs.len() as u128;
                ctx.stats.writes += 1;
                ctx.stats.contraction_flops += rhs.len().max(2) as u128;
            }
            Stmt::Eval { lhs, func, args } => {
                let mut argv = Vec::with_capacity(args.len());
                let mut ok = true;
                for a in args {
                    match eval_sub(ctx, a, env) {
                        Some(i) => argv.push(i),
                        None => {
                            ok = false;
                            break;
                        }
                    }
                }
                if !ok {
                    continue;
                }
                let mut idx = Vec::new();
                if !eval_ref(ctx, lhs, env, &mut idx) {
                    continue;
                }
                let f = &ctx.funcs[func.0 as usize];
                let value = f.eval(&argv);
                let t = &mut ctx.storage[lhs.array.0 as usize];
                let off = t.offset(&idx);
                sink.access(lhs.array.0, off);
                t.data_mut()[off] = value;
                ctx.stats.writes += 1;
                ctx.stats.func_evals += 1;
                ctx.stats.func_flops += f.cost as u128;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tce_ir::{IndexSet, OpTree, TensorDecl, TensorTable};
    use tce_loops::unfused_program;
    use tce_tensor::EinsumSpec;

    fn fig1(n_ext: usize) -> (IndexSpace, TensorTable, OpTree) {
        let mut space = IndexSpace::new();
        let n = space.add_range("N", n_ext);
        let vs = space.add_vars("a b c d e f i j k l", n);
        let (a, b, c, d, e, f, i, j, k, l) = (
            vs[0], vs[1], vs[2], vs[3], vs[4], vs[5], vs[6], vs[7], vs[8], vs[9],
        );
        let mut tensors = TensorTable::new();
        let ta = tensors.add(TensorDecl::dense("A", vec![n; 4]));
        let tb = tensors.add(TensorDecl::dense("B", vec![n; 4]));
        let tc = tensors.add(TensorDecl::dense("C", vec![n; 4]));
        let td = tensors.add(TensorDecl::dense("D", vec![n; 4]));
        let mut tree = OpTree::new();
        let lb = tree.leaf_input(tb, vec![b, e, f, l]);
        let ld = tree.leaf_input(td, vec![c, d, e, l]);
        let t1 = tree.contract(lb, ld, IndexSet::from_vars([b, c, d, f]));
        let lc = tree.leaf_input(tc, vec![d, f, j, k]);
        let t2 = tree.contract(t1, lc, IndexSet::from_vars([b, c, j, k]));
        let la = tree.leaf_input(ta, vec![a, c, i, k]);
        tree.contract(t2, la, IndexSet::from_vars([a, b, i, j]));
        (space, tensors, tree)
    }

    /// Reference result of the §2 expression via the naive einsum.
    fn reference(space: &IndexSpace, tensors: &[&Tensor]) -> Tensor {
        let v = |n: &str, sp: &IndexSpace| sp.var_by_name(n).unwrap();
        let sp = space;
        let (a, b, c, d, e, f, i, j, k, l) = (
            v("a", sp),
            v("b", sp),
            v("c", sp),
            v("d", sp),
            v("e", sp),
            v("f", sp),
            v("i", sp),
            v("j", sp),
            v("k", sp),
            v("l", sp),
        );
        let spec = EinsumSpec::new(
            vec![a, b, i, j],
            vec![
                vec![a, c, i, k],
                vec![b, e, f, l],
                vec![d, f, j, k],
                vec![c, d, e, l],
            ],
            IndexSet::from_vars([c, d, e, f, k, l]),
        )
        .unwrap();
        spec.eval(sp, tensors)
    }

    #[test]
    fn unfused_program_matches_reference_einsum() {
        let (space, tensors, tree) = fig1(3);
        let built = unfused_program(&tree, &space, &tensors, "S");
        let shape = [3usize; 4];
        let ta = Tensor::random(&shape, 1);
        let tb = Tensor::random(&shape, 2);
        let tc = Tensor::random(&shape, 3);
        let td = Tensor::random(&shape, 4);
        let mut inputs = HashMap::new();
        inputs.insert(tensors.by_name("A").unwrap(), &ta);
        inputs.insert(tensors.by_name("B").unwrap(), &tb);
        inputs.insert(tensors.by_name("C").unwrap(), &tc);
        inputs.insert(tensors.by_name("D").unwrap(), &td);
        let mut interp =
            Interpreter::new(&built.program, &space, &inputs, &HashMap::new()).unwrap();
        interp.run(&mut NoSink);
        let expect = reference(&space, &[&ta, &tb, &tc, &td]);
        assert!(interp.output().approx_eq(&expect, 1e-9));
        // Measured flops equal the tree cost model: 6·N^6.
        assert_eq!(interp.stats.contraction_flops, 6 * 3u128.pow(6));
    }

    #[test]
    fn fused_program_matches_reference_einsum() {
        use tce_fusion::{fused_program, memmin_dp};
        let (space, tensors, tree) = fig1(3);
        let r = memmin_dp(&tree, &space);
        let built = fused_program(&tree, &space, &tensors, &r.config, "S");
        let shape = [3usize; 4];
        let ta = Tensor::random(&shape, 5);
        let tb = Tensor::random(&shape, 6);
        let tc = Tensor::random(&shape, 7);
        let td = Tensor::random(&shape, 8);
        let mut inputs = HashMap::new();
        inputs.insert(tensors.by_name("A").unwrap(), &ta);
        inputs.insert(tensors.by_name("B").unwrap(), &tb);
        inputs.insert(tensors.by_name("C").unwrap(), &tc);
        inputs.insert(tensors.by_name("D").unwrap(), &td);
        let mut interp =
            Interpreter::new(&built.program, &space, &inputs, &HashMap::new()).unwrap();
        interp.run(&mut NoSink);
        let expect = reference(&space, &[&ta, &tb, &tc, &td]);
        assert!(interp.output().approx_eq(&expect, 1e-9));
        // Fusion preserves the operation count...
        assert_eq!(interp.stats.contraction_flops, 6 * 3u128.pow(6));
        // ...and shrinks allocated temporaries to S + T2(j,k) + T1 scalar.
        assert_eq!(interp.allocated_temp_elements(), 81 + 9 + 1);

        // Paper Fig. 1(c) against Fig. 1(b) at N = 6, past the einsum's
        // reach: the fused code computes the unfused code's values.
        let (space, tensors, tree) = fig1(6);
        let r = memmin_dp(&tree, &space);
        let data: Vec<Tensor> = (0..4).map(|s| Tensor::random(&[6; 4], 100 + s)).collect();
        let inputs: HashMap<_, _> = ["A", "B", "C", "D"]
            .iter()
            .zip(&data)
            .map(|(nm, t)| (tensors.by_name(nm).unwrap(), t))
            .collect();
        let run = |p: &LoopProgram| {
            let mut i = Interpreter::new(p, &space, &inputs, &HashMap::new()).unwrap();
            i.run(&mut NoSink);
            i.output().clone()
        };
        let fused = run(&fused_program(&tree, &space, &tensors, &r.config, "S").program);
        let unfused = run(&unfused_program(&tree, &space, &tensors, "S").program);
        assert!(fused.approx_eq(&unfused, 1e-9));
    }

    #[test]
    fn func_evals_counted_and_deterministic() {
        let mut space = IndexSpace::new();
        let n = space.add_range("V", 4);
        let c = space.add_var("c", n);
        let e = space.add_var("e", n);
        let tensors = TensorTable::new();
        let mut tree = OpTree::new();
        let f1 = tree.leaf_func("f1", vec![c, e], 100);
        let f2 = tree.leaf_func("f2", vec![c, e], 100);
        tree.contract(f1, f2, IndexSet::EMPTY);
        let built = unfused_program(&tree, &space, &tensors, "E");
        let mut funcs = HashMap::new();
        funcs.insert("f1".to_string(), IntegralFn::new(100, 1));
        funcs.insert("f2".to_string(), IntegralFn::new(100, 2));
        let mut interp = Interpreter::new(&built.program, &space, &HashMap::new(), &funcs).unwrap();
        interp.run(&mut NoSink);
        let first = interp.output().get(&[]);
        assert_eq!(interp.stats.func_evals, 2 * 16);
        assert_eq!(interp.stats.func_flops, 2 * 16 * 100);
        // Re-running gives the identical value (deterministic integrals).
        interp.run(&mut NoSink);
        assert_eq!(interp.output().get(&[]), first);
    }

    #[test]
    fn tiled_subscripts_skip_out_of_range() {
        use tce_loops::{ARef, ArrayKind, LoopProgram, Stmt, Sub, VarRange};
        // X[i] = f(i) written via tiles of 4 over extent 6: the last tile
        // is ragged; out-of-range iterations must be skipped.
        let mut space = IndexSpace::new();
        let n = space.add_range("N", 6);
        let i = space.add_var("i", n);
        let mut p = LoopProgram::new();
        let it = p.add_var("i_t", VarRange::Tile { index: i, block: 4 });
        let ii = p.add_var("i_i", VarRange::Intra { index: i, block: 4 });
        let arr = p.add_array("X", vec![VarRange::Full(i)], ArrayKind::Output);
        let f = p.add_func("g", 10);
        let sub = Sub::Tiled {
            tile: it,
            intra: ii,
            block: 4,
        };
        p.body.push(Stmt::Loop {
            var: it,
            body: vec![Stmt::Loop {
                var: ii,
                body: vec![Stmt::Eval {
                    lhs: ARef {
                        array: arr,
                        subs: vec![sub],
                    },
                    func: f,
                    args: vec![sub],
                }],
            }],
        });
        let mut funcs = HashMap::new();
        funcs.insert("g".to_string(), IntegralFn::new(10, 9));
        let mut interp = Interpreter::new(&p, &space, &HashMap::new(), &funcs).unwrap();
        interp.run(&mut NoSink);
        // 2 tiles × 4 intra = 8 iterations, 2 skipped.
        assert_eq!(interp.stats.func_evals, 6);
        let g = IntegralFn::new(10, 9);
        for idx in 0..6 {
            assert_eq!(interp.output().get(&[idx]), g.eval(&[idx]));
        }
    }

    #[test]
    fn missing_input_binding_is_a_typed_error() {
        let (space, tensors, tree) = fig1(2);
        let built = unfused_program(&tree, &space, &tensors, "S");
        let err = Interpreter::new(&built.program, &space, &HashMap::new(), &HashMap::new())
            .map(|_| ())
            .unwrap_err();
        assert!(
            matches!(err, ExecError::MissingInput { ref name } if name == "B"),
            "{err}"
        );
        // Wrong shape is reported too.
        let bad = Tensor::random(&[2; 3], 1);
        let mut inputs = HashMap::new();
        for nm in ["A", "B", "C", "D"] {
            inputs.insert(tensors.by_name(nm).unwrap(), &bad);
        }
        let err = Interpreter::new(&built.program, &space, &inputs, &HashMap::new())
            .map(|_| ())
            .unwrap_err();
        assert!(matches!(err, ExecError::InputShapeMismatch { .. }), "{err}");
    }

    #[test]
    fn access_sink_sees_reads_and_writes() {
        struct Count(u64);
        impl AccessSink for Count {
            fn access(&mut self, _: u32, _: usize) {
                self.0 += 1;
            }
        }
        let (space, tensors, tree) = fig1(2);
        let built = unfused_program(&tree, &space, &tensors, "S");
        let shape = [2usize; 4];
        let t = Tensor::random(&shape, 1);
        let mut inputs = HashMap::new();
        for nm in ["A", "B", "C", "D"] {
            inputs.insert(tensors.by_name(nm).unwrap(), &t);
        }
        let mut interp =
            Interpreter::new(&built.program, &space, &inputs, &HashMap::new()).unwrap();
        let mut sink = Count(0);
        interp.run(&mut sink);
        // 3 accesses per Accum iteration × 3 nests of 2^6 iterations.
        assert_eq!(sink.0, 3 * 3 * 64);
    }
}
