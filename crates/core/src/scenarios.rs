//! Canned paper scenarios shared by the examples, the integration tests
//! (`tests/paper_figures.rs` among them) and the `perf/` benchmark.
//!
//! * [`section2_source`] — the §2 running example `S = Σ A·B·C·D`;
//! * [`A3AScenario`] — the §3 `A3A` energy component: `X` contracted from
//!   amplitudes, `Y` contracted from the expensive integrals `f1`/`f2`,
//!   and the scalar energy `E = Σ X·Y`, with *executable* unfused (Fig. 2)
//!   and tiled/partially-fused (Figs. 3–4) loop programs plus the paper's
//!   analytic space/time tables.

use std::collections::HashMap;
use tce_ir::{IndexSet, IndexSpace, IndexVar, NodeId, OpTree, RangeId, TensorDecl, TensorTable};
use tce_loops::{ARef, ArrayKind, LoopProgram, LoopVarId, Stmt, Sub, VarRange};
use tce_tensor::{IntegralFn, Tensor};

/// Source text of the §2 example at extent `n`.
pub fn section2_source(n: usize) -> String {
    format!(
        "
        range N = {n};
        index a, b, c, d, e, f, i, j, k, l : N;
        tensor A(N, N, N, N);
        tensor B(N, N, N, N);
        tensor C(N, N, N, N);
        tensor D(N, N, N, N);
        tensor S(N, N, N, N);
        S[a,b,i,j] = sum[c,d,e,f,k,l] A[a,c,i,k] * B[b,e,f,l] * C[d,f,j,k] * D[c,d,e,l];
    "
    )
}

/// The A3A energy-component scenario of paper §3.
///
/// Index conventions follow the paper: `a, c, e, f, b` are unoccupied
/// ("virtual") orbitals of extent `V`; `i, j, k` are occupied orbitals of
/// extent `O`; `C_i` is the arithmetic cost of one integral evaluation.
#[derive(Debug, Clone)]
pub struct A3AScenario {
    /// Index space (ranges `V`, `O`).
    pub space: IndexSpace,
    /// Tensor table (the amplitude tensor `T[i,j,a,e]`-style input).
    pub tensors: TensorTable,
    /// Virtual-orbital extent.
    pub v_range: RangeId,
    /// Occupied-orbital extent.
    pub o_range: RangeId,
    /// Integral cost `C_i`.
    pub ci: u64,
    /// The operator tree `E = (X)·(Y)` with `X = Σ_ij T·T`,
    /// `Y = Σ_bk f1·f2`.
    pub tree: OpTree,
    /// Node ids: X contraction, T1 leaf (f1), T2 leaf (f2), Y contraction.
    pub x_node: NodeId,
    /// `f1` leaf.
    pub t1_node: NodeId,
    /// `f2` leaf.
    pub t2_node: NodeId,
    /// Y contraction node.
    pub y_node: NodeId,
    /// Index variables `a, c, e, f, b, i, j, k`.
    pub vars: A3AVars,
}

/// The scenario's index variables.
#[derive(Debug, Clone, Copy)]
pub struct A3AVars {
    /// Virtual index `a`.
    pub a: IndexVar,
    /// Virtual index `c`.
    pub c: IndexVar,
    /// Virtual index `e`.
    pub e: IndexVar,
    /// Virtual index `f`.
    pub f: IndexVar,
    /// Virtual index `b`.
    pub b: IndexVar,
    /// Occupied index `i`.
    pub i: IndexVar,
    /// Occupied index `j`.
    pub j: IndexVar,
    /// Occupied index `k`.
    pub k: IndexVar,
}

impl A3AScenario {
    /// Build the scenario at extents `v`, `o` with integral cost `ci`.
    pub fn new(v: usize, o: usize, ci: u64) -> Self {
        let mut space = IndexSpace::new();
        let v_range = space.add_range("V", v);
        let o_range = space.add_range("O", o);
        let vars = A3AVars {
            a: space.add_var("a", v_range),
            c: space.add_var("c", v_range),
            e: space.add_var("e", v_range),
            f: space.add_var("f", v_range),
            b: space.add_var("b", v_range),
            i: space.add_var("i", o_range),
            j: space.add_var("j", o_range),
            k: space.add_var("k", o_range),
        };
        let mut tensors = TensorTable::new();
        // Amplitudes t_ij^{ae}: stored input of shape O×O×V×V.
        let t_amp = tensors.add(TensorDecl::dense(
            "T",
            vec![o_range, o_range, v_range, v_range],
        ));

        let A3AVars {
            a,
            c,
            e,
            f,
            b,
            i,
            j,
            k,
        } = vars;
        let mut tree = OpTree::new();
        let l1 = tree.leaf_input(t_amp, vec![i, j, a, e]);
        let l2 = tree.leaf_input(t_amp, vec![i, j, c, f]);
        let x_node = tree.contract(l1, l2, IndexSet::from_vars([a, e, c, f]));
        let t1_node = tree.leaf_func("f1", vec![c, e, b, k], ci);
        let t2_node = tree.leaf_func("f2", vec![a, f, b, k], ci);
        let y_node = tree.contract(t1_node, t2_node, IndexSet::from_vars([c, e, a, f]));
        tree.contract(x_node, y_node, IndexSet::EMPTY);

        Self {
            space,
            tensors,
            v_range,
            o_range,
            ci,
            tree,
            x_node,
            t1_node,
            t2_node,
            y_node,
            vars,
        }
    }

    /// Current `V` extent.
    pub fn v(&self) -> usize {
        self.space.range_extent(self.v_range)
    }

    /// Current `O` extent.
    pub fn o(&self) -> usize {
        self.space.range_extent(self.o_range)
    }

    /// Deterministic amplitude tensor for execution.
    pub fn amplitudes(&self, seed: u64) -> Tensor {
        let (v, o) = (self.v(), self.o());
        Tensor::random(&[o, o, v, v], seed)
    }

    /// Integral-function bindings (`f1`, `f2`).
    pub fn functions(&self) -> HashMap<String, IntegralFn> {
        let mut m = HashMap::new();
        m.insert("f1".to_string(), IntegralFn::new(self.ci, 0xF1));
        m.insert("f2".to_string(), IntegralFn::new(self.ci, 0xF2));
        m
    }

    /// The paper's Fig. 2 analytic table at the current extents:
    /// `(array, space, time)` rows for `X, T1, T2, Y, E`.
    pub fn fig2_table(&self) -> Vec<(&'static str, u128, u128)> {
        let (v, o, ci) = (self.v() as u128, self.o() as u128, self.ci as u128);
        vec![
            ("X", v.pow(4), v.pow(4) * o.pow(2)),
            ("T1", v.pow(3) * o, ci * v.pow(3) * o),
            ("T2", v.pow(3) * o, ci * v.pow(3) * o),
            ("Y", v.pow(4), v.pow(5) * o),
            ("E", 1, v.pow(4)),
        ]
    }

    /// The Fig. 4 analytic table for block size `bb` (Fig. 3 is `bb = 1`):
    /// `(array, space, time)`.
    pub fn fig4_table(&self, bb: usize) -> Vec<(&'static str, u128, u128)> {
        let (v, o, ci, b) = (
            self.v() as u128,
            self.o() as u128,
            self.ci as u128,
            bb as u128,
        );
        let tiles = (self.v() as u128).div_ceil(b);
        vec![
            ("X", b.pow(4), v.pow(4) * o.pow(2)),
            ("T1", b.pow(2), ci * tiles.pow(2) * v.pow(3) * o),
            ("T2", b.pow(2), ci * tiles.pow(2) * v.pow(3) * o),
            ("Y", b.pow(4), v.pow(5) * o),
            ("E", 1, v.pow(4)),
        ]
    }

    /// Executable unfused program (paper Fig. 2): every intermediate at
    /// full size, maximal reuse of the integral arrays.
    pub fn fig2_program(&self) -> tce_loops::BuiltProgram {
        tce_loops::unfused_program(&self.tree, &self.space, &self.tensors, "E")
    }

    /// Executable tiled / partially-fused program (paper Fig. 4; `bb = 1`
    /// gives the fully-fused Fig. 3, `bb = V` the maximal-reuse Fig. 2
    /// behaviour with block-local buffers).
    ///
    /// Structure, with `a = a_t·B + a_i` etc.:
    ///
    /// ```text
    /// E = 0
    /// for a_t, e_t, c_t, f_t
    ///   X = 0;  for a_i,e_i,c_i,f_i { for i,j { X[..] += T·T } }
    ///   Y = 0
    ///   for b, k
    ///     for c_i,e_i { T1[c_i,e_i] = f1(c,e,b,k) }
    ///     for a_i,f_i { T2[a_i,f_i] = f2(a,f,b,k) }
    ///     for c_i,e_i,a_i,f_i { Y[..] += T1·T2 }
    ///   for c_i,e_i,a_i,f_i { E += X·Y }
    /// ```
    pub fn fig4_program(&self, bb: usize) -> LoopProgram {
        let A3AVars {
            a,
            c,
            e,
            f,
            b,
            i,
            j,
            k,
        } = self.vars;
        let mut p = LoopProgram::new();
        let tile = |p: &mut LoopProgram, v: IndexVar, name: &str| -> (LoopVarId, LoopVarId) {
            let vt = p.add_var(
                &format!("{name}_t"),
                VarRange::Tile {
                    index: v,
                    block: bb,
                },
            );
            let vi = p.add_var(
                &format!("{name}_i"),
                VarRange::Intra {
                    index: v,
                    block: bb,
                },
            );
            (vt, vi)
        };
        let (at, ai) = tile(&mut p, a, "a");
        let (et, ei) = tile(&mut p, e, "e");
        let (ct, ci_) = tile(&mut p, c, "c");
        let (ft, fi) = tile(&mut p, f, "f");
        let vb = p.add_var("b", VarRange::Full(b));
        let vk = p.add_var("k", VarRange::Full(k));
        let vi_ = p.add_var("i", VarRange::Full(i));
        let vj = p.add_var("j", VarRange::Full(j));

        let intra = |v: IndexVar| VarRange::Intra {
            index: v,
            block: bb,
        };
        let t_amp = self.tensors.by_name("T").unwrap();
        let arr_t = p.add_array(
            "T",
            vec![
                VarRange::Full(i),
                VarRange::Full(j),
                VarRange::Full(a),
                VarRange::Full(e),
            ],
            ArrayKind::Input(t_amp),
        );
        // NOTE: the amplitude tensor is referenced twice with different
        // index patterns (T_ijae and T_ijcf); both go through `arr_t`.
        let arr_x = p.add_array(
            "X",
            vec![intra(a), intra(e), intra(c), intra(f)],
            ArrayKind::Intermediate,
        );
        let arr_t1 = p.add_array("T1", vec![intra(c), intra(e)], ArrayKind::Intermediate);
        let arr_t2 = p.add_array("T2", vec![intra(a), intra(f)], ArrayKind::Intermediate);
        let arr_y = p.add_array(
            "Y",
            vec![intra(c), intra(e), intra(a), intra(f)],
            ArrayKind::Intermediate,
        );
        let arr_e = p.add_array("E", vec![], ArrayKind::Output);
        let f1 = p.add_func("f1", self.ci);
        let f2 = p.add_func("f2", self.ci);

        let full = |tv: LoopVarId, iv: LoopVarId| Sub::Tiled {
            tile: tv,
            intra: iv,
            block: bb,
        };
        let (sa, se, sc, sf) = (full(at, ai), full(et, ei), full(ct, ci_), full(ft, fi));

        // X block: for a_i,e_i,c_i,f_i { for i,j { X += T_ijae·T_ijcf } }
        let x_nest = tce_loops::nest(
            vec![ai, ei, ci_, fi, vi_, vj],
            vec![Stmt::Accum {
                lhs: ARef {
                    array: arr_x,
                    subs: vec![Sub::Var(ai), Sub::Var(ei), Sub::Var(ci_), Sub::Var(fi)],
                },
                rhs: vec![
                    ARef {
                        array: arr_t,
                        subs: vec![Sub::Var(vi_), Sub::Var(vj), sa, se],
                    },
                    ARef {
                        array: arr_t,
                        subs: vec![Sub::Var(vi_), Sub::Var(vj), sc, sf],
                    },
                ],
                coeff: 1.0,
            }],
        );
        // Integral blocks + Y accumulation inside b,k.
        let t1_nest = tce_loops::nest(
            vec![ci_, ei],
            vec![Stmt::Eval {
                lhs: ARef {
                    array: arr_t1,
                    subs: vec![Sub::Var(ci_), Sub::Var(ei)],
                },
                func: f1,
                args: vec![sc, se, Sub::Var(vb), Sub::Var(vk)],
            }],
        );
        let t2_nest = tce_loops::nest(
            vec![ai, fi],
            vec![Stmt::Eval {
                lhs: ARef {
                    array: arr_t2,
                    subs: vec![Sub::Var(ai), Sub::Var(fi)],
                },
                func: f2,
                args: vec![sa, sf, Sub::Var(vb), Sub::Var(vk)],
            }],
        );
        let y_nest = tce_loops::nest(
            vec![ci_, ei, ai, fi],
            vec![Stmt::Accum {
                lhs: ARef {
                    array: arr_y,
                    subs: vec![Sub::Var(ci_), Sub::Var(ei), Sub::Var(ai), Sub::Var(fi)],
                },
                rhs: vec![
                    ARef {
                        array: arr_t1,
                        subs: vec![Sub::Var(ci_), Sub::Var(ei)],
                    },
                    ARef {
                        array: arr_t2,
                        subs: vec![Sub::Var(ai), Sub::Var(fi)],
                    },
                ],
                coeff: 1.0,
            }],
        );
        let bk_nest = tce_loops::nest(vec![vb, vk], vec![t1_nest, t2_nest, y_nest]);
        // E accumulation.
        let e_nest = tce_loops::nest(
            vec![ci_, ei, ai, fi],
            vec![Stmt::Accum {
                lhs: ARef {
                    array: arr_e,
                    subs: vec![],
                },
                rhs: vec![
                    ARef {
                        array: arr_x,
                        subs: vec![Sub::Var(ai), Sub::Var(ei), Sub::Var(ci_), Sub::Var(fi)],
                    },
                    ARef {
                        array: arr_y,
                        subs: vec![Sub::Var(ci_), Sub::Var(ei), Sub::Var(ai), Sub::Var(fi)],
                    },
                ],
                coeff: 1.0,
            }],
        );

        p.body.push(Stmt::Init { array: arr_e });
        p.body.push(tce_loops::nest(
            vec![at, et, ct, ft],
            vec![
                Stmt::Init { array: arr_x },
                x_nest,
                Stmt::Init { array: arr_y },
                bk_nest,
                e_nest,
            ],
        ));
        p.validate().expect("fig4 program well-formed");
        p
    }

    /// Reference value of `E` computed from first principles (dense
    /// materialization of X and Y, then the dot product).
    pub fn reference_energy(&self, amplitudes: &Tensor) -> f64 {
        let funcs = self.functions();
        let mut inputs = HashMap::new();
        inputs.insert(self.tensors.by_name("T").unwrap(), amplitudes);
        let out = tce_exec::execute_tree(&self.tree, &self.space, &inputs, &funcs, 1)
            .expect("scenario bindings are complete");
        out.get(&[])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tce_exec::{Interpreter, NoSink};

    #[test]
    fn fig4_program_matches_reference_for_every_block_size() {
        let sc = A3AScenario::new(4, 2, 50);
        let amps = sc.amplitudes(1);
        let expect = sc.reference_energy(&amps);
        let mut inputs = HashMap::new();
        inputs.insert(sc.tensors.by_name("T").unwrap(), &amps);
        let funcs = sc.functions();
        for bb in [1usize, 2, 3, 4] {
            let p = sc.fig4_program(bb);
            let mut interp = Interpreter::new(&p, &sc.space, &inputs, &funcs).unwrap();
            interp.run(&mut NoSink);
            let got = interp.output().get(&[]);
            assert!(
                (got - expect).abs() <= 1e-9 * expect.abs().max(1.0),
                "B = {bb}: {got} vs {expect}"
            );
        }
    }

    #[test]
    fn fig4_measured_integral_evals_match_table() {
        let sc = A3AScenario::new(4, 2, 50);
        let amps = sc.amplitudes(2);
        let mut inputs = HashMap::new();
        inputs.insert(sc.tensors.by_name("T").unwrap(), &amps);
        let funcs = sc.functions();
        for bb in [1usize, 2, 4] {
            let p = sc.fig4_program(bb);
            let mut interp = Interpreter::new(&p, &sc.space, &inputs, &funcs).unwrap();
            interp.run(&mut NoSink);
            // Table row T1: C_i·(V/B)²·V³·O flops → evals = (V/B)²·V³·O...
            // per function: V²(intra c,e)·(V/B)²(tiles)·V(b)·O(k)
            //             = (V/B)²·V³·O... at V=4: tiles=(4/B)².
            let table = sc.fig4_table(bb);
            let expect_flops = table[1].2 + table[2].2;
            assert_eq!(interp.stats.func_flops, expect_flops, "B = {bb}");
            // Memory: X + Y + T1 + T2 (+ scalar E output).
            let expect_mem: u128 = table[..4].iter().map(|r| r.1).sum::<u128>() + 1;
            assert_eq!(interp.allocated_temp_elements(), expect_mem, "B = {bb}");
        }
    }

    #[test]
    fn fig2_unfused_costs_match_table() {
        // Paper scale: "With O=100 and V=5000, the size of T1, T2 is
        // O(10^14) bytes and the size of X, Y is O(10^15) bytes."
        let paper = A3AScenario::new(5000, 100, 1000).fig2_table();
        assert!((1e13..1e15).contains(&(8.0 * paper[1].1 as f64)));
        assert!((1e14..1e16).contains(&(8.0 * paper[0].1 as f64)));

        for (v, o, ci) in [(4, 2, 50), (6, 3, 200)] {
            let sc = A3AScenario::new(v, o, ci);
            let built = sc.fig2_program();
            let mem = tce_loops::memory_report(&built.program, &sc.space);
            let table = sc.fig2_table();
            // X, T1, T2, Y + scalar E.
            let expect_mem: u128 = table[..4].iter().map(|r| r.1).sum::<u128>() + 1;
            assert_eq!(mem.temp_elements, expect_mem);
            let ops = tce_loops::op_counts(&built.program, &sc.space);
            // T1/T2 rows are the integral flops.
            assert_eq!(ops.func_flops, table[1].2 + table[2].2);
            // X and Y rows are contraction iteration spaces ×2; E row ×2.
            assert_eq!(
                ops.contraction_flops,
                2 * (table[0].2 + table[3].2 + table[4].2)
            );

            // The executed program counts the same flops and computes E.
            let amps = sc.amplitudes(1);
            let mut inputs = HashMap::new();
            inputs.insert(sc.tensors.by_name("T").unwrap(), &amps);
            let funcs = sc.functions();
            let mut interp = Interpreter::new(&built.program, &sc.space, &inputs, &funcs).unwrap();
            interp.run(&mut NoSink);
            assert_eq!(interp.stats.func_flops, ops.func_flops);
            assert_eq!(interp.stats.contraction_flops, ops.contraction_flops);
            let expect = sc.reference_energy(&amps);
            assert!((interp.output().get(&[]) - expect).abs() < 1e-9 * expect.abs().max(1.0));
        }
    }

    #[test]
    fn section2_source_compiles() {
        let prog = tce_lang::compile(&section2_source(4)).unwrap();
        assert_eq!(prog.stmts.len(), 1);
    }
}
