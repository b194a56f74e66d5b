//! Static analyses over loop programs: memory, operation counts and
//! distinct-elements-accessed (the primitive of the paper's §6 cost model).

use crate::ir::{ARef, ArrayKind, LoopProgram, Stmt, Sub};
use tce_ir::IndexSpace;

/// Operation counts of a loop program under the current extents.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OpCounts {
    /// Multiply/add flops performed by `Accum` statements
    /// (`k` flops per iteration for a `k`-operand product: `k−1` multiplies
    /// and one add).
    pub contraction_flops: u128,
    /// Number of primitive-function evaluations.
    pub func_evals: u128,
    /// Flops spent inside primitive functions (`Σ evals · C_i`).
    pub func_flops: u128,
}

impl OpCounts {
    /// Total flops.
    pub fn total(&self) -> u128 {
        self.contraction_flops.saturating_add(self.func_flops)
    }
}

/// Count operations by walking the loop structure.
pub fn op_counts(p: &LoopProgram, space: &IndexSpace) -> OpCounts {
    fn walk(p: &LoopProgram, space: &IndexSpace, stmts: &[Stmt], iters: u128, out: &mut OpCounts) {
        for s in stmts {
            match s {
                Stmt::Loop { var, body } => {
                    let e = p.var(*var).extent(space) as u128;
                    walk(p, space, body, iters.saturating_mul(e), out);
                }
                Stmt::Init { .. } => {}
                Stmt::Accum { rhs, .. } => {
                    out.contraction_flops = out
                        .contraction_flops
                        .saturating_add(iters.saturating_mul(rhs.len().max(2) as u128));
                }
                Stmt::Eval { func, .. } => {
                    out.func_evals = out.func_evals.saturating_add(iters);
                    out.func_flops = out
                        .func_flops
                        .saturating_add(iters.saturating_mul(p.func(*func).cost_per_eval as u128));
                }
            }
        }
    }
    let mut out = OpCounts::default();
    walk(p, space, &p.body, 1, &mut out);
    out
}

/// Per-array storage report.
#[derive(Debug, Clone)]
pub struct MemoryReport {
    /// `(name, elements, kind)` per array, in declaration order.
    pub arrays: Vec<(String, u128, ArrayKind)>,
    /// Sum of elements over intermediates and outputs (the paper's "total
    /// memory for temporaries" metric; inputs are given).
    pub temp_elements: u128,
    /// Sum over inputs.
    pub input_elements: u128,
}

/// Compute the storage report.
pub fn memory_report(p: &LoopProgram, space: &IndexSpace) -> MemoryReport {
    let mut arrays = Vec::with_capacity(p.arrays.len());
    let mut temp = 0u128;
    let mut input = 0u128;
    for a in &p.arrays {
        let elems = a.elements(space);
        match a.kind {
            ArrayKind::Input(_) => input = input.saturating_add(elems),
            ArrayKind::Intermediate | ArrayKind::Output => temp = temp.saturating_add(elems),
            ArrayKind::One => {}
        }
        arrays.push((a.name.clone(), elems, a.kind.clone()));
    }
    MemoryReport {
        arrays,
        temp_elements: temp,
        input_elements: input,
    }
}

/// Number of distinct values a subscript takes while the variables in
/// `varying` iterate (`varying` is indexed by `LoopVarId.0`).
fn sub_span(p: &LoopProgram, space: &IndexSpace, s: &Sub, varying: &[bool]) -> u128 {
    match *s {
        Sub::Var(v) => {
            if varying[v.0 as usize] {
                p.var(v).extent(space) as u128
            } else {
                1
            }
        }
        Sub::Tiled { tile, intra, .. } => {
            let t = if varying[tile.0 as usize] {
                p.var(tile).extent(space) as u128
            } else {
                1
            };
            let i = if varying[intra.0 as usize] {
                p.var(intra).extent(space) as u128
            } else {
                1
            };
            t.saturating_mul(i)
        }
    }
}

/// Distinct array elements accessed while executing `stmts` once, given
/// that the loop variables marked in `varying` run over their full ranges
/// *inside* this scope (outer variables are fixed).  Distinct reference
/// patterns are summed — an upper bound when the same array is referenced
/// through two different patterns in one scope, exact otherwise.  This is
/// the `Accesses` quantity of the paper's data-locality cost model (§6).
pub fn distinct_accesses(
    p: &LoopProgram,
    space: &IndexSpace,
    stmts: &[Stmt],
    varying: &mut [bool],
) -> u128 {
    use std::collections::HashSet;
    fn collect<'a>(
        stmts: &'a [Stmt],
        refs: &mut Vec<&'a ARef>,
        inner: &mut Vec<crate::ir::LoopVarId>,
    ) {
        for s in stmts {
            match s {
                Stmt::Loop { var, body } => {
                    inner.push(*var);
                    collect(body, refs, inner);
                }
                Stmt::Init { .. } => {}
                Stmt::Accum { lhs, rhs, .. } => {
                    refs.push(lhs);
                    refs.extend(rhs.iter());
                }
                Stmt::Eval { lhs, .. } => refs.push(lhs),
            }
        }
    }
    let mut refs = Vec::new();
    let mut inner = Vec::new();
    collect(stmts, &mut refs, &mut inner);
    for &v in &inner {
        varying[v.0 as usize] = true;
    }
    let mut seen: HashSet<(u32, Vec<Sub>)> = HashSet::new();
    let mut total = 0u128;
    for r in refs {
        if seen.insert((r.array.0, r.subs.clone())) {
            let mut n = 1u128;
            for s in &r.subs {
                n = n.saturating_mul(sub_span(p, space, s, varying));
            }
            total = total.saturating_add(n);
        }
    }
    for &v in &inner {
        varying[v.0 as usize] = false;
    }
    total
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::build::nest;
    use crate::ir::{ArrayId, LoopVarId, VarRange};
    use tce_ir::{IndexVar, TensorId};

    /// A program with one loop variable per index of `space`, in index
    /// order, so loop variable `n` runs over index `n`.
    fn program_over(space: &IndexSpace) -> LoopProgram {
        let mut p = LoopProgram::new();
        for v in space.vars() {
            p.add_var(space.var_name(v), VarRange::Full(v));
        }
        p
    }

    /// The index named by the letter `c`.
    fn var(space: &IndexSpace, c: char) -> IndexVar {
        space.var_by_name(&c.to_string()).unwrap()
    }

    /// The loop variables of the one-letter indices `names`.
    fn loops(space: &IndexSpace, names: &str) -> Vec<LoopVarId> {
        names
            .chars()
            .map(|c| LoopVarId(var(space, c).0.into()))
            .collect()
    }

    /// Declare a full-size array over the one-letter indices `dims`.
    fn array(
        p: &mut LoopProgram,
        sp: &IndexSpace,
        name: &str,
        dims: &str,
        kind: ArrayKind,
    ) -> ArrayId {
        let dims = dims.chars().map(|c| VarRange::Full(var(sp, c))).collect();
        p.add_array(name, dims, kind)
    }

    /// `array` subscripted by its own dimensions.
    fn at(p: &LoopProgram, array: ArrayId) -> ARef {
        let sub = |d: &VarRange| match *d {
            VarRange::Full(v) => Sub::Var(LoopVarId(v.0.into())),
            _ => unreachable!("full-size arrays only"),
        };
        let subs = p.array(array).dims.iter().map(sub).collect();
        ARef { array, subs }
    }

    /// `out = 0`, then `out += x * y` in one perfect nest over `over`.
    fn contraction(p: &mut LoopProgram, sp: &IndexSpace, [out, x, y]: [ArrayId; 3], over: &str) {
        p.body.push(Stmt::Init { array: out });
        let rhs = vec![at(p, x), at(p, y)];
        let accum = Stmt::Accum {
            lhs: at(p, out),
            rhs,
            coeff: 1.0,
        };
        p.body.push(nest(loops(sp, over), vec![accum]));
    }

    /// Paper Fig. 1(b) at extent `n`, written out: T1 = B·D, T2 = T1·C and
    /// S = T2·A, each a perfect nest over full-size arrays.
    pub(crate) fn fig1b(n: usize) -> (IndexSpace, LoopProgram) {
        let mut space = IndexSpace::new();
        let r = space.add_range("N", n);
        space.add_vars("a b c d e f i j k l", r);
        let mut p = program_over(&space);
        let input = |p: &mut LoopProgram, name, dims, id| {
            array(p, &space, name, dims, ArrayKind::Input(TensorId(id)))
        };
        let b = input(&mut p, "B", "befl", 1);
        let d = input(&mut p, "D", "cdel", 3);
        let t1 = array(&mut p, &space, "T1", "bcdf", ArrayKind::Intermediate);
        let c = input(&mut p, "C", "dfjk", 2);
        let t2 = array(&mut p, &space, "T2", "bcjk", ArrayKind::Intermediate);
        let a = input(&mut p, "A", "acik", 0);
        let s = array(&mut p, &space, "S", "abij", ArrayKind::Output);
        contraction(&mut p, &space, [t1, b, d], "bcdefl");
        contraction(&mut p, &space, [t2, t1, c], "bcdfjk");
        contraction(&mut p, &space, [s, t2, a], "abcijk");
        p.validate().unwrap();
        (space, p)
    }

    #[test]
    fn op_counts_match_tree_model() {
        // Fig. 1(b)'s flops are Fig. 1(a)'s tree cost: 3 · 2·N^6.
        let (space, p) = fig1b(5);
        let ops = op_counts(&p, &space);
        assert_eq!(ops.contraction_flops, 6 * 5u128.pow(6));
        assert_eq!(ops.func_evals, 0);
    }

    #[test]
    fn memory_report_totals() {
        let (space, p) = fig1b(4);
        let mem = memory_report(&p, &space);
        // T1, T2, S at N^4 each; inputs 4·N^4.
        assert_eq!(mem.temp_elements, 3 * 256);
        assert_eq!(mem.input_elements, 4 * 256);
        assert_eq!(mem.arrays.len(), 7);
    }

    #[test]
    fn func_eval_counting() {
        // E = Σ_ce f1(c,e)·f2(c,e), both functions materialized first.
        let mut space = IndexSpace::new();
        let r = space.add_range("V", 6);
        space.add_vars("c e", r);
        let mut p = program_over(&space);
        let eval = |p: &mut LoopProgram, name: &str, cost| {
            let func = p.add_func(name, cost);
            let t = array(
                p,
                &space,
                &format!("T{}", func.0 + 1),
                "ce",
                ArrayKind::Intermediate,
            );
            let lhs = at(p, t);
            let args = lhs.subs.clone();
            p.body.push(nest(
                loops(&space, "ce"),
                vec![Stmt::Eval { lhs, func, args }],
            ));
            t
        };
        let t1 = eval(&mut p, "f1", 1000);
        let t2 = eval(&mut p, "f2", 500);
        let e = array(&mut p, &space, "E", "", ArrayKind::Output);
        contraction(&mut p, &space, [e, t1, t2], "ce");
        p.validate().unwrap();
        let ops = op_counts(&p, &space);
        assert_eq!(ops.func_evals, 2 * 36);
        assert_eq!(ops.func_flops, 36 * 1000 + 36 * 500);
        assert_eq!(ops.contraction_flops, 2 * 36);
        assert_eq!(ops.total(), 36 * 1500 + 72);
    }

    #[test]
    fn distinct_accesses_full_program() {
        let (space, p) = fig1b(3);
        let n4 = 81u128;
        // Nest 1 touches T1, B, D; nest 2 T2, T1, C; nest 3 S, T2, A.
        // T1 and T2 recur with identical reference patterns and are counted
        // once: 7 distinct patterns of N^4 elements each.
        let mut varying = vec![false; p.vars.len()];
        assert_eq!(distinct_accesses(&p, &space, &p.body, &mut varying), 7 * n4);
    }

    #[test]
    fn distinct_accesses_respects_fixed_outer_vars() {
        // For the T1 production nest alone with b,c fixed (varying only
        // d,e,f,l): T1[b,c,d,f] spans N^2, B[b,e,f,l] N^3, D[c,d,e,l] N^3.
        let (space, p) = fig1b(3);
        // body[1] is the T1 nest: for b { for c { for d … } } — descend two
        // levels so b, c stay fixed.
        let inner2 = match &p.body[1] {
            Stmt::Loop { body, .. } => match &body[0] {
                Stmt::Loop { body, .. } => body,
                _ => panic!(),
            },
            _ => panic!(),
        };
        let mut varying = vec![false; p.vars.len()];
        let got = distinct_accesses(&p, &space, inner2, &mut varying);
        assert_eq!(got, 9 + 27 + 27);
        // The helper restores `varying`.
        assert!(varying.iter().all(|&b| !b));
    }

    #[test]
    fn sub_span_tiled() {
        use crate::ir::*;
        let mut space = IndexSpace::new();
        let n = space.add_range("N", 8);
        let a = space.add_var("a", n);
        let mut p = LoopProgram::new();
        let at = p.add_var("a_t", VarRange::Tile { index: a, block: 4 });
        let ai = p.add_var("a_i", VarRange::Intra { index: a, block: 4 });
        let arr = p.add_array("X", vec![VarRange::Full(a)], ArrayKind::Intermediate);
        let sub = Sub::Tiled {
            tile: at,
            intra: ai,
            block: 4,
        };
        let mk = |t: bool, i: bool| {
            let mut v = vec![false; 2];
            v[at.0 as usize] = t;
            v[ai.0 as usize] = i;
            v
        };
        let _ = arr;
        assert_eq!(sub_span(&p, &space, &sub, &mk(true, true)), 8);
        assert_eq!(sub_span(&p, &space, &sub, &mk(false, true)), 4);
        assert_eq!(sub_span(&p, &space, &sub, &mk(true, false)), 2);
        assert_eq!(sub_span(&p, &space, &sub, &mk(false, false)), 1);
    }
}
