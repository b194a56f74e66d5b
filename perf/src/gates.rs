//! The correctness gate: every workload checks what the program computes,
//! and every check is counted against the operations attempted.
//!
//! Two references, both independent of the executor being timed: the
//! *direct* sum-of-products evaluation of the source statements through
//! `EinsumSpec::eval` (affordable only at small extents), and at full size
//! the scalar-kernel, one-thread, sequential tree executor.

use std::collections::HashMap;
use tce_core::ir::{Factor, Program, TensorId};
use tce_core::tensor::{EinsumSpec, IntegralFn, Tensor};

/// Operations attempted and failed so far, with the first few reasons.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations and checks attempted.
    pub attempted: u64,
    /// How many of them failed.
    pub failed: u64,
    /// Reasons, capped so a systematic failure cannot flood the output.
    pub reasons: Vec<String>,
}

impl Tally {
    /// Count one attempt; `outcome` carries the reason when it failed.
    pub fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(reason) = outcome {
            self.failed += 1;
            if self.reasons.len() < 8 {
                self.reasons.push(reason);
            }
        }
    }

    /// Count one attempt that holds when `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.record(if ok { Ok(()) } else { Err(what()) });
    }

    /// Fold another tally (a client thread's) into this one.
    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        let room = 8usize.saturating_sub(self.reasons.len());
        self.reasons.extend(other.reasons.into_iter().take(room));
    }
}

/// Computed value of every assigned tensor, keyed by tensor id.
pub type Outputs = HashMap<TensorId, Tensor>;

/// `program` with every range extent capped at `cap`, so the direct
/// evaluation of a ten-index term stays around a million points.
pub fn shrunk(program: &Program, cap: usize) -> Program {
    let mut small = program.clone();
    for r in 0..small.space.num_ranges() {
        let range = tce_core::ir::RangeId(r as u16);
        let extent = small.space.range_extent(range);
        small.space.set_extent(range, extent.min(cap));
    }
    small
}

/// Evaluate `program` statement by statement as written: each term is one
/// naive loop nest over all of its indices (no operator tree, no fusion,
/// no kernel), scaled by its coefficient and summed; `+=` accumulates.
pub fn direct_outputs(
    program: &Program,
    inputs: &HashMap<TensorId, &Tensor>,
    funcs: &HashMap<String, IntegralFn>,
) -> Result<Outputs, String> {
    let space = &program.space;
    let mut computed: Outputs = HashMap::new();
    for stmt in &program.stmts {
        let shape: Vec<usize> = stmt.lhs.indices.iter().map(|&v| space.extent(v)).collect();
        let mut acc = match computed.get(&stmt.lhs.tensor) {
            Some(prev) if stmt.accumulate => prev.clone(),
            _ => Tensor::zeros(&shape),
        };
        for term in &stmt.terms {
            let mut operands: Vec<Tensor> = Vec::with_capacity(term.factors.len());
            for factor in &term.factors {
                operands.push(match factor {
                    Factor::Tensor(r) => computed
                        .get(&r.tensor)
                        .or_else(|| inputs.get(&r.tensor).copied())
                        .ok_or_else(|| format!("tensor #{} is unbound", r.tensor.0))?
                        .clone(),
                    Factor::Func(f) => {
                        let int = funcs
                            .get(&f.name)
                            .ok_or_else(|| format!("function `{}` is unbound", f.name))?;
                        let fshape: Vec<usize> =
                            f.indices.iter().map(|&v| space.extent(v)).collect();
                        Tensor::from_fn(&fshape, |idx| int.eval(idx))
                    }
                });
            }
            let spec = EinsumSpec::new(
                stmt.lhs.indices.clone(),
                term.factors.iter().map(|f| f.indices().to_vec()).collect(),
                term.index_set().minus(stmt.lhs.index_set()),
            )?;
            let refs: Vec<&Tensor> = operands.iter().collect();
            acc.axpy(term.coeff, &spec.eval(space, &refs));
        }
        computed.insert(stmt.lhs.tensor, acc);
    }
    Ok(computed)
}

/// Largest element-wise difference relative to the reference's largest
/// magnitude (1 when the reference is all zero).  A non-finite element on
/// either side is an infinite error (`f64::max` would skip a NaN).
pub fn rel_err(got: &Tensor, want: &Tensor) -> f64 {
    let mut scale = 0.0f64;
    let mut diff = 0.0f64;
    for (g, w) in got.data().iter().zip(want.data()) {
        if !g.is_finite() || !w.is_finite() {
            return f64::INFINITY;
        }
        scale = scale.max(w.abs());
        diff = diff.max((g - w).abs());
    }
    diff / if scale > 0.0 { scale } else { 1.0 }
}

/// Every tensor of `want` is present in `got`, same shape, within `tol`
/// relative error and finite.
pub fn outputs_agree(got: &Outputs, want: &Outputs, tol: f64) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!("{} outputs, expected {}", got.len(), want.len()));
    }
    for (id, w) in want {
        let g = got
            .get(id)
            .ok_or_else(|| format!("output #{} missing", id.0))?;
        if g.shape() != w.shape() {
            return Err(format!(
                "output #{}: shape {:?} vs {:?}",
                id.0,
                g.shape(),
                w.shape()
            ));
        }
        let err = rel_err(g, w);
        if err > tol {
            return Err(format!(
                "output #{}: relative error {err:e} > {tol:e}",
                id.0
            ));
        }
    }
    Ok(())
}

/// Every tensor of `want` is present in `got` with exactly the same bits.
pub fn outputs_identical(got: &Outputs, want: &Outputs) -> bool {
    got.len() == want.len()
        && want.iter().all(|(id, w)| {
            got.get(id).is_some_and(|g| {
                g.shape() == w.shape()
                    && g.data()
                        .iter()
                        .zip(w.data())
                        .all(|(a, b)| a.to_bits() == b.to_bits())
            })
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direct_evaluation_follows_the_source_statements() {
        // T = A·B, then S = T·A + 2·T∘B, by hand.
        let program = tce_core::lang::compile(
            "range N = 3; index i, j, k : N;
             tensor A(N, N); tensor B(N, N); tensor T(N, N); tensor S(N, N);
             T[i,j] = sum[k] A[i,k] * B[k,j];
             S[i,j] = sum[k] T[i,k] * A[k,j] + 2 * T[i,j] * B[i,j];
             S[i,j] += sum[k] A[i,k] * A[k,j];",
        )
        .unwrap();
        let a = Tensor::random(&[3, 3], 1);
        let b = Tensor::random(&[3, 3], 2);
        let id = |n: &str| program.tensors.by_name(n).unwrap();
        let inputs = HashMap::from([(id("A"), &a), (id("B"), &b)]);
        let out = direct_outputs(&program, &inputs, &HashMap::new()).unwrap();
        let mm = |x: &Tensor, y: &Tensor| {
            Tensor::from_fn(&[3, 3], |ix| {
                (0..3)
                    .map(|k| x.get(&[ix[0], k]) * y.get(&[k, ix[1]]))
                    .sum()
            })
        };
        let t = mm(&a, &b);
        let mut s = mm(&t, &a);
        s.axpy(2.0, &Tensor::from_fn(&[3, 3], |ix| t.get(ix) * b.get(ix)));
        s.axpy(1.0, &mm(&a, &a));
        assert!(rel_err(&out[&id("T")], &t) < 1e-14);
        assert!(rel_err(&out[&id("S")], &s) < 1e-14);
    }

    #[test]
    fn comparisons_catch_drift_nan_and_missing_outputs() {
        let want: Outputs = HashMap::from([(TensorId(0), Tensor::from_elem(&[2], 1.0))]);
        let mut got = want.clone();
        assert!(outputs_agree(&got, &want, 1e-12).is_ok());
        assert!(outputs_identical(&got, &want));
        got.get_mut(&TensorId(0)).unwrap().data_mut()[1] = 1.0 + 1e-6;
        assert!(outputs_agree(&got, &want, 1e-9).is_err());
        assert!(outputs_agree(&got, &want, 1e-3).is_ok());
        assert!(!outputs_identical(&got, &want));
        got.get_mut(&TensorId(0)).unwrap().data_mut()[1] = f64::NAN;
        assert!(outputs_agree(&got, &want, 1e-3).is_err());
        assert!(outputs_agree(&HashMap::new(), &want, 1e-3).is_err());
    }

    #[test]
    fn shrinking_caps_every_range() {
        let program = tce_core::lang::compile(&crate::programs::cc_doubles(40, 10)).unwrap();
        let small = shrunk(&program, 4);
        for r in 0..small.space.num_ranges() {
            assert!(small.space.range_extent(tce_core::ir::RangeId(r as u16)) <= 4);
        }
        assert_eq!(small.stmts, program.stmts);
    }

    #[test]
    fn tally_counts_and_caps_reasons() {
        let mut t = Tally::default();
        for i in 0..20 {
            t.check(i % 2 == 0, || format!("odd {i}"));
        }
        assert_eq!((t.attempted, t.failed, t.reasons.len()), (20, 10, 8));
    }
}
