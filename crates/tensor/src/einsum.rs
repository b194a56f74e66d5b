//! Reference einsum evaluator.
//!
//! Direct translation of a sum-of-products statement into nested loops —
//! the paper's "ten nested loops" baseline of §2.  It is intentionally the
//! most naive possible implementation: it serves as the *correctness
//! oracle* every optimized evaluation strategy (operator trees, fused loop
//! structures, tiled code) is checked against.

use crate::dense::Tensor;
use tce_ir::{IndexSet, IndexSpace, IndexVar};

/// A single-term einsum specification over declared index variables:
/// `out[output…] (+)= Σ_{sum…} Π inputs`.
#[derive(Debug, Clone)]
pub struct EinsumSpec {
    /// Output index variables, in dimension order.
    pub output: Vec<IndexVar>,
    /// Per-input index variables, in dimension order.
    pub inputs: Vec<Vec<IndexVar>>,
    /// Summation index variables.
    pub sum: IndexSet,
}

impl EinsumSpec {
    /// Construct and validate: output and sum indices disjoint, every input
    /// variable bound, no repeated variable inside one operand.
    pub fn new(
        output: Vec<IndexVar>,
        inputs: Vec<Vec<IndexVar>>,
        sum: IndexSet,
    ) -> Result<Self, String> {
        let out_set = IndexSet::from_vars(output.iter().copied());
        if out_set.len() != output.len() {
            return Err("repeated output index".into());
        }
        if !out_set.is_disjoint(sum) {
            return Err("summation index also appears in output".into());
        }
        let bound = out_set.union(sum);
        for (i, input) in inputs.iter().enumerate() {
            let set = IndexSet::from_vars(input.iter().copied());
            if set.len() != input.len() {
                return Err(format!("repeated index in input {i}"));
            }
            if !set.is_subset(bound) {
                return Err(format!("input {i} uses an unbound index"));
            }
        }
        Ok(Self {
            output,
            inputs,
            sum,
        })
    }

    /// The loop-index set: output ∪ summation variables.
    pub fn all_indices(&self) -> IndexSet {
        IndexSet::from_vars(self.output.iter().copied()).union(self.sum)
    }

    /// Evaluate naively with one perfect loop nest over all indices.
    ///
    /// # Panics
    /// Panics if an operand's shape does not match its index extents.
    pub fn eval(&self, space: &IndexSpace, operands: &[&Tensor]) -> Tensor {
        assert_eq!(operands.len(), self.inputs.len(), "operand count mismatch");
        for (op, idxs) in operands.iter().zip(&self.inputs) {
            let expect: Vec<usize> = idxs.iter().map(|&v| space.extent(v)).collect();
            assert_eq!(op.shape(), &expect[..], "operand shape mismatch");
        }

        let loop_vars: Vec<IndexVar> = self.all_indices().iter().collect();
        let loop_shape: Vec<usize> = loop_vars.iter().map(|&v| space.extent(v)).collect();
        // Position of each loop var in `loop_vars`, by raw id.
        let mut pos = [usize::MAX; IndexSet::MAX_VARS];
        for (p, v) in loop_vars.iter().enumerate() {
            pos[v.0 as usize] = p;
        }

        let out_shape: Vec<usize> = self.output.iter().map(|&v| space.extent(v)).collect();
        let mut out = Tensor::zeros(&out_shape);

        // Precompute, for each operand (and the output), the loop-var
        // positions of its dimensions so the inner loop is a gather.
        let gather =
            |idxs: &[IndexVar]| -> Vec<usize> { idxs.iter().map(|&v| pos[v.0 as usize]).collect() };
        let out_pos = gather(&self.output);
        let in_pos: Vec<Vec<usize>> = self.inputs.iter().map(|v| gather(v)).collect();

        let total: usize = loop_shape.iter().product::<usize>().max(1);
        let mut idx = vec![0usize; loop_vars.len()];
        let mut op_idx: Vec<Vec<usize>> =
            self.inputs.iter().map(|v| vec![0usize; v.len()]).collect();
        let mut out_idx = vec![0usize; self.output.len()];
        for _ in 0..total {
            let mut prod = 1.0;
            for (o, (op, posv)) in operands.iter().zip(&in_pos).enumerate() {
                for (d, &p) in posv.iter().enumerate() {
                    op_idx[o][d] = idx[p];
                }
                prod *= op.get(&op_idx[o]);
            }
            for (d, &p) in out_pos.iter().enumerate() {
                out_idx[d] = idx[p];
            }
            out.add_assign_at(&out_idx, prod);
            Tensor::advance(&mut idx, &loop_shape);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space2(n: usize, m: usize) -> (IndexSpace, Vec<IndexVar>) {
        let mut sp = IndexSpace::new();
        let rn = sp.add_range("N", n);
        let rm = sp.add_range("M", m);
        let i = sp.add_var("i", rn);
        let j = sp.add_var("j", rm);
        let k = sp.add_var("k", rn);
        (sp, vec![i, j, k])
    }

    #[test]
    fn matmul_matches_manual() {
        let (sp, v) = space2(3, 4);
        let (i, j, k) = (v[0], v[1], v[2]);
        let a = Tensor::random(&[3, 3], 1); // A[i,k]
        let b = Tensor::random(&[3, 4], 2); // B[k,j]
        let spec =
            EinsumSpec::new(vec![i, j], vec![vec![i, k], vec![k, j]], k.singleton()).unwrap();
        let c = spec.eval(&sp, &[&a, &b]);
        for ii in 0..3 {
            for jj in 0..4 {
                let mut acc = 0.0;
                for kk in 0..3 {
                    acc += a.get(&[ii, kk]) * b.get(&[kk, jj]);
                }
                assert!((c.get(&[ii, jj]) - acc).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn full_reduction_to_scalar() {
        let (sp, v) = space2(3, 4);
        let (i, j, _) = (v[0], v[1], v[2]);
        let a = Tensor::random(&[3, 4], 3);
        let spec = EinsumSpec::new(vec![], vec![vec![i, j]], IndexSet::from_vars([i, j])).unwrap();
        let s = spec.eval(&sp, &[&a]);
        assert_eq!(s.rank(), 0);
        assert!((s.get(&[]) - a.sum()).abs() < 1e-12);
    }

    #[test]
    fn outer_product_no_sum() {
        let (sp, v) = space2(2, 3);
        let (i, j, _) = (v[0], v[1], v[2]);
        let a = Tensor::random(&[2], 4);
        let b = Tensor::random(&[3], 5);
        let spec = EinsumSpec::new(vec![i, j], vec![vec![i], vec![j]], IndexSet::EMPTY).unwrap();
        let c = spec.eval(&sp, &[&a, &b]);
        for ii in 0..2 {
            for jj in 0..3 {
                assert_eq!(c.get(&[ii, jj]), a.get(&[ii]) * b.get(&[jj]));
            }
        }
    }

    #[test]
    fn three_operand_contraction() {
        let (sp, v) = space2(3, 2);
        let (i, j, k) = (v[0], v[1], v[2]);
        let a = Tensor::random(&[3, 3], 6); // A[i,k]
        let b = Tensor::random(&[3], 7); // B[k]
        let c = Tensor::random(&[2], 8); // C[j]
        let spec = EinsumSpec::new(
            vec![i, j],
            vec![vec![i, k], vec![k], vec![j]],
            k.singleton(),
        )
        .unwrap();
        let out = spec.eval(&sp, &[&a, &b, &c]);
        for ii in 0..3 {
            for jj in 0..2 {
                let mut acc = 0.0;
                for kk in 0..3 {
                    acc += a.get(&[ii, kk]) * b.get(&[kk]) * c.get(&[jj]);
                }
                assert!((out.get(&[ii, jj]) - acc).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn spec_validation() {
        let (_, v) = space2(3, 4);
        let (i, j, k) = (v[0], v[1], v[2]);
        // Repeated output index.
        assert!(EinsumSpec::new(vec![i, i], vec![], IndexSet::EMPTY).is_err());
        // Sum index in output.
        assert!(EinsumSpec::new(vec![i], vec![vec![i]], i.singleton()).is_err());
        // Unbound input index.
        assert!(EinsumSpec::new(vec![i], vec![vec![i, k]], j.singleton()).is_err());
        // Repeated index within one input (diagonal) rejected.
        assert!(EinsumSpec::new(vec![i], vec![vec![i, i]], IndexSet::EMPTY).is_err());
    }

    #[test]
    #[should_panic(expected = "operand shape mismatch")]
    fn eval_rejects_wrong_shape() {
        let (sp, v) = space2(3, 4);
        let (i, j, k) = (v[0], v[1], v[2]);
        let a = Tensor::zeros(&[3, 4]); // wrong: should be [3,3]
        let b = Tensor::zeros(&[3, 4]);
        let spec =
            EinsumSpec::new(vec![i, j], vec![vec![i, k], vec![k, j]], k.singleton()).unwrap();
        spec.eval(&sp, &[&a, &b]);
    }
}
