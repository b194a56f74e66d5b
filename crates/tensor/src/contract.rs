//! Binary contraction kernels.
//!
//! A contraction node of an operator tree multiplies two operands and sums
//! over their shared "contracted" indices.  This module holds the
//! contraction description ([`BinaryContraction`]) and the oracle
//! [`contract_naive`] — direct nested loops over the combined iteration
//! space; the engine every executor runs is [`crate::gett::contract_gett`].
//!
//! Index bookkeeping uses `tce-ir` index variables so kernels plug directly
//! into operator trees.

use crate::dense::Tensor;
use crate::einsum::EinsumSpec;
use tce_ir::{IndexSet, IndexSpace, IndexVar};

/// Description of one binary contraction: `out[o…] = Σ_{contracted}
/// a[ia…]·b[ib…]`.  Output indices must each appear in at least one
/// operand; contracted indices are those appearing in the operands but not
/// in the output.
#[derive(Debug, Clone)]
pub struct BinaryContraction {
    /// Index variables of operand `a`, dimension order.
    pub a: Vec<IndexVar>,
    /// Index variables of operand `b`, dimension order.
    pub b: Vec<IndexVar>,
    /// Output index variables, dimension order.
    pub out: Vec<IndexVar>,
}

impl BinaryContraction {
    /// The contracted (summation) index set.
    pub fn contracted(&self) -> IndexSet {
        let a = IndexSet::from_vars(self.a.iter().copied());
        let b = IndexSet::from_vars(self.b.iter().copied());
        let out = IndexSet::from_vars(self.out.iter().copied());
        a.union(b).minus(out)
    }

    /// Validate: no repeats within an operand, output ⊆ a ∪ b.
    pub fn validate(&self) -> Result<(), String> {
        let a = IndexSet::from_vars(self.a.iter().copied());
        let b = IndexSet::from_vars(self.b.iter().copied());
        let out = IndexSet::from_vars(self.out.iter().copied());
        if a.len() != self.a.len() || b.len() != self.b.len() || out.len() != self.out.len() {
            return Err("repeated index within one operand".into());
        }
        if !out.is_subset(a.union(b)) {
            return Err("output index missing from both operands".into());
        }
        Ok(())
    }

    /// The contraction GETT plans: each operand without its summation
    /// indices exclusive to it, which [`reduce_exclusive`] sums out first.
    pub fn pre_reduced(&self) -> BinaryContraction {
        let out = IndexSet::from_vars(self.out.iter().copied());
        let keep = |own: &[IndexVar], other: &[IndexVar]| {
            let keep_set = IndexSet::from_vars(other.iter().copied()).union(out);
            own.iter()
                .copied()
                .filter(|v| keep_set.contains(*v))
                .collect()
        };
        BinaryContraction {
            a: keep(&self.a, &self.b),
            b: keep(&self.b, &self.a),
            out: self.out.clone(),
        }
    }

    /// Flop count (multiply + add per combined iteration point).
    pub fn flops(&self, space: &IndexSpace) -> u128 {
        let a = IndexSet::from_vars(self.a.iter().copied());
        let b = IndexSet::from_vars(self.b.iter().copied());
        space.iteration_points(a.union(b)).saturating_mul(2)
    }
}

/// Naive nested-loop contraction (correctness oracle): the two-operand
/// [`EinsumSpec::eval`], one loop over a ∪ b in ascending index order.
pub fn contract_naive(
    spec: &BinaryContraction,
    space: &IndexSpace,
    a: &Tensor,
    b: &Tensor,
) -> Tensor {
    spec.validate().expect("invalid contraction");
    let operands = vec![spec.a.clone(), spec.b.clone()];
    EinsumSpec::new(spec.out.clone(), operands, spec.contracted())
        .expect("invalid contraction")
        .eval(space, &[a, b])
}

/// Sum operand `a` (or `b`) of `spec` — element `idx` read at
/// `data[base + Σ idx·strides]` — over its dims that appear neither in
/// the other operand nor in the output, into a pooled tensor over the
/// dims [`BinaryContraction::pre_reduced`] keeps (recycle it after use).
/// `None` when there is no such dim: the caller reads the operand in
/// place — the common case, hit on almost every GETT call.
///
/// # Panics
/// Panics if an addressed element lies outside `data`.
pub fn reduce_exclusive(
    spec: &BinaryContraction,
    space: &IndexSpace,
    data: &[f64],
    base: usize,
    strides: &[usize],
    is_a: bool,
) -> Option<Tensor> {
    let pass = ExclusiveReduction::new(spec, space, strides, is_a)?;
    let mut out = Tensor::zeros_pooled(&pass.kept_shape);
    pass.add_into(data, base, out.data_mut());
    Some(out)
}

/// The pass [`reduce_exclusive`] makes over one operand, resolved once
/// for its strides so that a loop nest can repeat it at many bases
/// without allocating.
#[derive(Debug, Clone)]
pub struct ExclusiveReduction {
    /// Extents of the operand's dims.
    shape: Vec<usize>,
    /// Per dim: its stride in the operand, and in the dense array of the
    /// kept dims (0 for a dim that is summed out).
    steps: Vec<(usize, usize)>,
    /// Shape of the kept dims' dense array.
    pub kept_shape: Vec<usize>,
    /// Elements of the operand it reads past a base: the largest offset
    /// plus one.
    pub span: usize,
}

impl ExclusiveReduction {
    /// The reduction of operand `a` (or `b`) of `spec` read through
    /// `strides`; `None` when no dim of it is exclusive.
    pub fn new(
        spec: &BinaryContraction,
        space: &IndexSpace,
        strides: &[usize],
        is_a: bool,
    ) -> Option<Self> {
        let reduced = spec.pre_reduced();
        let (own, keep) = if is_a {
            (&spec.a, reduced.a)
        } else {
            (&spec.b, reduced.b)
        };
        if keep.len() == own.len() {
            return None;
        }
        let kept_shape: Vec<usize> = keep.iter().map(|&v| space.extent(v)).collect();
        let kept_strides = crate::dense::row_major_strides(&kept_shape);
        let steps = own
            .iter()
            .zip(strides)
            .map(|(v, &s)| {
                let kept = keep.iter().position(|k| k == v);
                (s, kept.map_or(0, |p| kept_strides[p]))
            })
            .collect();
        let shape: Vec<usize> = own.iter().map(|&v| space.extent(v)).collect();
        let last = |(&e, &s): (&usize, &usize)| e.saturating_sub(1) * s;
        Some(Self {
            span: shape.iter().zip(strides).map(last).sum::<usize>() + 1,
            shape,
            steps,
            kept_shape,
        })
    }

    /// Add the operand read at `base` into `out`, the kept dims' dense
    /// array: elements in row-major order of the operand's dims.
    ///
    /// # Panics
    /// Panics if an addressed element lies outside `data` or `out`.
    pub fn add_into(&self, data: &[f64], base: usize, out: &mut [f64]) {
        let mut idx = [0usize; IndexSet::MAX_VARS];
        let (mut src, mut dst) = (base, 0);
        for _ in 0..self.shape.iter().product::<usize>() {
            out[dst] += data[src];
            // Advance the last dim first, moving both offsets with it.
            for (d, (&extent, &(s, t))) in self.shape.iter().zip(&self.steps).enumerate().rev() {
                idx[d] += 1;
                (src, dst) = (src + s, dst + t);
                if idx[d] < extent {
                    break;
                }
                idx[d] = 0;
                (src, dst) = (src - s * extent, dst - t * extent);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gett::contract_gett;

    fn space(extents: &[(&str, usize)]) -> IndexSpace {
        let mut sp = IndexSpace::new();
        for (name, e) in extents {
            let r = sp.add_range(&format!("R{name}"), *e);
            sp.add_var(name, r);
        }
        sp
    }

    fn v(sp: &IndexSpace, n: &str) -> IndexVar {
        sp.var_by_name(n).unwrap()
    }

    #[test]
    fn contract_matmul_both_paths_agree() {
        let sp = space(&[("i", 5), ("j", 6), ("k", 7)]);
        let spec = BinaryContraction {
            a: vec![v(&sp, "i"), v(&sp, "k")],
            b: vec![v(&sp, "k"), v(&sp, "j")],
            out: vec![v(&sp, "i"), v(&sp, "j")],
        };
        let a = Tensor::random(&[5, 7], 1);
        let b = Tensor::random(&[7, 6], 2);
        let naive = contract_naive(&spec, &sp, &a, &b);
        let fast = contract_gett(&spec, &sp, &a, &b, 2);
        assert!(naive.approx_eq(&fast, 1e-10));
    }

    #[test]
    fn contract_with_batch_index() {
        // out[p,i,j] = Σ_k a[p,i,k] b[p,k,j] — batched matmul.
        let sp = space(&[("p", 3), ("i", 4), ("j", 5), ("k", 6)]);
        let spec = BinaryContraction {
            a: vec![v(&sp, "p"), v(&sp, "i"), v(&sp, "k")],
            b: vec![v(&sp, "p"), v(&sp, "k"), v(&sp, "j")],
            out: vec![v(&sp, "p"), v(&sp, "i"), v(&sp, "j")],
        };
        let a = Tensor::random(&[3, 4, 6], 3);
        let b = Tensor::random(&[3, 6, 5], 4);
        let naive = contract_naive(&spec, &sp, &a, &b);
        let fast = contract_gett(&spec, &sp, &a, &b, 2);
        assert!(naive.approx_eq(&fast, 1e-10));
    }

    #[test]
    fn contract_full_reduction_to_scalar() {
        let sp = space(&[("i", 4), ("j", 5)]);
        let spec = BinaryContraction {
            a: vec![v(&sp, "i"), v(&sp, "j")],
            b: vec![v(&sp, "i"), v(&sp, "j")],
            out: vec![],
        };
        let a = Tensor::random(&[4, 5], 5);
        let b = Tensor::random(&[4, 5], 6);
        let naive = contract_naive(&spec, &sp, &a, &b);
        let fast = contract_gett(&spec, &sp, &a, &b, 2);
        assert_eq!(naive.rank(), 0);
        assert!((naive.get(&[]) - fast.get(&[])).abs() < 1e-10);
    }

    #[test]
    fn contract_outer_product() {
        let sp = space(&[("i", 3), ("j", 4)]);
        let spec = BinaryContraction {
            a: vec![v(&sp, "i")],
            b: vec![v(&sp, "j")],
            out: vec![v(&sp, "j"), v(&sp, "i")], // transposed output order
        };
        let a = Tensor::random(&[3], 7);
        let b = Tensor::random(&[4], 8);
        let naive = contract_naive(&spec, &sp, &a, &b);
        let fast = contract_gett(&spec, &sp, &a, &b, 2);
        assert_eq!(naive.shape(), &[4, 3]);
        assert!(naive.approx_eq(&fast, 1e-12));
    }

    #[test]
    fn contract_4d_paper_shape() {
        // T1[b,c,d,f] = Σ_{e,l} B[b,e,f,l]·D[c,d,e,l] — the Fig 1(a) first
        // contraction at small extents.
        let sp = space(&[("b", 3), ("c", 3), ("d", 3), ("e", 3), ("f", 3), ("l", 3)]);
        let spec = BinaryContraction {
            a: vec![v(&sp, "b"), v(&sp, "e"), v(&sp, "f"), v(&sp, "l")],
            b: vec![v(&sp, "c"), v(&sp, "d"), v(&sp, "e"), v(&sp, "l")],
            out: vec![v(&sp, "b"), v(&sp, "c"), v(&sp, "d"), v(&sp, "f")],
        };
        let a = Tensor::random(&[3, 3, 3, 3], 9);
        let b = Tensor::random(&[3, 3, 3, 3], 10);
        let naive = contract_naive(&spec, &sp, &a, &b);
        let fast = contract_gett(&spec, &sp, &a, &b, 2);
        assert!(naive.approx_eq(&fast, 1e-10));
        assert_eq!(spec.flops(&sp), 2 * 3u128.pow(6));
        assert_eq!(spec.contracted().len(), 2);
    }

    #[test]
    fn reduce_exclusive_borrows_when_nothing_is_exclusive() {
        // Matmul: every operand dim is shared or output — no copy.
        let sp = space(&[("i", 3), ("j", 4), ("k", 5), ("x", 2)]);
        let spec = BinaryContraction {
            a: vec![v(&sp, "i"), v(&sp, "k")],
            b: vec![v(&sp, "k"), v(&sp, "j")],
            out: vec![v(&sp, "i"), v(&sp, "j")],
        };
        let a = Tensor::random(&[3, 5], 1);
        assert!(reduce_exclusive(&spec, &sp, a.data(), 0, a.strides(), true).is_none());
        assert_eq!(spec.pre_reduced().a, spec.a);
        // `x` appears only in `a`: summed out into a fresh tensor.
        let spec = BinaryContraction {
            a: vec![v(&sp, "i"), v(&sp, "x"), v(&sp, "k")],
            ..spec
        };
        let a = Tensor::random(&[3, 2, 5], 2);
        let ar = reduce_exclusive(&spec, &sp, a.data(), 0, a.strides(), true).unwrap();
        assert_eq!(spec.pre_reduced().a, vec![v(&sp, "i"), v(&sp, "k")]);
        assert_eq!(ar.shape(), &[3, 5]);
        assert_eq!(ar.get(&[2, 4]), a.get(&[2, 0, 4]) + a.get(&[2, 1, 4]));
        // Read through a base offset and strides: the same operand as the
        // `p = 1` slice of a larger [p, i, x, k] array.
        let big = Tensor::from_fn(&[2, 3, 2, 5], |ix| {
            if ix[0] == 1 {
                a.get(&ix[1..])
            } else {
                f64::NAN
            }
        });
        let strides = &big.strides()[1..];
        let sliced = reduce_exclusive(&spec, &sp, big.data(), big.strides()[0], strides, true);
        assert_eq!(sliced.unwrap(), ar);
    }

    #[test]
    fn validation_errors() {
        let sp = space(&[("i", 2), ("j", 2), ("k", 2)]);
        let bad_out = BinaryContraction {
            a: vec![v(&sp, "i")],
            b: vec![v(&sp, "j")],
            out: vec![v(&sp, "k")],
        };
        assert!(bad_out.validate().is_err());
        let repeated = BinaryContraction {
            a: vec![v(&sp, "i"), v(&sp, "i")],
            b: vec![v(&sp, "j")],
            out: vec![v(&sp, "j")],
        };
        assert!(repeated.validate().is_err());
    }
}
