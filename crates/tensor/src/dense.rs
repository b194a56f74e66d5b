//! Dense multi-dimensional arrays with row-major strides.
//!
//! This is the storage substrate the synthesized programs run on.  It is
//! deliberately simple — contiguous `Vec<f64>` plus a shape/stride header —
//! because the framework's interest is in *which* loops run, not in exotic
//! layouts.  Higher-level kernels ([`crate::contract`], [`crate::einsum`])
//! and the loop-IR interpreter in `tce-exec` build on the indexing methods
//! here.

use tce_ir::rng::Rng;

/// A dense row-major tensor of `f64`.
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    shape: Vec<usize>,
    strides: Vec<usize>,
    data: Vec<f64>,
}

/// Row-major element strides of `shape` (the last dimension has stride 1).
pub fn row_major_strides(shape: &[usize]) -> Vec<usize> {
    let mut strides = vec![1usize; shape.len()];
    for i in (0..shape.len().saturating_sub(1)).rev() {
        strides[i] = strides[i + 1] * shape[i + 1];
    }
    strides
}

/// Is `perm` the identity permutation?
fn is_identity(perm: &[usize]) -> bool {
    perm.iter().enumerate().all(|(d, &p)| d == p)
}

/// Walk `src` with its dimensions permuted, in one strided pass in the
/// result's row-major order: `f(k, x)` receives the result's flat offset
/// `k` and the source element that lands there.  Result dimension `d` is
/// source dimension `perm[d]`; `perm` must already be validated.
fn for_each_permuted(src: &Tensor, perm: &[usize], mut f: impl FnMut(usize, f64)) {
    let shape: Vec<usize> = perm.iter().map(|&p| src.shape[p]).collect();
    let strides: Vec<usize> = perm.iter().map(|&p| src.strides[p]).collect();
    let Some(last) = shape.len().checked_sub(1) else {
        f(0, src.data[0]);
        return;
    };
    let (run, step) = (shape[last], strides[last]);
    let outer: usize = shape[..last].iter().product();
    let mut idx = vec![0usize; last];
    let mut k = 0usize;
    for _ in 0..outer {
        let base: usize = idx.iter().zip(&strides).map(|(&i, &s)| i * s).sum();
        for t in 0..run {
            f(k + t, src.data[base + t * step]);
        }
        k += run;
        Tensor::advance(&mut idx, &shape[..last]);
    }
}

impl Tensor {
    /// A tensor of zeros. A rank-0 tensor (empty shape) is a scalar with one
    /// element.
    pub fn zeros(shape: &[usize]) -> Self {
        let len = shape.iter().product::<usize>().max(1);
        Self {
            strides: row_major_strides(shape),
            shape: shape.to_vec(),
            data: vec![0.0; len],
        }
    }

    /// A zero tensor whose backing buffer is drawn from the process-wide
    /// buffer pool (see [`crate::bufpool`]); semantically identical to
    /// [`Tensor::zeros`].  Pair with [`Tensor::recycle`] so the buffer is
    /// reused instead of round-tripping the allocator.
    pub fn zeros_pooled(shape: &[usize]) -> Self {
        let len = shape.iter().product::<usize>().max(1);
        Self {
            strides: row_major_strides(shape),
            shape: shape.to_vec(),
            data: crate::bufpool::acquire(len),
        }
    }

    /// Return this tensor's backing buffer to the buffer pool.  Safe on
    /// any tensor, pooled origin or not — the pool classifies by the
    /// buffer's actual capacity.
    pub fn recycle(self) {
        crate::bufpool::release(self.data);
    }

    /// A tensor filled with `value`.
    pub fn from_elem(shape: &[usize], value: f64) -> Self {
        let mut t = Self::zeros(shape);
        t.data.fill(value);
        t
    }

    /// Build from a function of the multi-index.
    pub fn from_fn(shape: &[usize], mut f: impl FnMut(&[usize]) -> f64) -> Self {
        let mut t = Self::zeros(shape);
        let mut idx = vec![0usize; shape.len()];
        for off in 0..t.data.len() {
            t.data[off] = f(&idx);
            Self::advance(&mut idx, shape);
        }
        t
    }

    /// Deterministic pseudo-random tensor in `[-1, 1)` for tests and
    /// benchmarks.
    pub fn random(shape: &[usize], seed: u64) -> Self {
        let mut rng = Rng::new(seed);
        let mut t = Self::zeros(shape);
        for x in &mut t.data {
            *x = rng.f64_in(-1.0, 1.0);
        }
        t
    }

    /// Shape.
    #[inline]
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Row-major strides.
    #[inline]
    pub fn strides(&self) -> &[usize] {
        &self.strides
    }

    /// Number of dimensions.
    #[inline]
    pub fn rank(&self) -> usize {
        self.shape.len()
    }

    /// Total number of elements (1 for a scalar).
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Always false — tensors hold at least one element.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Flat data slice.
    #[inline]
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Mutable flat data slice.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Flat offset of a multi-index.
    ///
    /// # Panics
    /// Debug-asserts the index is within bounds; the final slice access is
    /// always bounds-checked.
    #[inline]
    pub fn offset(&self, idx: &[usize]) -> usize {
        debug_assert_eq!(idx.len(), self.shape.len());
        let mut off = 0usize;
        for (d, &i) in idx.iter().enumerate() {
            debug_assert!(i < self.shape[d], "index {i} out of bounds in dim {d}");
            off += i * self.strides[d];
        }
        off
    }

    /// Element read.
    #[inline]
    pub fn get(&self, idx: &[usize]) -> f64 {
        self.data[self.offset(idx)]
    }

    /// Element write.
    #[inline]
    pub fn set(&mut self, idx: &[usize], v: f64) {
        let off = self.offset(idx);
        self.data[off] = v;
    }

    /// Element accumulate.
    #[inline]
    pub fn add_assign_at(&mut self, idx: &[usize], v: f64) {
        let off = self.offset(idx);
        self.data[off] += v;
    }

    /// Reset all elements to zero.
    pub fn fill_zero(&mut self) {
        self.data.fill(0.0);
    }

    /// Return a copy with dimensions permuted: `out[i…] = self[perm(i…)]`,
    /// where output dimension `d` is input dimension `perm[d]`.  One
    /// sequential strided pass; the identity permutation is a clone.
    ///
    /// # Panics
    /// Panics if `perm` is not a permutation of `0..rank`.
    pub fn permute(&self, perm: &[usize]) -> Tensor {
        let shape = self.permuted_shape(perm);
        if is_identity(perm) {
            return self.clone();
        }
        let mut out = Tensor::zeros(&shape);
        self.count_permute_traffic();
        for_each_permuted(self, perm, |k, x| out.data[k] = x);
        out
    }

    /// `self += alpha · other.permute(perm)` without materializing the
    /// permuted copy: one strided pass over `other`, with the same
    /// per-element arithmetic (and so the same bits) as permuting first.
    /// The identity permutation is plain [`axpy`](Self::axpy).
    ///
    /// # Panics
    /// Panics if `perm` is not a permutation of `0..other.rank()` or the
    /// permuted shape differs from `self`'s.
    pub fn axpy_permuted(&mut self, alpha: f64, other: &Tensor, perm: &[usize]) {
        let shape = other.permuted_shape(perm);
        if is_identity(perm) {
            self.axpy(alpha, other);
        } else {
            assert_eq!(self.shape, shape, "shape mismatch");
            other.count_permute_traffic();
            for_each_permuted(other, perm, |k, x| self.data[k] += alpha * x);
        }
    }

    /// The shape `self.permute(perm)` has.
    ///
    /// # Panics
    /// Panics if `perm` is not a permutation of `0..rank`.
    fn permuted_shape(&self, perm: &[usize]) -> Vec<usize> {
        assert_eq!(perm.len(), self.rank(), "permutation length mismatch");
        let mut seen = vec![false; self.rank()];
        for &p in perm {
            assert!(p < self.rank() && !seen[p], "invalid permutation");
            seen[p] = true;
        }
        perm.iter().map(|&p| self.shape[p]).collect()
    }

    /// Record one read and one write of every element as permute traffic.
    fn count_permute_traffic(&self) {
        tce_trace::counter(
            "permute.bytes",
            2 * (self.data.len() * std::mem::size_of::<f64>()) as u64,
        );
    }

    /// Maximum absolute difference to another tensor of the same shape.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn max_abs_diff(&self, other: &Tensor) -> f64 {
        assert_eq!(self.shape, other.shape, "shape mismatch");
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }

    /// Approximate equality within `tol` (elementwise absolute).
    pub fn approx_eq(&self, other: &Tensor, tol: f64) -> bool {
        self.shape == other.shape && self.max_abs_diff(other) <= tol
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }

    /// `self += alpha · other` (shapes must match).
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn axpy(&mut self, alpha: f64, other: &Tensor) {
        assert_eq!(self.shape, other.shape, "shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
    }

    /// Extract the rectangular block `starts[d] .. starts[d] + lens[d]`
    /// into a new tensor of shape `lens` — the read side of shard
    /// scatter/redistribution.  Rows along the innermost dimension are
    /// copied contiguously.
    ///
    /// # Panics
    /// Panics if the box exceeds the tensor bounds.
    pub fn extract_block(&self, starts: &[usize], lens: &[usize]) -> Tensor {
        assert_eq!(starts.len(), self.rank(), "block rank mismatch");
        assert_eq!(lens.len(), self.rank(), "block rank mismatch");
        for (d, (&s, &l)) in starts.iter().zip(lens).enumerate() {
            assert!(s + l <= self.shape[d], "block out of bounds");
        }
        let mut out = Tensor::zeros(lens);
        if self.rank() == 0 {
            out.data[0] = self.data[0];
            return out;
        }
        if lens.contains(&0) {
            return out;
        }
        let last = self.rank() - 1;
        let row = lens[last];
        let outer: usize = lens[..last].iter().product();
        let mut idx = vec![0usize; last];
        let mut dst = 0usize;
        for _ in 0..outer.max(1) {
            let mut src = starts[last] * self.strides[last];
            for d in 0..last {
                src += (starts[d] + idx[d]) * self.strides[d];
            }
            out.data[dst..dst + row].copy_from_slice(&self.data[src..src + row]);
            dst += row;
            Self::advance(&mut idx, &lens[..last]);
        }
        out
    }

    /// Write `block` into the rectangular region starting at `starts` —
    /// the write side of shard gather/redistribution.  Inverse of
    /// [`extract_block`](Self::extract_block) for matching boxes.
    ///
    /// # Panics
    /// Panics if the box exceeds the tensor bounds.
    pub fn paste_block(&mut self, starts: &[usize], block: &Tensor) {
        assert_eq!(starts.len(), self.rank(), "block rank mismatch");
        assert_eq!(block.rank(), self.rank(), "block rank mismatch");
        for (d, (&s, &l)) in starts.iter().zip(&block.shape).enumerate() {
            assert!(s + l <= self.shape[d], "block out of bounds");
        }
        if self.rank() == 0 {
            self.data[0] = block.data[0];
            return;
        }
        if block.shape.contains(&0) {
            return;
        }
        let last = self.rank() - 1;
        let row = block.shape[last];
        let outer: usize = block.shape[..last].iter().product();
        let mut idx = vec![0usize; last];
        let mut src = 0usize;
        for _ in 0..outer.max(1) {
            let mut dst = starts[last] * self.strides[last];
            for d in 0..last {
                dst += (starts[d] + idx[d]) * self.strides[d];
            }
            self.data[dst..dst + row].copy_from_slice(&block.data[src..src + row]);
            src += row;
            Self::advance(&mut idx, &block.shape[..last]);
        }
    }

    /// Reinterpret this (contiguous, row-major) tensor under a new shape
    /// with the same element count — drops or inserts unit dimensions
    /// without copying data.
    ///
    /// # Panics
    /// Panics if the element counts differ.
    pub fn reshaped(mut self, shape: &[usize]) -> Tensor {
        let n: usize = shape.iter().product();
        assert_eq!(self.len(), n, "reshape element count mismatch");
        self.shape = shape.to_vec();
        self.strides = row_major_strides(&self.shape);
        self
    }

    /// Advance a row-major odometer; wraps to all-zeros after the last
    /// index. Public so kernels and the interpreter share one implementation.
    #[inline]
    pub fn advance(idx: &mut [usize], shape: &[usize]) {
        for d in (0..shape.len()).rev() {
            idx[d] += 1;
            if idx[d] < shape[d] {
                return;
            }
            idx[d] = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_scalar() {
        let t = Tensor::zeros(&[2, 3]);
        assert_eq!(t.len(), 6);
        assert_eq!(t.rank(), 2);
        assert_eq!(t.strides(), &[3, 1]);
        let s = Tensor::zeros(&[]);
        assert_eq!(s.len(), 1);
        assert_eq!(s.get(&[]), 0.0);
    }

    #[test]
    fn set_get_roundtrip() {
        let mut t = Tensor::zeros(&[2, 3, 4]);
        t.set(&[1, 2, 3], 7.5);
        assert_eq!(t.get(&[1, 2, 3]), 7.5);
        assert_eq!(t.get(&[0, 0, 0]), 0.0);
        t.add_assign_at(&[1, 2, 3], 0.5);
        assert_eq!(t.get(&[1, 2, 3]), 8.0);
    }

    #[test]
    fn from_fn_row_major_order() {
        let t = Tensor::from_fn(&[2, 3], |idx| (idx[0] * 3 + idx[1]) as f64);
        assert_eq!(t.data(), &[0.0, 1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(t.get(&[1, 2]), 5.0);
    }

    #[test]
    fn random_is_deterministic() {
        let a = Tensor::random(&[3, 3], 42);
        let b = Tensor::random(&[3, 3], 42);
        let c = Tensor::random(&[3, 3], 43);
        assert_eq!(a, b);
        assert!(a.max_abs_diff(&c) > 0.0);
        assert!(a.data().iter().all(|x| (-1.0..1.0).contains(x)));
    }

    #[test]
    fn permute_transpose() {
        let t = Tensor::from_fn(&[2, 3], |idx| (idx[0] * 10 + idx[1]) as f64);
        let tt = t.permute(&[1, 0]);
        assert_eq!(tt.shape(), &[3, 2]);
        for i in 0..2 {
            for j in 0..3 {
                assert_eq!(t.get(&[i, j]), tt.get(&[j, i]));
            }
        }
    }

    #[test]
    fn permute_rank3_cycle() {
        let t = Tensor::random(&[2, 3, 4], 7);
        let p = t.permute(&[2, 0, 1]); // out[x,y,z] = in[y,z,x]
        assert_eq!(p.shape(), &[4, 2, 3]);
        for x in 0..4 {
            for y in 0..2 {
                for z in 0..3 {
                    assert_eq!(p.get(&[x, y, z]), t.get(&[y, z, x]));
                }
            }
        }
        // Round-trip through the inverse permutation.
        let back = p.permute(&[1, 2, 0]);
        assert!(back.approx_eq(&t, 0.0));
    }

    #[test]
    #[should_panic(expected = "invalid permutation")]
    fn permute_rejects_duplicates() {
        Tensor::zeros(&[2, 2]).permute(&[0, 0]);
    }

    #[test]
    fn permute_identity_and_rank0() {
        let t = Tensor::random(&[5, 6], 13);
        assert_eq!(t.permute(&[0, 1]), t);
        let s = Tensor::from_elem(&[], 2.5);
        assert_eq!(s.permute(&[]), s);
    }

    /// Every permutation of `0..rank`.
    fn permutations(rank: usize) -> Vec<Vec<usize>> {
        if rank == 0 {
            return vec![Vec::new()];
        }
        let mut out = Vec::new();
        for p in permutations(rank - 1) {
            for at in 0..=p.len() {
                let mut q = p.clone();
                q.insert(at, rank - 1);
                out.push(q);
            }
        }
        out
    }

    fn bits(t: &Tensor) -> Vec<u64> {
        t.data().iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn axpy_permuted_matches_permute_then_axpy_bitwise() {
        for (shape, seed) in [(vec![3, 1, 4, 2], 0), (vec![], 1), (vec![5], 2)] {
            let mut value = Tensor::random(&shape, 31 + seed);
            value.data_mut()[0] = -0.0;
            let perms = permutations(shape.len());
            assert_eq!(perms.len(), (1..=shape.len()).product::<usize>());
            for perm in perms {
                for coeff in [1.0, -2.5] {
                    let permuted = value.permute(&perm);
                    let mut start = Tensor::random(permuted.shape(), 41 + seed);
                    start.data_mut()[permuted.len() - 1] = -0.0;
                    let mut want = start.clone();
                    want.axpy(coeff, &permuted);
                    let mut got = start;
                    got.axpy_permuted(coeff, &value, &perm);
                    assert_eq!(bits(&got), bits(&want), "perm {perm:?} coeff {coeff}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn axpy_permuted_rejects_shape_mismatch() {
        let mut a = Tensor::zeros(&[2, 3]);
        a.axpy_permuted(1.0, &Tensor::zeros(&[2, 3]), &[1, 0]);
    }

    #[test]
    fn approx_eq_and_diff() {
        let a = Tensor::from_elem(&[2, 2], 1.0);
        let mut b = a.clone();
        b.set(&[1, 1], 1.1);
        assert!((a.max_abs_diff(&b) - 0.1).abs() < 1e-12);
        assert!(a.approx_eq(&b, 0.2));
        assert!(!a.approx_eq(&b, 0.05));
        assert!(!a.approx_eq(&Tensor::zeros(&[2, 3]), 1.0));
    }

    #[test]
    fn advance_odometer() {
        let shape = [2, 2];
        let mut idx = vec![0, 0];
        let mut seen = Vec::new();
        for _ in 0..4 {
            seen.push(idx.clone());
            Tensor::advance(&mut idx, &shape);
        }
        assert_eq!(seen, vec![vec![0, 0], vec![0, 1], vec![1, 0], vec![1, 1]]);
        assert_eq!(idx, vec![0, 0]); // wrapped
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = Tensor::from_elem(&[2, 2], 1.0);
        let b = Tensor::from_fn(&[2, 2], |i| (i[0] * 2 + i[1]) as f64);
        a.axpy(2.0, &b);
        assert_eq!(a.data(), &[1.0, 3.0, 5.0, 7.0]);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn axpy_rejects_shape_mismatch() {
        let mut a = Tensor::zeros(&[2]);
        a.axpy(1.0, &Tensor::zeros(&[3]));
    }

    #[test]
    fn extract_paste_roundtrip() {
        let t = Tensor::from_fn(&[4, 5, 3], |i| (i[0] * 100 + i[1] * 10 + i[2]) as f64);
        let b = t.extract_block(&[1, 2, 0], &[2, 3, 3]);
        assert_eq!(b.shape(), &[2, 3, 3]);
        for x in 0..2 {
            for y in 0..3 {
                for z in 0..3 {
                    assert_eq!(b.get(&[x, y, z]), t.get(&[x + 1, y + 2, z]));
                }
            }
        }
        let mut back = Tensor::zeros(&[4, 5, 3]);
        back.paste_block(&[1, 2, 0], &b);
        for x in 0..2 {
            for y in 0..3 {
                for z in 0..3 {
                    assert_eq!(back.get(&[x + 1, y + 2, z]), t.get(&[x + 1, y + 2, z]));
                }
            }
        }
        assert_eq!(back.get(&[0, 0, 0]), 0.0);
        // Whole-tensor block is a copy.
        assert_eq!(t.extract_block(&[0, 0, 0], &[4, 5, 3]), t);
        // Scalars round-trip too.
        let s = Tensor::from_elem(&[], 3.5);
        assert_eq!(s.extract_block(&[], &[]), s);
        let mut s2 = Tensor::zeros(&[]);
        s2.paste_block(&[], &s);
        assert_eq!(s2.get(&[]), 3.5);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn extract_block_rejects_overflow() {
        Tensor::zeros(&[3, 3]).extract_block(&[2, 0], &[2, 3]);
    }

    #[test]
    fn reshaped_preserves_row_major_order() {
        let t = Tensor::from_fn(&[2, 3], |i| (i[0] * 3 + i[1]) as f64);
        let r = t.clone().reshaped(&[3, 2]);
        assert_eq!(r.shape(), &[3, 2]);
        for k in 0..6 {
            assert_eq!(r.get(&[k / 2, k % 2]), k as f64);
        }
        // Unit dimensions insert/drop freely.
        let u = t.clone().reshaped(&[2, 1, 3, 1]);
        assert_eq!(u.get(&[1, 0, 2, 0]), 5.0);
        assert_eq!(u.reshaped(&[2, 3]), t);
        // Scalar ↔ all-unit shapes.
        let s = Tensor::from_elem(&[], 7.0).reshaped(&[1, 1]);
        assert_eq!(s.get(&[0, 0]), 7.0);
        assert_eq!(s.reshaped(&[]).get(&[]), 7.0);
    }

    #[test]
    #[should_panic(expected = "element count mismatch")]
    fn reshaped_rejects_size_change() {
        let _ = Tensor::zeros(&[2, 3]).reshaped(&[7]);
    }

    #[test]
    fn sum_and_fill() {
        let mut t = Tensor::from_elem(&[3, 3], 2.0);
        assert_eq!(t.sum(), 18.0);
        t.fill_zero();
        assert_eq!(t.sum(), 0.0);
    }
}
