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

/// Tensors at or above this element count permute thread-parallel.
const PAR_PERMUTE_MIN: usize = 1 << 16;

/// Leaf size (elements) for the cache-oblivious permute recursion: small
/// enough that a source tile and a destination tile both sit in L1.
const PERMUTE_LEAF: usize = 4096;

/// Copy the output-coordinate box `[lo, hi)` of a permutation,
/// cache-obliviously: recursively halve the widest dimension until the
/// box fits in cache, then run a strided odometer copy.  `dst` starts at
/// flat output offset `dst_base`; `sstr[d]`/`dstr[d]` are the source and
/// destination strides of output dimension `d`.
fn copy_box(
    src: &[f64],
    dst: &mut [f64],
    sstr: &[usize],
    dstr: &[usize],
    lo: &[usize],
    hi: &[usize],
    dst_base: usize,
) {
    let rank = lo.len();
    if rank == 0 {
        dst[0] = src[0];
        return;
    }
    let elems: usize = lo.iter().zip(hi).map(|(&l, &h)| h - l).product();
    if elems == 0 {
        return;
    }
    if elems > PERMUTE_LEAF {
        let (d, _) = lo
            .iter()
            .zip(hi)
            .map(|(&l, &h)| h - l)
            .enumerate()
            .max_by_key(|&(_, w)| w)
            .expect("non-empty box");
        if hi[d] - lo[d] > 1 {
            let mid = lo[d] + (hi[d] - lo[d]) / 2;
            let mut hi1 = hi.to_vec();
            hi1[d] = mid;
            let mut lo2 = lo.to_vec();
            lo2[d] = mid;
            copy_box(src, dst, sstr, dstr, lo, &hi1, dst_base);
            copy_box(src, dst, sstr, dstr, &lo2, hi, dst_base);
            return;
        }
    }
    // Leaf: odometer over the outer dims, contiguous-ish run over the
    // innermost output dimension.  Two vectorized specializations (both
    // pure copies, so results are bitwise identical to the generic loop):
    // aligned innermost dims become straight vector copies; a
    // transpose-structured leaf (source-contiguous dim ≠ output-innermost
    // dim) runs in-register transpose tiles instead of strided scalar
    // accesses.
    let last = rank - 1;
    let n_last = hi[last] - lo[last];
    let (s_last, d_last) = (sstr[last], dstr[last]);
    let variant = crate::kernels::active();
    // Output dim that is unit-stride in the *source* (if any, with width
    // worth tiling) — the transpose partner of the output-innermost dim.
    let trans_u = if d_last == 1 && s_last != 1 {
        (0..last).find(|&u| sstr[u] == 1 && hi[u] - lo[u] > 1)
    } else {
        None
    };
    let mut idx = lo.to_vec();
    loop {
        let s0: usize = idx.iter().zip(sstr).map(|(&i, &s)| i * s).sum();
        let d0: usize = idx.iter().zip(dstr).map(|(&i, &s)| i * s).sum::<usize>() - dst_base;
        if let Some(u) = trans_u {
            crate::kernels::transpose_tile(
                variant,
                src,
                dst,
                s0,
                d0,
                hi[u] - lo[u],
                n_last,
                s_last,
                dstr[u],
            );
        } else if s_last == 1 && d_last == 1 {
            crate::kernels::copy_f64(variant, &mut dst[d0..d0 + n_last], &src[s0..s0 + n_last]);
        } else {
            for t in 0..n_last {
                dst[d0 + t * d_last] = src[s0 + t * s_last];
            }
        }
        // Advance the outer odometer within the box (the transpose path
        // also skips dim `u`: the tile covered its whole extent).
        let mut d = last;
        loop {
            if d == 0 {
                return;
            }
            d -= 1;
            if Some(d) == trans_u {
                continue;
            }
            idx[d] += 1;
            if idx[d] < hi[d] {
                break;
            }
            idx[d] = lo[d];
        }
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
    /// where output dimension `d` is input dimension `perm[d]`.
    ///
    /// Uses a blocked, cache-oblivious kernel (recursively splitting the
    /// largest extent until a tile fits in cache) and goes thread-parallel
    /// for large tensors.  Parallelism is safe here at any thread count: a
    /// permutation is a pure copy, so the result is bitwise identical
    /// however the work is split.
    ///
    /// # Panics
    /// Panics if `perm` is not a permutation of `0..rank`.
    pub fn permute(&self, perm: &[usize]) -> Tensor {
        let threads = if self.data.len() >= PAR_PERMUTE_MIN {
            tce_par::default_threads()
        } else {
            1
        };
        self.permute_with_threads(perm, threads)
    }

    /// [`permute`](Self::permute) with an explicit worker count.
    ///
    /// # Panics
    /// Panics if `perm` is not a permutation of `0..rank`.
    pub fn permute_with_threads(&self, perm: &[usize], threads: usize) -> Tensor {
        assert_eq!(perm.len(), self.rank(), "permutation length mismatch");
        let mut seen = vec![false; self.rank()];
        for &p in perm {
            assert!(p < self.rank() && !seen[p], "invalid permutation");
            seen[p] = true;
        }
        // Identity permutations and rank ≤ 1 are plain copies.
        if perm.iter().enumerate().all(|(d, &p)| d == p) {
            return self.clone();
        }
        let new_shape: Vec<usize> = perm.iter().map(|&p| self.shape[p]).collect();
        let mut out = Tensor::zeros(&new_shape);
        // One read + one write per element.
        tce_trace::counter(
            "permute.bytes",
            2 * (self.data.len() * std::mem::size_of::<f64>()) as u64,
        );
        // Walk the *output* row-major; source strides for output dim `d`
        // are the input strides of dimension `perm[d]`.
        let sstr: Vec<usize> = perm.iter().map(|&p| self.strides[p]).collect();
        let dstr = out.strides.clone();
        let rank = new_shape.len();

        // Parallelize over output dim-0 slabs: disjoint destination
        // regions, so workers never touch the same bytes.
        let slabs = new_shape[0];
        let threads = threads.max(1).min(slabs.max(1));
        if threads <= 1 || out.data.len() < PAR_PERMUTE_MIN {
            let lo = vec![0usize; rank];
            copy_box(&self.data, &mut out.data, &sstr, &dstr, &lo, &new_shape, 0);
            return out;
        }
        let slab_elems = out.data.len() / slabs;
        // Pre-split the destination into per-slab slices so workers hold
        // provably disjoint regions.
        struct SlabPtr(*mut f64);
        unsafe impl Send for SlabPtr {}
        unsafe impl Sync for SlabPtr {}
        let slab_ptrs: Vec<(SlabPtr, usize)> = out
            .data
            .chunks_mut(slab_elems)
            .map(|c| (SlabPtr(c.as_mut_ptr()), c.len()))
            .collect();
        let src = &self.data[..];
        let shape_ref = &new_shape;
        let sstr_ref = &sstr;
        let dstr_ref = &dstr;
        let slab_ptrs_ref = &slab_ptrs;
        tce_par::parallel_for(slabs, threads, move |range| {
            for s in range {
                let (ptr, len) = &slab_ptrs_ref[s];
                // SAFETY: each slab index appears in exactly one range.
                let dst = unsafe { std::slice::from_raw_parts_mut(ptr.0, *len) };
                let mut lo = vec![0usize; rank];
                let mut hi = shape_ref.clone();
                lo[0] = s;
                hi[0] = s + 1;
                // Offsets inside this slab are relative to its start.
                copy_box(src, dst, sstr_ref, dstr_ref, &lo, &hi, s * slab_elems);
            }
        });
        out
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
    fn permute_large_crosses_parallel_threshold() {
        // 48·40·36 = 69 120 elements > PAR_PERMUTE_MIN, so permute()
        // takes the blocked parallel path; verify against get().
        let t = Tensor::random(&[48, 40, 36], 11);
        let p = t.permute(&[2, 0, 1]);
        assert_eq!(p.shape(), &[36, 48, 40]);
        for &(x, y, z) in &[(0, 0, 0), (35, 47, 39), (17, 23, 5), (1, 46, 38)] {
            assert_eq!(p.get(&[x, y, z]), t.get(&[y, z, x]));
        }
        let back = p.permute_with_threads(&[1, 2, 0], 3);
        assert_eq!(back, t);
    }

    #[test]
    fn permute_bitwise_identical_across_thread_counts() {
        let t = Tensor::random(&[40, 41, 43], 12);
        let p1 = t.permute_with_threads(&[1, 2, 0], 1);
        for threads in [2, 5, 7, 64] {
            assert_eq!(p1, t.permute_with_threads(&[1, 2, 0], threads));
        }
    }

    #[test]
    fn permute_identity_and_rank0() {
        let t = Tensor::random(&[5, 6], 13);
        assert_eq!(t.permute(&[0, 1]), t);
        let s = Tensor::from_elem(&[], 2.5);
        assert_eq!(s.permute(&[]), s);
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
