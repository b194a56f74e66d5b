//! 256-bit AVX2+FMA kernels — the fast tier on every mainstream x86-64
//! core since Haswell.
//!
//! The GEMM micro-kernel uses an 8×6 register tile vectorized along M:
//! per summation step it loads one packed-A column as two `__m256d`,
//! broadcasts each of the six packed-B elements, and issues twelve FMAs.
//! Twelve accumulators + two A vectors + one broadcast = 15 of the 16
//! ymm registers; an 8×8 tile would need 16 accumulators alone and spill
//! every iteration, which is why the tile is 8×6.
//!
//! FMA contracts each multiply-add to one rounding, so results differ
//! from the scalar oracle in the last ulps (the differential suite
//! bounds the difference at 1e-10) but remain bitwise deterministic
//! across thread counts for a fixed variant.

#![cfg(any(target_arch = "x86", target_arch = "x86_64"))]

#[cfg(target_arch = "x86")]
use std::arch::x86::*;
#[cfg(target_arch = "x86_64")]
use std::arch::x86_64::*;

/// 8×6 AVX2+FMA micro-kernel: `acc[r*6 + c] = Σ_k ap[k*8+r]·bp[k*6+c]`.
///
/// # Safety
/// Caller must ensure the host supports AVX2 and FMA (CPUID-checked by
/// the dispatcher).
#[target_feature(enable = "avx2,fma")]
pub unsafe fn microkernel_8x6(ap: &[f64], bp: &[f64], kb: usize, acc: &mut [f64]) {
    const MR: usize = 8;
    const NR: usize = 6;
    debug_assert!(ap.len() >= kb * MR && bp.len() >= kb * NR && acc.len() >= MR * NR);
    // acc column c, rows [0..4) and [4..8).
    let mut c_lo = [_mm256_setzero_pd(); NR];
    let mut c_hi = [_mm256_setzero_pd(); NR];
    for kk in 0..kb {
        let a = ap.as_ptr().add(kk * MR);
        let a_lo = _mm256_loadu_pd(a);
        let a_hi = _mm256_loadu_pd(a.add(4));
        let b = bp.as_ptr().add(kk * NR);
        for c in 0..NR {
            let bv = _mm256_broadcast_sd(&*b.add(c));
            c_lo[c] = _mm256_fmadd_pd(a_lo, bv, c_lo[c]);
            c_hi[c] = _mm256_fmadd_pd(a_hi, bv, c_hi[c]);
        }
    }
    // Registers hold columns; the engine wants rows (`acc[r*NR + c]`).
    let mut col = [0.0f64; MR];
    for (c, (&lo, &hi)) in c_lo.iter().zip(&c_hi).enumerate() {
        _mm256_storeu_pd(col.as_mut_ptr(), lo);
        _mm256_storeu_pd(col.as_mut_ptr().add(4), hi);
        for r in 0..MR {
            acc[r * NR + c] = col[r];
        }
    }
}

/// The no-pack kernel ([`super::direct`]) of a call that is no dot, with
/// each step a fused multiply-add — `_mm256_fmadd_pd`'s rounding — one
/// element at a time, or eight at a time in [`lanes`] along a contiguous
/// long axis.
///
/// # Safety
/// Caller must ensure the host supports AVX2 and FMA (CPUID-checked by
/// the dispatcher), and the offset contract of [`super::direct`].
#[target_feature(enable = "avx2,fma")]
pub(crate) unsafe fn direct_fma(
    g: &super::DirectGemm,
    a: *const f64,
    b: *const f64,
    c: *mut f64,
) -> bool {
    // SAFETY: the offsets are the caller's contract.
    unsafe { super::direct_with(g, a, b, c, f64::mul_add, Some(lanes)) }
}

/// A dot call ([`super::dot`]) with each step fused, along contiguous K
/// runs in [`dot_runs`].
///
/// # Safety
/// As [`direct_fma`].
#[target_feature(enable = "avx2,fma")]
pub(crate) unsafe fn dot_fma(
    g: &super::DirectGemm,
    a: *const f64,
    b: *const f64,
    c: *mut f64,
) -> bool {
    // SAFETY: the caller's contract.
    unsafe { super::dot(g, a, b, c, f64::mul_add, Some(dot_runs)) }
}

const _: () = assert!(
    super::CHAINS == 8,
    "`lanes` and `dot_runs` hold eight chains"
);

/// Eight chains of [`super::direct`] on a contiguous long axis
/// ([`super::Lanes`]), in two `__m256d` accumulators: per step one
/// `_mm256_fmadd_pd(x, broadcast(y), acc)` per half, then `c += acc` with
/// `_mm256_add_pd` — lane for lane the scalar chain's `f64::mul_add` and
/// add, so every bit matches.
///
/// # Safety
/// As [`direct_fma`]: `x + lk[p] + 0..8`, `y + sk[p]` and `out + 0..8` are
/// in bounds, and no other thread accesses `out + 0..8`.
#[target_feature(enable = "avx2,fma")]
unsafe fn lanes(x: *const f64, lk: &[usize], sk: &[usize], y: *const f64, out: *mut f64) {
    let (mut lo, mut hi) = (_mm256_setzero_pd(), _mm256_setzero_pd());
    for (&pl, &ps) in lk.iter().zip(sk) {
        let yv = _mm256_broadcast_sd(&*y.add(ps));
        lo = _mm256_fmadd_pd(_mm256_loadu_pd(x.add(pl)), yv, lo);
        hi = _mm256_fmadd_pd(_mm256_loadu_pd(x.add(pl + 4)), yv, hi);
    }
    _mm256_storeu_pd(out, _mm256_add_pd(_mm256_loadu_pd(out), lo));
    let out_hi = out.add(4);
    _mm256_storeu_pd(out_hi, _mm256_add_pd(_mm256_loadu_pd(out_hi), hi));
}

/// Lane masks: `MASK[8 - t..]` read as two `__m256i` selects the first
/// `t` of eight lanes.
static MASK: [i64; 16] = [-1, -1, -1, -1, -1, -1, -1, -1, 0, 0, 0, 0, 0, 0, 0, 0];

/// One K-block of a dot along contiguous K runs ([`super::DotRuns`]): the
/// eight chains in two `__m256d` accumulators, chain `j` in lane `j mod 4`
/// of `lo` (`j < 4`) or `hi`.  Each run piece's full groups of eight steps
/// are two `_mm256_fmadd_pd(loadu(x), loadu(y), acc)`, lane for lane the
/// scalar chains' `f64::mul_add`; its last `t < 8` steps load the first
/// `t` lanes only, the others reading `+0.0 · -0.0`, which adds `-0.0` and
/// so leaves every chain's bits as they are.  Then `lo + hi`, its two
/// 128-bit halves added, and the final pair: [`super::combine`]'s tree.
///
/// # Safety
/// As [`direct_fma`], for the pieces of `block`: each starts at the
/// tables' offsets for its first step and ends at those for its last
/// ([`super::piece_start`]).
#[target_feature(enable = "avx2,fma")]
unsafe fn dot_runs(
    x: *const f64,
    y: *const f64,
    g: &super::DirectGemm,
    block: std::ops::Range<usize>,
) -> f64 {
    let (mut lo, mut hi) = (_mm256_setzero_pd(), _mm256_setzero_pd());
    for (p, len) in super::pieces(block, g.k_run) {
        let (xo, yo) = super::piece_start(g, p, len);
        // SAFETY: the piece's offsets run from `xo`, `yo` to the tables'
        // entries for its last step, each below the plan's span, which
        // `checked` proved fits the operands (the caller's contract);
        // masked lanes past the piece are not read.
        unsafe {
            let (xs, ys) = (x.add(xo), y.add(yo));
            let mut i = 0;
            while i + 8 <= len {
                let (x4, y4) = (xs.add(i + 4), ys.add(i + 4));
                lo = _mm256_fmadd_pd(_mm256_loadu_pd(xs.add(i)), _mm256_loadu_pd(ys.add(i)), lo);
                hi = _mm256_fmadd_pd(_mm256_loadu_pd(x4), _mm256_loadu_pd(y4), hi);
                i += 8;
            }
            let t = len - i;
            if t > 0 {
                let m = MASK.as_ptr().add(8 - t).cast::<__m256i>();
                lo = masked_fmadd(xs.add(i), ys.add(i), _mm256_loadu_si256(m), lo);
                if t > 4 {
                    let (x4, y4) = (xs.add(i + 4), ys.add(i + 4));
                    hi = masked_fmadd(x4, y4, _mm256_loadu_si256(m.add(1)), hi);
                }
            }
        }
    }
    let s = _mm256_add_pd(lo, hi);
    let h = _mm_add_pd(_mm256_castpd256_pd128(s), _mm256_extractf128_pd(s, 1));
    _mm_cvtsd_f64(_mm_add_sd(h, _mm_unpackhi_pd(h, h)))
}

/// `acc + x·y` in the lanes `mask` selects, fused, reading no element
/// outside them; the other lanes add `+0.0 · -0.0` and keep their bits.
///
/// # Safety
/// As [`dot_runs`], for the selected lanes of `x` and `y`.
#[target_feature(enable = "avx2,fma")]
#[inline]
unsafe fn masked_fmadd(x: *const f64, y: *const f64, mask: __m256i, acc: __m256d) -> __m256d {
    let xv = _mm256_maskload_pd(x, mask);
    let yv = _mm256_maskload_pd(y, mask);
    let yv = _mm256_blendv_pd(_mm256_set1_pd(-0.0), yv, _mm256_castsi256_pd(mask));
    _mm256_fmadd_pd(xv, yv, acc)
}

/// Vectorized equal-length copy (`_mm256_loadu/storeu_pd`, 16 elements
/// per step) — the unit-stride pack fast path.
///
/// # Safety
/// Caller must ensure AVX support; `dst.len() == src.len()`.
#[target_feature(enable = "avx")]
pub unsafe fn copy_f64(dst: &mut [f64], src: &[f64]) {
    debug_assert_eq!(dst.len(), src.len());
    let n = dst.len();
    let sp = src.as_ptr();
    let dp = dst.as_mut_ptr();
    let mut i = 0;
    while i + 16 <= n {
        _mm256_storeu_pd(dp.add(i), _mm256_loadu_pd(sp.add(i)));
        _mm256_storeu_pd(dp.add(i + 4), _mm256_loadu_pd(sp.add(i + 4)));
        _mm256_storeu_pd(dp.add(i + 8), _mm256_loadu_pd(sp.add(i + 8)));
        _mm256_storeu_pd(dp.add(i + 12), _mm256_loadu_pd(sp.add(i + 12)));
        i += 16;
    }
    while i + 4 <= n {
        _mm256_storeu_pd(dp.add(i), _mm256_loadu_pd(sp.add(i)));
        i += 4;
    }
    while i < n {
        *dp.add(i) = *sp.add(i);
        i += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn have_avx2_fma() -> bool {
        is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma")
    }

    #[test]
    fn microkernel_matches_scalar_reference() {
        if !have_avx2_fma() {
            return;
        }
        let kb = 9;
        let ap: Vec<f64> = (0..kb * 8).map(|x| (x as f64 * 0.13).sin()).collect();
        let bp: Vec<f64> = (0..kb * 6).map(|x| (x as f64 * 0.41).cos()).collect();
        let mut acc = [f64::NAN; 48];
        unsafe { microkernel_8x6(&ap, &bp, kb, &mut acc) };
        for r in 0..8 {
            for c in 0..6 {
                let mut want = 0.0;
                for kk in 0..kb {
                    want += ap[kk * 8 + r] * bp[kk * 6 + c];
                }
                assert!((acc[r * 6 + c] - want).abs() < 1e-12, "r={r} c={c}");
            }
        }
    }

    #[test]
    fn copy_handles_all_remainders() {
        if !is_x86_feature_detected!("avx") {
            return;
        }
        for n in [0usize, 1, 3, 4, 5, 15, 16, 17, 33, 100] {
            let src: Vec<f64> = (0..n).map(|x| x as f64 + 0.5).collect();
            let mut dst = vec![0.0f64; n];
            unsafe { copy_f64(&mut dst, &src) };
            assert_eq!(dst, src, "n={n}");
        }
    }
}
