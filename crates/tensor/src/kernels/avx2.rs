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

/// The no-pack kernel ([`super::direct`]) with each step a fused
/// multiply-add — `_mm256_fmadd_pd`'s rounding, one element at a time.
///
/// # Safety
/// Caller must ensure the host supports AVX2 and FMA (CPUID-checked by
/// the dispatcher), and the offset contract of [`super::direct`].
#[target_feature(enable = "avx2,fma")]
pub(crate) unsafe fn direct_fma(g: &super::DirectGemm, a: *const f64, b: *const f64, c: *mut f64) {
    // SAFETY: the offsets are the caller's contract.
    unsafe { super::direct_with(g, a, b, c, f64::mul_add) }
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

/// Transpose four source columns of four consecutive `iu` values into
/// four destination rows: the classic unpack + `permute2f128` 4×4 f64
/// in-register transpose.
#[inline(always)]
unsafe fn transpose4x4(sp: *const f64, dp: *mut f64, scs: usize, drs: usize) {
    let r0 = _mm256_loadu_pd(sp);
    let r1 = _mm256_loadu_pd(sp.add(scs));
    let r2 = _mm256_loadu_pd(sp.add(2 * scs));
    let r3 = _mm256_loadu_pd(sp.add(3 * scs));
    let t0 = _mm256_unpacklo_pd(r0, r1);
    let t1 = _mm256_unpackhi_pd(r0, r1);
    let t2 = _mm256_unpacklo_pd(r2, r3);
    let t3 = _mm256_unpackhi_pd(r2, r3);
    _mm256_storeu_pd(dp, _mm256_permute2f128_pd(t0, t2, 0x20));
    _mm256_storeu_pd(dp.add(drs), _mm256_permute2f128_pd(t1, t3, 0x20));
    _mm256_storeu_pd(dp.add(2 * drs), _mm256_permute2f128_pd(t0, t2, 0x31));
    _mm256_storeu_pd(dp.add(3 * drs), _mm256_permute2f128_pd(t1, t3, 0x31));
}

/// Transpose-structured copy (`dst[d0+iu*drs+il] = src[s0+iu+il*scs]`)
/// processed as 8×8 blocks of four 4×4 in-register transpose tiles, with
/// scalar edges.
///
/// # Safety
/// Caller must ensure AVX2 support; index bounds are the caller's
/// contract exactly as in the scalar version.
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
pub unsafe fn transpose_tile(
    src: &[f64],
    dst: &mut [f64],
    s0: usize,
    d0: usize,
    nu: usize,
    nl: usize,
    scs: usize,
    drs: usize,
) {
    let sp = src.as_ptr();
    let dp = dst.as_mut_ptr();
    let nu4 = nu / 4 * 4;
    let nl4 = nl / 4 * 4;
    // 8×8 macro-blocks keep one source stripe and one destination stripe
    // hot; each is four 4×4 register transposes.
    let mut iu = 0;
    while iu + 8 <= nu4 {
        let mut il = 0;
        while il + 8 <= nl4 {
            for (du, dl) in [(0, 0), (0, 4), (4, 0), (4, 4)] {
                transpose4x4(
                    sp.add(s0 + iu + du + (il + dl) * scs),
                    dp.add(d0 + (iu + du) * drs + il + dl),
                    scs,
                    drs,
                );
            }
            il += 8;
        }
        while il + 4 <= nl4 {
            transpose4x4(
                sp.add(s0 + iu + il * scs),
                dp.add(d0 + iu * drs + il),
                scs,
                drs,
            );
            transpose4x4(
                sp.add(s0 + iu + 4 + il * scs),
                dp.add(d0 + (iu + 4) * drs + il),
                scs,
                drs,
            );
            il += 4;
        }
        for il in il..nl {
            for r in 0..8 {
                *dp.add(d0 + (iu + r) * drs + il) = *sp.add(s0 + iu + r + il * scs);
            }
        }
        iu += 8;
    }
    while iu + 4 <= nu4 {
        let mut il = 0;
        while il + 4 <= nl4 {
            transpose4x4(
                sp.add(s0 + iu + il * scs),
                dp.add(d0 + iu * drs + il),
                scs,
                drs,
            );
            il += 4;
        }
        for il in il..nl {
            for r in 0..4 {
                *dp.add(d0 + (iu + r) * drs + il) = *sp.add(s0 + iu + r + il * scs);
            }
        }
        iu += 4;
    }
    for iu in iu..nu {
        for il in 0..nl {
            *dp.add(d0 + iu * drs + il) = *sp.add(s0 + iu + il * scs);
        }
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

    #[test]
    fn transpose_matches_scalar_on_odd_tiles() {
        if !have_avx2_fma() {
            return;
        }
        for (nu, nl) in [(1, 1), (4, 4), (8, 8), (9, 13), (17, 5), (23, 29)] {
            let scs = nu + 3; // room between columns
            let drs = nl + 2;
            let len = (nl + 1) * scs + nu + 8;
            let dlen = (nu + 1) * drs + nl + 8;
            let src: Vec<f64> = (0..len).map(|x| (x * x) as f64).collect();
            let mut dst = vec![0.0f64; dlen];
            let mut want = vec![0.0f64; dlen];
            unsafe { transpose_tile(&src, &mut dst, 1, 2, nu, nl, scs, drs) };
            super::super::scalar::transpose_tile(&src, &mut want, 1, 2, nu, nl, scs, drs);
            assert_eq!(dst, want, "nu={nu} nl={nl}");
        }
    }
}
