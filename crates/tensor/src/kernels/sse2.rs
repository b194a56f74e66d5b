//! 128-bit SSE2 kernels — the baseline vector tier every x86-64 CPU can
//! run.
//!
//! The GEMM micro-kernel uses a 4×4 register tile vectorized along M:
//! two `__m128d` loads cover a packed-A column, each packed-B element is
//! broadcast, and the eight accumulators plus operands stay within the
//! sixteen xmm registers.  No FMA: mul then add, which keeps SSE2
//! rounding close to (but not bit-identical with) the scalar oracle.

#![cfg(any(target_arch = "x86", target_arch = "x86_64"))]

#[cfg(target_arch = "x86")]
use std::arch::x86::*;
#[cfg(target_arch = "x86_64")]
use std::arch::x86_64::*;

/// 4×4 SSE2 micro-kernel: `acc[r*4 + c] = Σ_k ap[k*4+r]·bp[k*4+c]`.
///
/// # Safety
/// Caller must ensure the host supports SSE2 (always true on x86-64;
/// CPUID-checked by the dispatcher on x86).
#[target_feature(enable = "sse2")]
pub unsafe fn microkernel_4x4(ap: &[f64], bp: &[f64], kb: usize, acc: &mut [f64]) {
    const MR: usize = 4;
    const NR: usize = 4;
    debug_assert!(ap.len() >= kb * MR && bp.len() >= kb * NR && acc.len() >= MR * NR);
    // acc column c, rows [0..2) and [2..4).
    let mut c_lo = [_mm_setzero_pd(); NR];
    let mut c_hi = [_mm_setzero_pd(); NR];
    for kk in 0..kb {
        let a = ap.as_ptr().add(kk * MR);
        let a_lo = _mm_loadu_pd(a);
        let a_hi = _mm_loadu_pd(a.add(2));
        let b = bp.as_ptr().add(kk * NR);
        for c in 0..NR {
            let bv = _mm_set1_pd(*b.add(c));
            c_lo[c] = _mm_add_pd(c_lo[c], _mm_mul_pd(a_lo, bv));
            c_hi[c] = _mm_add_pd(c_hi[c], _mm_mul_pd(a_hi, bv));
        }
    }
    // Registers hold columns; the engine wants rows (`acc[r*NR + c]`).
    let mut col = [0.0f64; MR];
    for (c, (&lo, &hi)) in c_lo.iter().zip(&c_hi).enumerate() {
        _mm_storeu_pd(col.as_mut_ptr(), lo);
        _mm_storeu_pd(col.as_mut_ptr().add(2), hi);
        for r in 0..MR {
            acc[r * NR + c] = col[r];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn microkernel_matches_scalar_reference() {
        if !is_x86_feature_detected!("sse2") {
            return;
        }
        let kb = 7;
        let ap: Vec<f64> = (0..kb * 4).map(|x| (x as f64 * 0.37).sin()).collect();
        let bp: Vec<f64> = (0..kb * 4).map(|x| (x as f64 * 0.73).cos()).collect();
        let mut acc = [f64::NAN; 16];
        unsafe { microkernel_4x4(&ap, &bp, kb, &mut acc) };
        for r in 0..4 {
            for c in 0..4 {
                let mut want = 0.0;
                for kk in 0..kb {
                    want += ap[kk * 4 + r] * bp[kk * 4 + c];
                }
                assert!((acc[r * 4 + c] - want).abs() < 1e-12, "r={r} c={c}");
            }
        }
    }
}
