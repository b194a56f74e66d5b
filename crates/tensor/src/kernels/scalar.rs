//! Portable scalar kernels — the dispatch fallback and the bitwise
//! oracle the SIMD variants are differentially tested against.
//!
//! The GEMM micro-kernel is the exact loop nest the engine shipped with
//! before runtime dispatch existed (plain mul+add, no FMA), so running
//! under `TCE_KERNEL=scalar` reproduces historical results bit for bit.

/// 8×4 register-blocked inner kernel: `acc[r*4+c] = Σ_k ap·bp` over `kb`
/// steps.  Plain mul+add so the compiler auto-vectorizes without relying
/// on a fused-multiply-add target feature (keeping results identical
/// across builds).
#[inline]
pub fn microkernel_8x4(ap: &[f64], bp: &[f64], kb: usize, acc: &mut [f64]) {
    const MR: usize = 8;
    const NR: usize = 4;
    let mut local = [[0.0f64; NR]; MR];
    for kk in 0..kb {
        let a_col: &[f64; MR] = ap[kk * MR..(kk + 1) * MR].try_into().expect("MR chunk");
        let b_row: &[f64; NR] = bp[kk * NR..(kk + 1) * NR].try_into().expect("NR chunk");
        for r in 0..MR {
            let av = a_col[r];
            for c in 0..NR {
                local[r][c] += av * b_row[c];
            }
        }
    }
    for (r, row) in local.iter().enumerate() {
        acc[r * NR..(r + 1) * NR].copy_from_slice(row);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn microkernel_matches_reference() {
        let kb = 5;
        let ap: Vec<f64> = (0..kb * 8).map(|x| (x as f64).sin()).collect();
        let bp: Vec<f64> = (0..kb * 4).map(|x| (x as f64).cos()).collect();
        let mut acc = [1.0f64; 32]; // overwritten, not accumulated
        microkernel_8x4(&ap, &bp, kb, &mut acc);
        for r in 0..8 {
            for c in 0..4 {
                let mut want = 0.0;
                for kk in 0..kb {
                    want += ap[kk * 8 + r] * bp[kk * 4 + c];
                }
                assert!((acc[r * 4 + c] - want).abs() < 1e-12);
            }
        }
    }
}
