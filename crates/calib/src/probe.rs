//! Seeded, budgeted microbenchmark probes.
//!
//! Each probe warms once, then repeats its measured kernel until its
//! slice of the overall time budget is spent, keeping the *fastest*
//! repetition (minimum-of-N is the standard way to strip scheduler noise
//! from short benchmarks).  Every probe runs at least once regardless of
//! budget, so even `--budget-ms 1` yields a complete, valid profile —
//! just a noisier one.

use crate::{GemmRates, Profile, PROFILE_VERSION};
use std::hint::black_box;
use std::time::Instant;
use tce_ir::rng::Rng;
use tce_ir::IndexSpace;
use tce_tensor::kernels::{self, CacheInfo, KernelVariant};
use tce_tensor::{contract_gett_with_variant, BinaryContraction, Tensor};

/// Probe configuration.
#[derive(Debug, Clone)]
pub struct ProbeOptions {
    /// Seed for the random operand data.
    pub seed: u64,
    /// Total wall-clock budget across all probes, in milliseconds.
    pub budget_ms: u64,
    /// Worker threads for the dispatch-overhead probe.
    pub threads: usize,
}

impl Default for ProbeOptions {
    fn default() -> Self {
        Self {
            seed: 0x7CE_CA11B,
            budget_ms: 400,
            threads: tce_par::default_threads(),
        }
    }
}

/// Matmul edge lengths per shape class; chosen so each probe's flop
/// count (2n³) lands inside its own [`crate::ShapeClass`] window.
pub const CLASS_SIZES: [(crate::ShapeClass, usize); 3] = [
    (crate::ShapeClass::Small, 48),
    (crate::ShapeClass::Medium, 160),
    (crate::ShapeClass::Large, 320),
];

/// Shapes actually probed: the real class sizes in release builds,
/// heavily trimmed stand-ins under debug profiles (where an unoptimized
/// 320³ GEMM takes seconds and profile quality is irrelevant — the same
/// release-only discipline the kernel differential suites use).
fn probe_sizes() -> [(crate::ShapeClass, usize); 3] {
    if cfg!(debug_assertions) {
        [
            (crate::ShapeClass::Small, 16),
            (crate::ShapeClass::Medium, 32),
            (crate::ShapeClass::Large, 64),
        ]
    } else {
        CLASS_SIZES
    }
}

/// Repeat `f` until `slice_ns` is spent (minimum one repetition) and
/// return the fastest single elapsed time in nanoseconds.
fn best_of_budget(slice_ns: u128, mut f: impl FnMut()) -> u128 {
    let start = Instant::now();
    let mut best = u128::MAX;
    let mut runs = 0u32;
    while runs < 1 || start.elapsed().as_nanos() < slice_ns {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_nanos().max(1));
        runs += 1;
        if runs >= 10_000 {
            break;
        }
    }
    best
}

fn gemm_gfs(variant: KernelVariant, n: usize, seed: u64, slice_ns: u128) -> f64 {
    let mut space = IndexSpace::new();
    let r = space.add_range("N", n);
    let (i, j, k) = (
        space.add_var("i", r),
        space.add_var("j", r),
        space.add_var("k", r),
    );
    let spec = BinaryContraction {
        a: vec![i, k],
        b: vec![k, j],
        out: vec![i, j],
    };
    let a = Tensor::random(&[n, n], seed ^ 0xA);
    let b = Tensor::random(&[n, n], seed ^ 0xB);
    // Warm: plan construction and pack-buffer allocation.
    black_box(contract_gett_with_variant(
        &spec, &space, &a, &b, 1, variant,
    ));
    let best_ns = best_of_budget(slice_ns, || {
        black_box(contract_gett_with_variant(
            &spec, &space, &a, &b, 1, variant,
        ));
    });
    let flops = 2.0 * (n as f64).powi(3);
    flops / best_ns as f64
}

fn copy_gbs(variant: KernelVariant, seed: u64, slice_ns: u128) -> f64 {
    let len = 1 << 19; // 4 MiB of f64 — larger than L2, pack-buffer scale.
    let mut rng = Rng::new(seed);
    let src: Vec<f64> = (0..len).map(|_| rng.unit_f64()).collect();
    let mut dst = vec![0.0f64; len];
    kernels::copy_f64(variant, &mut dst, &src);
    let best_ns = best_of_budget(slice_ns, || {
        kernels::copy_f64(variant, &mut dst, &src);
        black_box(&dst);
    });
    // Read + write traffic.
    (2 * len * 8) as f64 / best_ns as f64
}

fn permute_gbs(seed: u64, slice_ns: u128) -> f64 {
    let n = 640; // 640² f64 ≈ 3.3 MB
    let t = Tensor::random(&[n, n], seed ^ 0xE);
    black_box(t.permute(&[1, 0]));
    let best_ns = best_of_budget(slice_ns, || {
        black_box(t.permute(&[1, 0]));
    });
    (2 * n * n * 8) as f64 / best_ns as f64
}

fn level_gbs(bytes: usize, seed: u64, slice_ns: u128) -> f64 {
    let len = (bytes / 8).max(1024);
    // A cheap deterministic fill — the scan measures bandwidth, so the
    // values only need to defeat constant folding, not look random.
    let base = (seed % 1024) as f64 * 1e-6;
    let buf: Vec<f64> = (0..len).map(|i| base + i as f64 * 1e-9).collect();
    let mut sink = 0.0f64;
    let best_ns = best_of_budget(slice_ns, || {
        let mut acc = 0.0f64;
        for chunk in buf.chunks_exact(8) {
            acc += chunk[0]
                + chunk[1]
                + chunk[2]
                + chunk[3]
                + chunk[4]
                + chunk[5]
                + chunk[6]
                + chunk[7];
        }
        sink += black_box(acc);
    });
    black_box(sink);
    (len * 8) as f64 / best_ns as f64
}

fn dispatch_ns(threads: usize, slice_ns: u128) -> f64 {
    let tasks = 256usize;
    // Warm the pool so thread spawning is not measured.
    tce_par::parallel_for(tasks, threads, |_| {});
    let best_ns = best_of_budget(slice_ns, || {
        tce_par::parallel_for(tasks, threads, |i| {
            black_box(i);
        });
    });
    best_ns as f64 / tasks as f64
}

/// Run all probes within `opts.budget_ms` and assemble a [`Profile`].
///
/// Budget split: 60% GEMM (across every supported variant × three shape
/// classes), 10% pack copy, 10% permute, 15% memory levels, 5% dispatch.
pub fn run_probes(opts: &ProbeOptions) -> Profile {
    let total_ns = (opts.budget_ms as u128) * 1_000_000;
    let cache = kernels::cache_info();
    let variants = kernels::supported_variants();

    let gemm_slice = total_ns * 60 / 100 / (variants.len() as u128 * 3).max(1);
    let mut gemm = Vec::new();
    for &v in &variants {
        let mut rates = [0.0f64; 3];
        for (slot, &(_, n)) in probe_sizes().iter().enumerate() {
            rates[slot] = gemm_gfs(v, n, opts.seed, gemm_slice);
        }
        gemm.push((
            v.name().to_string(),
            GemmRates {
                small: rates[0],
                medium: rates[1],
                large: rates[2],
            },
        ));
    }

    let active = kernels::active();
    let copy = copy_gbs(active, opts.seed, total_ns / 10);
    let permute = permute_gbs(opts.seed, total_ns / 10);

    let mem_slice = total_ns * 15 / 100 / 4;
    // Working sets are capped (64 MiB for in-cache levels, 256 MiB for
    // the beyond-L3 scan) so hosts with huge last-level caches do not
    // spend the whole budget faulting in a multi-GB buffer; on such
    // hosts the `mem` figure degrades to an L3-bandwidth estimate,
    // which is the right effective rate for workloads that fit there.
    let l3_ws = (cache.l3 / 2).min(64 << 20);
    let mem_ws = cache.l3.saturating_mul(2).clamp(32 << 20, 256 << 20);
    let mem = vec![
        (
            "l1".to_string(),
            level_gbs(cache.l1d / 2, opts.seed, mem_slice),
        ),
        (
            "l2".to_string(),
            level_gbs((cache.l2 / 2).min(64 << 20), opts.seed, mem_slice),
        ),
        ("l3".to_string(), level_gbs(l3_ws, opts.seed, mem_slice)),
        ("mem".to_string(), level_gbs(mem_ws, opts.seed, mem_slice)),
    ];

    let disp = dispatch_ns(opts.threads.max(1), total_ns / 20);

    Profile {
        version: PROFILE_VERSION,
        seed: opts.seed,
        budget_ms: opts.budget_ms,
        gemm_gfs: gemm,
        copy_gbs: copy,
        permute_gbs: permute,
        mem_gbs: mem,
        dispatch_ns: disp,
        cache: CacheInfo {
            l1d: cache.l1d,
            l2: cache.l2,
            l3: cache.l3,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_budget_still_yields_a_complete_valid_profile() {
        let profile = run_probes(&ProbeOptions {
            seed: 7,
            budget_ms: 1,
            threads: 2,
        });
        // Every rate is positive and finite — the validation the JSON
        // loader applies accepts what the probes produce.
        let round = Profile::from_json(&profile.to_json()).unwrap();
        assert_eq!(round, profile);
        assert!(!profile.gemm_gfs.is_empty());
        for (name, r) in &profile.gemm_gfs {
            for rate in [r.small, r.medium, r.large] {
                assert!(rate.is_finite() && rate > 0.0, "{name}: {rate}");
            }
        }
        assert_eq!(profile.mem_gbs.len(), 4);
        assert!(profile.dispatch_ns > 0.0);
    }

    #[test]
    fn class_sizes_land_in_their_own_classes() {
        for (class, n) in CLASS_SIZES {
            let flops = 2 * (n as u128).pow(3);
            assert_eq!(crate::shape_class(flops), class, "n={n}");
        }
    }
}
