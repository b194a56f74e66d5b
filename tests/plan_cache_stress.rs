//! Multi-threaded stress of the sharded LRU behind the GETT plan cache:
//! N threads fetching real contraction plans with mixed signatures from a
//! capacity-2 cache split over 8 shards must not deadlock, must keep the
//! eviction counters consistent with the entry count, and must produce
//! bitwise-identical results to a single-threaded run.

use tce_core::ir::IndexSpace;
use tce_core::par::ShardedLru;
use tce_core::tensor::{contract_gett, BinaryContraction, ContractionPlan, Tensor};

/// A family of distinct plan signatures: matmul at several extents.
fn cases() -> Vec<(BinaryContraction, IndexSpace, Tensor, Tensor)> {
    let mut out = Vec::new();
    for (ni, nj, nk) in [
        (4, 4, 4),
        (5, 4, 3),
        (8, 2, 6),
        (3, 7, 5),
        (6, 6, 2),
        (2, 9, 4),
        (7, 3, 8),
        (4, 8, 8),
    ] {
        let mut sp = IndexSpace::new();
        let ri = sp.add_range("I", ni);
        let rj = sp.add_range("J", nj);
        let rk = sp.add_range("K", nk);
        let i = sp.add_var("i", ri);
        let j = sp.add_var("j", rj);
        let k = sp.add_var("k", rk);
        let spec = BinaryContraction {
            a: vec![i, k],
            b: vec![k, j],
            out: vec![i, j],
        };
        let a = Tensor::random(&[ni, nk], (ni * 31 + nk) as u64);
        let b = Tensor::random(&[nk, nj], (nk * 57 + nj) as u64);
        out.push((spec, sp, a, b));
    }
    out
}

#[test]
fn capacity_two_sharded_cache_under_contention() {
    // Capacity 2 over 8 shards: six shards retain nothing and two keep one
    // plan each, so the 8 signatures keep missing and evicting.
    let cache: ShardedLru<usize, ContractionPlan> = ShardedLru::new(2, 8);
    let work = cases();
    let reference: Vec<Tensor> = work
        .iter()
        .map(|(spec, sp, a, b)| contract_gett(spec, sp, a, b, 1))
        .collect();

    let rounds = 30;
    let threads = 8;
    let all_match = std::sync::atomic::AtomicBool::new(true);
    std::thread::scope(|s| {
        for t in 0..threads {
            let (cache, work, reference, all_match) = (&cache, &work, &reference, &all_match);
            s.spawn(move || {
                for r in 0..rounds {
                    // Every thread walks the signatures in a different
                    // order so shard locks interleave.
                    let idx = (t + r) % work.len();
                    let (spec, sp, a, b) = &work[idx];
                    let (plan, _) =
                        cache.get_or_insert_with(&idx, || ContractionPlan::new(spec, sp));
                    if plan.execute(a, b, 1) != reference[idx] {
                        all_match.store(false, std::sync::atomic::Ordering::SeqCst);
                    }
                }
            });
        }
    });
    assert!(
        all_match.load(std::sync::atomic::Ordering::SeqCst),
        "concurrent cached contractions diverged from the single-threaded run"
    );

    // Counter consistency: every lookup was a hit or a miss, and the
    // entries that survived are exactly the misses minus the evictions.
    let stats = cache.stats();
    assert_eq!(
        stats.hits + stats.misses,
        (threads * rounds) as u64,
        "every concurrent lookup must be counted exactly once"
    );
    assert_eq!(
        stats.misses - stats.evictions,
        cache.len() as u64,
        "misses - evictions must equal the live entry count"
    );
    assert!(
        cache.len() <= 2,
        "capacity-2 cache holds {} entries",
        cache.len()
    );
}
