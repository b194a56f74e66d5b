//! Data-parallel execution primitives on a persistent worker pool.
//!
//! The paper assumes a data-parallel model in which "each operation in the
//! operation sequence is distributed across the entire parallel machine"
//! (§7).  This module supplies the shared-memory realization used by the
//! executor: block-partitioned parallel-for and parallel-map over
//! slices, with a configurable thread count.  No work stealing — tensor
//! contraction iterations are uniform, so static block partitioning is the
//! right schedule and keeps the substrate small and auditable.
//!
//! Work runs on a process-wide [`Pool`] of parked worker threads, so a
//! synthesized program that executes thousands of small contractions pays
//! the thread-spawn cost once, not per kernel call.  The partitioning is
//! purely static: callers receive disjoint index ranges, which is what the
//! GETT contraction engine relies on for bitwise-deterministic output.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// Number of worker threads to use: the `TCE_THREADS` environment variable
/// if set, otherwise the machine's available parallelism (at least 1).
pub fn default_threads() -> usize {
    if let Ok(v) = std::env::var("TCE_THREADS") {
        if let Ok(n) = v.parse::<usize>() {
            return n.max(1);
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Validate the `TCE_THREADS` environment variable without applying it:
/// `Ok(None)` when unset, `Ok(Some(n))` for a positive count, `Err` with
/// a one-line diagnostic for anything else (`banana`, `0`, …).  The CLI
/// calls this up front so a bad value fails fast instead of being
/// silently clamped by [`default_threads`].
pub fn threads_env_requested() -> Result<Option<usize>, String> {
    match std::env::var("TCE_THREADS") {
        Err(_) => Ok(None),
        Ok(v) => match v.parse::<usize>() {
            Ok(0) => Err("bad TCE_THREADS `0`: must be at least 1".to_string()),
            Ok(n) => Ok(Some(n)),
            Err(e) => Err(format!("bad TCE_THREADS `{v}`: {e}")),
        },
    }
}

/// Split `n` items into at most `parts` contiguous ranges of near-equal
/// length (the paper's `myrange(z, N, p)` block partitioning, 0-based).
/// `parts` is capped by `n`, so no returned range is empty (except the
/// single `0..0` range when `n == 0`).
pub fn block_ranges(n: usize, parts: usize) -> Vec<std::ops::Range<usize>> {
    let parts = parts.max(1).min(n.max(1));
    let base = n / parts;
    let extra = n % parts;
    let mut out = Vec::with_capacity(parts);
    let mut start = 0;
    for i in 0..parts {
        let len = base + usize::from(i < extra);
        out.push(start..start + len);
        start += len;
    }
    out
}

/// One parallel job: an erased task closure plus its task count.  The
/// pointer is only dereferenced while [`Pool::run`] is blocked waiting for
/// completion, which keeps the borrow alive.
#[derive(Clone, Copy)]
struct Job {
    f: *const (dyn Fn(usize) + Sync),
    tasks: usize,
}

// SAFETY: the closure behind `f` is `Sync`, and `Pool::run` does not
// return until every dereference has finished.
unsafe impl Send for Job {}

/// State guarded by the pool mutex.
struct Gate {
    /// Bumped once per submitted job so sleeping workers can tell a new
    /// job from the one they already finished.
    epoch: u64,
    /// The current job, if one is in flight.
    job: Option<Job>,
    /// Workers currently inside a claim loop for the live epoch.
    active: usize,
    /// Set on drop; workers exit.
    shutdown: bool,
}

struct Shared {
    gate: Mutex<Gate>,
    /// Signals workers: new job or shutdown.
    work: Condvar,
    /// Signals the submitter: tasks or workers drained.
    done: Condvar,
    /// Next unclaimed task index of the current job.
    next: AtomicUsize,
    /// Tasks not yet completed.
    pending: AtomicUsize,
    /// A task panicked; `run` re-panics after the job drains.
    panicked: AtomicBool,
}

/// A persistent pool of parked worker threads.
///
/// Jobs are submitted as `(task_count, Fn(task_index))`; workers and the
/// submitting thread claim task indices from a shared counter.  Which
/// thread runs which task is scheduling-dependent, so tasks must write
/// disjoint state — the same contract as scoped-thread partitioning, but
/// without a per-call spawn.  Nested or concurrent submissions are safe:
/// they detect the busy pool and execute inline on the caller.
///
/// Lock poisoning is recovered everywhere (`unwrap_or_else(into_inner)`):
/// the pool's own mutexes guard scheduling bookkeeping whose invariants
/// are restored by the next submission, and task panics are already
/// caught, recorded, and re-raised once per job by [`Pool::run`] — turning
/// a poisoned lock into a second, process-wide panic cascade would only
/// mask the original failure.
pub struct Pool {
    shared: Arc<Shared>,
    /// Serializes submissions; `try_lock` failure = nested call → inline.
    submit: Mutex<()>,
    /// Worker handles, joined on drop.
    handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl Pool {
    /// A pool with `workers` worker threads (the submitting thread also
    /// executes tasks, so total concurrency is `workers + 1`).
    pub fn new(workers: usize) -> Self {
        let pool = Self {
            shared: Arc::new(Shared {
                gate: Mutex::new(Gate {
                    epoch: 0,
                    job: None,
                    active: 0,
                    shutdown: false,
                }),
                work: Condvar::new(),
                done: Condvar::new(),
                next: AtomicUsize::new(0),
                pending: AtomicUsize::new(0),
                panicked: AtomicBool::new(false),
            }),
            submit: Mutex::new(()),
            handles: Mutex::new(Vec::new()),
        };
        pool.ensure_workers(workers);
        pool
    }

    /// The process-wide pool.  Created on first use with
    /// `default_threads() - 1` workers; grows on demand when a caller
    /// requests more concurrency.
    pub fn global() -> &'static Pool {
        static GLOBAL: OnceLock<Pool> = OnceLock::new();
        GLOBAL.get_or_init(|| Pool::new(default_threads().saturating_sub(1)))
    }

    /// Current worker count.
    pub fn workers(&self) -> usize {
        self.handles.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// Grow the pool to at least `target` workers (capped at 256).
    pub fn ensure_workers(&self, target: usize) {
        let target = target.min(256);
        let mut handles = self.handles.lock().unwrap_or_else(|e| e.into_inner());
        while handles.len() < target {
            let shared = Arc::clone(&self.shared);
            handles.push(std::thread::spawn(move || worker_loop(&shared)));
        }
    }

    /// Execute `f(0), …, f(tasks - 1)` across the pool, returning when all
    /// have finished.  The caller participates, so the pool works (slowly)
    /// even with zero workers.  Panics in tasks are re-raised here after
    /// the job drains.
    pub fn run(&self, tasks: usize, f: &(dyn Fn(usize) + Sync)) {
        if tasks == 0 {
            return;
        }
        // Nested (a task submitting a sub-job) or concurrent submission:
        // run inline rather than corrupting the in-flight job.
        let Ok(_submit) = self.submit.try_lock() else {
            for i in 0..tasks {
                f(i);
            }
            return;
        };
        if tasks == 1 || self.workers() == 0 {
            drop(_submit);
            for i in 0..tasks {
                f(i);
            }
            return;
        }

        // SAFETY: erase the borrow's lifetime so the job can be stored in
        // the shared gate; `run` does not return until every worker has
        // left the claim loop, so no dereference outlives the borrow.
        let f_erased: &'static (dyn Fn(usize) + Sync) =
            unsafe { std::mem::transmute::<&(dyn Fn(usize) + Sync), _>(f) };
        let shared = &self.shared;
        shared.next.store(0, Ordering::SeqCst);
        shared.pending.store(tasks, Ordering::SeqCst);
        shared.panicked.store(false, Ordering::SeqCst);
        {
            let mut g = shared.gate.lock().unwrap_or_else(|e| e.into_inner());
            g.epoch += 1;
            g.job = Some(Job { f: f_erased, tasks });
            shared.work.notify_all();
        }

        // The submitting thread claims tasks too, and counts its claim
        // loop as busy time: a job the caller finishes before any worker
        // wakes still shows in the pool accounting.
        let t_claim = tce_trace::enabled().then(tce_trace::now_ns);
        loop {
            let i = shared.next.fetch_add(1, Ordering::Relaxed);
            if i >= tasks {
                break;
            }
            if catch_unwind(AssertUnwindSafe(|| f(i))).is_err() {
                shared.panicked.store(true, Ordering::SeqCst);
            }
            shared.pending.fetch_sub(1, Ordering::AcqRel);
        }
        if let Some(t0) = t_claim {
            tce_trace::counter("pool.busy_ns", tce_trace::now_ns() - t0);
        }

        // Retract the job, then wait for stragglers.  Workers register in
        // `active` under the gate before claiming, so once `job` is cleared
        // and `active == 0`, no thread can touch `f` again.
        let mut g = shared.gate.lock().unwrap_or_else(|e| e.into_inner());
        g.job = None;
        while g.active > 0 || shared.pending.load(Ordering::Acquire) > 0 {
            g = shared.done.wait(g).unwrap_or_else(|e| e.into_inner());
        }
        drop(g);
        if shared.panicked.load(Ordering::SeqCst) {
            panic!("worker task panicked");
        }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        {
            let mut g = self.shared.gate.lock().unwrap_or_else(|e| e.into_inner());
            g.shutdown = true;
            self.shared.work.notify_all();
        }
        let handles = std::mem::take(&mut *self.handles.lock().unwrap_or_else(|e| e.into_inner()));
        for h in handles {
            let _ = h.join();
        }
    }
}

/// RAII registration in the gate's `active` count: deregisters and
/// notifies the submitter even if the claim loop unwinds, so a panic that
/// escapes a worker can never strand [`Pool::run`] in its drain wait.
struct ActiveGuard<'a> {
    shared: &'a Shared,
}

impl Drop for ActiveGuard<'_> {
    fn drop(&mut self) {
        let mut g = self.shared.gate.lock().unwrap_or_else(|e| e.into_inner());
        g.active -= 1;
        self.shared.done.notify_all();
    }
}

fn worker_loop(shared: &Shared) {
    let mut seen = 0u64;
    loop {
        // Per-worker busy/idle attribution: one clock read on each side of
        // the park and the claim loop, only while tracing is enabled.  The
        // counters land in this worker's thread-local trace buffer.
        let t_park = tce_trace::enabled().then(tce_trace::now_ns);
        let job = {
            let mut g = shared.gate.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if g.shutdown {
                    return;
                }
                if g.job.is_some() && g.epoch != seen {
                    break;
                }
                g = shared.work.wait(g).unwrap_or_else(|e| e.into_inner());
            }
            seen = g.epoch;
            g.active += 1;
            g.job.expect("checked above")
        };
        let _active = ActiveGuard { shared };
        let t_claim = if tce_trace::enabled() {
            let now = tce_trace::now_ns();
            if let Some(t0) = t_park {
                tce_trace::counter("pool.idle_ns", now - t0);
            }
            Some(now)
        } else {
            None
        };
        // SAFETY: `run` blocks until `active` drops to zero, so the
        // closure reference outlives this claim loop.
        let f = unsafe { &*job.f };
        loop {
            let i = shared.next.fetch_add(1, Ordering::Relaxed);
            if i >= job.tasks {
                break;
            }
            if catch_unwind(AssertUnwindSafe(|| f(i))).is_err() {
                shared.panicked.store(true, Ordering::SeqCst);
            }
            shared.pending.fetch_sub(1, Ordering::AcqRel);
        }
        if let Some(t0) = t_claim {
            if tce_trace::enabled() {
                tce_trace::counter("pool.busy_ns", tce_trace::now_ns() - t0);
            }
        }
        // `_active` drops here: deregister from the gate and wake the
        // submitter (also on the unwind path, via the guard's Drop).
        drop(_active);
    }
}

/// Run `f(range)` in parallel over a block partition of `0..n` with
/// `threads` workers.  `f` must be `Sync` (it receives disjoint ranges).
pub fn parallel_for<F>(n: usize, threads: usize, f: F)
where
    F: Fn(std::ops::Range<usize>) + Sync,
{
    let threads = threads.max(1).min(n.max(1));
    if threads == 1 {
        f(0..n);
        return;
    }
    let ranges = block_ranges(n, threads);
    let pool = Pool::global();
    pool.ensure_workers(threads - 1);
    pool.run(ranges.len(), &|i| f(ranges[i].clone()));
}

/// Apply `f` to disjoint mutable chunks of `data` in parallel — the
/// write-side primitive for partitioned output arrays.
pub fn parallel_chunks_mut<T, F>(data: &mut [T], threads: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    let n = data.len();
    let threads = threads.max(1).min(n.max(1));
    if threads == 1 {
        f(0, data);
        return;
    }
    let ranges = block_ranges(n, threads);
    // Pre-split into raw chunk descriptors so the shared `Fn(usize)` task
    // can hand each claimant its own disjoint slice.
    struct Chunk<T> {
        start: usize,
        ptr: *mut T,
        len: usize,
    }
    // SAFETY: chunks reference disjoint regions of `data`; each task index
    // is claimed exactly once.
    unsafe impl<T: Send> Sync for Chunk<T> {}
    let mut chunks: Vec<Chunk<T>> = Vec::with_capacity(ranges.len());
    {
        let mut rest = &mut *data;
        let mut offset = 0usize;
        for r in &ranges {
            let (head, tail) = rest.split_at_mut(r.len());
            rest = tail;
            chunks.push(Chunk {
                start: offset,
                ptr: head.as_mut_ptr(),
                len: head.len(),
            });
            offset += r.len();
        }
    }
    let pool = Pool::global();
    pool.ensure_workers(threads - 1);
    pool.run(chunks.len(), &|i| {
        let c = &chunks[i];
        // SAFETY: disjoint chunk, claimed once; lives for the whole run.
        let slice = unsafe { std::slice::from_raw_parts_mut(c.ptr, c.len) };
        f(c.start, slice);
    });
}

/// Parallel map over `0..n`: returns `vec![f(0), …, f(n-1)]`, computed on
/// the shared pool with up to `threads` workers.  Slot `i` is written by
/// exactly one worker, so the output is identical at every thread count.
/// Used by the sharded distributed executor to run per-rank work
/// concurrently while collecting per-rank results.
pub fn parallel_map<T, F>(n: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let mut out: Vec<Option<T>> = (0..n).map(|_| None).collect();
    parallel_chunks_mut(&mut out, threads, |start, chunk| {
        for (i, slot) in chunk.iter_mut().enumerate() {
            *slot = Some(f(start + i));
        }
    });
    out.into_iter()
        .map(|o| o.expect("every slot filled"))
        .collect()
}

/// A monotone counter shared across workers (used by the executor to count
/// operations without locks on the hot path — each worker batches locally
/// and flushes once).
#[derive(Debug, Default)]
pub struct SharedCounter(AtomicUsize);

impl SharedCounter {
    /// New counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `n`.
    pub fn add(&self, n: usize) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> usize {
        self.0.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_ranges_cover_exactly() {
        for n in [0usize, 1, 7, 100, 101] {
            for p in [1usize, 2, 3, 8, 150] {
                let rs = block_ranges(n, p);
                assert_eq!(rs.len(), p.max(1).min(n.max(1)));
                assert_eq!(rs.first().unwrap().start, 0);
                assert_eq!(rs.last().unwrap().end, n);
                for w in rs.windows(2) {
                    assert_eq!(w[0].end, w[1].start);
                }
                // Balanced: lengths differ by at most one.
                let lens: Vec<usize> = rs.iter().map(|r| r.len()).collect();
                let (mn, mx) = (lens.iter().min().unwrap(), lens.iter().max().unwrap());
                assert!(mx - mn <= 1);
                // No empty ranges once there is work.
                if n > 0 {
                    assert!(lens.iter().all(|&l| l > 0));
                }
            }
        }
    }

    #[test]
    fn parallel_for_touches_every_index_once() {
        let n = 1000;
        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        parallel_for(n, 4, |r| {
            for i in r {
                hits[i].fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn parallel_chunks_mut_writes_disjointly() {
        let mut data = vec![0usize; 997];
        parallel_chunks_mut(&mut data, 5, |start, chunk| {
            for (i, x) in chunk.iter_mut().enumerate() {
                *x = start + i;
            }
        });
        for (i, x) in data.iter().enumerate() {
            assert_eq!(*x, i);
        }
    }

    #[test]
    fn zero_length_work_is_safe() {
        parallel_for(0, 4, |r| assert!(r.is_empty()));
        let mut empty: Vec<u8> = Vec::new();
        parallel_chunks_mut(&mut empty, 4, |_, _| {});
    }

    #[test]
    fn shared_counter_accumulates_across_threads() {
        let c = SharedCounter::new();
        parallel_for(100, 4, |r| c.add(r.len()));
        assert_eq!(c.get(), 100);
    }

    #[test]
    fn default_threads_positive() {
        assert!(default_threads() >= 1);
    }

    #[test]
    fn pool_reuses_workers_across_jobs() {
        let pool = Pool::new(3);
        assert_eq!(pool.workers(), 3);
        let c = SharedCounter::new();
        for _ in 0..50 {
            pool.run(16, &|_| c.add(1));
        }
        assert_eq!(c.get(), 50 * 16);
        assert_eq!(pool.workers(), 3); // no respawn per job
    }

    #[test]
    fn pool_nested_submission_runs_inline() {
        let pool = Pool::new(2);
        let c = SharedCounter::new();
        pool.run(4, &|_| {
            // A task submitting to the same pool must not deadlock.
            pool.run(4, &|_| c.add(1));
        });
        assert_eq!(c.get(), 16);
    }

    #[test]
    fn pool_with_zero_workers_runs_on_caller() {
        let pool = Pool::new(0);
        let c = SharedCounter::new();
        pool.run(10, &|_| c.add(1));
        assert_eq!(c.get(), 10);
    }

    #[test]
    fn pool_task_panic_propagates() {
        let pool = Pool::new(2);
        let r = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run(8, &|i| {
                if i == 3 {
                    panic!("boom");
                }
            });
        }));
        assert!(r.is_err());
        // Pool is still usable after a panicked job.
        let c = SharedCounter::new();
        pool.run(8, &|_| c.add(1));
        assert_eq!(c.get(), 8);
    }

    /// Tiny xorshift for property tests (no external deps; tce-ir's Rng
    /// would create a dependency cycle from here).
    struct XorShift(u64);
    impl XorShift {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            x
        }
        fn below(&mut self, n: u64) -> u64 {
            self.next() % n.max(1)
        }
    }

    #[test]
    fn block_ranges_properties_randomized() {
        // Partition invariants hold for random (n, parts), including the
        // degenerate corners n == 0, parts == 0, parts > n.
        let mut rng = XorShift(0x9e3779b97f4a7c15);
        for trial in 0..500 {
            let (n, parts) = match trial {
                0 => (0, 0),
                1 => (0, 7),
                2 => (5, 0),
                3 => (3, 64),
                4 => (1, 1),
                _ => (rng.below(2000) as usize, rng.below(70) as usize),
            };
            let rs = block_ranges(n, parts);
            // Cardinality: parts clamped to [1, max(n,1)].
            assert_eq!(rs.len(), parts.max(1).min(n.max(1)), "n={n} parts={parts}");
            // Exact contiguous cover of 0..n.
            assert_eq!(rs.first().unwrap().start, 0);
            assert_eq!(rs.last().unwrap().end, n);
            for w in rs.windows(2) {
                assert_eq!(w[0].end, w[1].start);
            }
            // Balance and non-emptiness.
            let lens: Vec<usize> = rs.iter().map(|r| r.len()).collect();
            assert!(lens.iter().max().unwrap() - lens.iter().min().unwrap() <= 1);
            if n > 0 {
                assert!(lens.iter().all(|&l| l > 0));
            }
        }
    }

    #[test]
    fn parallel_map_matches_serial_and_handles_edges() {
        for (n, threads) in [(0usize, 4usize), (1, 1), (7, 64), (1000, 4)] {
            let got = parallel_map(n, threads, |i| i * i);
            let expect: Vec<usize> = (0..n).map(|i| i * i).collect();
            assert_eq!(got, expect, "n={n} threads={threads}");
        }
    }

    #[test]
    fn pool_survives_poisoned_bookkeeping_locks() {
        // A panicking task used to poison the pool/slot mutexes and turn
        // every later caller into a panic cascade; locks now recover.
        let r = std::panic::catch_unwind(AssertUnwindSafe(|| {
            parallel_for(64, 4, |r| {
                if r.contains(&17) {
                    panic!("task boom");
                }
            });
        }));
        assert!(r.is_err(), "panic must still propagate to the submitter");
        // The global pool keeps working afterwards.
        let total = SharedCounter::new();
        parallel_for(100, 4, |r| total.add(r.len()));
        assert_eq!(total.get(), 100);
        let mapped = parallel_map(10, 4, |i| i + 1);
        assert_eq!(mapped.iter().sum::<usize>(), 55);
    }

    #[test]
    fn pool_worker_panic_injection_no_deadlock_no_poison() {
        // Panic-injection sweep: enough tasks that pool workers (not just
        // the submitting thread) claim panicking indices, repeated across
        // jobs.  Every submission must re-raise exactly once, the pool
        // must never deadlock in the drain wait, and later parallel_map
        // calls must see a fully functional pool.
        let pool = Pool::new(4);
        for round in 0..20u64 {
            let r = std::panic::catch_unwind(AssertUnwindSafe(|| {
                pool.run(64, &|i| {
                    if i as u64 % 7 == round % 7 {
                        panic!("injected panic in task {i}");
                    }
                });
            }));
            assert!(r.is_err(), "round {round}: panic must propagate");
            // The very next job runs to completion.
            let c = SharedCounter::new();
            pool.run(32, &|_| c.add(1));
            assert_eq!(c.get(), 32, "round {round}: pool degraded after panic");
        }
        // parallel_map on the global pool also survives injected panics.
        let r = std::panic::catch_unwind(AssertUnwindSafe(|| {
            parallel_map(50, 4, |i| {
                if i == 13 {
                    panic!("boom");
                }
                i
            })
        }));
        assert!(r.is_err());
        let mapped = parallel_map(50, 4, |i| i * 2);
        assert_eq!(mapped, (0..50).map(|i| i * 2).collect::<Vec<_>>());
        // Dropping the pool joins all workers even after panicked jobs —
        // a hang here fails the test by timeout.
        drop(pool);
    }

    #[test]
    fn pool_drop_joins_all_workers() {
        let pool = Pool::new(3);
        let c = SharedCounter::new();
        pool.run(8, &|_| c.add(1));
        assert_eq!(pool.workers(), 3);
        drop(pool); // must join all three without hanging
    }

    #[test]
    fn global_pool_with_entry() {
        let c = SharedCounter::new();
        Pool::global().run(32, &|_| c.add(2));
        assert_eq!(c.get(), 64);
    }
}
