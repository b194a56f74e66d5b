//! Dependency-aware task-graph scheduling on the shared worker pool.
//!
//! The executors walk operation trees in a fixed postorder, so independent
//! subtrees never overlap even when the pool sits idle between GETT calls.
//! A [`TaskGraph`] makes the dependence structure explicit: tasks are added
//! in a topological order (every dependency precedes its dependent), and
//! [`TaskGraph::run`] dispatches ready tasks onto [`crate::Pool`] scheduler
//! slots, bounded by a *live-set cap* so concurrent execution never holds
//! more intermediate storage than the one-slot walk.
//!
//! Accounting model: admitting task `t` makes `weight(t)` units live (its
//! output buffer); the units are released once **all** of `t`'s dependents
//! have completed (the last consumer frees the operand).  Tasks with no
//! dependents — roots whose value is the result — stay live to the end.
//! [`TaskGraph::sequential_peak`] simulates ascending-index execution under
//! exactly this accounting, and [`TaskGraph::run`] caps admission at it.
//!
//! Admission rule: let `next` be the lowest-index task not yet admitted.
//! `next` is admitted once it fits under the cap.  Any other ready task
//! `u` must also pass a look-ahead: with every admitted task and `u`
//! finished (their operands released), finishing the remaining tasks in
//! ascending order must stay within the cap.  Invariant: from every state
//! the run reaches, the sequential completion fits.  When nothing is
//! running, every admitted task has finished, so `next` is ready, heads the
//! ready queue, and fits by the invariant — the run never wedges, and the
//! peak never exceeds the one-slot walk's in any interleaving.  As a fault
//! detector, a task that does not fit while nothing is running is admitted
//! anyway and counted in [`GraphStats::forced_admissions`]; under the
//! sequential-peak cap that count is always 0.
//!
//! One slot is the sequential walk: it admits tasks in strictly ascending
//! index order and executes each body inline on the calling thread
//! ([`crate::Pool::run`] does not occupy the pool for a one-task job), so
//! kernels called from a body still parallelize over the whole pool.
//!
//! More slots only pay when independent work can fill them: a body running
//! beside another slot finds the pool busy, so its kernels run inline on
//! one thread.  [`TaskGraph::useful_slots`] prices that from per-task
//! modeled flops — total work over the heaviest dependency path — and
//! [`TaskGraph::run`] takes `useful_slots` of the slots it is offered: a
//! chain, or a graph one task dominates, stays on one slot and keeps the
//! pool for its kernels.
//!
//! Determinism: the scheduler changes only *when* tasks run, never what
//! they compute.  Task bodies must write disjoint state (the same contract
//! as [`crate::Pool::run`]); completion of every dependency *happens-before*
//! a dependent starts (the scheduler mutex orders them), so each task sees
//! fully written operands.  Bitwise-identical results for every worker
//! count then follow from each task being deterministic in isolation.

use crate::pool::Pool;
use std::any::Any;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Condvar, Mutex};

/// Observed scheduling metrics for one [`TaskGraph::run`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GraphStats {
    /// Tasks executed.
    pub tasks: u64,
    /// Dependency edges in the graph.
    pub edges: u64,
    /// Peak live weight observed under the accounting model.
    pub peak_live: u64,
    /// Times the forced-progress escape admitted a task over the cap.
    pub forced_admissions: u64,
}

/// Scheduler state guarded by one mutex (tasks do their real work outside
/// the lock; this only orders admissions and completions).
struct Sched {
    /// The live-set bound tasks are admitted under.
    cap: u64,
    /// Unmet dependency count per task.
    indegree: Vec<usize>,
    /// Dependents not yet completed per task (release weight at zero).
    pending_dependents: Vec<usize>,
    /// Ready tasks as a min-heap on task index: admission order is the
    /// topological insertion order whenever there is a choice.
    ready: BinaryHeap<Reverse<usize>>,
    /// Tasks admitted so far.
    admitted: Vec<bool>,
    /// The lowest-index task not yet admitted.
    next: usize,
    live: u64,
    peak_live: u64,
    running: usize,
    completed: usize,
    forced_admissions: u64,
    /// The first task-body panic; re-raised once after the run drains.
    panic: Option<Box<dyn Any + Send>>,
}

/// A directed acyclic graph of tasks with weights, executed by
/// [`TaskGraph::run`].  See the module docs for the scheduling and
/// live-set accounting model.
#[derive(Debug, Default)]
pub struct TaskGraph {
    deps: Vec<Vec<usize>>,
    dependents: Vec<Vec<usize>>,
    weight: Vec<u64>,
    /// Modeled flops per task ([`TaskGraph::useful_slots`]).
    work: Vec<u128>,
}

impl TaskGraph {
    /// An empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a task depending on `deps` (indices of previously added tasks)
    /// whose output occupies `weight` live units and which performs `work`
    /// modeled flops; returns its index.
    ///
    /// # Panics
    /// Panics if a dependency index is not smaller than the new task's —
    /// tasks must be added in topological order.
    pub fn add_task(&mut self, deps: &[usize], weight: u64, work: u128) -> usize {
        let id = self.deps.len();
        for &d in deps {
            assert!(d < id, "dependency {d} of task {id} not yet added");
            self.dependents[d].push(id);
        }
        self.deps.push(deps.to_vec());
        self.dependents.push(Vec::new());
        self.weight.push(weight);
        self.work.push(work);
        id
    }

    /// The most scheduler slots this graph's work can keep busy, at most
    /// `max`: `⌊W / C⌋` for total work `W` and critical-path work `C` (the
    /// heaviest dependency chain), at least 1.  A chain, or a graph one
    /// task dominates, gets one slot — the walk runs inline and its
    /// kernels keep the whole pool — while `k` independent equal tasks
    /// get `k`.  A graph without work gets one slot.
    pub fn useful_slots(&self, max: usize) -> usize {
        let mut path: Vec<u128> = Vec::with_capacity(self.len());
        for (deps, &work) in self.deps.iter().zip(&self.work) {
            let before = deps.iter().map(|&d| path[d]).max().unwrap_or(0);
            path.push(before.saturating_add(work));
        }
        let critical = path.iter().copied().max().unwrap_or(0);
        if critical == 0 {
            return 1;
        }
        let total = self.work.iter().fold(0u128, |w, &t| w.saturating_add(t));
        (total / critical).clamp(1, max.max(1) as u128) as usize
    }

    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.deps.len()
    }

    /// Whether no tasks were added.
    pub fn is_empty(&self) -> bool {
        self.deps.is_empty()
    }

    /// Number of dependency edges.
    pub fn edge_count(&self) -> usize {
        self.deps.iter().map(Vec::len).sum()
    }

    /// Peak live weight of executing tasks one at a time in ascending
    /// index order under the run's accounting model — the cap
    /// [`TaskGraph::run`] admits under: it reproduces the sequential
    /// executor's high-water mark, so no interleaving holds more memory
    /// than the sequential walk would.
    pub fn sequential_peak(&self) -> u64 {
        self.completion_peak(|_| false)
    }

    /// Peak live weight of finishing the tasks outside `done` one at a time
    /// in ascending index order, once every task in `done` (a
    /// dependency-closed set) has finished and released the operands it
    /// was the last consumer of.
    fn completion_peak(&self, done: impl Fn(usize) -> bool) -> u64 {
        let mut pending: Vec<usize> = self.dependents.iter().map(Vec::len).collect();
        let (mut live, mut peak) = (0u64, 0u64);
        // `done` first, then the rest; each part in ascending order.
        let mut order: Vec<usize> = (0..self.len()).collect();
        order.sort_by_key(|&t| !done(t));
        for t in order {
            live += self.weight[t];
            if !done(t) {
                peak = peak.max(live);
            }
            for &d in &self.deps[t] {
                pending[d] -= 1;
                if pending[d] == 0 {
                    live -= self.weight[d];
                }
            }
        }
        peak
    }

    /// Execute every task on [`useful_slots(max_slots)`](Self::useful_slots)
    /// scheduler slots over the shared pool, admitting tasks under the
    /// [`sequential_peak`](Self::sequential_peak) cap by the module's
    /// admission rule, so no interleaving holds more weight live than the
    /// one-slot walk.  `body(t)` runs exactly once per task, after all of
    /// `t`'s dependencies completed.  A panicking body does not stop the
    /// run; the first panic is re-raised with its original payload once the
    /// run drains.
    pub fn run(&self, max_slots: usize, body: &(dyn Fn(usize) + Sync)) -> GraphStats {
        self.run_on(self.useful_slots(max_slots), self.sequential_peak(), body)
    }

    /// [`run`](Self::run) on exactly `slots` slots under `cap`.
    fn run_on(&self, slots: usize, cap: u64, body: &(dyn Fn(usize) + Sync)) -> GraphStats {
        let n = self.len();
        let mut stats = GraphStats {
            tasks: n as u64,
            edges: self.edge_count() as u64,
            peak_live: 0,
            forced_admissions: 0,
        };
        if n == 0 {
            return stats;
        }
        let indegree: Vec<usize> = self.deps.iter().map(Vec::len).collect();
        let ready: BinaryHeap<Reverse<usize>> = indegree
            .iter()
            .enumerate()
            .filter(|(_, &d)| d == 0)
            .map(|(t, _)| Reverse(t))
            .collect();
        let sched = Mutex::new(Sched {
            cap,
            indegree,
            pending_dependents: self.dependents.iter().map(Vec::len).collect(),
            ready,
            admitted: vec![false; n],
            next: 0,
            live: 0,
            peak_live: 0,
            running: 0,
            completed: 0,
            forced_admissions: 0,
            panic: None,
        });
        let wake = Condvar::new();

        let slots = slots.clamp(1, n);
        let pool = Pool::global();
        pool.ensure_workers(slots - 1);
        pool.run(slots, &|_slot| self.scheduler_slot(&sched, &wake, body));

        let s = sched.into_inner().unwrap_or_else(|e| e.into_inner());
        stats.peak_live = s.peak_live;
        stats.forced_admissions = s.forced_admissions;
        if tce_trace::enabled() {
            tce_trace::counter("sched.tasks", stats.tasks);
            tce_trace::counter("sched.edges", stats.edges);
            tce_trace::counter("sched.peak_live", stats.peak_live);
            tce_trace::counter("sched.forced_admissions", stats.forced_admissions);
            tce_trace::counter("sched.slots", slots as u64);
        }
        if let Some(payload) = s.panic {
            resume_unwind(payload);
        }
        stats
    }

    /// Evaluate a tree bottom-up and return its root's value — the
    /// node-task skeleton the sharded tree executor walks on.  `tasks`
    /// lists the nodes children-first (the shape of
    /// `OpTree::postorder_tasks`): `(node, positions of its children in
    /// this list, output weight, modeled flops)`, root last.  `body(node,
    /// operands)` receives the values the node's children produced, in
    /// child order, and returns the node's own.  Every node has one parent,
    /// so each value *moves* to its one consumer — no clones, no shared
    /// reads — and the body decides what becomes of it.  The walk runs
    /// through [`run`](Self::run): on as many of `max_slots` slots as the
    /// flops fill, never holding more weight live than the one-slot
    /// (postorder) walk.
    ///
    /// # Panics
    /// Panics if `tasks` is empty or a value has more than one consumer.
    pub fn eval_tree<N: Sync, V: Send>(
        tasks: &[(N, Vec<usize>, u64, u128)],
        max_slots: usize,
        body: &(dyn Fn(&N, Vec<V>) -> V + Sync),
    ) -> V {
        let mut graph = TaskGraph::new();
        for (_, children, weight, work) in tasks {
            graph.add_task(children, *weight, *work);
        }
        assert!(
            graph.dependents.iter().all(|d| d.len() <= 1),
            "eval_tree needs single-consumer values"
        );
        let cells: Vec<Mutex<Option<V>>> = tasks.iter().map(|_| Mutex::new(None)).collect();
        let take = |t: usize| cells[t].lock().unwrap_or_else(|e| e.into_inner()).take();
        graph.run(max_slots, &|t| {
            let operands = tasks[t]
                .1
                .iter()
                .map(|&c| take(c).expect("a child completes before its parent"))
                .collect();
            let value = body(&tasks[t].0, operands);
            *cells[t].lock().unwrap_or_else(|e| e.into_inner()) = Some(value);
        });
        take(tasks.len() - 1).expect("the root is the last task and nothing consumes it")
    }

    /// One scheduler slot: admit → execute → retire, until all tasks have
    /// completed.  Runs concurrently on every pool slot; all bookkeeping
    /// happens under the `sched` mutex, task bodies run unlocked.
    fn scheduler_slot(&self, sched: &Mutex<Sched>, wake: &Condvar, body: &(dyn Fn(usize) + Sync)) {
        let n = self.len();
        let mut s = sched.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if s.completed == n {
                wake.notify_all();
                return;
            }
            // Admission (module docs): the lowest-index ready task, if it
            // fits under the cap and — unless it is `next` — the sequential
            // completion still fits after it.  When nothing is running it
            // is `next` and fits, unless the cap is undersized: then it is
            // admitted anyway (forced progress instead of a wedged run).
            let admit = match s.ready.peek() {
                Some(&Reverse(t)) => {
                    let fits = s.live.saturating_add(self.weight[t]) <= s.cap
                        && (t == s.next
                            || self.completion_peak(|d| d == t || s.admitted[d]) <= s.cap);
                    if fits {
                        Some((t, false))
                    } else if s.running == 0 {
                        Some((t, true))
                    } else {
                        None
                    }
                }
                None => None,
            };
            let Some((t, forced)) = admit else {
                s = wake.wait(s).unwrap_or_else(|e| e.into_inner());
                continue;
            };
            s.ready.pop();
            if forced {
                s.forced_admissions += 1;
            }
            s.admitted[t] = true;
            while s.next < n && s.admitted[s.next] {
                s.next += 1;
            }
            s.live += self.weight[t];
            s.peak_live = s.peak_live.max(s.live);
            s.running += 1;
            drop(s);

            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| body(t))) {
                sched
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .panic
                    .get_or_insert(payload);
            }

            s = sched.lock().unwrap_or_else(|e| e.into_inner());
            s.running -= 1;
            s.completed += 1;
            // Retire: operands whose last consumer this was go dead.
            for &d in &self.deps[t] {
                s.pending_dependents[d] -= 1;
                if s.pending_dependents[d] == 0 {
                    s.live -= self.weight[d];
                }
            }
            // Unblock dependents.
            for &d in &self.dependents[t] {
                s.indegree[d] -= 1;
                if s.indegree[d] == 0 {
                    s.ready.push(Reverse(d));
                }
            }
            wake.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

    /// A diamond: 0 and 1 independent, 2 reads both, 3 reads 2.  The two
    /// leaves carry all the work, so it fills two slots.
    fn diamond() -> TaskGraph {
        let mut g = TaskGraph::new();
        let a = g.add_task(&[], 10, 1);
        let b = g.add_task(&[], 10, 1);
        let c = g.add_task(&[a, b], 5, 0);
        g.add_task(&[c], 1, 0);
        g
    }

    #[test]
    fn every_task_runs_exactly_once_after_its_deps() {
        for threads in [1, 2, 4, 8] {
            let g = diamond();
            let ran: Vec<AtomicUsize> = (0..g.len()).map(|_| AtomicUsize::new(0)).collect();
            let order = Mutex::new(Vec::new());
            let stats = g.run(threads, &|t| {
                ran[t].fetch_add(1, Ordering::SeqCst);
                order.lock().unwrap().push(t);
            });
            assert!(ran.iter().all(|r| r.load(Ordering::SeqCst) == 1));
            assert_eq!(stats.tasks, 4);
            assert_eq!(stats.edges, 3);
            let order = order.into_inner().unwrap();
            let pos = |t: usize| order.iter().position(|&x| x == t).unwrap();
            assert!(pos(2) > pos(0) && pos(2) > pos(1));
            assert!(pos(3) > pos(2));
        }
    }

    #[test]
    fn sequential_peak_matches_hand_accounting() {
        // Diamond, ascending order: 0 (live 10), 1 (20), 2 (25; then 0 and
        // 1 retire → 5), 3 (6; 2 retires → 1).  Peak is 25.
        assert_eq!(diamond().sequential_peak(), 25);
        // A chain frees each operand as soon as its one consumer finishes.
        let mut chain = TaskGraph::new();
        let mut prev = chain.add_task(&[], 7, 0);
        for _ in 0..5 {
            prev = chain.add_task(&[prev], 7, 0);
        }
        assert_eq!(chain.sequential_peak(), 14);
    }

    #[test]
    fn live_set_never_exceeds_sequential_peak_cap() {
        // Wide fan-in: 8 independent leaves feeding one sink.  Unbounded,
        // all leaves can be live at once (80); under the sequential-peak
        // cap the observed peak must stay at or below it.
        let mut g = TaskGraph::new();
        let leaves: Vec<usize> = (0..8).map(|_| g.add_task(&[], 10, 0)).collect();
        g.add_task(&leaves, 1, 0);
        let cap = g.sequential_peak();
        assert_eq!(cap, 81); // all leaves live until the sink retires them
        let mut narrow = TaskGraph::new();
        let a = narrow.add_task(&[], 10, 0);
        let b = narrow.add_task(&[a], 10, 0);
        let c = narrow.add_task(&[], 10, 0);
        let d = narrow.add_task(&[c], 10, 0);
        narrow.add_task(&[b, d], 1, 0);
        // Ascending order: a(10), b(20, frees a→10), c(20), d(30, frees
        // c→20), sink(21, frees b,d→1) — peak 30.
        let seq_cap = narrow.sequential_peak();
        assert_eq!(seq_cap, 30);
        for threads in [1, 2, 8] {
            let stats = narrow.run_on(threads, seq_cap, &|_| {});
            assert!(
                stats.peak_live <= seq_cap,
                "peak {} over cap {}",
                stats.peak_live,
                seq_cap
            );
            assert_eq!(stats.forced_admissions, 0);
        }
    }

    #[test]
    fn useful_slots_is_total_work_over_the_critical_path() {
        // A chain: the critical path is all the work.
        let mut chain = TaskGraph::new();
        let mut prev = chain.add_task(&[], 1, 50);
        for _ in 0..3 {
            prev = chain.add_task(&[prev], 1, 50);
        }
        assert_eq!(chain.useful_slots(8), 1);
        // Two independent equal tasks fill two slots, never more than asked.
        let mut pair = TaskGraph::new();
        pair.add_task(&[], 1, 100);
        pair.add_task(&[], 1, 100);
        assert_eq!((pair.useful_slots(8), pair.useful_slots(1)), (2, 1));
        // A diamond whose sink carries work: (10 + 10 + 5) / (10 + 5) → 1.
        let mut d = TaskGraph::new();
        let (a, b) = (d.add_task(&[], 1, 10), d.add_task(&[], 1, 10));
        d.add_task(&[a, b], 1, 5);
        assert_eq!(d.useful_slots(4), 1);
        // One dominant task among small ones: 130 / 100 → 1.
        let mut dominant = TaskGraph::new();
        dominant.add_task(&[], 1, 100);
        for _ in 0..3 {
            dominant.add_task(&[], 1, 10);
        }
        assert_eq!(dominant.useful_slots(4), 1);
        // Eight equal leaves, a free sink: 8 slots, capped at the request.
        let mut fan = TaskGraph::new();
        let leaves: Vec<usize> = (0..8).map(|_| fan.add_task(&[], 1, 7)).collect();
        fan.add_task(&leaves, 1, 0);
        assert_eq!((fan.useful_slots(16), fan.useful_slots(3)), (8, 3));
        // Two equal leaves feeding free tasks: two slots.
        assert_eq!(diamond().useful_slots(4), 2);
        // No work, or no tasks: one slot.
        let mut idle = TaskGraph::new();
        idle.add_task(&[], 1, 0);
        idle.add_task(&[], 1, 0);
        assert_eq!(idle.useful_slots(4), 1);
        assert_eq!(TaskGraph::new().useful_slots(4), 1);
    }

    #[test]
    fn undersized_cap_forces_progress_instead_of_deadlocking() {
        let mut g = TaskGraph::new();
        let a = g.add_task(&[], 100, 0);
        g.add_task(&[a], 100, 0);
        let stats = g.run_on(4, 1, &|_| {});
        assert_eq!(stats.tasks, 2);
        assert!(stats.forced_admissions >= 1);
    }

    #[test]
    fn completion_happens_before_dependents_observe_writes() {
        // Data actually flows along edges: each task sums its deps' slots
        // plus one.  Any missed happens-before would read a stale zero.
        let n = 200;
        let mut g = TaskGraph::new();
        for t in 0..n {
            let deps: Vec<usize> = (0..t).filter(|d| t % (d + 2) == 0).collect();
            g.add_task(&deps, 1, 1);
        }
        let expect: Vec<u64> = {
            let mut v = vec![0u64; n];
            for t in 0..n {
                v[t] = 1
                    + (0..t)
                        .filter(|d| t % (d + 2) == 0)
                        .map(|d| v[d])
                        .sum::<u64>();
            }
            v
        };
        for threads in [1, 3, 8] {
            let slots: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
            g.run(threads, &|t| {
                let sum: u64 = (0..t)
                    .filter(|d| t % (d + 2) == 0)
                    .map(|d| slots[d].load(Ordering::Acquire))
                    .sum();
                slots[t].store(sum + 1, Ordering::Release);
            });
            let got: Vec<u64> = slots.iter().map(|s| s.load(Ordering::SeqCst)).collect();
            assert_eq!(got, expect, "threads={threads}");
        }
    }

    #[test]
    fn one_slot_is_the_sequential_walk_on_the_calling_thread() {
        // One slot runs bodies in strictly ascending index order, inline on the caller (a one-task
        // `Pool::run` never occupies the pool, so a kernel called from a
        // body can still fan out over it), holding exactly the sequential
        // peak live.
        let mut g = TaskGraph::new();
        let a = g.add_task(&[], 10, 0);
        let b = g.add_task(&[], 10, 0);
        let c = g.add_task(&[a], 4, 0);
        let d = g.add_task(&[b, c], 2, 0);
        g.add_task(&[d], 1, 0);
        let caller = std::thread::current().id();
        let order = Mutex::new(Vec::new());
        let stats = g.run(1, &|t| {
            assert_eq!(
                std::thread::current().id(),
                caller,
                "task {t} left the caller"
            );
            order.lock().unwrap().push(t);
        });
        assert_eq!(order.into_inner().unwrap(), vec![0, 1, 2, 3, 4]);
        assert_eq!(stats.peak_live, g.sequential_peak());
        assert_eq!(stats.forced_admissions, 0);
    }

    #[test]
    fn eval_tree_moves_each_value_to_its_single_consumer() {
        // A small tree in postorder: (0, 1) → 2, (2, 3) → 4.  Values are
        // deliberately not `Clone`: they can only move.
        struct Val(u64);
        let leaf = |digit: u64| (Some(digit), Vec::new(), 1, 1);
        let tasks = [
            leaf(1),
            leaf(2),
            (None, vec![0, 1], 1, 0),
            leaf(4),
            (None, vec![2, 3], 1, 0),
        ];
        for slots in [1, 2, 8] {
            let root = TaskGraph::eval_tree(&tasks, slots, &|digit, operands: Vec<Val>| {
                Val(digit.unwrap_or_else(|| 10 * operands[0].0 + operands[1].0))
            });
            // ((1, 2) → 12, 4) → 124.
            assert_eq!(root.0, 124, "slots={slots}");
        }
    }

    #[test]
    #[should_panic(expected = "single-consumer")]
    fn eval_tree_rejects_shared_values() {
        let tasks = [
            ((), vec![], 1, 0),
            ((), vec![0], 1, 0),
            ((), vec![0, 1], 1, 0),
        ];
        TaskGraph::eval_tree(&tasks, 1, &|_, _: Vec<u8>| 0);
    }

    #[test]
    fn empty_graph_is_a_noop() {
        let g = TaskGraph::new();
        let stats = g.run(4, &|_| panic!("no tasks"));
        assert_eq!(stats.tasks, 0);
    }

    #[test]
    fn panicking_body_propagates_and_completes_the_run() {
        let mut g = TaskGraph::new();
        let a = g.add_task(&[], 1, 1);
        g.add_task(&[a], 1, 0);
        g.add_task(&[], 1, 1);
        let hits = AtomicUsize::new(0);
        let r = catch_unwind(AssertUnwindSafe(|| {
            g.run(2, &|t| {
                hits.fetch_add(1, Ordering::SeqCst);
                if t == 0 {
                    panic!("boom");
                }
            })
        }));
        assert!(r.is_err(), "panic must re-raise after the drain");
        assert_eq!(hits.load(Ordering::SeqCst), 3, "all tasks still ran");
    }

    #[test]
    fn a_ready_task_that_would_strand_the_sequential_walk_waits() {
        // 0 → 1 → 2 → 4 ← 3, weights 1, 100, 1, 100, 1: the one-slot walk
        // peaks at 102.  Task 3 is ready from the start, but beside 0 (or
        // later beside 1) it leaves no room to finish in order, so it must
        // wait for 2.  Task 0 holds its slot up to 200 ms for 3 to finish,
        // giving the other slot every chance to take 3 early.
        let mut g = TaskGraph::new();
        let t0 = g.add_task(&[], 1, 1);
        let t1 = g.add_task(&[t0], 100, 1);
        let t2 = g.add_task(&[t1], 1, 1);
        let t3 = g.add_task(&[], 100, 3);
        g.add_task(&[t2, t3], 1, 0);
        assert_eq!((g.sequential_peak(), g.useful_slots(2)), (102, 2));
        let finished = (Mutex::new(false), Condvar::new());
        let stats = g.run(2, &|t| {
            if t == t3 {
                *finished.0.lock().unwrap() = true;
                finished.1.notify_all();
            } else if t == t0 {
                let done = finished.0.lock().unwrap();
                let wait = std::time::Duration::from_millis(200);
                drop(finished.1.wait_timeout_while(done, wait, |done| !*done));
            }
        });
        assert_eq!(stats.forced_admissions, 0);
        assert!(stats.peak_live <= 102, "peak {}", stats.peak_live);
    }

    #[test]
    fn no_interleaving_of_random_dags_exceeds_the_sequential_peak() {
        // Seeded random DAGs on 1–8 slots under the sequential-peak cap:
        // the admission rule keeps the sequential completion feasible from
        // every state, so the escape never fires and the peak holds.
        let mut state = 0x5EED_DA6Du64;
        let mut draw = |bound: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % bound
        };
        for case in 0..40 {
            let mut g = TaskGraph::new();
            for t in 0..2 + draw(15) as usize {
                let deps: Vec<usize> = (0..t).filter(|_| draw(4) == 0).collect();
                g.add_task(&deps, 1 + draw(100), 1);
            }
            let cap = g.sequential_peak();
            for slots in 1..=8 {
                let stats = g.run_on(slots, cap, &|t| {
                    let pause = (t * 37 + slots) % 5;
                    std::thread::sleep(std::time::Duration::from_micros(50 * pause as u64));
                });
                assert_eq!(stats.forced_admissions, 0, "case {case}, {slots} slots");
                assert!(
                    stats.peak_live <= cap,
                    "case {case}, {slots} slots: peak {} over {cap}",
                    stats.peak_live
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "not yet added")]
    fn forward_dependency_is_rejected() {
        let mut g = TaskGraph::new();
        g.add_task(&[3], 1, 0);
    }
}
