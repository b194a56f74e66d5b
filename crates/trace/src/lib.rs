//! # tce-trace — pipeline-wide observability
//!
//! Lightweight spans, counters and memory accounting for the synthesis
//! pipeline and its execution engines.  Every stage of the paper's Fig. 5
//! optimizes against a *predicted* cost (operation counts, intermediate
//! storage, recomputation, memory-hierarchy accesses); this crate records
//! what actually happens at run time so those predictions can be tested as
//! contracts (see `tests/cost_model_conformance.rs` in the workspace root).
//!
//! Design constraints, in order:
//!
//! 1. **Near-zero overhead when off.**  Tracing is disabled by default;
//!    every recording entry point starts with a single `Relaxed` atomic
//!    load and returns immediately when disabled.  Hot loops (the GETT
//!    micro-kernel, the interpreter's statement dispatch) are *not*
//!    instrumented per iteration — engines accumulate locally and flush
//!    one counter per run.
//! 2. **No cross-thread contention when on.**  Events go to a thread-local
//!    buffer; buffers are registered once per thread in a process-wide
//!    registry and merged by [`take`] when a trace is collected.  The
//!    worker threads of `tce-par`'s persistent pool therefore record into
//!    their own buffers for free, which is how per-worker busy/idle time
//!    and per-thread pack/kernel attribution work.
//! 3. **No dependencies.**  Only `std`; the exporter writes
//!    chrome://tracing JSON by hand.
//!
//! ```
//! tce_trace::reset();
//! tce_trace::set_enabled(true);
//! {
//!     let _s = tce_trace::span("stage.opmin");
//!     tce_trace::counter("opmin.nodes_expanded", 42);
//! }
//! tce_trace::set_enabled(false);
//! let trace = tce_trace::take();
//! assert_eq!(trace.counter_total("opmin.nodes_expanded"), 42);
//! assert_eq!(trace.span_count("stage.opmin"), 1);
//! assert!(trace.to_chrome_json().contains("\"stage.opmin\""));
//! ```

#![warn(missing_docs)]

pub mod report;

pub use report::ProfileReport;

use std::borrow::Cow;
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Global enable flag.  All recording entry points check this first with a
/// `Relaxed` load, so a disabled build path costs one predictable branch.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Enable or disable recording process-wide.  Events recorded while
/// enabled stay buffered until [`take`] or [`reset`].
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether tracing is currently enabled.  Use this to guard *computation*
/// of trace-only values (e.g. a cost-model evaluation done purely for the
/// trace); plain [`counter`]/[`span`] calls guard themselves.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Monotonic epoch shared by every thread, fixed at first use.
fn epoch() -> &'static Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the process-wide trace epoch.
#[inline]
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// What one event records.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventKind {
    /// A timed interval (`begin_ns..end_ns` on thread `tid`).
    Span {
        /// Start, ns since the trace epoch.
        begin_ns: u64,
        /// End, ns since the trace epoch.
        end_ns: u64,
    },
    /// A monotone counter increment.
    Counter {
        /// Timestamp of the increment, ns since the trace epoch.
        at_ns: u64,
        /// Amount added.
        delta: u64,
    },
}

/// One recorded event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Event name (dotted convention: `stage.opmin`, `gett.pack`, …).
    pub name: Cow<'static, str>,
    /// Recording thread's trace id (dense, assigned at first event).
    pub tid: u64,
    /// Payload.
    pub kind: EventKind,
}

/// Thread-local event buffer, shared with the global registry so [`take`]
/// can drain buffers of threads that are still alive (pool workers park
/// forever and never run TLS destructors).
type Buf = Arc<Mutex<Vec<Event>>>;

fn registry() -> &'static Mutex<Vec<Buf>> {
    static REGISTRY: OnceLock<Mutex<Vec<Buf>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

static NEXT_TID: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static LOCAL: RefCell<Option<(u64, Buf)>> = const { RefCell::new(None) };
}

/// Run `f` with this thread's `(tid, buffer)`, registering on first use.
fn with_local(f: impl FnOnce(u64, &Buf)) {
    LOCAL.with(|slot| {
        let mut slot = slot.borrow_mut();
        let (tid, buf) = slot.get_or_insert_with(|| {
            let tid = NEXT_TID.fetch_add(1, Ordering::Relaxed);
            let buf: Buf = Arc::new(Mutex::new(Vec::new()));
            // Recover from poisoning: the registry is append-only and the
            // buffers hold only finished events, so a panicked recorder
            // cannot leave either inconsistent — propagating the poison
            // would just turn one worker panic into a process-wide
            // cascade through every later trace call.
            registry()
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .push(Arc::clone(&buf));
            (tid, buf)
        });
        f(*tid, buf);
    });
}

fn push(ev: Event) {
    with_local(|tid, buf| {
        let mut ev = ev;
        ev.tid = tid;
        buf.lock().unwrap_or_else(|e| e.into_inner()).push(ev);
    });
}

/// RAII guard recording a span from construction to drop.  A disabled
/// trace yields an inert guard (no clock read, no allocation).
pub struct Span {
    inner: Option<(Cow<'static, str>, u64)>,
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some((name, begin_ns)) = self.inner.take() {
            push(Event {
                name,
                tid: 0,
                kind: EventKind::Span {
                    begin_ns,
                    end_ns: now_ns(),
                },
            });
        }
    }
}

/// Open a span; it closes when the returned guard drops.
#[inline]
pub fn span(name: impl Into<Cow<'static, str>>) -> Span {
    if !enabled() {
        return Span { inner: None };
    }
    Span {
        inner: Some((name.into(), now_ns())),
    }
}

/// Record an already-measured interval (used where begin/end are taken
/// with raw [`now_ns`] reads inside a kernel loop).
#[inline]
pub fn span_at(name: impl Into<Cow<'static, str>>, begin_ns: u64, end_ns: u64) {
    if !enabled() {
        return;
    }
    push(Event {
        name: name.into(),
        tid: 0,
        kind: EventKind::Span { begin_ns, end_ns },
    });
}

/// Record a zero-length marker span — "this stage ran and had nothing to
/// do" (e.g. the space-time stage when fusion alone fits the limit).
#[inline]
pub fn mark(name: impl Into<Cow<'static, str>>) {
    if !enabled() {
        return;
    }
    let t = now_ns();
    span_at(name, t, t);
}

/// Add `delta` to the named counter.
#[inline]
pub fn counter(name: impl Into<Cow<'static, str>>, delta: u64) {
    if !enabled() {
        return;
    }
    push(Event {
        name: name.into(),
        tid: 0,
        kind: EventKind::Counter {
            at_ns: now_ns(),
            delta,
        },
    });
}

/// [`counter`] for `u128` cost-model values (saturating to `u64`).
#[inline]
pub fn counter_u128(name: impl Into<Cow<'static, str>>, delta: u128) {
    counter(name, u64::try_from(delta).unwrap_or(u64::MAX));
}

// ---------------------------------------------------------------------------
// Memory accounting: live bytes of materialized intermediates, with a
// process-wide high-water mark.  Updates are per-tensor (not per-element),
// so plain atomics suffice.

static MEM_CURRENT: AtomicU64 = AtomicU64::new(0);
static MEM_PEAK: AtomicU64 = AtomicU64::new(0);

/// Record `bytes` of intermediate storage coming live.
#[inline]
pub fn mem_alloc(bytes: u64) {
    if !enabled() {
        return;
    }
    let now = MEM_CURRENT.fetch_add(bytes, Ordering::Relaxed) + bytes;
    MEM_PEAK.fetch_max(now, Ordering::Relaxed);
}

/// Record `bytes` of intermediate storage released.
#[inline]
pub fn mem_free(bytes: u64) {
    if !enabled() {
        return;
    }
    // Saturating: a free without a matching traced alloc (tracing was
    // enabled mid-flight) must not wrap.
    let mut cur = MEM_CURRENT.load(Ordering::Relaxed);
    loop {
        let next = cur.saturating_sub(bytes);
        match MEM_CURRENT.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(c) => cur = c,
        }
    }
}

/// Current live traced bytes.
pub fn mem_current_bytes() -> u64 {
    MEM_CURRENT.load(Ordering::Relaxed)
}

/// High-water mark of traced bytes since the last [`reset`].
pub fn mem_peak_bytes() -> u64 {
    MEM_PEAK.load(Ordering::Relaxed)
}

// ---------------------------------------------------------------------------
// Collection.

/// A merged trace: every event from every thread since the last
/// [`reset`]/[`take`], plus the memory high-water mark.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// All events, in per-thread recording order (threads interleaved).
    pub events: Vec<Event>,
    /// High-water mark of traced intermediate memory, bytes.
    pub mem_peak_bytes: u64,
}

/// Drain every thread's buffer into a [`Trace`].  Does not change the
/// enabled flag; memory accounting is reset so the next collection starts
/// a fresh high-water mark.
pub fn take() -> Trace {
    let mut events = Vec::new();
    for buf in registry().lock().unwrap_or_else(|e| e.into_inner()).iter() {
        events.append(&mut buf.lock().unwrap_or_else(|e| e.into_inner()));
    }
    let mem_peak = MEM_PEAK.swap(0, Ordering::Relaxed);
    MEM_CURRENT.store(0, Ordering::Relaxed);
    Trace {
        events,
        mem_peak_bytes: mem_peak,
    }
}

/// Discard all buffered events and reset memory accounting.
pub fn reset() {
    let _ = take();
}

impl Trace {
    /// Sum of all increments to the named counter.
    pub fn counter_total(&self, name: &str) -> u64 {
        self.events
            .iter()
            .filter(|e| e.name == name)
            .map(|e| match e.kind {
                EventKind::Counter { delta, .. } => delta,
                EventKind::Span { .. } => 0,
            })
            .sum()
    }

    /// Largest single increment recorded for the named counter (0 when
    /// absent).  Gauge-style counters — block sizes, capacities — report
    /// their value as the delta, so the maximum is the reading.
    pub fn counter_max(&self, name: &str) -> u64 {
        self.events
            .iter()
            .filter(|e| e.name == name)
            .map(|e| match e.kind {
                EventKind::Counter { delta, .. } => delta,
                EventKind::Span { .. } => 0,
            })
            .max()
            .unwrap_or(0)
    }

    /// Number of spans with the given name.
    pub fn span_count(&self, name: &str) -> usize {
        self.events
            .iter()
            .filter(|e| e.name == name && matches!(e.kind, EventKind::Span { .. }))
            .count()
    }

    /// Distinct event names, sorted.
    pub fn names(&self) -> Vec<&str> {
        let mut v: Vec<&str> = self.events.iter().map(|e| e.name.as_ref()).collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Serialize as chrome://tracing "trace event format" JSON: spans as
    /// complete (`"ph":"X"`) events, counters as `"ph":"C"` events, one
    /// process, `tid` = trace thread id.  Load via `chrome://tracing` or
    /// <https://ui.perfetto.dev>.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::with_capacity(64 + self.events.len() * 96);
        out.push_str("{\"traceEvents\":[\n");
        let mut first = true;
        for e in &self.events {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            let name = escape_json(&e.name);
            match e.kind {
                EventKind::Span { begin_ns, end_ns } => {
                    let ts = begin_ns as f64 / 1e3;
                    let dur = end_ns.saturating_sub(begin_ns) as f64 / 1e3;
                    out.push_str(&format!(
                        "{{\"name\":\"{name}\",\"cat\":\"tce\",\"ph\":\"X\",\
                         \"ts\":{ts:.3},\"dur\":{dur:.3},\"pid\":1,\"tid\":{}}}",
                        e.tid
                    ));
                }
                EventKind::Counter { at_ns, delta } => {
                    let ts = at_ns as f64 / 1e3;
                    out.push_str(&format!(
                        "{{\"name\":\"{name}\",\"cat\":\"tce\",\"ph\":\"C\",\
                         \"ts\":{ts:.3},\"pid\":1,\"tid\":{},\
                         \"args\":{{\"value\":{delta}}}}}",
                        e.tid
                    ));
                }
            }
        }
        out.push_str(&format!(
            "\n],\"otherData\":{{\"mem_peak_bytes\":{}}}}}\n",
            self.mem_peak_bytes
        ));
        out
    }

    /// Aggregate into a human-readable [`ProfileReport`].
    pub fn report(&self) -> ProfileReport {
        ProfileReport::from_trace(self)
    }
}

fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex as StdMutex;

    /// Tests in this module share process-global trace state.
    static LOCK: StdMutex<()> = StdMutex::new(());

    fn locked() -> std::sync::MutexGuard<'static, ()> {
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_records_nothing() {
        let _g = locked();
        reset();
        set_enabled(false);
        {
            let _s = span("never");
            counter("never.count", 5);
            mem_alloc(100);
        }
        let t = take();
        assert!(t.events.is_empty());
        assert_eq!(t.mem_peak_bytes, 0);
    }

    #[test]
    fn spans_and_counters_round_trip() {
        let _g = locked();
        reset();
        set_enabled(true);
        {
            let _s = span("outer");
            let _t = span("inner");
            counter("c", 3);
            counter("c", 4);
            span_at("pre", 10, 25);
            mark("marker");
        }
        set_enabled(false);
        let t = take();
        assert_eq!(t.span_count("outer"), 1);
        assert_eq!(t.span_count("inner"), 1);
        assert_eq!(t.span_count("pre"), 1);
        assert_eq!(t.span_count("marker"), 1);
        assert_eq!(t.counter_total("c"), 7);
    }

    #[test]
    fn memory_accounting_tracks_high_water() {
        let _g = locked();
        reset();
        set_enabled(true);
        mem_alloc(100);
        mem_alloc(50);
        assert_eq!(mem_current_bytes(), 150);
        mem_free(100);
        mem_alloc(20);
        assert_eq!(mem_current_bytes(), 70);
        assert_eq!(mem_peak_bytes(), 150);
        set_enabled(false);
        let t = take();
        assert_eq!(t.mem_peak_bytes, 150);
        // take() resets accounting.
        assert_eq!(mem_current_bytes(), 0);
        assert_eq!(mem_peak_bytes(), 0);
    }

    #[test]
    fn mem_free_without_alloc_saturates() {
        let _g = locked();
        reset();
        set_enabled(true);
        mem_free(1000);
        assert_eq!(mem_current_bytes(), 0);
        set_enabled(false);
        reset();
    }

    #[test]
    fn threads_merge_with_distinct_tids() {
        let _g = locked();
        reset();
        set_enabled(true);
        counter("main.c", 1);
        let hs: Vec<_> = (0..3)
            .map(|i| {
                std::thread::spawn(move || {
                    counter("thread.c", i + 1);
                    let _s = span("thread.span");
                })
            })
            .collect();
        for h in hs {
            h.join().unwrap();
        }
        set_enabled(false);
        let t = take();
        assert_eq!(t.counter_total("thread.c"), 1 + 2 + 3);
        assert_eq!(t.span_count("thread.span"), 3);
        let mut tids: Vec<u64> = t
            .events
            .iter()
            .filter(|e| e.name == "thread.c")
            .map(|e| e.tid)
            .collect();
        tids.sort_unstable();
        tids.dedup();
        assert_eq!(tids.len(), 3, "each thread records under its own tid");
    }

    #[test]
    fn chrome_json_is_well_formed() {
        let _g = locked();
        reset();
        set_enabled(true);
        {
            let _s = span("stage.opmin");
            counter("opmin.count", 9);
            span_at("weird\"name\\x", 5, 9);
        }
        set_enabled(false);
        let t = take();
        let json = t.to_chrome_json();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ph\":\"C\""));
        assert!(json.contains("\"value\":9"));
        assert!(json.contains("weird\\\"name\\\\x"));
        // Brace/bracket balance (no string values contain braces here).
        let balance = |open: char, close: char| {
            json.chars().filter(|&c| c == open).count()
                == json.chars().filter(|&c| c == close).count()
        };
        assert!(balance('{', '}'));
        assert!(balance('[', ']'));
    }

    #[test]
    fn take_drains_and_second_take_is_empty() {
        let _g = locked();
        reset();
        set_enabled(true);
        counter("x", 1);
        set_enabled(false);
        let t1 = take();
        assert_eq!(t1.counter_total("x"), 1);
        let t2 = take();
        assert!(t2.events.is_empty());
    }
}
