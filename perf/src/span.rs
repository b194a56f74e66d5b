//! Benchmark-owned spans.
//!
//! The benchmark measures every layer from outside, by timing calls into
//! its public functions; this recorder is what those calls are wrapped in
//! during a traced run.  Spans stay in memory until the run ends.  A
//! span's *self time* is its duration minus the time its direct children
//! cover.

use crate::json::{num, obj, s, Json};
use std::collections::BTreeMap;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `tensor.gett`.
    pub name: &'static str,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span in the recorder's list.
    pub parent: Option<usize>,
    /// The operation (iteration, pass or request) the span belongs to.
    pub op: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records nested spans on one thread.  A disabled recorder runs the
/// wrapped call and records nothing, so the same call sites serve the
/// untraced measurement.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    open: Vec<usize>,
    op: u64,
    spans: Vec<Span>,
}

impl Recorder {
    /// A recorder whose clock starts now.
    pub fn new(enabled: bool) -> Self {
        Self::with_epoch(enabled, Instant::now())
    }

    /// A recorder sharing `epoch` with others (one per client thread), so
    /// their spans merge onto one time axis.
    pub fn with_epoch(enabled: bool, epoch: Instant) -> Self {
        Self {
            enabled,
            epoch,
            open: Vec::new(),
            op: 0,
            spans: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Tag spans opened from now on with operation id `op`.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Run `f` inside a span called `name`; `f` may open child spans.
    pub fn scope<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(index);
        let result = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.epoch.elapsed().as_nanos() as u64;
        result
    }

    /// Run a leaf call inside a span called `name`.
    pub fn call<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.scope(name, |_| f())
    }

    /// [`Recorder::call`] that also hands back the call's duration in
    /// nanoseconds, for per-call tables keyed by more than the span name.
    pub fn call_ns<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, u64) {
        let start = Instant::now();
        let result = self.call(name, f);
        (result, start.elapsed().as_nanos() as u64)
    }

    /// The closed spans, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Append another thread's spans (recorded against the same epoch).
    pub fn merge(&mut self, other: Recorder) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut sp| {
            sp.parent = sp.parent.map(|p| p + base);
            sp
        }));
    }
}

/// Per-name totals over a span list.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotal {
    /// Number of spans with the name.
    pub count: u64,
    /// Summed durations, nanoseconds.
    pub total_ns: u64,
    /// Summed self times, nanoseconds.
    pub self_ns: u64,
}

/// Total and self time per span name.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, NameTotal> {
    let mut child_ns = vec![0u64; spans.len()];
    for sp in spans {
        if let Some(p) = sp.parent {
            child_ns[p] += sp.dur_ns();
        }
    }
    let mut out: BTreeMap<&'static str, NameTotal> = BTreeMap::new();
    for (sp, children) in spans.iter().zip(&child_ns) {
        let t = out.entry(sp.name).or_default();
        t.count += 1;
        t.total_ns += sp.dur_ns();
        t.self_ns += sp.dur_ns().saturating_sub(*children);
    }
    out
}

/// Per operation, the summed duration in milliseconds of the spans whose
/// name is in `names`; one entry per operation id that has a span called
/// `within` (operations that never opened one of `names` count 0).
pub fn per_op_ms(spans: &[Span], within: &str, names: &[&str]) -> Vec<f64> {
    let mut sums: BTreeMap<u64, u64> = BTreeMap::new();
    for sp in spans {
        if sp.name == within {
            sums.entry(sp.op).or_insert(0);
        }
    }
    for sp in spans {
        if names.contains(&sp.name) {
            if let Some(sum) = sums.get_mut(&sp.op) {
                *sum += sp.dur_ns();
            }
        }
    }
    sums.values().map(|&ns| ns as f64 / 1e6).collect()
}

/// The span list as a JSON array (the `trace_<workload>.json` payload).
pub fn to_json(spans: &[Span]) -> Json {
    Json::Arr(
        spans
            .iter()
            .map(|sp| {
                obj([
                    ("name", s(sp.name)),
                    ("start_ns", num(sp.start_ns as f64)),
                    ("end_ns", num(sp.end_ns as f64)),
                    ("parent", sp.parent.map_or(Json::Null, |p| num(p as f64))),
                    ("op", num(sp.op as f64)),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        // exec 0..100 ⊃ gett 10..40, gett 50..90 ⊃ pack 55..65
        let spans = vec![
            span("exec", 0, 100, None),
            span("gett", 10, 40, Some(0)),
            span("gett", 50, 90, Some(0)),
            span("pack", 55, 65, Some(2)),
        ];
        let t = totals(&spans);
        assert_eq!(
            t["exec"],
            NameTotal {
                count: 1,
                total_ns: 100,
                self_ns: 30
            }
        );
        assert_eq!(
            t["gett"],
            NameTotal {
                count: 2,
                total_ns: 70,
                self_ns: 60
            }
        );
        assert_eq!(t["pack"].self_ns, 10);
        // Self times partition the root's duration.
        let sum: u64 = t.values().map(|n| n.self_ns).sum();
        assert_eq!(sum, 100);
    }

    #[test]
    fn per_operation_sums_group_by_operation_id() {
        let mut spans = vec![
            span("replay", 0, 10_000_000, None),
            span("gett", 0, 2_000_000, Some(0)),
            span("plan", 2_000_000, 2_500_000, Some(0)),
            span("gett", 3_000_000, 4_000_000, Some(0)),
            span("replay", 20_000_000, 30_000_000, None),
            span("gett", 50_000_000, 51_000_000, None),
        ];
        spans[4].op = 1;
        spans[5].op = 9; // no `replay` span for operation 9: not counted
        assert_eq!(per_op_ms(&spans, "replay", &["gett"]), vec![3.0, 0.0]);
        assert_eq!(
            per_op_ms(&spans, "replay", &["gett", "plan"]),
            vec![3.5, 0.0]
        );
    }

    #[test]
    fn recorder_nests_and_tags_operations() {
        let mut rec = Recorder::new(true);
        rec.set_op(7);
        let got = rec.scope("outer", |rec| {
            rec.call("inner", || 1) + rec.call("inner", || 2)
        });
        assert_eq!(got, 3);
        let spans = rec.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans
            .iter()
            .all(|sp| sp.op == 7 && sp.end_ns >= sp.start_ns));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[2].end_ns <= spans[0].end_ns);
    }

    #[test]
    fn disabled_recorder_runs_the_call_and_records_nothing() {
        let mut rec = Recorder::new(false);
        assert_eq!(rec.scope("a", |rec| rec.call("b", || 5)), 5);
        assert!(rec.spans().is_empty());
    }

    #[test]
    fn merge_rebases_parent_indices() {
        let epoch = Instant::now();
        let mut a = Recorder::with_epoch(true, epoch);
        a.call("x", || ());
        let mut b = Recorder::with_epoch(true, epoch);
        b.scope("y", |b| b.call("z", || ()));
        a.merge(b);
        let spans = a.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[2].parent, Some(1));
    }
}
