//! What every workload run shares: its arguments, the pinned host
//! environment, the timed loop, and the report it hands back.

use crate::gates::Tally;
use crate::json::{num, obj, s, Json};
use crate::span::Span;
use crate::spec::BenchmarkDef;
use crate::stats::{self, Summary};
use std::collections::BTreeMap;
use std::time::Instant;

/// Arguments of one workload run (the driver's contract, plus `quick`).
#[derive(Debug, Clone, PartialEq)]
pub struct RunArgs {
    /// Workload name.
    pub workload: String,
    /// Seed for tensor data, program draws and request order.
    pub seed: u64,
    /// How long the timed phase measures, seconds.
    pub seconds: f64,
    /// `true`: the traced run (per-layer metrics); `false`: end-to-end.
    pub trace: bool,
    /// Smoke mode: toy extents and one set-up pass.  Checks everything,
    /// measures nothing worth keeping.
    pub quick: bool,
}

/// How many times an untraced run sets up from scratch.  Each set-up pass
/// is followed by its share of the timed phase, so `setup_s` is a median
/// over passes and the timing samples are pooled over as many
/// independently built states — a state that happens to be slow for the
/// life of one process (thread placement, where its tensors landed in
/// memory) is then one fifth of the samples, not all of them.
pub const SETUP_PASSES: usize = 5;

/// The environment a run executes in, pinned before any `tce` code reads
/// it and recorded with the results.
#[derive(Debug, Clone, PartialEq)]
pub struct Host {
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// Worker threads for contraction kernels: `min(nproc, 2)`.
    pub threads: usize,
    /// The `TCE_*` variables as pinned (`None`: removed).
    pub pins: Vec<(&'static str, Option<String>)>,
}

impl Host {
    /// Pin `TCE_THREADS`, `TCE_KERNEL`, `TCE_PLAN_CACHE_CAP`,
    /// `TCE_BUFPOOL_CAP` and `TCE_CALIBRATION` for this process, whatever
    /// the caller's shell exported.  Call once, first thing in `main`,
    /// while the process is still single-threaded.
    pub fn pin() -> Self {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let threads = nproc.min(2);
        let kernel = tce_core::tensor::kernels::detect_best().name();
        let pins = vec![
            ("TCE_THREADS", Some(threads.to_string())),
            ("TCE_KERNEL", Some(kernel.to_string())),
            ("TCE_PLAN_CACHE_CAP", Some("512".to_string())),
            ("TCE_PLAN_CACHE_SHARDS", Some("8".to_string())),
            (
                "TCE_BUFPOOL_CAP",
                Some(tce_core::tensor::bufpool::DEFAULT_BUFPOOL_CAP.to_string()),
            ),
            ("TCE_CALIBRATION", None),
        ];
        for (key, value) in &pins {
            match value {
                Some(v) => std::env::set_var(key, v),
                None => std::env::remove_var(key),
            }
        }
        Self {
            nproc,
            threads,
            pins,
        }
    }

    /// The host block of a result record.
    pub fn to_json(&self) -> Json {
        let cache = tce_core::tensor::kernels::cache_info();
        obj([
            ("nproc", num(self.nproc as f64)),
            ("exec_threads", num(self.threads as f64)),
            ("kernel", s(tce_core::tensor::kernels::active().name())),
            (
                "cache_bytes",
                obj([
                    ("l1d", num(cache.l1d as f64)),
                    ("l2", num(cache.l2 as f64)),
                    ("l3", num(cache.l3 as f64)),
                ]),
            ),
            (
                "env",
                obj(self
                    .pins
                    .iter()
                    .map(|(k, v)| (*k, v.as_ref().map_or(Json::Null, |v| s(v.clone()))))),
            ),
        ])
    }
}

/// Timing samples of one timed phase.
#[derive(Debug, Clone, PartialEq)]
pub struct Timed {
    /// One entry per sample, in completion order: milliseconds per
    /// operation (a sample that batches several operations holds their
    /// mean).  The gated median is taken over these.
    pub op_ms: Vec<f64>,
    /// Every operation's own time, milliseconds.  The printed tail
    /// percentile is read off these.
    pub each_ms: Vec<f64>,
    /// Operations per sample.
    pub batch: usize,
    /// Wall time of the whole phase, seconds.
    pub wall_s: f64,
}

impl Timed {
    /// Operations completed per second of time spent inside them.
    pub fn ops_per_busy_second(&self) -> f64 {
        self.op_ms.len() as f64 / (self.op_ms.iter().sum::<f64>() / 1e3)
    }

    /// An empty phase of samples of `batch` operations.
    pub fn empty(batch: usize) -> Self {
        Self {
            op_ms: Vec::new(),
            each_ms: Vec::new(),
            batch,
            wall_s: 0.0,
        }
    }

    /// Append another segment of the same timed phase (same batch).
    pub fn extend(&mut self, other: Timed) {
        debug_assert_eq!(self.batch, other.batch, "segments of one phase");
        self.op_ms.extend(other.op_ms);
        self.each_ms.extend(other.each_ms);
        self.wall_s += other.wall_s;
    }
}

/// The untraced run's shape: [`SETUP_PASSES`] cycles (one in smoke mode)
/// of `setup` — timed, one `setup_s` sample each — followed by `segment`
/// measuring on the state just built for an equal share of
/// `args.seconds`.  The previous state is dropped before the next is
/// built.  Returns the pooled timing samples and the set-up times.
pub fn measure_cycles<S>(
    args: &RunArgs,
    tally: &mut Tally,
    mut setup: impl FnMut(&mut Tally) -> Result<S, String>,
    mut segment: impl FnMut(&S, f64, &mut Tally) -> Result<Timed, String>,
) -> Result<(Timed, Vec<f64>), String> {
    let cycles = if args.quick { 1 } else { SETUP_PASSES };
    let mut pooled: Option<Timed> = None;
    let mut setup_s = Vec::with_capacity(cycles);
    for _ in 0..cycles {
        let start = Instant::now();
        let state = setup(tally)?;
        setup_s.push(start.elapsed().as_secs_f64());
        let timed = segment(&state, args.seconds / cycles as f64, tally)?;
        match &mut pooled {
            Some(all) => all.extend(timed),
            None => pooled = Some(timed),
        }
    }
    Ok((pooled.expect("at least one cycle"), setup_s))
}

/// Run `op` back to back until `seconds` have elapsed (and at least three
/// samples exist).  One sample is the mean of `batch` consecutive
/// operations: an operation that takes a few milliseconds, or whose time
/// falls into two modes, is batched so that a sample is a stretch of
/// sustained work and the median over samples does not sit between modes.
/// `op` gets the operation's index, times itself and returns
/// milliseconds, so that checking its output stays outside the
/// measurement.
pub fn timed_loop(seconds: f64, batch: usize, mut op: impl FnMut(u64) -> f64) -> Timed {
    let start = Instant::now();
    let mut timed = Timed::empty(batch);
    while timed.op_ms.len() < 3 || start.elapsed().as_secs_f64() < seconds {
        let first = timed.each_ms.len();
        for index in first..first + batch {
            timed.each_ms.push(op(index as u64));
        }
        let total: f64 = timed.each_ms[first..].iter().sum();
        timed.op_ms.push(total / batch as f64);
    }
    timed.wall_s = start.elapsed().as_secs_f64();
    timed
}

/// Milliseconds since `start`.
pub fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// `VmHWM` of this process in MB (0 where `/proc` does not provide it).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Everything one run reports.
#[derive(Debug, Default)]
pub struct RunReport {
    /// Operations attempted and failed.
    pub tally: Tally,
    /// Metric values by name: the end-to-end set, or the per-layer set.
    pub values: BTreeMap<String, f64>,
    /// Sample count and quartiles behind the timing metrics.
    pub samples: BTreeMap<String, Summary>,
    /// Free-form detail (per-node tables, supported tail, counters).
    pub notes: Vec<(String, Json)>,
    /// Benchmark-owned spans of a traced run.
    pub spans: Vec<Span>,
}

impl RunReport {
    /// A report for a traced run: every per-layer metric present and 0,
    /// to be overwritten by the layers the workload enters.
    pub fn zeroed_layers(def: &BenchmarkDef) -> Self {
        Self {
            values: def
                .per_layer
                .iter()
                .map(|m| (m.name.clone(), 0.0))
                .collect(),
            ..Self::default()
        }
    }

    /// Set per-layer metric `name`.
    ///
    /// # Panics
    /// If `BENCHMARK.json` does not define it.
    pub fn set(&mut self, name: &str, value: f64) {
        *self
            .values
            .get_mut(name)
            .unwrap_or_else(|| panic!("`{name}` is not a per-layer metric of BENCHMARK.json")) =
            value;
    }

    /// Set per-layer metric `name` to the median of `samples` (0 when
    /// there are none) and keep their summary.
    pub fn set_median(&mut self, name: &str, samples: &[f64]) {
        if samples.is_empty() {
            return self.set(name, 0.0);
        }
        let summary = Summary::of(samples);
        self.set(name, summary.median);
        self.samples.insert(name.to_string(), summary);
    }

    /// Fill in the end-to-end set from a timed phase and the set-up
    /// passes.  `throughput` is operations per second as the workload
    /// defines it.
    pub fn set_end_to_end(&mut self, timed: &Timed, throughput: f64, setup_s: &[f64]) {
        let mut sorted = timed.op_ms.clone();
        sorted.sort_by(f64::total_cmp);
        self.values
            .insert("op_p50_ms".into(), stats::median(&sorted));
        self.values.insert("throughput_ops".into(), throughput);
        self.values.insert("peak_rss_mb".into(), peak_rss_mb());
        self.values.insert("setup_s".into(), stats::median(setup_s));
        self.samples
            .insert("op_p50_ms".into(), Summary::of(&sorted));
        self.samples.insert("setup_s".into(), Summary::of(setup_s));
        self.notes
            .push(("ops_per_sample".into(), num(timed.batch as f64)));
        // The highest percentile of single operations this run supports
        // by the rule of ten samples beyond it.  Printed, not gated: a tail
        // read off ten runs of a shared host moves more than any bound the
        // gate could hold.
        let mut each = timed.each_ms.clone();
        each.sort_by(f64::total_cmp);
        let operations = ("operations", num(each.len() as f64));
        self.notes.push((
            "supported_tail".into(),
            match stats::supported_tail(each.len()) {
                Some(p) => obj([
                    ("percentile", num(p)),
                    ("value_ms", num(stats::percentile(&each, p))),
                    operations,
                ]),
                None => obj([operations]),
            },
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timed_loop_runs_at_least_three_operations_and_then_to_the_deadline() {
        let t = timed_loop(0.0, 1, |i| i as f64);
        assert_eq!(t.op_ms, vec![0.0, 1.0, 2.0]);
        // Batched: a sample is the mean of its operations.
        let t = timed_loop(0.0, 4, |i| i as f64);
        assert_eq!(t.op_ms, vec![1.5, 5.5, 9.5]);
        assert_eq!(t.each_ms, (0..12).map(f64::from).collect::<Vec<_>>());
        assert_eq!(t.ops_per_busy_second(), 3.0 / (16.5 / 1e3));
        let t = timed_loop(0.02, 1, |_| {
            std::thread::sleep(std::time::Duration::from_millis(1));
            1.0
        });
        assert!(t.op_ms.len() >= 3 && t.wall_s >= 0.02);
    }

    #[test]
    fn cycles_pool_samples_and_time_every_set_up() {
        let args = RunArgs {
            workload: "w".into(),
            seed: 1,
            seconds: 0.0,
            trace: false,
            quick: false,
        };
        let mut tally = Tally::default();
        let mut built = 0;
        let (timed, setup_s) = measure_cycles(
            &args,
            &mut tally,
            |tally| {
                tally.check(true, String::new);
                built += 1;
                Ok(built)
            },
            |state, seconds, _| Ok(timed_loop(seconds, 2, |_| *state as f64)),
        )
        .unwrap();
        assert_eq!(setup_s.len(), SETUP_PASSES);
        assert_eq!(timed.op_ms.len(), 3 * SETUP_PASSES);
        assert_eq!(&timed.op_ms[..4], &[1.0, 1.0, 1.0, 2.0]);
        assert_eq!((timed.batch, tally.attempted), (2, SETUP_PASSES as u64));
        let failed: Result<(Timed, Vec<f64>), String> = measure_cycles(
            &args,
            &mut tally,
            |_| Err::<(), _>("no".to_string()),
            |_, _, _| unreachable!(),
        );
        assert_eq!(failed.unwrap_err(), "no");
    }

    #[test]
    fn unknown_layer_metric_is_rejected() {
        let def = BenchmarkDef::embedded();
        let mut report = RunReport::zeroed_layers(&def);
        report.set("tensor.gett_ms", 1.5);
        assert_eq!(report.values["tensor.gett_ms"], 1.5);
        assert_eq!(report.values.len(), def.per_layer.len());
        assert!(std::panic::catch_unwind(move || report.set("tensor.typo", 1.0)).is_err());
    }

    #[test]
    fn end_to_end_set_is_exactly_the_defined_one() {
        let def = BenchmarkDef::embedded();
        let mut report = RunReport::default();
        let timed = Timed {
            op_ms: (1..=300).map(f64::from).collect(),
            each_ms: (1..=300).map(f64::from).collect(),
            batch: 1,
            wall_s: 45.15,
        };
        report.set_end_to_end(&timed, 300.0 / 45.15, &[0.5, 0.4, 0.6]);
        let mut names: Vec<_> = report.values.keys().cloned().collect();
        let mut want: Vec<_> = def.end_to_end.iter().map(|m| m.name.clone()).collect();
        names.sort();
        want.sort();
        assert_eq!(names, want);
        assert_eq!(report.values["op_p50_ms"], 150.5);
        let (_, tail) = report
            .notes
            .iter()
            .find(|(key, _)| key == "supported_tail")
            .unwrap();
        assert_eq!(tail.get_f64("percentile").unwrap(), 95.0);
        assert_eq!(tail.get_f64("value_ms").unwrap(), 285.0);
        assert_eq!(report.values["setup_s"], 0.5);
    }
}
