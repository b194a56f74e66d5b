//! Aggregated, human-readable summary of a [`Trace`](crate::Trace).
//!
//! The report answers the questions the bench harness and the CLI care
//! about without opening the chrome trace: where did wall time go per
//! pipeline stage, what FLOP rate did execution sustain, how much
//! intermediate memory was live at peak, and how well did the GETT plan
//! cache and the worker pool do.

use crate::{EventKind, Trace};
use std::fmt;

/// Wall time attributed to one pipeline stage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageTime {
    /// Stage span name with the `stage.` prefix stripped (`opmin`, …).
    pub stage: String,
    /// Total ns across all spans of this stage.
    pub wall_ns: u64,
    /// Number of spans (a stage can run once per term).
    pub count: usize,
}

/// Summary statistics distilled from a trace.
#[derive(Debug, Clone, Default)]
pub struct ProfileReport {
    /// Per-stage wall time, pipeline order.
    pub stages: Vec<StageTime>,
    /// Executed floating-point operations (GETT + interpreter).
    pub flops: u64,
    /// Wall ns of the execution stage (denominator for the FLOP rate).
    pub exec_wall_ns: u64,
    /// Bytes moved by traced tensor permutes.
    pub permute_bytes: u64,
    /// Time inside GETT packing across all threads, ns.
    pub gett_pack_ns: u64,
    /// Time inside the GETT micro-kernel across all threads, ns.
    pub gett_kernel_ns: u64,
    /// GETT plan-cache hits.
    pub plan_cache_hits: u64,
    /// GETT plan-cache misses.
    pub plan_cache_misses: u64,
    /// GETT plan-cache evictions (inserts past capacity).
    pub plan_cache_evictions: u64,
    /// GETT executions per dispatched kernel variant, `(name, count)`;
    /// normally one entry, more when variants were mixed in-process.
    pub kernel_variants: Vec<(String, u64)>,
    /// GETT executions that took the no-pack direct path (counted in
    /// `kernel_variants` too).
    pub gett_direct: u64,
    /// Tasks GETT executions ran as, summed (a call on one task counts 1).
    pub gett_tasks: u64,
    /// GETT executions that fanned out over more than one task.
    pub gett_parallel: u64,
    /// Largest GETT macro-tile blocks seen, `(mc, nc, kc)`; zero when no
    /// traced GETT execution ran.
    pub gett_blocks: (u64, u64, u64),
    /// Worker-pool busy time across workers and the submitting thread, ns.
    pub pool_busy_ns: u64,
    /// Worker-pool idle time across workers, ns.
    pub pool_idle_ns: u64,
    /// High-water mark of traced intermediate memory, bytes.
    pub mem_peak_bytes: u64,
    /// Interpreter element loads.
    pub interp_reads: u64,
    /// Interpreter element stores.
    pub interp_writes: u64,
    /// Task-graph tasks scheduled (summed over all graph runs).
    pub sched_tasks: u64,
    /// Task-graph dependency edges.
    pub sched_edges: u64,
    /// Largest single-run peak live-set admitted by the scheduler, in
    /// weight units (elements).
    pub sched_peak_live: u64,
    /// Forced admissions (cap too small for any ready task while idle).
    pub sched_forced_admissions: u64,
    /// Most scheduler slots any one graph run used.
    pub sched_slots: u64,
    /// Buffer-pool acquires served from retained buffers.
    pub bufpool_hits: u64,
    /// Buffer-pool acquires that allocated fresh.
    pub bufpool_misses: u64,
    /// Buffer releases dropped because the pool was at capacity.
    pub bufpool_evictions: u64,
    /// Calibration-model predicted execution wall time, ns (0 when no
    /// calibration profile was loaded).
    pub calib_predicted_ns: u64,
    /// Measured execution wall time paired with the prediction, ns.
    pub calib_measured_ns: u64,
    /// Predicted/measured ratio in milli-units (1000 = exact).
    pub calib_ratio_milli: u64,
}

/// Pipeline stage order for the report (matches the paper's Fig. 5).
const STAGE_ORDER: [&str; 6] = [
    "opmin",
    "fusion",
    "spacetime",
    "locality",
    "distribution",
    "exec",
];

impl ProfileReport {
    /// Build a report from a collected trace.
    pub fn from_trace(t: &Trace) -> Self {
        let mut stages: Vec<StageTime> = Vec::new();
        for e in &t.events {
            if let Some(stage) = e.name.strip_prefix("stage.") {
                if let EventKind::Span { begin_ns, end_ns } = e.kind {
                    let dur = end_ns.saturating_sub(begin_ns);
                    match stages.iter_mut().find(|s| s.stage == stage) {
                        Some(s) => {
                            s.wall_ns += dur;
                            s.count += 1;
                        }
                        None => stages.push(StageTime {
                            stage: stage.to_string(),
                            wall_ns: dur,
                            count: 1,
                        }),
                    }
                }
            }
        }
        stages.sort_by_key(|s| {
            STAGE_ORDER
                .iter()
                .position(|&o| o == s.stage)
                .unwrap_or(STAGE_ORDER.len())
        });
        let exec_wall_ns = stages
            .iter()
            .find(|s| s.stage == "exec")
            .map(|s| s.wall_ns)
            .unwrap_or(0);
        ProfileReport {
            flops: t.counter_total("gett.flops") + t.counter_total("exec.interp.flops"),
            exec_wall_ns,
            permute_bytes: t.counter_total("permute.bytes"),
            gett_pack_ns: t.counter_total("gett.pack_ns"),
            gett_kernel_ns: t.counter_total("gett.kernel_ns"),
            plan_cache_hits: t.counter_total("plan_cache.hits"),
            plan_cache_misses: t.counter_total("plan_cache.misses"),
            plan_cache_evictions: t.counter_total("plan_cache.evictions"),
            kernel_variants: {
                let mut vs: Vec<(String, u64)> = Vec::new();
                for e in &t.events {
                    if let Some(name) = e.name.strip_prefix("gett.kernel_variant.") {
                        if let EventKind::Counter { delta, .. } = e.kind {
                            match vs.iter_mut().find(|(n, _)| n == name) {
                                Some((_, c)) => *c += delta,
                                None => vs.push((name.to_string(), delta)),
                            }
                        }
                    }
                }
                vs.sort_by_key(|v| std::cmp::Reverse(v.1));
                vs
            },
            gett_direct: t.counter_total("gett.direct"),
            gett_tasks: t.counter_total("gett.tasks"),
            gett_parallel: t.counter_total("gett.parallel"),
            gett_blocks: (
                t.counter_max("gett.mc"),
                t.counter_max("gett.nc"),
                t.counter_max("gett.kc"),
            ),
            pool_busy_ns: t.counter_total("pool.busy_ns"),
            pool_idle_ns: t.counter_total("pool.idle_ns"),
            mem_peak_bytes: t.mem_peak_bytes,
            interp_reads: t.counter_total("exec.interp.reads"),
            interp_writes: t.counter_total("exec.interp.writes"),
            sched_tasks: t.counter_total("sched.tasks"),
            sched_edges: t.counter_total("sched.edges"),
            sched_peak_live: t.counter_max("sched.peak_live"),
            sched_forced_admissions: t.counter_total("sched.forced_admissions"),
            sched_slots: t.counter_max("sched.slots"),
            bufpool_hits: t.counter_total("bufpool.hits"),
            bufpool_misses: t.counter_total("bufpool.misses"),
            bufpool_evictions: t.counter_total("bufpool.evictions"),
            calib_predicted_ns: t.counter_total("calib.predicted_ns"),
            calib_measured_ns: t.counter_total("calib.measured_ns"),
            calib_ratio_milli: t.counter_max("calib.ratio_milli"),
            stages,
        }
    }

    /// Sustained GFLOP/s over the execution stage (0 when nothing ran).
    pub fn gflops(&self) -> f64 {
        if self.exec_wall_ns == 0 {
            return 0.0;
        }
        self.flops as f64 / self.exec_wall_ns as f64
    }
}

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.3} s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.3} ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1} us", ns as f64 / 1e3)
    } else {
        format!("{ns} ns")
    }
}

fn fmt_bytes(b: u64) -> String {
    if b >= 1 << 30 {
        format!("{:.2} GiB", b as f64 / (1u64 << 30) as f64)
    } else if b >= 1 << 20 {
        format!("{:.2} MiB", b as f64 / (1u64 << 20) as f64)
    } else if b >= 1 << 10 {
        format!("{:.2} KiB", b as f64 / (1u64 << 10) as f64)
    } else {
        format!("{b} B")
    }
}

impl fmt::Display for ProfileReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "profile report")?;
        writeln!(f, "  stage wall time:")?;
        for s in &self.stages {
            writeln!(
                f,
                "    {:<13} {:>12}  (x{})",
                s.stage,
                fmt_ns(s.wall_ns),
                s.count
            )?;
        }
        if self.stages.is_empty() {
            writeln!(f, "    (no stage spans recorded)")?;
        }
        writeln!(f, "  executed flops:  {}", self.flops)?;
        if self.exec_wall_ns > 0 {
            writeln!(f, "  flop rate:       {:.3} GFLOP/s", self.gflops())?;
        }
        if self.interp_reads + self.interp_writes > 0 {
            writeln!(
                f,
                "  interp accesses: {} loads, {} stores",
                self.interp_reads, self.interp_writes
            )?;
        }
        if self.gett_pack_ns + self.gett_kernel_ns > 0 {
            writeln!(
                f,
                "  gett thread-time: pack {} / kernel {}",
                fmt_ns(self.gett_pack_ns),
                fmt_ns(self.gett_kernel_ns)
            )?;
        }
        if self.permute_bytes > 0 {
            writeln!(f, "  permute traffic: {}", fmt_bytes(self.permute_bytes))?;
        }
        if !self.kernel_variants.is_empty() {
            let variants = self
                .kernel_variants
                .iter()
                .map(|(n, c)| format!("{n} x{c}"))
                .collect::<Vec<_>>()
                .join(", ");
            let (mc, nc, kc) = self.gett_blocks;
            write!(
                f,
                "  gett kernel:     {variants} (MC={mc} NC={nc} KC={kc}), tasks x{}, parallel x{}",
                self.gett_tasks, self.gett_parallel
            )?;
            if self.gett_direct > 0 {
                write!(f, ", direct x{}", self.gett_direct)?;
            }
            writeln!(f)?;
        }
        if self.plan_cache_hits + self.plan_cache_misses > 0 {
            writeln!(
                f,
                "  plan cache:      {} hits / {} misses / {} evictions",
                self.plan_cache_hits, self.plan_cache_misses, self.plan_cache_evictions
            )?;
        }
        if self.sched_tasks > 0 {
            writeln!(
                f,
                "  task graph:      {} tasks / {} edges, peak live {} elements, {} forced, {} slot{}",
                self.sched_tasks,
                self.sched_edges,
                self.sched_peak_live,
                self.sched_forced_admissions,
                self.sched_slots,
                if self.sched_slots == 1 { "" } else { "s" }
            )?;
        }
        if self.bufpool_hits + self.bufpool_misses > 0 {
            writeln!(
                f,
                "  buffer pool:     {} hits / {} misses / {} evictions",
                self.bufpool_hits, self.bufpool_misses, self.bufpool_evictions
            )?;
        }
        if self.pool_busy_ns + self.pool_idle_ns > 0 {
            let total = (self.pool_busy_ns + self.pool_idle_ns) as f64;
            writeln!(
                f,
                "  pool workers:    busy {} / idle {} ({:.1}% busy)",
                fmt_ns(self.pool_busy_ns),
                fmt_ns(self.pool_idle_ns),
                100.0 * self.pool_busy_ns as f64 / total
            )?;
        }
        if self.calib_measured_ns > 0 {
            writeln!(
                f,
                "  calibration:     predicted {} / measured {} (ratio {:.2})",
                fmt_ns(self.calib_predicted_ns),
                fmt_ns(self.calib_measured_ns),
                self.calib_ratio_milli as f64 / 1000.0
            )?;
        }
        writeln!(f, "  mem high-water:  {}", fmt_bytes(self.mem_peak_bytes))?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Event, EventKind};
    use std::borrow::Cow;

    fn span_ev(name: &'static str, begin: u64, end: u64) -> Event {
        Event {
            name: Cow::Borrowed(name),
            tid: 0,
            kind: EventKind::Span {
                begin_ns: begin,
                end_ns: end,
            },
        }
    }

    fn counter_ev(name: &'static str, delta: u64) -> Event {
        Event {
            name: Cow::Borrowed(name),
            tid: 0,
            kind: EventKind::Counter { at_ns: 0, delta },
        }
    }

    #[test]
    fn report_aggregates_and_orders_stages() {
        let t = Trace {
            events: vec![
                span_ev("stage.exec", 100, 1100),
                span_ev("stage.opmin", 0, 50),
                span_ev("stage.opmin", 50, 80),
                span_ev("stage.fusion", 80, 100),
                counter_ev("gett.flops", 2000),
                counter_ev("exec.interp.flops", 500),
                counter_ev("plan_cache.hits", 3),
                counter_ev("plan_cache.misses", 1),
                counter_ev("plan_cache.evictions", 2),
                counter_ev("gett.kernel_variant.avx2", 1),
                counter_ev("gett.kernel_variant.avx2", 1),
                counter_ev("gett.kernel_variant.scalar", 1),
                counter_ev("gett.direct", 1),
                counter_ev("gett.tasks", 1),
                counter_ev("gett.tasks", 4),
                counter_ev("gett.tasks", 1),
                counter_ev("gett.parallel", 1),
                counter_ev("gett.mc", 64),
                counter_ev("gett.mc", 512),
                counter_ev("gett.nc", 1020),
                counter_ev("gett.kc", 256),
                counter_ev("sched.tasks", 7),
                counter_ev("sched.edges", 6),
                counter_ev("sched.peak_live", 37),
                counter_ev("sched.peak_live", 21),
                counter_ev("sched.forced_admissions", 0),
                counter_ev("sched.slots", 2),
                counter_ev("sched.slots", 1),
                counter_ev("bufpool.hits", 5),
                counter_ev("bufpool.misses", 2),
                counter_ev("bufpool.evictions", 1),
            ],
            mem_peak_bytes: 4096,
        };
        let r = t.report();
        let order: Vec<&str> = r.stages.iter().map(|s| s.stage.as_str()).collect();
        assert_eq!(order, vec!["opmin", "fusion", "exec"]);
        assert_eq!(r.stages[0].wall_ns, 80);
        assert_eq!(r.stages[0].count, 2);
        assert_eq!(r.flops, 2500);
        assert_eq!(r.exec_wall_ns, 1000);
        assert!((r.gflops() - 2.5).abs() < 1e-9);
        assert_eq!(r.plan_cache_hits, 3);
        assert_eq!(r.plan_cache_evictions, 2);
        assert_eq!(
            r.kernel_variants,
            vec![("avx2".to_string(), 2), ("scalar".to_string(), 1)]
        );
        assert_eq!(r.gett_blocks, (512, 1020, 256));
        assert_eq!(r.mem_peak_bytes, 4096);
        assert_eq!(r.sched_tasks, 7);
        assert_eq!(r.sched_edges, 6);
        assert_eq!(r.sched_peak_live, 37, "peak live is a max, not a sum");
        assert_eq!(r.sched_forced_admissions, 0);
        assert_eq!(
            (r.bufpool_hits, r.bufpool_misses, r.bufpool_evictions),
            (5, 2, 1)
        );
        let text = r.to_string();
        assert!(text.contains("opmin"));
        assert!(text.contains("GFLOP/s"));
        assert!(text.contains("4.00 KiB"));
        assert_eq!(r.gett_direct, 1);
        assert_eq!((r.gett_tasks, r.gett_parallel), (6, 1));
        assert!(text.contains(
            "avx2 x2, scalar x1 (MC=512 NC=1020 KC=256), tasks x6, parallel x1, direct x1\n"
        ));
        assert!(text.contains("3 hits / 1 misses / 2 evictions"));
        assert_eq!(r.sched_slots, 2, "slots is a max, not a sum");
        assert!(text.contains("7 tasks / 6 edges, peak live 37 elements, 0 forced, 2 slots\n"));
        assert!(text.contains("5 hits / 2 misses / 1 evictions"));
    }

    #[test]
    fn calibration_counters_surface() {
        let t = Trace {
            events: vec![
                counter_ev("calib.predicted_ns", 2_000_000),
                counter_ev("calib.measured_ns", 4_000_000),
                counter_ev("calib.ratio_milli", 500),
            ],
            mem_peak_bytes: 0,
        };
        let r = t.report();
        assert_eq!(
            (
                r.calib_predicted_ns,
                r.calib_measured_ns,
                r.calib_ratio_milli
            ),
            (2_000_000, 4_000_000, 500)
        );
        let text = r.to_string();
        assert!(
            text.contains("calibration:     predicted 2.000 ms / measured 4.000 ms (ratio 0.50)"),
            "{text}"
        );
        // No calibration counters → no line.
        assert!(!Trace::default()
            .report()
            .to_string()
            .contains("calibration"));
    }

    #[test]
    fn empty_trace_renders() {
        let r = Trace::default().report();
        assert_eq!(r.gflops(), 0.0);
        assert!(r.to_string().contains("no stage spans"));
    }
}
