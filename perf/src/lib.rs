//! `exp_perf` — the repo's one benchmark.  See `perf/README.md`.

pub mod exec_wl;
pub mod gates;
pub mod json;
pub mod programs;
pub mod replay;
pub mod report;
pub mod run;
pub mod serve_wl;
pub mod span;
pub mod spec;
pub mod stats;
pub mod synth_wl;
