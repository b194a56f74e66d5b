//! # tce-bench — experiment binaries
//!
//! One binary per paper artifact (`exp_e1_opmin` … `exp_e12_cse`; see
//! DESIGN.md's experiment index and EXPERIMENTS.md for recorded
//! outcomes) plus `exp_kernels`, the GETT throughput sweep behind the
//! committed `BENCH_kernels.json`.  End-to-end and per-layer timings
//! live in the `exp_perf` benchmark (`perf/`, see `BENCHMARK.json`).

pub mod tables;
