//! Wiring the Fig. 5 pipeline into `tce-serve`.
//!
//! `tce-serve` is core-agnostic — it knows the line protocol and the
//! worker loop, and delegates every `run` request to an injected
//! [`tce_serve::Handler`].  This module provides that handler:
//! [`PipelineHandler`] compiles the request's program through
//! [`synthesize`] (memoized in a sharded [`ShardedLru`] keyed by the
//! program text plus every compilation-affecting option), binds the same
//! deterministic random inputs and integral functions the one-shot `tce
//! --execute` CLI binds, executes, and formats the per-tensor result
//! lines **byte-identically** to the CLI — so a client can diff a served
//! answer against a cold process run.
//!
//! The binding and formatting helpers ([`bind_random_inputs`],
//! [`bind_functions`], [`format_results`]) are shared with the `tce`
//! binary for exactly that reason: one definition, two entry points.

use crate::{synthesize, ExecOptions, Synthesis, SynthesisConfig};
use std::collections::HashMap;
use std::sync::Arc;
use tce_ir::TensorId;
use tce_serve::{Handler, ShardedLru};
use tce_tensor::{IntegralFn, Tensor};

/// Execution-affecting request options (compilation options live in
/// [`SynthesisConfig`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunOptions {
    /// Seed for the deterministic random input tensors.
    pub seed: u64,
    /// Worker threads for the contraction kernels (`None`: process
    /// default, i.e. `TCE_THREADS` or the machine's parallelism).
    pub threads: Option<usize>,
}

impl Default for RunOptions {
    fn default() -> Self {
        Self {
            seed: 42,
            threads: None,
        }
    }
}

/// Parse the wire `key=value` options of a `run` request into the
/// compilation and execution option bundles.
///
/// # Errors
/// A one-line diagnostic for an unknown key or a malformed value —
/// mirroring the CLI flag audit (`threads=0`, `threads=banana`, … all
/// fail fast).
pub fn parse_run_options(
    opts: &[(String, String)],
) -> Result<(SynthesisConfig, RunOptions), String> {
    let mut cfg = SynthesisConfig::default();
    let mut run = RunOptions::default();
    for (key, value) in opts {
        match key.as_str() {
            "seed" => {
                run.seed = value
                    .parse()
                    .map_err(|e| format!("bad seed `{value}`: {e}"))?;
            }
            "threads" => {
                let t: usize = value
                    .parse()
                    .map_err(|e| format!("bad threads `{value}`: {e}"))?;
                if t == 0 {
                    return Err("bad threads `0`: must be at least 1".to_string());
                }
                run.threads = Some(t);
            }
            "memory-limit" => {
                cfg.memory_limit = value
                    .parse()
                    .map_err(|e| format!("bad memory-limit `{value}`: {e}"))?;
            }
            "cache" => {
                let c: u128 = value
                    .parse()
                    .map_err(|e| format!("bad cache `{value}`: {e}"))?;
                cfg.cache_elements = Some(c);
                cfg.hierarchy = crate::locality::MemoryHierarchy::cache_and_disk(c, 1 << 30);
            }
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    Ok((cfg, run))
}

/// Bind a deterministic random tensor to every input that is read before
/// it is written, exactly as `tce --execute` does: shape from the
/// declaration, seed `seed ^ id`.
#[must_use]
pub fn bind_random_inputs(syn: &Synthesis, seed: u64) -> Vec<(TensorId, Tensor)> {
    syn.bound_inputs()
        .into_iter()
        .map(|id| {
            let decl = syn.program.tensors.get(id);
            let shape: Vec<usize> = decl
                .dims
                .iter()
                .map(|&r| syn.program.space.range_extent(r))
                .collect();
            (id, Tensor::random(&shape, seed ^ id.0 as u64))
        })
        .collect()
}

/// Static storage above which [`check_memory_budget`] consults the host;
/// smaller runs never read `/proc/meminfo`.
const MEMORY_CHECK_FLOOR_BYTES: u128 = 1 << 30;

/// Refuse, before anything is allocated, a run whose static storage
/// ([`Synthesis::static_elements`]) exceeds the memory this host has
/// available — a failed allocation aborts the process, which no caller
/// can catch.  Runs under 1 GiB pass without a look at the host, and so
/// does every run when `MemAvailable` cannot be read.
///
/// # Errors
/// A one-line diagnostic with both sizes.
pub fn check_memory_budget(syn: &Synthesis, fused: bool) -> Result<(), String> {
    let bytes = syn
        .static_elements(fused)
        .saturating_mul(std::mem::size_of::<f64>() as u128);
    if bytes <= MEMORY_CHECK_FLOOR_BYTES {
        return Ok(());
    }
    match mem_available_bytes() {
        Some(available) if bytes > available => Err(format!(
            "execution needs {:.2} GiB of static storage, more than the {:.2} GiB available",
            bytes as f64 / (1u64 << 30) as f64,
            available as f64 / (1u64 << 30) as f64
        )),
        _ => Ok(()),
    }
}

/// `MemAvailable` from `/proc/meminfo`, in bytes; `None` when the file or
/// the line cannot be read.
fn mem_available_bytes() -> Option<u128> {
    let info = std::fs::read_to_string("/proc/meminfo").ok()?;
    let line = info.lines().find(|l| l.starts_with("MemAvailable:"))?;
    let kib: u128 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib * 1024)
}

/// Bind every declared function leaf to a deterministic [`IntegralFn`],
/// exactly as `tce --execute` does (seed folded from the name).
#[must_use]
pub fn bind_functions(syn: &Synthesis, seed: u64) -> HashMap<String, IntegralFn> {
    let mut funcs: HashMap<String, IntegralFn> = HashMap::new();
    for plan in &syn.plans {
        for node in &plan.tree.nodes {
            if let tce_ir::OpKind::Leaf(tce_ir::Leaf::Func {
                name,
                cost_per_eval,
                ..
            }) = &node.kind
            {
                let fseed = name
                    .bytes()
                    .fold(seed, |h, b| h.wrapping_mul(131).wrapping_add(b as u64));
                funcs
                    .entry(name.clone())
                    .or_insert_with(|| IntegralFn::new(*cost_per_eval, fseed));
            }
        }
    }
    funcs
}

/// Format the executed result tensors as the CLI prints them — one
/// `  NAME: shape […], |sum| = …` line per tensor in id order, then `OK`.
#[must_use]
pub fn format_results(syn: &Synthesis, results: &HashMap<TensorId, Tensor>) -> String {
    let mut ordered: Vec<_> = results.iter().collect();
    ordered.sort_by_key(|(id, _)| id.0);
    let mut out = String::new();
    for (id, t) in ordered {
        let name = &syn.program.tensors.get(*id).name;
        out.push_str(&format!(
            "  {name}: shape {:?}, |sum| = {:.6e}\n",
            t.shape(),
            t.sum().abs()
        ));
    }
    out.push_str("OK");
    out
}

/// Key of the compiled-synthesis cache: the program text plus a canonical
/// rendering of every compilation-affecting option.
type SynthKey = (String, String);

/// The `run` handler backing `tce serve`: a sharded cache of compiled
/// [`Synthesis`] objects in front of [`synthesize`], plus the shared
/// deterministic bind/execute/format path.
pub struct PipelineHandler {
    cache: ShardedLru<SynthKey, Result<Synthesis, String>>,
    /// Full-reply memo: the service's inputs are *derived* (deterministic
    /// random tensors from the seed, integrals folded from function
    /// names), so a repeat of the same (program, options) request is
    /// bitwise-guaranteed to produce the same reply — caching it is
    /// semantically invisible and turns a warm repeat into a lookup.
    responses: ShardedLru<SynthKey, Result<String, String>>,
    /// Measured cost rates applied to every request's compilation
    /// (`TCE_CALIBRATION` at service start); `None` keeps the paper's
    /// abstract unit costs.  Part of both cache keys via
    /// [`tce_calib::CostRates::canon`].
    calibration: Option<tce_calib::CostRates>,
}

/// Synthesis-cache sizing defaults: enough distinct (program, options)
/// pairs to keep a benchmark suite warm, sharded like the plan cache.
pub const DEFAULT_SYNTH_CACHE_CAP: usize = 64;
/// Default shard count of the synthesis cache.
pub const DEFAULT_SYNTH_CACHE_SHARDS: usize = 8;

impl Default for PipelineHandler {
    fn default() -> Self {
        Self::new(DEFAULT_SYNTH_CACHE_CAP, DEFAULT_SYNTH_CACHE_SHARDS)
    }
}

impl PipelineHandler {
    /// A handler whose synthesis cache holds `capacity` compiled programs
    /// over `shards` independently locked shards (the response memo gets
    /// four entries per compiled program — seed variants).
    #[must_use]
    pub fn new(capacity: usize, shards: usize) -> Self {
        Self {
            cache: ShardedLru::new(capacity, shards),
            responses: ShardedLru::new(capacity.saturating_mul(4), shards),
            calibration: None,
        }
    }

    /// Apply measured cost rates to every request compiled by this
    /// handler (`tce serve` passes the `TCE_CALIBRATION` profile).
    #[must_use]
    pub fn with_calibration(mut self, rates: Option<tce_calib::CostRates>) -> Self {
        self.calibration = rates;
        self
    }

    /// Compile `program` under `cfg`, memoized.  Returns the cached
    /// synthesis (failures are cached too — recompiling a bad program
    /// would deterministically fail again) and whether it was a hit.
    fn synthesis(
        &self,
        program: &str,
        cfg: &SynthesisConfig,
    ) -> (Arc<Result<Synthesis, String>>, bool) {
        let canon = format!(
            "memory-limit={};cache={:?};calib={:?}",
            cfg.memory_limit,
            cfg.cache_elements,
            cfg.calibration.as_ref().map(tce_calib::CostRates::canon)
        );
        let key = (program.to_string(), canon);
        self.cache
            .get_or_insert_with(&key, || synthesize(program, cfg).map_err(|e| e.to_string()))
    }

    /// Compile (memoized) and run `program`.  The inner result is the
    /// reply, which depends only on the request; the outer `Err` is a
    /// refusal by [`check_memory_budget`], which depends on the host.
    fn reply(
        &self,
        program: &str,
        cfg: &SynthesisConfig,
        run: &RunOptions,
    ) -> Result<Result<String, String>, String> {
        let (synth, _hit) = self.synthesis(program, cfg);
        let syn = match synth.as_ref() {
            Ok(s) => s,
            Err(e) => return Ok(Err(e.clone())),
        };
        check_memory_budget(syn, false)?;
        let owned = bind_random_inputs(syn, run.seed);
        let inputs: HashMap<TensorId, &Tensor> = owned.iter().map(|(id, t)| (*id, t)).collect();
        let funcs = bind_functions(syn, run.seed);
        let exec_opts = match run.threads {
            Some(t) => ExecOptions::with_threads(t),
            None => ExecOptions::default(),
        };
        Ok(syn
            .execute_opts(&inputs, &funcs, &exec_opts)
            .map_err(|e| format!("execution failed: {e}"))
            .map(|results| format_results(syn, &results)))
    }
}

impl Handler for PipelineHandler {
    fn run(&self, program: &str, opts: &[(String, String)]) -> Result<String, String> {
        let _span = tce_trace::span("serve.pipeline");
        let (mut cfg, run) = parse_run_options(opts)?;
        cfg.calibration = self.calibration.clone();
        // Replies are bitwise identical for every thread count, so
        // `threads` picks how a miss executes but is no part of the key.
        let canon = format!(
            "memory-limit={};cache={:?};seed={};calib={:?}",
            cfg.memory_limit,
            cfg.cache_elements,
            run.seed,
            cfg.calibration.as_ref().map(tce_calib::CostRates::canon)
        );
        let response_key = (program.to_string(), canon);
        // A memory refusal depends on the host at the time, not on the
        // key, so it is not memoized.
        let (reply, _hit) = self
            .responses
            .try_get_or_insert_with(&response_key, || self.reply(program, &cfg, &run))?;
        reply.as_ref().clone()
    }

    fn stats(&self) -> Vec<(String, String)> {
        let synth = self.cache.stats();
        let plan = tce_tensor::plan_cache_stats();
        let resp = self.responses.stats();
        let mut out = vec![
            ("resp_hits".to_string(), resp.hits.to_string()),
            ("resp_misses".to_string(), resp.misses.to_string()),
            ("synth_hits".to_string(), synth.hits.to_string()),
            ("synth_misses".to_string(), synth.misses.to_string()),
            ("synth_evictions".to_string(), synth.evictions.to_string()),
            ("synth_len".to_string(), self.cache.len().to_string()),
            (
                "synth_shards".to_string(),
                self.cache.shard_count().to_string(),
            ),
            ("plan_hits".to_string(), plan.0.to_string()),
            ("plan_misses".to_string(), plan.1.to_string()),
            ("plan_evictions".to_string(), plan.2.to_string()),
            (
                "plan_shards".to_string(),
                tce_tensor::plan_cache_shards().to_string(),
            ),
        ];
        for (i, (h, m, e)) in tce_tensor::plan_cache_shard_stats().iter().enumerate() {
            out.push((format!("plan_shard{i}"), format!("{h}/{m}/{e}")));
        }
        let (bh, bm, be) = tce_tensor::bufpool_stats();
        out.push(("bufpool_hits".to_string(), bh.to_string()));
        out.push(("bufpool_misses".to_string(), bm.to_string()));
        out.push(("bufpool_evictions".to_string(), be.to_string()));
        out.push((
            "bufpool_retained".to_string(),
            tce_tensor::bufpool_retained_elements().to_string(),
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios::section2_source;

    #[test]
    fn handler_result_matches_direct_pipeline() {
        let handler = PipelineHandler::default();
        let src = section2_source(4);
        let served = handler
            .run(&src, &[("seed".to_string(), "7".to_string())])
            .unwrap();

        let syn = synthesize(&src, &SynthesisConfig::default()).unwrap();
        let owned = bind_random_inputs(&syn, 7);
        let inputs: HashMap<TensorId, &Tensor> = owned.iter().map(|(id, t)| (*id, t)).collect();
        let funcs = bind_functions(&syn, 7);
        let results = syn
            .execute_opts(&inputs, &funcs, &ExecOptions::default())
            .unwrap();
        assert_eq!(served, format_results(&syn, &results));
        assert!(served.ends_with("OK"));
    }

    #[test]
    fn repeat_request_hits_the_synthesis_cache() {
        let handler = PipelineHandler::default();
        let src = section2_source(4);
        handler.run(&src, &[]).unwrap();
        // An identical repeat is a response-memo hit: synthesis untouched.
        handler.run(&src, &[]).unwrap();
        // A different seed misses the memo but reuses the compilation.
        handler
            .run(&src, &[("seed".to_string(), "9".to_string())])
            .unwrap();
        let resp = handler.responses.stats();
        assert_eq!((resp.misses, resp.hits), (2, 1));
        let stats = handler.cache.stats();
        assert_eq!((stats.misses, stats.hits), (1, 1));
        // But a different memory limit is a different compilation.
        handler
            .run(&src, &[("memory-limit".to_string(), "4096".to_string())])
            .unwrap();
        assert_eq!(handler.cache.stats().misses, 2);
    }

    #[test]
    fn thread_count_is_not_part_of_the_reply_memo_key() {
        let handler = PipelineHandler::default();
        let src = section2_source(4);
        let opts = |t: &str| [("threads".to_string(), t.to_string())];
        let one = handler.run(&src, &opts("1")).unwrap();
        let two = handler.run(&src, &opts("2")).unwrap();
        assert_eq!(one, two);
        let resp = handler.responses.stats();
        assert_eq!((resp.misses, resp.hits), (1, 1));
    }

    #[test]
    fn bad_options_fail_with_one_line_diagnostics() {
        let handler = PipelineHandler::default();
        let src = "range N = 2; index i : N; tensor A(N); tensor B(N); B[i] = A[i];";
        for (k, v) in [
            ("threads", "0"),
            ("threads", "banana"),
            ("seed", "-1"),
            ("memory-limit", "lots"),
            ("cache", "x"),
            ("schedule", "seq"),
            ("no-such-option", "1"),
        ] {
            let err = handler
                .run(src, &[(k.to_string(), v.to_string())])
                .unwrap_err();
            assert!(!err.contains('\n'), "{k}={v}: multi-line: {err}");
        }
        // And a program that does not parse is a clean (cached) error.
        let err = handler.run("range N = ;", &[]).unwrap_err();
        let err2 = handler.run("range N = ;", &[]).unwrap_err();
        assert_eq!(err, err2);
    }
}
