//! # tce-calib — hardware calibration for the pipeline's cost models
//!
//! Every DP in the pipeline (operation minimization, locality tiling,
//! space-time trade-off, distribution) optimizes abstract unit costs —
//! flops, element accesses, moved words — even though measured per-variant
//! GEMM throughput on one machine varies by >3×.  This crate closes the
//! gap: short seeded microbenchmark probes ([`probe::run_probes`]) measure
//!
//! * GEMM GF/s per dispatched kernel variant across small/medium/large
//!   shape classes,
//! * pack/permute copy bandwidth,
//! * per-level memory bandwidth for the sysfs cache geometry already read
//!   by `tce_tensor::kernels`, and
//! * pool task-dispatch overhead,
//!
//! and serialize them into a versioned JSON [`Profile`]
//! (`tce calibrate --out profile.json`).  A profile loaded back
//! (`TCE_CALIBRATION=FILE`) is viewed through
//! [`CostRates`] — time-based (nanosecond) rates the planning stages
//! consume in place of unit costs.  When no profile is loaded the
//! pipeline keeps today's unit costs bit for bit; calibration is strictly
//! additive.
//!
//! The profile format is hand-rolled JSON (this workspace is
//! dependency-free by design); [`json`] holds the minimal parser.

#![warn(missing_docs)]

pub mod json;
pub mod probe;

use std::fmt::Write as _;
use tce_tensor::kernels::CacheInfo;

/// Version stamp of the serialized profile schema.  Loading a profile
/// with a different version is an error (re-calibrate instead of
/// misreading fields).
pub const PROFILE_VERSION: u64 = 1;

/// Flops below this ceiling are the "small" GEMM shape class.
pub const SMALL_FLOPS_CEILING: u128 = 2_000_000;
/// Flops below this ceiling (and at least [`SMALL_FLOPS_CEILING`]) are
/// the "medium" class; everything above is "large".
pub const MEDIUM_FLOPS_CEILING: u128 = 30_000_000;

/// GEMM shape class a contraction falls into, by flop count.  The probe
/// shapes are chosen to land one per class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShapeClass {
    /// Fits in-cache; dominated by overheads.
    Small,
    /// L2/L3-resident working sets.
    Medium,
    /// Streaming from memory.
    Large,
}

impl ShapeClass {
    /// Stable lower-case name (`small`, `medium`, `large`).
    pub fn name(self) -> &'static str {
        match self {
            ShapeClass::Small => "small",
            ShapeClass::Medium => "medium",
            ShapeClass::Large => "large",
        }
    }
}

/// Classify a contraction by its multiply-add flop count.
pub fn shape_class(flops: u128) -> ShapeClass {
    if flops < SMALL_FLOPS_CEILING {
        ShapeClass::Small
    } else if flops < MEDIUM_FLOPS_CEILING {
        ShapeClass::Medium
    } else {
        ShapeClass::Large
    }
}

/// Measured GEMM throughput (GF/s) for one kernel variant, per shape
/// class.
#[derive(Debug, Clone, PartialEq)]
pub struct GemmRates {
    /// GF/s on the small-class probe.
    pub small: f64,
    /// GF/s on the medium-class probe.
    pub medium: f64,
    /// GF/s on the large-class probe.
    pub large: f64,
}

impl GemmRates {
    /// Rate for a shape class.
    pub fn for_class(&self, class: ShapeClass) -> f64 {
        match class {
            ShapeClass::Small => self.small,
            ShapeClass::Medium => self.medium,
            ShapeClass::Large => self.large,
        }
    }
}

/// A hardware calibration profile: everything the probes measured, plus
/// the cache geometry they measured it against.
#[derive(Debug, Clone, PartialEq)]
pub struct Profile {
    /// Schema version ([`PROFILE_VERSION`]).
    pub version: u64,
    /// Seed the probes ran with.
    pub seed: u64,
    /// Probe time budget in milliseconds.
    pub budget_ms: u64,
    /// GEMM GF/s per kernel variant name (`scalar`, `sse2`, `avx2`),
    /// variants this host supports only.
    pub gemm_gfs: Vec<(String, GemmRates)>,
    /// Pack-copy bandwidth, GB/s.
    pub copy_gbs: f64,
    /// Strided-permute bandwidth (read+write), GB/s.
    pub permute_gbs: f64,
    /// Per-level read bandwidth, GB/s, keyed `l1`/`l2`/`l3`/`mem`.
    pub mem_gbs: Vec<(String, f64)>,
    /// Pool task-dispatch overhead per task, nanoseconds.
    pub dispatch_ns: f64,
    /// Cache geometry (bytes) the memory probes sized themselves by.
    pub cache: CacheInfo,
}

fn fmt_f64(x: f64) -> String {
    // `{:?}` is the shortest representation that round-trips through
    // `str::parse::<f64>` — valid JSON number syntax for finite values.
    format!("{x:?}")
}

impl Profile {
    /// Serialize to the versioned JSON document `tce calibrate` writes.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "{{");
        let _ = writeln!(s, "  \"version\": {},", self.version);
        let _ = writeln!(s, "  \"seed\": {},", self.seed);
        let _ = writeln!(s, "  \"budget_ms\": {},", self.budget_ms);
        let _ = writeln!(s, "  \"gemm_gfs\": {{");
        for (i, (name, r)) in self.gemm_gfs.iter().enumerate() {
            let comma = if i + 1 == self.gemm_gfs.len() {
                ""
            } else {
                ","
            };
            let _ = writeln!(
                s,
                "    \"{name}\": {{\"small\": {}, \"medium\": {}, \"large\": {}}}{comma}",
                fmt_f64(r.small),
                fmt_f64(r.medium),
                fmt_f64(r.large)
            );
        }
        let _ = writeln!(s, "  }},");
        let _ = writeln!(s, "  \"copy_gbs\": {},", fmt_f64(self.copy_gbs));
        let _ = writeln!(s, "  \"permute_gbs\": {},", fmt_f64(self.permute_gbs));
        let _ = writeln!(s, "  \"mem_gbs\": {{");
        for (i, (name, g)) in self.mem_gbs.iter().enumerate() {
            let comma = if i + 1 == self.mem_gbs.len() { "" } else { "," };
            let _ = writeln!(s, "    \"{name}\": {}{comma}", fmt_f64(*g));
        }
        let _ = writeln!(s, "  }},");
        let _ = writeln!(s, "  \"dispatch_ns\": {},", fmt_f64(self.dispatch_ns));
        let _ = writeln!(
            s,
            "  \"cache\": {{\"l1d\": {}, \"l2\": {}, \"l3\": {}}}",
            self.cache.l1d, self.cache.l2, self.cache.l3
        );
        let _ = writeln!(s, "}}");
        s
    }

    /// Parse a profile from its JSON serialization.  Rejects unknown
    /// versions and non-finite or non-positive rates with one-line
    /// messages (the CLI surfaces them verbatim).
    pub fn from_json(src: &str) -> Result<Profile, String> {
        let doc = json::Json::parse(src)?;
        let version = doc.get_u64("version")?;
        if version != PROFILE_VERSION {
            return Err(format!(
                "unsupported profile version {version} (expected {PROFILE_VERSION}); re-run `tce calibrate`"
            ));
        }
        let rate = |v: f64, what: &str| -> Result<f64, String> {
            if v.is_finite() && v > 0.0 {
                Ok(v)
            } else {
                Err(format!("{what} must be a positive finite number, got {v}"))
            }
        };
        let mut gemm_gfs = Vec::new();
        for (name, val) in doc.get("gemm_gfs").ok_or("missing `gemm_gfs`")?.entries()? {
            gemm_gfs.push((
                name.clone(),
                GemmRates {
                    small: rate(val.get_f64("small")?, "gemm_gfs.small")?,
                    medium: rate(val.get_f64("medium")?, "gemm_gfs.medium")?,
                    large: rate(val.get_f64("large")?, "gemm_gfs.large")?,
                },
            ));
        }
        if gemm_gfs.is_empty() {
            return Err("`gemm_gfs` must list at least one kernel variant".into());
        }
        let mut mem_gbs = Vec::new();
        for (name, val) in doc.get("mem_gbs").ok_or("missing `mem_gbs`")?.entries()? {
            mem_gbs.push((name.clone(), rate(val.as_f64()?, "mem_gbs level")?));
        }
        let cache = doc.get("cache").ok_or("missing `cache`")?;
        Ok(Profile {
            version,
            seed: doc.get_u64("seed")?,
            budget_ms: doc.get_u64("budget_ms")?,
            gemm_gfs,
            copy_gbs: rate(doc.get_f64("copy_gbs")?, "copy_gbs")?,
            permute_gbs: rate(doc.get_f64("permute_gbs")?, "permute_gbs")?,
            mem_gbs,
            dispatch_ns: rate(doc.get_f64("dispatch_ns")?, "dispatch_ns")?,
            cache: CacheInfo {
                l1d: cache.get_u64("l1d")? as usize,
                l2: cache.get_u64("l2")? as usize,
                l3: cache.get_u64("l3")? as usize,
            },
        })
    }

    /// Load and validate a profile from a file.
    pub fn load(path: &str) -> Result<Profile, String> {
        let src = std::fs::read_to_string(path).map_err(|e| format!("cannot read: {e}"))?;
        Profile::from_json(&src)
    }

    /// Measured GB/s of a memory level, if probed.
    pub fn level_gbs(&self, name: &str) -> Option<f64> {
        self.mem_gbs
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, g)| *g)
    }

    /// GEMM rates for a variant name; falls back to the first probed
    /// variant when this host's active variant was not in the profile
    /// (e.g. a profile from a weaker machine).
    pub fn gemm_rates(&self, variant: &str) -> &GemmRates {
        self.gemm_gfs
            .iter()
            .find(|(n, _)| n == variant)
            .map(|(_, r)| r)
            .unwrap_or(&self.gemm_gfs[0].1)
    }

    /// The time-based cost-rate view of this profile for `variant` (the
    /// kernel variant the engine will dispatch to), which the planning
    /// stages consume.
    pub fn rates(&self, variant: &str) -> CostRates {
        let g = self.gemm_rates(variant);
        // GB/s is (very nearly) bytes per nanosecond, so ns per 8-byte
        // element = 8 / GB/s.
        let elem_ns = |gbs: f64| 8.0 / gbs;
        let word = std::mem::size_of::<f64>() as u128;
        let mut levels = Vec::new();
        for (name, cap_bytes) in [
            ("l1", self.cache.l1d),
            ("l2", self.cache.l2),
            ("l3", self.cache.l3),
        ] {
            if let Some(gbs) = self.level_gbs(name) {
                levels.push(LevelRate {
                    name: name.to_string(),
                    capacity_elements: cap_bytes as u128 / word,
                    ns_per_element: elem_ns(gbs),
                });
            }
        }
        let mem_gbs = self.level_gbs("mem").unwrap_or(8.0);
        levels.push(LevelRate {
            name: "mem".to_string(),
            capacity_elements: 1u128 << 40,
            ns_per_element: elem_ns(mem_gbs),
        });
        CostRates {
            flop_ns_small: 1.0 / g.small,
            flop_ns_medium: 1.0 / g.medium,
            flop_ns_large: 1.0 / g.large,
            copy_ns: elem_ns(self.copy_gbs),
            permute_ns: elem_ns(self.permute_gbs),
            levels,
            word_ns: elem_ns(mem_gbs),
            dispatch_ns: self.dispatch_ns,
        }
    }
}

/// Per-element miss pricing for one memory level, derived from a
/// [`Profile`].
#[derive(Debug, Clone, PartialEq)]
pub struct LevelRate {
    /// Level name (`l1`, `l2`, `l3`, `mem`).
    pub name: String,
    /// Capacity in 8-byte elements.
    pub capacity_elements: u128,
    /// Nanoseconds to pull one element through this level.
    pub ns_per_element: f64,
}

/// Time-based cost rates: the view of a [`Profile`] the planners consume.
/// All rates are nanoseconds per abstract unit, so stage costs expressed
/// in these rates are directly comparable to (and testable against) wall
/// time.
#[derive(Debug, Clone, PartialEq)]
pub struct CostRates {
    /// ns per multiply-add flop on a small-class contraction.
    pub flop_ns_small: f64,
    /// ns per multiply-add flop on a medium-class contraction.
    pub flop_ns_medium: f64,
    /// ns per multiply-add flop on a large-class contraction.
    pub flop_ns_large: f64,
    /// ns per element of pack copy traffic.
    pub copy_ns: f64,
    /// ns per element of permute traffic.
    pub permute_ns: f64,
    /// Per-level miss pricing, smallest level first (always ends with the
    /// unbounded `mem` level).
    pub levels: Vec<LevelRate>,
    /// ns per 8-byte word moved between ranks (memory-bandwidth proxy;
    /// there is no network in this reproduction).
    pub word_ns: f64,
    /// ns of pool overhead per dispatched task.
    pub dispatch_ns: f64,
}

impl CostRates {
    /// ns per flop for a contraction of `flops` total multiply-adds.
    pub fn flop_ns_for(&self, flops: u128) -> f64 {
        match shape_class(flops) {
            ShapeClass::Small => self.flop_ns_small,
            ShapeClass::Medium => self.flop_ns_medium,
            ShapeClass::Large => self.flop_ns_large,
        }
    }

    /// The distribution DP's `word_cost` equivalent: how many flops one
    /// moved word is worth on this hardware (≥ 1).
    pub fn word_cost_flops(&self) -> u128 {
        (self.word_ns / self.flop_ns_medium).round().max(1.0) as u128
    }

    /// Canonical one-line form, used to key plan caches that must
    /// distinguish configurations compiled under different profiles.
    pub fn canon(&self) -> String {
        let mut s = format!(
            "flop={:?}/{:?}/{:?};copy={:?};perm={:?};word={:?};disp={:?};levels=",
            self.flop_ns_small,
            self.flop_ns_medium,
            self.flop_ns_large,
            self.copy_ns,
            self.permute_ns,
            self.word_ns,
            self.dispatch_ns
        );
        for l in &self.levels {
            let _ = write!(
                s,
                "{}:{}:{:?},",
                l.name, l.capacity_elements, l.ns_per_element
            );
        }
        s
    }
}

/// Parse and load `TCE_CALIBRATION` without applying it: `Ok(None)` when
/// unset, `Err` with a one-line diagnostic when the file is missing,
/// unreadable, or not a valid versioned profile.  CLI entry points call
/// this up front so a garbage value is a clean nonzero exit, the same
/// contract as `TCE_THREADS`.
pub fn calibration_env_requested() -> Result<Option<Profile>, String> {
    match std::env::var("TCE_CALIBRATION") {
        Err(_) => Ok(None),
        Ok(path) => Profile::load(&path)
            .map(Some)
            .map_err(|e| format!("bad TCE_CALIBRATION `{path}`: {e}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small but fully-populated profile for round-trip tests.
    pub(crate) fn sample_profile() -> Profile {
        Profile {
            version: PROFILE_VERSION,
            seed: 42,
            budget_ms: 50,
            gemm_gfs: vec![
                (
                    "scalar".into(),
                    GemmRates {
                        small: 2.5,
                        medium: 5.0,
                        large: 4.0,
                    },
                ),
                (
                    "avx2".into(),
                    GemmRates {
                        small: 8.0,
                        medium: 25.0,
                        large: 20.0,
                    },
                ),
            ],
            copy_gbs: 12.0,
            permute_gbs: 6.0,
            mem_gbs: vec![
                ("l1".into(), 200.0),
                ("l2".into(), 80.0),
                ("l3".into(), 40.0),
                ("mem".into(), 16.0),
            ],
            dispatch_ns: 1500.0,
            cache: CacheInfo {
                l1d: 32 << 10,
                l2: 1 << 20,
                l3: 8 << 20,
            },
        }
    }

    #[test]
    fn profile_round_trips_through_json() {
        let p = sample_profile();
        let parsed = Profile::from_json(&p.to_json()).unwrap();
        assert_eq!(parsed, p);
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let mut p = sample_profile();
        p.version = PROFILE_VERSION + 1;
        let err = Profile::from_json(&p.to_json()).unwrap_err();
        assert!(err.contains("unsupported profile version"), "{err}");
    }

    #[test]
    fn garbage_rates_are_rejected() {
        let p = sample_profile();
        let zeroed = p.to_json().replace("\"copy_gbs\": 12.0", "\"copy_gbs\": 0");
        assert!(Profile::from_json(&zeroed)
            .unwrap_err()
            .contains("copy_gbs"));
        assert!(Profile::from_json("not json at all").is_err());
        assert!(Profile::from_json("{}").is_err());
    }

    #[test]
    fn rates_convert_bandwidth_to_ns() {
        let p = sample_profile();
        let r = p.rates("avx2");
        assert!((r.flop_ns_medium - 1.0 / 25.0).abs() < 1e-12);
        // 12 GB/s → 8/12 ns per element.
        assert!((r.copy_ns - 8.0 / 12.0).abs() < 1e-12);
        // Levels end with the unbounded mem level.
        assert_eq!(r.levels.last().unwrap().name, "mem");
        assert_eq!(r.levels[0].name, "l1");
        assert_eq!(r.levels[0].capacity_elements, (32 << 10) / 8);
        // Unknown variant falls back to the first entry (scalar).
        let rs = p.rates("nonsense");
        assert!((rs.flop_ns_medium - 1.0 / 5.0).abs() < 1e-12);
        // word_cost: word_ns = 8/16 = 0.5ns; flop_ns_medium = 0.04ns → 13.
        assert_eq!(r.word_cost_flops(), 13);
    }

    #[test]
    fn shape_classes_split_at_documented_ceilings() {
        assert_eq!(shape_class(0), ShapeClass::Small);
        assert_eq!(shape_class(SMALL_FLOPS_CEILING), ShapeClass::Medium);
        assert_eq!(shape_class(MEDIUM_FLOPS_CEILING), ShapeClass::Large);
        assert_eq!(shape_class(u128::MAX), ShapeClass::Large);
    }

    #[test]
    fn canon_distinguishes_profiles() {
        let p = sample_profile();
        let mut q = sample_profile();
        q.copy_gbs = 13.0;
        assert_ne!(p.rates("avx2").canon(), q.rates("avx2").canon());
        assert_eq!(p.rates("avx2").canon(), p.rates("avx2").canon());
    }
}
