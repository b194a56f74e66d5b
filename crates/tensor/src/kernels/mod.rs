//! Runtime-dispatched micro-kernels and cache-aware block sizing.
//!
//! The GETT engine's inner loops — the register-blocked GEMM kernel, the
//! no-pack direct kernel for thin shapes (M or N below the register
//! tile), and the panel packing copies — come in three implementations
//! selected once per process by CPUID:
//!
//! * [`KernelVariant::Scalar`] — the portable mul+add kernel (8×4
//!   register tile), bit-for-bit identical to the engine before SIMD
//!   dispatch existed.  It is the correctness oracle for the differential
//!   tests and the fallback on non-x86 targets.
//! * [`KernelVariant::Sse2`] — 128-bit SSE2 kernels (4×4 GEMM tile).
//!   Baseline for every x86-64 CPU.
//! * [`KernelVariant::Avx2`] — 256-bit AVX2+FMA kernels (8×6 GEMM tile
//!   holding twelve of sixteen ymm accumulators, vectorized unit-stride
//!   pack copies).
//!
//! Selection order: a programmatic override ([`set_override`], which the
//! differential tests use) beats the `TCE_KERNEL` environment variable,
//! which beats [`detect_best`].  Changing the active variant may change
//! floating-point rounding (FMA contracts the multiply-add), so results
//! across variants agree only to ~1e-10 relative; *within* a variant
//! every kernel stays bitwise deterministic at any thread count.
//!
//! On top of dispatch, [`BlockSizes::derive`] picks the GETT macro-tile
//! parameters MC/NC/KC from the detected cache hierarchy
//! ([`CacheInfo::detect`]: sysfs on Linux, fixed defaults elsewhere)
//! following the usual analytical model: the A micro-panel (MR×KC) and B
//! micro-panel (KC×NR) share L1, the packed A panel (MC×KC) sits in half
//! of L2, and the packed B panel (KC×NC) in a slice of L3.  The scalar
//! variant pins the legacy constants (MC=64, NC=64, KC=192) so its
//! results never move a bit.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
pub mod avx2;
pub mod scalar;
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
pub mod sse2;

/// Which micro-kernel implementation the GETT engine runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum KernelVariant {
    /// Portable mul+add loops; the bitwise-stable oracle.
    Scalar,
    /// 128-bit SSE2 intrinsics.
    Sse2,
    /// 256-bit AVX2 + FMA intrinsics.
    Avx2,
}

/// All variants, weakest first.
pub const ALL_VARIANTS: [KernelVariant; 3] = [
    KernelVariant::Scalar,
    KernelVariant::Sse2,
    KernelVariant::Avx2,
];

impl KernelVariant {
    /// Stable lower-case name (`scalar`, `sse2`, `avx2`).
    pub fn name(self) -> &'static str {
        match self {
            KernelVariant::Scalar => "scalar",
            KernelVariant::Sse2 => "sse2",
            KernelVariant::Avx2 => "avx2",
        }
    }

    /// Parse a variant name as accepted by `TCE_KERNEL`.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s.trim().to_ascii_lowercase().as_str() {
            "scalar" => Ok(KernelVariant::Scalar),
            "sse2" => Ok(KernelVariant::Sse2),
            "avx2" => Ok(KernelVariant::Avx2),
            other => Err(format!(
                "unknown kernel variant `{other}` (expected scalar, sse2 or avx2)"
            )),
        }
    }

    /// GEMM register-tile rows (packed-A strip width).
    pub fn mr(self) -> usize {
        match self {
            KernelVariant::Scalar => 8,
            KernelVariant::Sse2 => 4,
            KernelVariant::Avx2 => 8,
        }
    }

    /// GEMM register-tile columns (packed-B strip width).
    pub fn nr(self) -> usize {
        match self {
            KernelVariant::Scalar => 4,
            KernelVariant::Sse2 => 4,
            KernelVariant::Avx2 => 6,
        }
    }
}

impl std::fmt::Display for KernelVariant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Whether this host can execute `v`'s instruction set.
pub fn supported(v: KernelVariant) -> bool {
    match v {
        KernelVariant::Scalar => true,
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        KernelVariant::Sse2 => is_x86_feature_detected!("sse2"),
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        KernelVariant::Avx2 => is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma"),
        #[cfg(not(any(target_arch = "x86", target_arch = "x86_64")))]
        _ => false,
    }
}

/// The strongest variant this host supports (runtime CPUID).
pub fn detect_best() -> KernelVariant {
    ALL_VARIANTS
        .into_iter()
        .rev()
        .find(|&v| supported(v))
        .unwrap_or(KernelVariant::Scalar)
}

/// Variants supported on this host, weakest first.
pub fn supported_variants() -> Vec<KernelVariant> {
    ALL_VARIANTS.into_iter().filter(|&v| supported(v)).collect()
}

/// Process-wide override: 0 = none, else variant discriminant + 1.
static OVERRIDE: AtomicU8 = AtomicU8::new(0);

fn code(v: KernelVariant) -> u8 {
    match v {
        KernelVariant::Scalar => 1,
        KernelVariant::Sse2 => 2,
        KernelVariant::Avx2 => 3,
    }
}

fn from_code(c: u8) -> Option<KernelVariant> {
    match c {
        1 => Some(KernelVariant::Scalar),
        2 => Some(KernelVariant::Sse2),
        3 => Some(KernelVariant::Avx2),
        _ => None,
    }
}

/// Force (or with `None`, clear) the active kernel variant.
///
/// Fails with a one-line message when the host cannot execute the
/// requested variant.  Used by the differential tests; takes precedence
/// over `TCE_KERNEL`.
pub fn set_override(v: Option<KernelVariant>) -> Result<(), String> {
    match v {
        None => {
            OVERRIDE.store(0, Ordering::Relaxed);
            Ok(())
        }
        Some(v) => {
            if !supported(v) {
                return Err(unsupported_message(v));
            }
            OVERRIDE.store(code(v), Ordering::Relaxed);
            Ok(())
        }
    }
}

fn unsupported_message(v: KernelVariant) -> String {
    format!(
        "kernel variant `{v}` is not supported on this host (best supported: {})",
        detect_best()
    )
}

/// Parse `TCE_KERNEL` without applying it: `Ok(None)` when unset,
/// `Err` on an unknown name or an unsupported variant.  CLI entry points
/// call this up front so a bad value is a clean one-line diagnostic
/// instead of a mid-execution panic.
pub fn env_requested() -> Result<Option<KernelVariant>, String> {
    match std::env::var("TCE_KERNEL") {
        Err(_) => Ok(None),
        Ok(s) => {
            let v = KernelVariant::parse(&s).map_err(|e| format!("TCE_KERNEL: {e}"))?;
            if !supported(v) {
                return Err(format!("TCE_KERNEL: {}", unsupported_message(v)));
            }
            Ok(Some(v))
        }
    }
}

/// Default variant: `TCE_KERNEL` if set (resolved once), else the best
/// detected.  Panics with the one-line diagnostic on an invalid
/// `TCE_KERNEL`; binaries pre-validate via [`env_requested`].
fn default_variant() -> KernelVariant {
    static DEFAULT: OnceLock<KernelVariant> = OnceLock::new();
    *DEFAULT.get_or_init(|| match env_requested() {
        Ok(Some(v)) => v,
        Ok(None) => detect_best(),
        Err(e) => panic!("{e}"),
    })
}

/// The kernel variant the engine dispatches to right now.
pub fn active() -> KernelVariant {
    from_code(OVERRIDE.load(Ordering::Relaxed)).unwrap_or_else(default_variant)
}

/// Detected (or default) cache capacities in bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheInfo {
    /// L1 data cache per core.
    pub l1d: usize,
    /// L2 cache per core.
    pub l2: usize,
    /// Last-level cache (shared).
    pub l3: usize,
}

/// Conservative defaults when a level cannot be detected.
const DEFAULT_CACHE: CacheInfo = CacheInfo {
    l1d: 32 * 1024,
    l2: 1024 * 1024,
    l3: 8 * 1024 * 1024,
};

/// Parse a sysfs cache size string (`48K`, `2048K`, `36M`, `1G`).
fn parse_cache_size(s: &str) -> Option<usize> {
    let s = s.trim();
    let (digits, mult) = match s.as_bytes().last()? {
        b'K' | b'k' => (&s[..s.len() - 1], 1024),
        b'M' | b'm' => (&s[..s.len() - 1], 1024 * 1024),
        b'G' | b'g' => (&s[..s.len() - 1], 1024 * 1024 * 1024),
        _ => (s, 1),
    };
    digits.parse::<usize>().ok().map(|n| n * mult)
}

/// Plausibility window for a detected cache level, in bytes.  A sysfs
/// entry outside its window (a `0K` size from a stripped-down container,
/// a corrupt string, a hypervisor reporting nonsense) is treated as
/// undetected so the level keeps its [`DEFAULT_CACHE`] value and the
/// derived MC/KC/NC blocks stay sane.
fn plausible_level_size(level: u8, size: usize) -> bool {
    match level {
        1 => (4 << 10..=1 << 20).contains(&size),
        2 => (64 << 10..=64 << 20).contains(&size),
        3 => (256 << 10..=4 << 30).contains(&size),
        _ => false,
    }
}

impl CacheInfo {
    /// Build a hierarchy from raw sysfs-style `(level, type, size)`
    /// string triples, one per `indexN` directory.  Any entry that is
    /// missing, unparsable, an instruction cache, or has an implausible
    /// size (zero, or wildly out of range for its level) is skipped and
    /// that level keeps its [`DEFAULT_CACHE`] value, so the result is
    /// always usable.  Exposed so the fallback path is unit-testable
    /// with injected geometry strings.
    pub fn from_sysfs_entries<'a, I>(entries: I) -> CacheInfo
    where
        I: IntoIterator<Item = (Option<&'a str>, Option<&'a str>, Option<&'a str>)>,
    {
        let mut info = DEFAULT_CACHE;
        for (level, ctype, size) in entries {
            let level = level.and_then(|s| s.trim().parse::<u8>().ok());
            let size = size.and_then(parse_cache_size);
            let (Some(level), Some(ctype), Some(size)) = (level, ctype, size) else {
                continue;
            };
            if ctype.trim() == "Instruction" {
                continue;
            }
            if !plausible_level_size(level, size) {
                continue;
            }
            match level {
                1 => info.l1d = size,
                2 => info.l2 = size,
                3 => info.l3 = size,
                _ => {}
            }
        }
        info
    }

    /// Detect the hierarchy from `/sys/devices/system/cpu/cpu0/cache` on
    /// Linux; when sysfs is absent or malformed every undetectable level
    /// falls back to its [`DEFAULT_CACHE`] value (see
    /// [`CacheInfo::from_sysfs_entries`]), so the result is always
    /// usable.
    pub fn detect() -> CacheInfo {
        #[cfg(target_os = "linux")]
        {
            let base = std::path::Path::new("/sys/devices/system/cpu/cpu0/cache");
            let mut raw: Vec<(Option<String>, Option<String>, Option<String>)> = Vec::new();
            if let Ok(entries) = std::fs::read_dir(base) {
                for entry in entries.flatten() {
                    let dir = entry.path();
                    if !dir
                        .file_name()
                        .and_then(|n| n.to_str())
                        .is_some_and(|n| n.starts_with("index"))
                    {
                        continue;
                    }
                    let read = |name: &str| std::fs::read_to_string(dir.join(name)).ok();
                    raw.push((read("level"), read("type"), read("size")));
                }
            }
            CacheInfo::from_sysfs_entries(
                raw.iter()
                    .map(|(l, t, s)| (l.as_deref(), t.as_deref(), s.as_deref())),
            )
        }
        #[cfg(not(target_os = "linux"))]
        DEFAULT_CACHE
    }
}

/// The process-wide detected cache hierarchy (detected once).
pub fn cache_info() -> CacheInfo {
    static INFO: OnceLock<CacheInfo> = OnceLock::new();
    *INFO.get_or_init(CacheInfo::detect)
}

/// GETT macro-tile parameters: the M×N macro-tile is `mc`×`nc` and each
/// packed panel pair covers `kc` summation steps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockSizes {
    /// Macro-tile height (multiple of the variant's MR).
    pub mc: usize,
    /// Macro-tile width (multiple of the variant's NR).
    pub nc: usize,
    /// K-block depth per packed panel.
    pub kc: usize,
}

/// Legacy constants the scalar engine shipped with; pinned so
/// `TCE_KERNEL=scalar` reproduces historical results bit for bit (the
/// K-grouping of partial sums affects rounding, so KC must not move).
const SCALAR_BLOCKS: BlockSizes = BlockSizes {
    mc: 64,
    nc: 64,
    kc: 192,
};

fn round_down(x: usize, q: usize) -> usize {
    (x / q * q).max(q)
}

impl BlockSizes {
    /// Derive block sizes for `variant` from `cache`:
    ///
    /// * `KC` keeps one A micro-panel (MR×KC) plus one B micro-panel
    ///   (KC×NR) inside half of L1 (clamped to 64..=384, multiple of 8);
    /// * `MC` keeps the packed A panel (MC×KC) inside half of L2
    ///   (clamped to MR..=512);
    /// * `NC` keeps the packed B panel (KC×NC) inside a 1/16 slice of
    ///   the shared L3 (clamped to NR..=1024).
    pub fn derive(variant: KernelVariant, cache: &CacheInfo) -> BlockSizes {
        if variant == KernelVariant::Scalar {
            return SCALAR_BLOCKS;
        }
        let w = std::mem::size_of::<f64>();
        let (mr, nr) = (variant.mr(), variant.nr());
        let kc = round_down((cache.l1d / 2 / (w * (mr + nr))).clamp(64, 384), 8);
        let mc = round_down((cache.l2 / 2 / (w * kc)).clamp(mr, 512), mr);
        let nc = round_down((cache.l3 / 16 / (w * kc)).clamp(nr, 1024), nr);
        BlockSizes { mc, nc, kc }
    }

    /// Shrink the blocks to a concrete plan geometry (`m`×`n`×`k`,
    /// rounded up to whole register strips) so small contractions do not
    /// allocate full-size pack buffers.  Shrinking MC/NC never changes
    /// results (tiles partition disjoint output); shrinking KC to ≥ k is
    /// also exact because the K loop already stops at `k`.
    pub fn clamp_to(self, variant: KernelVariant, m: usize, n: usize, k: usize) -> BlockSizes {
        let (mr, nr) = (variant.mr(), variant.nr());
        BlockSizes {
            mc: self.mc.min(m.div_ceil(mr).max(1) * mr),
            nc: self.nc.min(n.div_ceil(nr).max(1) * nr),
            kc: self.kc.min(k.max(1).div_ceil(8) * 8),
        }
    }
}

/// The full per-plan kernel configuration the GETT engine caches: which
/// variant, its register tile, and the cache-derived macro blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelConfig {
    /// Dispatched instruction-set variant.
    pub variant: KernelVariant,
    /// Register-tile rows.
    pub mr: usize,
    /// Register-tile columns.
    pub nr: usize,
    /// Macro-tile blocks.
    pub blocks: BlockSizes,
}

impl KernelConfig {
    /// Select the configuration for `variant` on this host, clamped to
    /// plan geometry `m`×`n`×`k`.
    pub fn select(variant: KernelVariant, m: usize, n: usize, k: usize) -> KernelConfig {
        let blocks = BlockSizes::derive(variant, &cache_info()).clamp_to(variant, m, n, k);
        KernelConfig {
            variant,
            mr: variant.mr(),
            nr: variant.nr(),
            blocks,
        }
    }
}

/// `acc[r*nr + c] = Σ_k ap[k*mr + r] · bp[k*nr + c]` for the variant's
/// (MR, NR) register tile: one micro-kernel invocation over a `kb`-deep
/// packed panel pair.  `acc` must hold at least `mr*nr` elements; it is
/// overwritten, not accumulated into.
#[inline]
pub fn microkernel(cfg: &KernelConfig, ap: &[f64], bp: &[f64], kb: usize, acc: &mut [f64]) {
    match cfg.variant {
        KernelVariant::Scalar => scalar::microkernel_8x4(ap, bp, kb, acc),
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        // SAFETY: the variant was CPUID-checked at selection time.
        KernelVariant::Sse2 => unsafe { sse2::microkernel_4x4(ap, bp, kb, acc) },
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        // SAFETY: as above.
        KernelVariant::Avx2 => unsafe { avx2::microkernel_8x6(ap, bp, kb, acc) },
        #[cfg(not(any(target_arch = "x86", target_arch = "x86_64")))]
        _ => scalar::microkernel_8x4(ap, bp, kb, acc),
    }
}

/// Offset tables of one no-pack GEMM call ([`direct`]): element `(i, j)`
/// of the output sits at `c_rows[i] + c_cols[j]` and sums
/// `a[a_rows[i] + a_k[p]] · b[b_cols[j] + b_k[p]]` over `p`, in K-blocks
/// of `kc` steps.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DirectGemm<'t> {
    /// Offset of each M coordinate in `a`.
    pub a_rows: &'t [usize],
    /// Offset of each K coordinate in `a`.
    pub a_k: &'t [usize],
    /// Offset of each N coordinate in `b`.
    pub b_cols: &'t [usize],
    /// Offset of each K coordinate in `b`.
    pub b_k: &'t [usize],
    /// Offset of each M coordinate in `c`.
    pub c_rows: &'t [usize],
    /// Offset of each N coordinate in `c`.
    pub c_cols: &'t [usize],
    /// K-block depth: the packed path's KC for the same plan.
    pub kc: usize,
    /// `a_k` is the identity (`a_k[p] == p`).
    pub a_k_unit: bool,
    /// `b_k` is the identity (`b_k[p] == p`).
    pub b_k_unit: bool,
    /// The M group is contiguous in `a` and in `c`: `a_rows[i] ==
    /// a_rows[0] + i`, and likewise `c_rows`.
    pub rows_contiguous: bool,
    /// The N group is contiguous in `b` and in `c`.
    pub cols_contiguous: bool,
}

/// Independent output elements a thin call advances per step.
pub(crate) const CHAINS: usize = 8;

/// A variant's vector form of [`CHAINS`] chains on a contiguous long
/// axis: `lanes(x, lk, sk, y, out)` does what `chains::<CHAINS>` does for
/// long coordinates at `x + 0..CHAINS` (step `p` reading `x[lk[p] + i]`
/// and `y[sk[p]]`) and outputs at `out + 0..CHAINS`, bit for bit.
///
/// # Safety
/// As [`direct`], for those elements.
pub(crate) type Lanes = unsafe fn(*const f64, &[usize], &[usize], *const f64, *mut f64);

/// `c[i, j] += Σ_p a·b` without packing — the kernel for thin calls,
/// whose M or N extent is below the register tile, so the packed path's
/// MR×NR tile would be mostly zero padding.  It reads both operands in
/// place through `g`'s offset tables and blocks by the call's shape
/// alone: a dot product (`m = n = 1`) walks K directly, reading no table
/// when both K groups are contiguous; any other call takes its longer
/// output axis [`CHAINS`] coordinates at a time, each group sharing every
/// load of the short operand.  On AVX2, a long axis contiguous in its
/// operand and in `c` runs those groups in vector lanes ([`Lanes`]).  Per
/// output element and per K-block the arithmetic is the packed path's,
/// operation for operation: `acc = 0`, one multiply-add per step in
/// ascending `k` (fused on AVX2, mul-then-add otherwise), then `c += acc`,
/// K-blocks in ascending order.  So both paths round identically, a plan
/// may take either without changing a bit, and neither does the chunk of
/// the output a task is handed.  Returns whether vector lanes ran.
///
/// # Safety
/// Every offset `g` names must be in bounds of the allocation behind `a`,
/// `b` or `c`, and no other thread may access the output elements `g`
/// names during the call.
#[inline]
pub(crate) unsafe fn direct(
    variant: KernelVariant,
    g: &DirectGemm,
    a: *const f64,
    b: *const f64,
    c: *mut f64,
) -> bool {
    match variant {
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        // SAFETY: the variant was CPUID-checked at selection time; the
        // offsets are the caller's contract.
        KernelVariant::Avx2 => unsafe { avx2::direct_fma(g, a, b, c) },
        // SAFETY: the offsets are the caller's contract.
        _ => unsafe { direct_with(g, a, b, c, |x, y, acc| acc + x * y, None) },
    }
}

/// One operand of a [`direct`] call seen along one output axis:
/// coordinate `l` reads `base[off[l] + k[p]]` at step `p` and adds into
/// output offset `c[l]` (plus the other axis's).
#[derive(Clone, Copy)]
struct Axis<'t> {
    base: *const f64,
    off: &'t [usize],
    k: &'t [usize],
    c: &'t [usize],
    /// `off` and `c` are each contiguous.
    contiguous: bool,
}

/// The [`direct`] kernel over a variant's multiply-add step and, when it
/// has one, its vector [`Lanes`].
///
/// # Safety
/// As [`direct`].
#[inline(always)]
pub(crate) unsafe fn direct_with(
    g: &DirectGemm,
    a: *const f64,
    b: *const f64,
    c: *mut f64,
    madd: impl Fn(f64, f64, f64) -> f64 + Copy,
    lanes: Option<Lanes>,
) -> bool {
    let rows = Axis {
        base: a,
        off: g.a_rows,
        k: g.a_k,
        c: g.c_rows,
        contiguous: g.rows_contiguous,
    };
    let cols = Axis {
        base: b,
        off: g.b_cols,
        k: g.b_k,
        c: g.c_cols,
        contiguous: g.cols_contiguous,
    };
    // Every pointer below is `a`, `b` or `c` plus offsets taken from `g`,
    // in bounds by the caller's contract.
    if rows.off.len() == 1 && cols.off.len() == 1 {
        let (x, y) = (a.add(g.a_rows[0]), b.add(g.b_cols[0]));
        let out = c.add(g.c_rows[0] + g.c_cols[0]);
        if g.a_k_unit && g.b_k_unit {
            dot(g.a_k.len(), g.kc, out, |p, acc| {
                madd(*x.add(p), *y.add(p), acc)
            });
        } else {
            dot(g.a_k.len(), g.kc, out, |p, acc| {
                madd(*x.add(g.a_k[p]), *y.add(g.b_k[p]), acc)
            });
        }
        false
    } else if rows.off.len() < cols.off.len() {
        along(cols, rows, g.kc, c, madd, lanes)
    } else {
        along(rows, cols, g.kc, c, madd, lanes)
    }
}

/// One output element over `k` steps, `step(p, acc)` being step `p`'s
/// multiply-add: one chain per K-block, each added to `*out` in
/// ascending order.
///
/// # Safety
/// `step` reads only in-bounds elements for `p < k`, and no other thread
/// accesses `*out` during the call.
#[inline(always)]
unsafe fn dot(k: usize, kc: usize, out: *mut f64, step: impl Fn(usize, f64) -> f64) {
    let mut p0 = 0;
    while p0 < k {
        let end = (p0 + kc).min(k);
        let mut acc = 0.0f64;
        for p in p0..end {
            acc = step(p, acc);
        }
        *out += acc;
        p0 = end;
    }
}

/// Every element of a call whose `long` axis is at least as long as its
/// `short` one.  Per K-block (outermost, so each element adds its blocks
/// in ascending order) and short coordinate, the long axis runs
/// [`CHAINS`] coordinates at a time — in `lanes` when given and the axis
/// is contiguous — then one by one.  Returns whether `lanes` ran.
///
/// # Safety
/// As [`direct`], for the operands behind `long` and `short` and the
/// output behind `c`.
#[inline(always)]
unsafe fn along(
    long: Axis,
    short: Axis,
    kc: usize,
    c: *mut f64,
    madd: impl Fn(f64, f64, f64) -> f64 + Copy,
    lanes: Option<Lanes>,
) -> bool {
    let (n, k) = (long.off.len(), long.k.len());
    let vector = long.contiguous && n >= CHAINS;
    let mut p0 = 0;
    while p0 < k {
        let end = (p0 + kc).min(k);
        let (lk, sk) = (&long.k[p0..end], &short.k[p0..end]);
        for (&so, &sc) in short.off.iter().zip(short.c) {
            let (y, cs) = (short.base.add(so), c.add(sc));
            let mut l = 0;
            while l + CHAINS <= n {
                // Matched here, not filtered up front, so the variant's
                // `lanes` stays a constant the compiler inlines rather than
                // an indirect call per group.
                match lanes {
                    Some(lanes) if vector => {
                        lanes(long.base.add(long.off[l]), lk, sk, y, cs.add(long.c[l]))
                    }
                    _ => chains::<CHAINS>(long, l, lk, sk, y, cs, madd),
                }
                l += CHAINS;
            }
            while l < n {
                chains::<1>(long, l, lk, sk, y, cs, madd);
                l += 1;
            }
        }
        p0 = end;
    }
    vector && lanes.is_some()
}

/// One K-block of long coordinates `l0..l0 + W` against the short
/// operand's element at `y` (step `p` reads `x[lk[p]]` and `y[sk[p]]`):
/// `W` independent chains sharing each load of `y`, each then added to
/// its output element (`cs` is the short coordinate's output base).
///
/// # Safety
/// As [`direct`]: `l0 + W` is at most `long`'s extent, every offset read
/// is in bounds behind `long.base`, `y` and `cs`, and no other thread
/// accesses those output elements.
#[inline(always)]
unsafe fn chains<const W: usize>(
    long: Axis,
    l0: usize,
    lk: &[usize],
    sk: &[usize],
    y: *const f64,
    cs: *mut f64,
    madd: impl Fn(f64, f64, f64) -> f64,
) {
    let xs: [*const f64; W] = std::array::from_fn(|i| long.base.add(long.off[l0 + i]));
    let mut acc = [0.0f64; W];
    for (&pl, &ps) in lk.iter().zip(sk) {
        let yv = *y.add(ps);
        for (acc, x) in acc.iter_mut().zip(&xs) {
            *acc = madd(*x.add(pl), yv, *acc);
        }
    }
    for (&off, acc) in long.c[l0..l0 + W].iter().zip(acc) {
        *cs.add(off) += acc;
    }
}

/// Copy `src` into `dst` with the variant's widest vector moves — the
/// unit-stride fast path of the pack routines.
///
/// # Panics
/// Panics if the lengths differ, under every variant.
#[inline]
pub fn copy_f64(variant: KernelVariant, dst: &mut [f64], src: &[f64]) {
    assert_eq!(dst.len(), src.len(), "copy_f64 length mismatch");
    match variant {
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        // SAFETY: CPUID-checked at selection time; the lengths are equal.
        KernelVariant::Avx2 => unsafe { avx2::copy_f64(dst, src) },
        _ => dst.copy_from_slice(src),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_names_round_trip() {
        for v in ALL_VARIANTS {
            assert_eq!(KernelVariant::parse(v.name()).unwrap(), v);
        }
        assert_eq!(KernelVariant::parse(" AVX2 ").unwrap(), KernelVariant::Avx2);
        assert!(KernelVariant::parse("avx512").is_err());
    }

    #[test]
    fn detect_best_is_supported_and_scalar_always_is() {
        assert!(supported(KernelVariant::Scalar));
        assert!(supported(detect_best()));
        assert!(supported_variants().contains(&KernelVariant::Scalar));
    }

    #[test]
    fn override_round_trip() {
        set_override(Some(KernelVariant::Scalar)).unwrap();
        assert_eq!(active(), KernelVariant::Scalar);
        set_override(None).unwrap();
        assert_eq!(active(), default_variant());
    }

    #[test]
    fn copy_f64_rejects_mismatched_lengths_under_every_variant() {
        for v in supported_variants() {
            for (d, s) in [(64, 4), (4, 64)] {
                let copied =
                    std::panic::catch_unwind(|| copy_f64(v, &mut vec![0.0; d], &vec![1.0; s]));
                assert!(copied.is_err(), "{v}: dst {d} / src {s} did not panic");
            }
            let mut dst = [0.0; 5];
            copy_f64(v, &mut dst, &[1.0, 2.0, 3.0, 4.0, 5.0]);
            assert_eq!(dst, [1.0, 2.0, 3.0, 4.0, 5.0], "{v}");
        }
    }

    #[test]
    fn cache_size_parsing() {
        assert_eq!(parse_cache_size("48K"), Some(48 * 1024));
        assert_eq!(parse_cache_size("2048K"), Some(2048 * 1024));
        assert_eq!(parse_cache_size("36M\n"), Some(36 << 20));
        assert_eq!(parse_cache_size("1G"), Some(1 << 30));
        assert_eq!(parse_cache_size("512"), Some(512));
        assert_eq!(parse_cache_size("x"), None);
    }

    #[test]
    fn sysfs_fallback_on_absent_geometry() {
        // No index directories at all (non-Linux hosts, stripped
        // containers): every level keeps its default.
        assert_eq!(CacheInfo::from_sysfs_entries(Vec::new()), DEFAULT_CACHE);
        // Files missing inside the index directories.
        assert_eq!(
            CacheInfo::from_sysfs_entries([(None, None, None), (Some("1"), Some("Data"), None)]),
            DEFAULT_CACHE
        );
    }

    #[test]
    fn sysfs_fallback_on_malformed_geometry() {
        // Zero sizes ("0K"), garbage strings and absurd values must not
        // reach BlockSizes::derive; each malformed level falls back to
        // its default independently.
        let info = CacheInfo::from_sysfs_entries([
            (Some("1"), Some("Data"), Some("0K")),       // degenerate zero
            (Some("2"), Some("Unified"), Some("lots")),  // unparsable
            (Some("3"), Some("Unified"), Some("4096G")), // implausibly huge
            (Some("x"), Some("Unified"), Some("1M")),    // bad level
            (Some("1"), Some("Instruction"), Some("64K")), // wrong cache kind
        ]);
        assert_eq!(info, DEFAULT_CACHE);
        // And the derived blocks are the same sane ones as the default
        // geometry — no division-by-zero, no degenerate tiles.
        for v in [KernelVariant::Sse2, KernelVariant::Avx2] {
            assert_eq!(
                BlockSizes::derive(v, &info),
                BlockSizes::derive(v, &DEFAULT_CACHE)
            );
        }
    }

    #[test]
    fn sysfs_well_formed_geometry_is_honoured() {
        let info = CacheInfo::from_sysfs_entries([
            (Some("1\n"), Some("Data\n"), Some("48K\n")),
            (Some("1"), Some("Instruction"), Some("32K")),
            (Some("2"), Some("Unified"), Some("2048K")),
            (Some("3"), Some("Unified"), Some("36M")),
        ]);
        assert_eq!(
            info,
            CacheInfo {
                l1d: 48 << 10,
                l2: 2048 << 10,
                l3: 36 << 20,
            }
        );
        // A partially valid report only overrides the valid levels.
        let partial = CacheInfo::from_sysfs_entries([
            (Some("1"), Some("Data"), Some("64K")),
            (Some("2"), Some("Unified"), Some("0K")),
        ]);
        assert_eq!(partial.l1d, 64 << 10);
        assert_eq!(partial.l2, DEFAULT_CACHE.l2);
        assert_eq!(partial.l3, DEFAULT_CACHE.l3);
    }

    #[test]
    fn scalar_blocks_are_pinned_to_legacy_constants() {
        let huge = CacheInfo {
            l1d: 1 << 20,
            l2: 1 << 24,
            l3: 1 << 28,
        };
        assert_eq!(
            BlockSizes::derive(KernelVariant::Scalar, &huge),
            SCALAR_BLOCKS
        );
    }

    #[test]
    fn derived_blocks_respect_cache_budgets_and_tile_multiples() {
        for cache in [
            DEFAULT_CACHE,
            CacheInfo {
                l1d: 48 * 1024,
                l2: 2 << 20,
                l3: 256 << 20,
            },
            CacheInfo {
                l1d: 16 * 1024,
                l2: 256 * 1024,
                l3: 1 << 20,
            },
        ] {
            for v in [KernelVariant::Sse2, KernelVariant::Avx2] {
                let b = BlockSizes::derive(v, &cache);
                assert_eq!(b.mc % v.mr(), 0, "{v}: mc {} not a multiple of MR", b.mc);
                assert_eq!(b.nc % v.nr(), 0, "{v}: nc {} not a multiple of NR", b.nc);
                assert!((64..=384).contains(&b.kc));
                assert!((v.mr()..=512).contains(&b.mc));
                assert!((v.nr()..=1024).contains(&b.nc));
            }
        }
    }

    #[test]
    fn clamp_to_shrinks_to_geometry_only() {
        let b = BlockSizes {
            mc: 512,
            nc: 1020,
            kc: 216,
        };
        let c = b.clamp_to(KernelVariant::Avx2, 10, 7, 20);
        assert_eq!(c.mc, 16); // two 8-row strips
        assert_eq!(c.nc, 12); // two 6-column strips
        assert_eq!(c.kc, 24); // 20 rounded up to a multiple of 8
        let full = b.clamp_to(KernelVariant::Avx2, 10_000, 10_000, 10_000);
        assert_eq!(full, b);
    }
}
