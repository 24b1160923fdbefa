//! Runtime CPU-feature policy for the SIMD straddle kernel.
//!
//! The AVX2 kernel in [`crate::simd`] is selected at runtime, never at
//! compile time: [`simd_supported`] wraps `is_x86_feature_detected!` of the
//! two features that kernel is compiled for, AVX2 and POPCNT (and is simply
//! `false` off x86-64), and [`force_scalar`] lets the environment pin the
//! scalar columnar path even on AVX2 hardware — the fallback must stay
//! testable and benchable where the fast path exists (`AGGSKY_FORCE_SCALAR`,
//! DESIGN.md §13). [`simd_active`] combines the two into the one predicate
//! the kernel dispatcher consults.
//!
//! This module deliberately lives *outside* the lint L5 counting-path scan:
//! it reads `std::env`, which is banned on counting paths. The counting code
//! never reads the environment itself — it receives the already-resolved
//! boolean. Because both columnar paths are bit-identical (pinned by
//! `tests/simd_differential.rs`), the dispatch decision can never change a
//! verdict, a tally, or a `Stats` charge; it only selects how fast the same
//! numbers are produced.

use std::sync::OnceLock;

/// Whether the running CPU supports AVX2 (always `false` off x86-64).
#[inline]
pub fn avx2_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Whether the running CPU has every feature the [`crate::simd`] kernel is
/// compiled for: AVX2 and POPCNT (always `false` off x86-64).
#[inline]
pub fn simd_supported() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        avx2_available() && std::arch::is_x86_feature_detected!("popcnt")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Interprets an `AGGSKY_FORCE_SCALAR` setting: unset, empty, or `"0"`
/// leave SIMD enabled; any other value forces the scalar columnar path.
///
/// Split out from [`force_scalar`] so the policy is testable without
/// touching the process environment (the cached read makes `set_var`-style
/// tests order-dependent).
#[inline]
pub fn scalar_forced_by(value: Option<&str>) -> bool {
    match value {
        None => false,
        Some(v) => !v.is_empty() && v != "0",
    }
}

/// Whether `AGGSKY_FORCE_SCALAR` pins the scalar columnar path. The
/// environment is read once per process and cached: kernel construction may
/// sit on hot paths, and a mid-run flip would make otherwise identical
/// comparisons take different code paths within one run.
#[inline]
pub fn force_scalar() -> bool {
    static FORCED: OnceLock<bool> = OnceLock::new();
    *FORCED.get_or_init(|| {
        let value = std::env::var("AGGSKY_FORCE_SCALAR").ok();
        scalar_forced_by(value.as_deref())
    })
}

/// The dispatch predicate: AVX2 and POPCNT detected and not overridden. When `true`,
/// [`crate::KernelConfig::Columnar`] routes straddling block pairs through
/// the [`crate::simd`] kernel; when `false`, through the scalar columnar
/// kernel. Either way the results are bit-identical.
#[inline]
pub fn simd_active() -> bool {
    simd_supported() && !force_scalar()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_override_policy() {
        assert!(!scalar_forced_by(None));
        assert!(!scalar_forced_by(Some("")));
        assert!(!scalar_forced_by(Some("0")));
        assert!(scalar_forced_by(Some("1")));
        assert!(scalar_forced_by(Some("true")));
        assert!(scalar_forced_by(Some("yes")));
    }

    #[test]
    fn simd_active_implies_avx2() {
        if simd_active() {
            assert!(simd_supported());
            assert!(avx2_available());
        }
    }

    #[cfg(not(target_arch = "x86_64"))]
    #[test]
    fn no_avx2_off_x86() {
        assert!(!avx2_available());
        assert!(!simd_supported());
        assert!(!simd_active());
    }
}
