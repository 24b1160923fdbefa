//! Total-order float comparisons — a minimal mirror of `aggsky_core::ord`.
//!
//! The workspace layering rule (lint rule L4) keeps this crate free of
//! internal dependencies (`aggsky-core` depends on *us*), so the sanctioned
//! comparators cannot be imported and are mirrored here with identical
//! semantics: IEEE order where IEEE defines one, so `-0.0 == +0.0` and
//! every comparison agrees with IEEE `<`/`>` on non-NaN inputs, and
//! `total_cmp` where a NaN leaves IEEE unordered, so NaN stays
//! deterministic.

use std::cmp::Ordering;

/// Total ordering: IEEE order when both values are ordered (so `-0.0 ==
/// +0.0`), else `total_cmp`, which places a NaN by its sign.
#[inline(always)]
pub(crate) fn cmp(a: f64, b: f64) -> Ordering {
    match a.partial_cmp(&b) {
        Some(o) => o,
        None => a.total_cmp(&b),
    }
}

/// Total `a < b`.
#[inline(always)]
pub(crate) fn lt(a: f64, b: f64) -> bool {
    cmp(a, b) == Ordering::Less
}

/// Total `a <= b`.
#[inline(always)]
pub(crate) fn le(a: f64, b: f64) -> bool {
    cmp(a, b) != Ordering::Greater
}

/// Total `a > b`.
#[inline(always)]
pub(crate) fn gt(a: f64, b: f64) -> bool {
    cmp(a, b) == Ordering::Greater
}

/// Total `a == b` (NaN of equal sign compares equal, so heap/dedup
/// structures keyed on distances stay coherent).
#[inline(always)]
pub(crate) fn eq(a: f64, b: f64) -> bool {
    cmp(a, b) == Ordering::Equal
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mirrors_ieee_on_ordinary_values() {
        let vals = [-2.0, -0.0, 0.0, 1.5, f64::INFINITY];
        for &a in &vals {
            for &b in &vals {
                assert_eq!(lt(a, b), a < b, "lt({a}, {b})");
                assert_eq!(le(a, b), a <= b, "le({a}, {b})");
                assert_eq!(gt(a, b), a > b, "gt({a}, {b})");
                assert_eq!(eq(a, b), a == b, "eq({a}, {b})");
            }
        }
        assert!(eq(f64::NAN, f64::NAN));
        assert!(lt(-f64::NAN, f64::NEG_INFINITY), "negative NaN keeps its sign");
        assert!(gt(f64::NAN, f64::INFINITY));
    }
}
