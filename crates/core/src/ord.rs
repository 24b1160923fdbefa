//! Sanctioned total-order comparisons on `f64` (project rule L2).
//!
//! γ-dominance is a *counting* predicate: a comparison that silently
//! misorders (as `partial_cmp` and the raw operators do on NaN) corrupts a
//! pair count — and therefore a skyline verdict — without crashing. All
//! float ordering in the workspace's library crates goes through this
//! module, which is total: IEEE order wherever IEEE defines one, and
//! [`f64::total_cmp`] where a NaN leaves IEEE unordered:
//!
//! * NaNs order deterministically (negative NaN below `-∞`, positive NaN
//!   above `+∞`) instead of poisoning every comparison they touch;
//! * `-0.0` and `+0.0` compare equal, so the boolean comparators agree
//!   exactly with IEEE `<`/`>` on every non-NaN input — including datasets
//!   whose MIN-direction normalization negates a zero.
//!
//! [`crate::GroupedDatasetBuilder`] rejects non-finite coordinates at
//! ingestion, so on the dominance hot path these helpers behave identically
//! to the raw operators while staying safe for data that bypassed
//! validation. `crates/spatial` may not depend on this crate (rule L4) and
//! carries a minimal mirror in `aggsky_spatial::ord`.

use std::cmp::Ordering;

/// Maps `-0.0` to `+0.0` so that [`f64::total_cmp`] on the result agrees
/// with [`cmp`]; all other values, including NaN (with its sign) and the
/// infinities, are unchanged. [`crate::dominance::sort_key`] applies it
/// before transposing bits into the columnar kernel's integer key space.
///
/// The mapping works on the bit pattern: the float sum `x + 0.0` would also
/// map `-0.0` to `+0.0`, but optimised builds may fold `NaN + 0.0` to a
/// positive NaN, which would put negative NaN above `+∞`.
#[inline(always)]
pub(crate) fn canon(x: f64) -> f64 {
    let b = x.to_bits();
    f64::from_bits(if b == 1 << 63 { 0 } else { b })
}

/// Total ordering: IEEE order when both values are ordered (so `-0.0 ==
/// +0.0`), else [`f64::total_cmp`], which places a NaN by its sign. That
/// equals `total_cmp` over [`canon`]-ized values, but the record loop of
/// the exhaustive kernel pays only the IEEE compare.
#[inline(always)]
pub fn cmp(a: f64, b: f64) -> Ordering {
    match a.partial_cmp(&b) {
        Some(o) => o,
        None => a.total_cmp(&b),
    }
}

/// Reversed total ordering, for descending sorts.
#[inline(always)]
pub fn cmp_desc(a: f64, b: f64) -> Ordering {
    cmp(b, a)
}

/// Total `a < b`.
#[inline(always)]
pub fn lt(a: f64, b: f64) -> bool {
    cmp(a, b) == Ordering::Less
}

/// Total `a <= b`.
#[inline(always)]
pub fn le(a: f64, b: f64) -> bool {
    cmp(a, b) != Ordering::Greater
}

/// Total `a > b`.
#[inline(always)]
pub fn gt(a: f64, b: f64) -> bool {
    cmp(a, b) == Ordering::Greater
}

/// Total `a >= b`.
#[inline(always)]
pub fn ge(a: f64, b: f64) -> bool {
    cmp(a, b) != Ordering::Less
}

/// Total `a == b`: like `==` but NaN equals NaN (of the same sign), so
/// deduplication and memoization keyed on floats stay coherent.
#[inline(always)]
pub fn eq(a: f64, b: f64) -> bool {
    cmp(a, b) == Ordering::Equal
}

/// Total maximum; unlike [`f64::max`] this is deterministic on NaN inputs
/// (a positive NaN wins over every number).
#[inline(always)]
pub fn max(a: f64, b: f64) -> f64 {
    if ge(a, b) {
        a
    } else {
        b
    }
}

/// Total minimum (see [`max`]).
#[inline(always)]
pub fn min(a: f64, b: f64) -> f64 {
    if le(a, b) {
        a
    } else {
        b
    }
}

/// Lexicographic total ordering of float slices (for deterministic sorts of
/// records in tests and tie-breaking).
pub fn cmp_slices(a: &[f64], b: &[f64]) -> Ordering {
    for (&x, &y) in a.iter().zip(b.iter()) {
        let o = cmp(x, y);
        if o != Ordering::Equal {
            return o;
        }
    }
    a.len().cmp(&b.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn agrees_with_ieee_on_ordinary_values() {
        let vals = [-3.5, -1.0, 0.0, 0.5, 1.0, 2.0, f64::INFINITY, f64::NEG_INFINITY];
        for &a in &vals {
            for &b in &vals {
                assert_eq!(lt(a, b), a < b, "lt({a}, {b})");
                assert_eq!(le(a, b), a <= b, "le({a}, {b})");
                assert_eq!(gt(a, b), a > b, "gt({a}, {b})");
                assert_eq!(ge(a, b), a >= b, "ge({a}, {b})");
                assert_eq!(eq(a, b), a == b, "eq({a}, {b})");
            }
        }
    }

    #[test]
    fn zeros_are_equal_both_ways() {
        // MIN-direction normalization negates values, so -0.0 occurs in real
        // datasets; it must compare equal to +0.0 exactly as IEEE says.
        assert!(eq(0.0, -0.0));
        assert!(eq(-0.0, 0.0));
        assert!(!gt(0.0, -0.0));
        assert!(!lt(-0.0, 0.0));
        assert_eq!(cmp(0.0, -0.0), Ordering::Equal);
    }

    #[test]
    fn nan_orders_deterministically() {
        assert_eq!(cmp(f64::NAN, f64::NAN), Ordering::Equal);
        assert!(gt(f64::NAN, f64::INFINITY));
        assert!(lt(-f64::NAN, f64::NEG_INFINITY));
        // Unlike raw operators, comparisons never become vacuously false in
        // both directions.
        assert!(gt(f64::NAN, 1.0) || lt(f64::NAN, 1.0) || eq(f64::NAN, 1.0));
    }

    #[test]
    fn cmp_is_total_cmp_over_canonical_zeros() {
        let vals = [f64::NAN, -f64::NAN, f64::NEG_INFINITY, -1.5, -0.0, 0.0, 2.0, f64::INFINITY];
        for &a in &vals {
            for &b in &vals {
                assert_eq!(cmp(a, b), canon(a).total_cmp(&canon(b)), "cmp({a}, {b})");
            }
        }
        assert_eq!(canon(-0.0).to_bits(), 0);
        assert!(canon(-f64::NAN).is_sign_negative(), "canon keeps the sign of NaN");
        let key = crate::dominance::sort_key;
        assert!(key(-f64::NAN) < key(f64::NEG_INFINITY), "negative NaN keys below -inf");
        assert!(key(f64::NAN) > key(f64::INFINITY));
    }

    #[test]
    fn min_max_are_total() {
        assert_eq!(max(1.0, 2.0), 2.0);
        assert_eq!(min(1.0, 2.0), 1.0);
        assert!(max(f64::NAN, 1.0).is_nan());
        assert_eq!(min(f64::NAN, 1.0), 1.0);
    }

    #[test]
    fn slice_ordering_is_lexicographic() {
        assert_eq!(cmp_slices(&[1.0, 2.0], &[1.0, 3.0]), Ordering::Less);
        assert_eq!(cmp_slices(&[1.0, 2.0], &[1.0, 2.0]), Ordering::Equal);
        assert_eq!(cmp_slices(&[1.0, 2.0], &[1.0, 2.0, 0.0]), Ordering::Less);
        assert_eq!(cmp_slices(&[2.0], &[1.0, 9.0]), Ordering::Greater);
    }

    #[test]
    fn sorting_with_cmp_never_panics_on_nan() {
        let mut v = [1.0, f64::NAN, -1.0, 0.0, -0.0, f64::INFINITY];
        v.sort_by(|a, b| cmp(*a, *b));
        assert_eq!(v[0], -1.0);
        assert!(v[5].is_nan());
    }
}
