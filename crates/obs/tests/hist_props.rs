//! Seeded property tests for the quantile sketch, the one type every
//! distribution is stored as: `merge` is associative, commutative, and
//! conserves total observation count and sum.

use aggsky_obs::{sketch_bucket_of, SketchSnapshot, SKETCH_BUCKETS};

/// splitmix64 — the workspace's standard seeded generator (no external
/// randomness, reproducible failures).
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A sketch filled with `n` values drawn from a seeded stream, spanning
/// many orders of magnitude (shift by 0..=63 bits).
fn random_sketch(seed: u64, n: usize) -> SketchSnapshot {
    let mut state = seed;
    let mut s = SketchSnapshot::default();
    for _ in 0..n {
        let raw = splitmix64(&mut state);
        let shift = splitmix64(&mut state) % 64;
        s.observe(raw >> shift);
    }
    s
}

fn merged(a: &SketchSnapshot, b: &SketchSnapshot) -> SketchSnapshot {
    let mut out = a.clone();
    out.merge(b);
    out
}

#[test]
fn merge_is_commutative() {
    for seed in 0..50u64 {
        let a = random_sketch(seed, 100);
        let b = random_sketch(seed.wrapping_mul(31).wrapping_add(7), 173);
        assert_eq!(merged(&a, &b), merged(&b, &a), "seed {seed}");
    }
}

#[test]
fn merge_is_associative() {
    for seed in 0..50u64 {
        let a = random_sketch(seed, 64);
        let b = random_sketch(seed + 1000, 128);
        let c = random_sketch(seed + 2000, 33);
        assert_eq!(merged(&merged(&a, &b), &c), merged(&a, &merged(&b, &c)), "seed {seed}");
    }
}

#[test]
fn merge_conserves_count_and_sum() {
    for seed in 0..50u64 {
        let a = random_sketch(seed, 211);
        let b = random_sketch(seed + 5000, 97);
        let m = merged(&a, &b);
        assert_eq!(m.count, a.count + b.count, "seed {seed}");
        assert_eq!(m.sum, a.sum.saturating_add(b.sum), "seed {seed}");
        assert_eq!(m.max, a.max.max(b.max), "seed {seed}");
        assert_eq!(
            m.buckets.iter().sum::<u64>(),
            a.buckets.iter().sum::<u64>() + b.buckets.iter().sum::<u64>(),
            "seed {seed}: bucket mass not conserved"
        );
    }
}

#[test]
fn merge_with_empty_is_identity() {
    for seed in [3u64, 99, 1234] {
        let a = random_sketch(seed, 80);
        assert_eq!(merged(&a, &SketchSnapshot::default()), a);
        assert_eq!(merged(&SketchSnapshot::default(), &a), a);
    }
}

#[test]
fn every_observation_lands_in_exactly_one_bucket() {
    let mut state = 42u64;
    for _ in 0..1000 {
        let v = splitmix64(&mut state) >> (splitmix64(&mut state) % 64);
        let b = sketch_bucket_of(v);
        assert!(b < SKETCH_BUCKETS);
        let mut s = SketchSnapshot::default();
        s.observe(v);
        assert_eq!(s.buckets.iter().sum::<u64>(), 1);
        assert_eq!(s.buckets[b], 1);
    }
}
