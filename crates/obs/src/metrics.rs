//! The static metric registry: named counters and distributions.
//!
//! Metric identity is a closed enum rather than a string so every
//! observation site is a compile-time constant: no interning, no hashing,
//! no allocation on the hot path. Counters mirror the `Stats` struct of
//! `aggsky-core` one-to-one (plus a few SQL-executor extras); distributions
//! capture what the flat counters cannot — record pairs per group pair,
//! scheduler batch sizes, straddle-block fanout.
//!
//! Every distribution is stored once, as a quantile sketch
//! ([`crate::sketch`]). Its log2-bucketed histogram is a view derived from
//! that sketch ([`HistSnapshot::from_sketch`]), exact because every sketch
//! bucket lies inside one power-of-two bucket. Log2 bucket `i` holds values
//! `v` with `2^(i-1) ≤ v < 2^i` (bucket 0 holds exactly `v = 0`), i.e. the
//! bucket index is the number of significant bits. 65 buckets cover all of
//! `u64`.

use crate::sketch::{sketch_value_of, SketchSnapshot};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Number of log2 histogram buckets: one per significant-bit count of a
/// `u64`, plus one for zero.
pub const HIST_BUCKETS: usize = 65;

/// A named monotone counter. Every non-`Sql*` variant mirrors an
/// `aggsky_core::Stats` field one-for-one; the `Sql*` variants are recorded
/// by the SQL executor only.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Counter {
    /// Ordered group pairs whose γ-dominance was evaluated.
    GroupPairs,
    /// Record pairs charged to the virtual clock.
    RecordPairs,
    /// Group pairs resolved by bounding-box corners alone.
    BboxResolved,
    /// Record pairs skipped thanks to bounding-box resolution.
    BboxSkippedPairs,
    /// Pair counts cut short by the §3.3 stopping rule.
    EarlyStops,
    /// Comparisons avoided by the transitivity rule.
    TransitiveSkips,
    /// Candidate groups returned by index window queries.
    IndexCandidates,
    /// Block pairs classified all-dominating by corner tests.
    BlocksFull,
    /// Block pairs classified none-dominating by corner tests.
    BlocksSkipped,
    /// Record pairs actually compared inside straddle blocks.
    RecordsCompared,
    /// Scheduler chunks retried after a worker fault.
    WorkerRetries,
    /// Workers quarantined after repeated faults.
    WorkersQuarantined,
    /// Table rows scanned by the SQL executor (post-residual-filter).
    SqlRowsScanned,
    /// Groups materialized by the SQL aggregation pipeline.
    SqlGroupsBuilt,
    /// Group comparisons served entirely from the pair-count cache.
    CacheHits,
    /// Group comparisons that found no pair-count cache entry.
    CacheMisses,
    /// Group comparisons resumed from a partial pair-count cache entry.
    CacheResumes,
    /// Checkpoint frames committed by the persist layer.
    CheckpointSaves,
    /// Checkpoint recovery attempts (loads) issued by the persist layer.
    CheckpointLoads,
    /// Frames found on disk that failed validation and were degraded past
    /// during recovery (torn writes, bit rot, truncation).
    CheckpointFramesSkipped,
    /// Records inserted into a dynamic aggregate skyline (recorded by the
    /// incremental-maintenance layer only, like the `Sql*` extras).
    DynInserts,
    /// Group pairs whose γ-verdict was served from the Property-2 drift
    /// interval without recounting (defer-recompute hits).
    DynDeferred,
    /// Group pairs whose tallies were recomputed through the kernel because
    /// their drift interval crossed the γ bound (or a flush was forced).
    DynFlushedPairs,
    /// SQL aggregate skylines that reused the input their database kept
    /// from an earlier statement instead of scanning and grouping again.
    SqlInputReused,
}

impl Counter {
    /// Every counter, in export order.
    pub const ALL: [Counter; 24] = [
        Counter::GroupPairs,
        Counter::RecordPairs,
        Counter::BboxResolved,
        Counter::BboxSkippedPairs,
        Counter::EarlyStops,
        Counter::TransitiveSkips,
        Counter::IndexCandidates,
        Counter::BlocksFull,
        Counter::BlocksSkipped,
        Counter::RecordsCompared,
        Counter::WorkerRetries,
        Counter::WorkersQuarantined,
        Counter::SqlRowsScanned,
        Counter::SqlGroupsBuilt,
        Counter::CacheHits,
        Counter::CacheMisses,
        Counter::CacheResumes,
        Counter::CheckpointSaves,
        Counter::CheckpointLoads,
        Counter::CheckpointFramesSkipped,
        Counter::DynInserts,
        Counter::DynDeferred,
        Counter::DynFlushedPairs,
        Counter::SqlInputReused,
    ];

    /// Prometheus metric name (`_total` suffix per convention).
    pub const fn name(self) -> &'static str {
        match self {
            Counter::GroupPairs => "aggsky_group_pairs_total",
            Counter::RecordPairs => "aggsky_record_pairs_total",
            Counter::BboxResolved => "aggsky_bbox_resolved_total",
            Counter::BboxSkippedPairs => "aggsky_bbox_skipped_pairs_total",
            Counter::EarlyStops => "aggsky_early_stops_total",
            Counter::TransitiveSkips => "aggsky_transitive_skips_total",
            Counter::IndexCandidates => "aggsky_index_candidates_total",
            Counter::BlocksFull => "aggsky_blocks_full_total",
            Counter::BlocksSkipped => "aggsky_blocks_skipped_total",
            Counter::RecordsCompared => "aggsky_records_compared_total",
            Counter::WorkerRetries => "aggsky_worker_retries_total",
            Counter::WorkersQuarantined => "aggsky_workers_quarantined_total",
            Counter::SqlRowsScanned => "aggsky_sql_rows_scanned_total",
            Counter::SqlGroupsBuilt => "aggsky_sql_groups_built_total",
            Counter::CacheHits => "aggsky_cache_hits_total",
            Counter::CacheMisses => "aggsky_cache_misses_total",
            Counter::CacheResumes => "aggsky_cache_resumes_total",
            Counter::CheckpointSaves => "aggsky_checkpoint_saves_total",
            Counter::CheckpointLoads => "aggsky_checkpoint_loads_total",
            Counter::CheckpointFramesSkipped => "aggsky_checkpoint_frames_skipped_total",
            Counter::DynInserts => "aggsky_dyn_inserts_total",
            Counter::DynDeferred => "aggsky_dyn_deferred_total",
            Counter::DynFlushedPairs => "aggsky_dyn_flushed_pairs_total",
            Counter::SqlInputReused => "aggsky_sql_input_reused_total",
        }
    }

    const fn index(self) -> usize {
        match self {
            Counter::GroupPairs => 0,
            Counter::RecordPairs => 1,
            Counter::BboxResolved => 2,
            Counter::BboxSkippedPairs => 3,
            Counter::EarlyStops => 4,
            Counter::TransitiveSkips => 5,
            Counter::IndexCandidates => 6,
            Counter::BlocksFull => 7,
            Counter::BlocksSkipped => 8,
            Counter::RecordsCompared => 9,
            Counter::WorkerRetries => 10,
            Counter::WorkersQuarantined => 11,
            Counter::SqlRowsScanned => 12,
            Counter::SqlGroupsBuilt => 13,
            Counter::CacheHits => 14,
            Counter::CacheMisses => 15,
            Counter::CacheResumes => 16,
            Counter::CheckpointSaves => 17,
            Counter::CheckpointLoads => 18,
            Counter::CheckpointFramesSkipped => 19,
            Counter::DynInserts => 20,
            Counter::DynDeferred => 21,
            Counter::DynFlushedPairs => 22,
            Counter::SqlInputReused => 23,
        }
    }
}

/// A named distribution. Each is stored as a quantile sketch and exported
/// as a log2 histogram, plus a summary where [`Hist::summary_name`] names
/// one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Hist {
    /// Record pairs charged per evaluated group pair.
    RecordPairsPerGroupPair,
    /// Straddle block pairs executed per stolen scheduler batch.
    BatchBlockPairs,
    /// Record pairs compared per straddling block scan of a group pair.
    StraddleFanout,
    /// Candidate groups per index window query.
    WindowCandidates,
    /// Size in bytes of each committed checkpoint frame.
    CheckpointFrameBytes,
}

impl Hist {
    /// Every distribution, in export order.
    pub const ALL: [Hist; 5] = [
        Hist::RecordPairsPerGroupPair,
        Hist::BatchBlockPairs,
        Hist::StraddleFanout,
        Hist::WindowCandidates,
        Hist::CheckpointFrameBytes,
    ];

    /// Prometheus histogram family name.
    pub const fn name(self) -> &'static str {
        match self {
            Hist::RecordPairsPerGroupPair => "aggsky_record_pairs_per_group_pair",
            Hist::BatchBlockPairs => "aggsky_batch_block_pairs",
            Hist::StraddleFanout => "aggsky_straddle_fanout_pairs",
            Hist::WindowCandidates => "aggsky_window_candidates",
            Hist::CheckpointFrameBytes => "aggsky_checkpoint_frame_bytes",
        }
    }

    /// Prometheus summary family name, for the distributions whose tail
    /// matters: their p50/p95/p99 are exported at the sketch's ≤3.2%
    /// resolution beside the factor-of-two log2 buckets.
    pub const fn summary_name(self) -> Option<&'static str> {
        match self {
            Hist::BatchBlockPairs => Some("aggsky_batch_block_pairs_quantiles"),
            Hist::StraddleFanout => Some("aggsky_straddle_fanout_quantiles"),
            _ => None,
        }
    }

    const fn index(self) -> usize {
        match self {
            Hist::RecordPairsPerGroupPair => 0,
            Hist::BatchBlockPairs => 1,
            Hist::StraddleFanout => 2,
            Hist::WindowCandidates => 3,
            Hist::CheckpointFrameBytes => 4,
        }
    }
}

/// Bucket index of `value`: its number of significant bits (0 for 0).
pub fn bucket_of(value: u64) -> usize {
    let bits = 64u32.saturating_sub(value.leading_zeros());
    usize::try_from(bits).unwrap_or(HIST_BUCKETS - 1)
}

/// Inclusive upper bound of bucket `i` (`2^i − 1`); bucket 0 holds only 0.
pub fn bucket_le(i: usize) -> u128 {
    1u128.checked_shl(u32::try_from(i.min(64)).unwrap_or(64)).map_or(u128::MAX, |p| p - 1)
}

/// The log2 view of one distribution, derived from its sketch by
/// [`HistSnapshot::from_sketch`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistSnapshot {
    /// Per-bucket observation counts (see [`bucket_of`]).
    pub buckets: [u64; HIST_BUCKETS],
    /// Total number of observations.
    pub count: u64,
    /// Saturating sum of all observed values.
    pub sum: u64,
}

impl Default for HistSnapshot {
    fn default() -> HistSnapshot {
        HistSnapshot { buckets: [0; HIST_BUCKETS], count: 0, sum: 0 }
    }
}

impl HistSnapshot {
    /// The log2 histogram of the observations in `sketch`, exactly as if
    /// each had been bucketed by [`bucket_of`]: every sketch bucket lies
    /// inside one power-of-two bucket, the one holding its representative.
    pub fn from_sketch(sketch: &SketchSnapshot) -> HistSnapshot {
        let mut h =
            HistSnapshot { count: sketch.count, sum: sketch.sum, ..HistSnapshot::default() };
        for (i, &n) in sketch.buckets.iter().enumerate().filter(|&(_, &n)| n > 0) {
            if let Some(b) = h.buckets.get_mut(bucket_of(sketch_value_of(i))) {
                *b = b.saturating_add(n);
            }
        }
        h
    }

    /// Upper bound of the smallest bucket whose cumulative count reaches
    /// `q` per-mille of the total (e.g. `500` → median). `None` when empty.
    pub fn quantile_le(&self, q_permille: u64) -> Option<u128> {
        if self.count == 0 {
            return None;
        }
        let threshold = (u128::from(self.count) * u128::from(q_permille)).div_ceil(1000);
        let mut cum: u128 = 0;
        for (i, b) in self.buckets.iter().enumerate() {
            cum += u128::from(*b);
            if cum >= threshold {
                return Some(bucket_le(i));
            }
        }
        Some(bucket_le(HIST_BUCKETS - 1))
    }
}

/// Observations accumulated in plain integers by one run and merged into
/// a registry at once through [`crate::Recorder::observe_batch`]: a
/// per-group-pair hot loop then pays no shared lock per observation.
/// Merging a batch leaves a registry exactly as the same observations
/// made one by one would.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistBatch {
    sketches: [SketchSnapshot; Hist::ALL.len()],
}

impl Default for HistBatch {
    fn default() -> HistBatch {
        HistBatch { sketches: [SketchSnapshot::EMPTY; Hist::ALL.len()] }
    }
}

impl HistBatch {
    /// Records one observation, as [`MetricsRegistry::observe`] would.
    #[inline]
    pub fn observe(&mut self, hist: Hist, value: u64) {
        if let Some(s) = self.sketches.get_mut(hist.index()) {
            s.observe(value);
        }
    }
}

/// Every [`Counter`] as a lock-free atomic: the counter half of a
/// [`MetricsRegistry`], and all a [`crate::CounterSink`] keeps.
#[derive(Debug)]
pub(crate) struct CounterSet([AtomicU64; Counter::ALL.len()]);

impl CounterSet {
    /// Every counter at zero.
    pub(crate) fn new() -> CounterSet {
        CounterSet(std::array::from_fn(|_| AtomicU64::new(0)))
    }

    /// Adds `delta` to a counter.
    pub(crate) fn add(&self, counter: Counter, delta: u64) {
        if let Some(c) = self.0.get(counter.index()) {
            c.fetch_add(delta, Ordering::Relaxed);
        }
    }

    /// Current value of one counter.
    pub(crate) fn get(&self, counter: Counter) -> u64 {
        self.0.get(counter.index()).map_or(0, |c| c.load(Ordering::Relaxed))
    }

    fn values(&self) -> [u64; Counter::ALL.len()] {
        std::array::from_fn(|i| self.0.get(i).map_or(0, |c| c.load(Ordering::Relaxed)))
    }
}

/// Storage for every [`Counter`] and [`Hist`]. Shared by reference between
/// the recorder and any number of worker threads. Counters are lock-free
/// atomics; each distribution's sketch sits behind its own mutex, taken
/// once per checkpoint save or per run-local [`HistBatch`] merge, never
/// per group pair or record pair.
pub struct MetricsRegistry {
    counters: CounterSet,
    hists: [Mutex<SketchSnapshot>; Hist::ALL.len()],
}

impl MetricsRegistry {
    /// A registry with every metric at zero.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry {
            counters: CounterSet::new(),
            hists: std::array::from_fn(|_| Mutex::new(SketchSnapshot::EMPTY)),
        }
    }

    /// Adds `delta` to a counter.
    pub fn add(&self, counter: Counter, delta: u64) {
        self.counters.add(counter, delta);
    }

    /// Records one observation of a distribution.
    pub fn observe(&self, hist: Hist, value: u64) {
        if let Some(s) = self.hists.get(hist.index()) {
            lock(s).observe(value);
        }
    }

    /// Merges a run's locally accumulated observations, leaving every
    /// distribution as the same `observe` calls would.
    pub fn merge(&self, batch: &HistBatch) {
        for (s, part) in self.hists.iter().zip(&batch.sketches).filter(|(_, p)| p.count > 0) {
            lock(s).merge(part);
        }
    }

    /// Current value of one counter.
    pub fn counter(&self, counter: Counter) -> u64 {
        self.counters.get(counter)
    }

    /// Copies every metric out into an immutable snapshot.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self.counters.values(),
            hists: std::array::from_fn(|i| {
                self.hists.get(i).map_or_else(SketchSnapshot::default, |s| lock(s).clone())
            }),
        }
    }
}

/// Locks one distribution's sketch. Every update leaves a sketch valid at
/// every step, so a guard recovered from a poisoned lock holds sound data.
fn lock(sketch: &Mutex<SketchSnapshot>) -> MutexGuard<'_, SketchSnapshot> {
    sketch.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Default for MetricsRegistry {
    fn default() -> MetricsRegistry {
        MetricsRegistry::new()
    }
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsRegistry").finish_non_exhaustive()
    }
}

/// An immutable point-in-time copy of a [`MetricsRegistry`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsSnapshot {
    counters: [u64; Counter::ALL.len()],
    hists: [SketchSnapshot; Hist::ALL.len()],
}

impl MetricsSnapshot {
    /// An all-zero snapshot.
    pub fn empty() -> MetricsSnapshot {
        MetricsSnapshot {
            counters: [0; Counter::ALL.len()],
            hists: [SketchSnapshot::EMPTY; Hist::ALL.len()],
        }
    }

    /// Value of one counter at snapshot time.
    pub fn counter(&self, counter: Counter) -> u64 {
        self.counters.get(counter.index()).copied().unwrap_or(0)
    }

    /// One distribution at snapshot time, as stored.
    pub fn sketch(&self, hist: Hist) -> &SketchSnapshot {
        self.hists.get(hist.index()).unwrap_or(&SketchSnapshot::EMPTY)
    }

    /// The log2 view of one distribution at snapshot time.
    pub fn hist(&self, hist: Hist) -> HistSnapshot {
        HistSnapshot::from_sketch(self.sketch(hist))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_powers_of_two() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(7), 3);
        assert_eq!(bucket_of(8), 4);
        assert_eq!(bucket_of(u64::MAX), 64);
        // Inclusive upper bounds match the index rule.
        assert_eq!(bucket_le(0), 0);
        assert_eq!(bucket_le(1), 1);
        assert_eq!(bucket_le(3), 7);
        assert_eq!(bucket_le(64), u128::from(u64::MAX));
        for v in [0u64, 1, 2, 3, 4, 5, 100, 1 << 33, u64::MAX] {
            let b = bucket_of(v);
            assert!(u128::from(v) <= bucket_le(b), "{v} above le of its bucket {b}");
            if b > 0 {
                assert!(u128::from(v) > bucket_le(b - 1), "{v} fits an earlier bucket than {b}");
            }
        }
    }

    #[test]
    fn registry_counts_and_snapshots() {
        let reg = MetricsRegistry::new();
        reg.add(Counter::RecordPairs, 5);
        reg.add(Counter::RecordPairs, 7);
        reg.observe(Hist::BatchBlockPairs, 3);
        reg.observe(Hist::BatchBlockPairs, 9);
        let snap = reg.snapshot();
        assert_eq!(snap.counter(Counter::RecordPairs), 12);
        assert_eq!(snap.counter(Counter::GroupPairs), 0);
        let h = snap.hist(Hist::BatchBlockPairs);
        assert_eq!(h.count, 2);
        assert_eq!(h.sum, 12);
        assert_eq!(h.buckets[bucket_of(3)], 1);
        assert_eq!(h.buckets[bucket_of(9)], 1);
        let sk = snap.sketch(Hist::BatchBlockPairs);
        assert_eq!((sk.count, sk.sum, sk.max), (2, 12, 9));
        assert_eq!(snap.sketch(Hist::StraddleFanout).count, 0);
    }

    #[test]
    fn quantile_bounds_are_sane() {
        let mut sk = SketchSnapshot::default();
        for v in 1..=100u64 {
            sk.observe(v);
        }
        let h = HistSnapshot::from_sketch(&sk);
        let p50 = h.quantile_le(500).unwrap();
        let p100 = h.quantile_le(1000).unwrap();
        assert!(p50 >= 50, "median bound {p50} below true median");
        assert!(p100 >= 100);
        assert!(p50 <= p100);
        assert_eq!(HistSnapshot::default().quantile_le(500), None);
    }

    #[test]
    fn log2_view_buckets_every_value_by_its_significant_bits() {
        let mut sk = SketchSnapshot::default();
        let mut expected = HistSnapshot::default();
        let mut state = 0x5EED_u64;
        let ends = [0, 31, 32, 33, 63, 64, (1 << 63) - 1, 1 << 63, (1 << 63) + (1 << 62), u64::MAX];
        let seeded = (0..2_000).map(|_| {
            // Values from 0 to beyond 2^40.
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 20) >> (state % 41)
        });
        for value in seeded.chain(ends) {
            sk.observe(value);
            expected.buckets[bucket_of(value)] += 1;
            expected.count += 1;
            expected.sum = expected.sum.saturating_add(value);
        }
        assert_eq!(HistSnapshot::from_sketch(&sk), expected);
        assert_eq!(HistSnapshot::from_sketch(&SketchSnapshot::default()), HistSnapshot::default());
    }

    #[test]
    fn one_batch_merge_equals_the_observations_one_by_one() {
        let (one_by_one, batched) = (MetricsRegistry::new(), MetricsRegistry::new());
        let mut batch = HistBatch::default();
        let mut state = 0x5EED_u64;
        for i in 0..2_000u64 {
            // Values from 0 to beyond 2^40, every distribution.
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let value = (state >> 20) >> (state % 41);
            let hist = Hist::ALL[usize::try_from(i).unwrap() % Hist::ALL.len()];
            one_by_one.observe(hist, value);
            batch.observe(hist, value);
        }
        // The ends of the range, where a sketch bucket meets its octave.
        for value in [0, 31, 32, (1 << 63) + (1 << 62)] {
            one_by_one.observe(Hist::StraddleFanout, value);
            batch.observe(Hist::StraddleFanout, value);
        }
        batched.merge(&batch);
        assert_eq!(batched.snapshot(), one_by_one.snapshot());
        // An empty batch changes nothing.
        batched.merge(&HistBatch::default());
        assert_eq!(batched.snapshot(), one_by_one.snapshot());
    }

    #[test]
    fn counter_and_hist_indices_are_dense_and_unique() {
        let mut seen = [false; Counter::ALL.len()];
        for c in Counter::ALL {
            assert!(!seen[c.index()], "duplicate counter index");
            seen[c.index()] = true;
        }
        assert!(seen.iter().all(|s| *s));
        let mut hseen = [false; Hist::ALL.len()];
        for h in Hist::ALL {
            assert!(!hseen[h.index()], "duplicate hist index");
            hseen[h.index()] = true;
        }
        assert!(hseen.iter().all(|s| *s));
    }
}
