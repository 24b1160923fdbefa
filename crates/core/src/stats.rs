//! Instrumentation counters collected by every algorithm run.
//!
//! Wall-clock time depends on the machine; the counters below are
//! hardware-independent measures of the work each optimization saves, and
//! they are what the benchmark harness reports next to elapsed time.

use aggsky_obs::{Counter, Recorder};

/// Work counters for one aggregate-skyline computation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Stats {
    /// Pairs of groups for which a domination test was started.
    pub group_pairs: u64,
    /// Record-vs-record dominance checks actually performed.
    pub record_pairs: u64,
    /// Group pairs fully resolved by bounding-box reasoning alone
    /// (Figure 9(b) strict-dominance shortcut).
    pub bbox_resolved: u64,
    /// Record comparisons avoided by the Figure 9(c) region decomposition
    /// (pairs whose outcome was derived from MBB corners).
    pub bbox_skipped_pairs: u64,
    /// Group pairs whose pairwise loop terminated early via the Section 3.3
    /// stopping rule.
    pub early_stops: u64,
    /// Group comparisons skipped because one side was already strongly
    /// dominated (weak-transitivity pruning, Algorithm 3).
    pub transitive_skips: u64,
    /// Candidate groups returned by spatial-index window queries
    /// (Algorithm 5); group pairs never returned were pruned for free. The
    /// anytime engine counts the window candidates its cursors move past,
    /// compared or settled by a mirror comparison.
    pub index_candidates: u64,
    /// Block pairs the prepared kernel resolved as *fully dominating* in
    /// O(1) (one block's MBB min corner dominates the other's max corner:
    /// Figure 9(b) at record-block granularity).
    pub blocks_full: u64,
    /// Block pairs the prepared kernel skipped in O(1) because neither
    /// block's MBB allows a dominating record pair in either direction.
    pub blocks_skipped: u64,
    /// Record-vs-record dominance tests performed inside the prepared
    /// kernel's straddling-block loops (compare against `record_pairs` of
    /// an exhaustive run to measure what block pruning saved).
    pub records_compared: u64,
    /// Chunks the parallel scheduler re-queued after a worker panic (each
    /// retry is one incident; the query still completes unless the
    /// per-chunk attempt cap is exhausted).
    pub worker_retries: u64,
    /// Workers the parallel scheduler quarantined (stopped handing work to)
    /// after they panicked while other workers survived.
    pub workers_quarantined: u64,
    /// Group comparisons fully served from a [`crate::PairCache`] entry
    /// (memoized evidence already decided the pair under the caller's γ).
    pub cache_hits: u64,
    /// Group comparisons that found no cache entry and counted from the
    /// start of the block cursor.
    pub cache_misses: u64,
    /// Group comparisons that found a *partial* cache entry and resumed
    /// counting from its cursor instead of from scratch.
    pub cache_resumes: u64,
}

impl Stats {
    /// Merges the counters of another run into this one (used by the
    /// parallel driver and by benchmark aggregation).
    ///
    /// The full-struct destructuring (no `..` rest pattern) is deliberate:
    /// adding a field to [`Stats`] without deciding how it merges becomes a
    /// compile error instead of a silently dropped counter.
    pub fn merge(&mut self, other: &Stats) {
        let Stats {
            group_pairs,
            record_pairs,
            bbox_resolved,
            bbox_skipped_pairs,
            early_stops,
            transitive_skips,
            index_candidates,
            blocks_full,
            blocks_skipped,
            records_compared,
            worker_retries,
            workers_quarantined,
            cache_hits,
            cache_misses,
            cache_resumes,
        } = *other;
        self.group_pairs += group_pairs;
        self.record_pairs += record_pairs;
        self.bbox_resolved += bbox_resolved;
        self.bbox_skipped_pairs += bbox_skipped_pairs;
        self.early_stops += early_stops;
        self.transitive_skips += transitive_skips;
        self.index_candidates += index_candidates;
        self.blocks_full += blocks_full;
        self.blocks_skipped += blocks_skipped;
        self.records_compared += records_compared;
        self.worker_retries += worker_retries;
        self.workers_quarantined += workers_quarantined;
        self.cache_hits += cache_hits;
        self.cache_misses += cache_misses;
        self.cache_resumes += cache_resumes;
    }

    /// Dumps every counter into an observability recorder, field-for-field.
    /// Same exhaustive destructuring as [`Stats::merge`]: a new field must
    /// be mapped to an [`aggsky_obs::Counter`] (or explicitly ignored here)
    /// before the crate compiles again.
    pub fn record_to(&self, rec: &dyn Recorder) {
        let Stats {
            group_pairs,
            record_pairs,
            bbox_resolved,
            bbox_skipped_pairs,
            early_stops,
            transitive_skips,
            index_candidates,
            blocks_full,
            blocks_skipped,
            records_compared,
            worker_retries,
            workers_quarantined,
            cache_hits,
            cache_misses,
            cache_resumes,
        } = *self;
        rec.add(Counter::GroupPairs, group_pairs);
        rec.add(Counter::RecordPairs, record_pairs);
        rec.add(Counter::BboxResolved, bbox_resolved);
        rec.add(Counter::BboxSkippedPairs, bbox_skipped_pairs);
        rec.add(Counter::EarlyStops, early_stops);
        rec.add(Counter::TransitiveSkips, transitive_skips);
        rec.add(Counter::IndexCandidates, index_candidates);
        rec.add(Counter::BlocksFull, blocks_full);
        rec.add(Counter::BlocksSkipped, blocks_skipped);
        rec.add(Counter::RecordsCompared, records_compared);
        rec.add(Counter::WorkerRetries, worker_retries);
        rec.add(Counter::WorkersQuarantined, workers_quarantined);
        rec.add(Counter::CacheHits, cache_hits);
        rec.add(Counter::CacheMisses, cache_misses);
        rec.add(Counter::CacheResumes, cache_resumes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A `Stats` with every field set to a distinct non-zero value, so a
    /// field silently dropped by `merge` or `record_to` fails an assertion
    /// rather than comparing 0 == 0.
    fn all_nonzero() -> Stats {
        Stats {
            group_pairs: 1,
            record_pairs: 2,
            bbox_resolved: 3,
            bbox_skipped_pairs: 4,
            early_stops: 5,
            transitive_skips: 6,
            index_candidates: 7,
            blocks_full: 8,
            blocks_skipped: 9,
            records_compared: 10,
            worker_retries: 11,
            workers_quarantined: 12,
            cache_hits: 13,
            cache_misses: 14,
            cache_resumes: 15,
        }
    }

    #[test]
    fn merge_adds_fields() {
        let mut a = all_nonzero();
        let b = all_nonzero();
        a.merge(&b);
        assert_eq!(
            a,
            Stats {
                group_pairs: 2,
                record_pairs: 4,
                bbox_resolved: 6,
                bbox_skipped_pairs: 8,
                early_stops: 10,
                transitive_skips: 12,
                index_candidates: 14,
                blocks_full: 16,
                blocks_skipped: 18,
                records_compared: 20,
                worker_retries: 22,
                workers_quarantined: 24,
                cache_hits: 26,
                cache_misses: 28,
                cache_resumes: 30,
            }
        );
        // Merging into a default leaves an exact copy: nothing dropped.
        let mut zero = Stats::default();
        zero.merge(&all_nonzero());
        assert_eq!(zero, all_nonzero());
    }

    #[test]
    fn merge_adds_incident_counters() {
        let mut a = Stats { worker_retries: 1, ..Stats::default() };
        let b = Stats { worker_retries: 2, workers_quarantined: 1, ..Stats::default() };
        a.merge(&b);
        assert_eq!(a.worker_retries, 3);
        assert_eq!(a.workers_quarantined, 1);
    }

    #[test]
    fn record_to_exports_every_field() {
        use aggsky_obs::{Counter, TraceRecorder};
        let rec = TraceRecorder::new();
        all_nonzero().record_to(&rec);
        let snap = rec.snapshot();
        assert_eq!(snap.metrics.counter(Counter::GroupPairs), 1);
        assert_eq!(snap.metrics.counter(Counter::RecordPairs), 2);
        assert_eq!(snap.metrics.counter(Counter::BboxResolved), 3);
        assert_eq!(snap.metrics.counter(Counter::BboxSkippedPairs), 4);
        assert_eq!(snap.metrics.counter(Counter::EarlyStops), 5);
        assert_eq!(snap.metrics.counter(Counter::TransitiveSkips), 6);
        assert_eq!(snap.metrics.counter(Counter::IndexCandidates), 7);
        assert_eq!(snap.metrics.counter(Counter::BlocksFull), 8);
        assert_eq!(snap.metrics.counter(Counter::BlocksSkipped), 9);
        assert_eq!(snap.metrics.counter(Counter::RecordsCompared), 10);
        assert_eq!(snap.metrics.counter(Counter::WorkerRetries), 11);
        assert_eq!(snap.metrics.counter(Counter::WorkersQuarantined), 12);
        assert_eq!(snap.metrics.counter(Counter::CacheHits), 13);
        assert_eq!(snap.metrics.counter(Counter::CacheMisses), 14);
        assert_eq!(snap.metrics.counter(Counter::CacheResumes), 15);
    }
}
