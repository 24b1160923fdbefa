//! Parallel aggregate skyline (an extension beyond the paper).
//!
//! Membership of each group is independent of the others' membership:
//! `R ∈ Sky_γ ⟺ ∄S: S ≻_γ R`. That makes a per-group "find my dominator"
//! scan embarrassingly parallel, at the cost of giving up cross-pair
//! sharing (each ordered pair may be examined once instead of each
//! unordered pair). Candidate dominators are still pruned with the same
//! spatial window as Algorithm 5, and each candidate comparison uses the
//! stopping rule in one-directional mode.
//!
//! Work is distributed at *pair granularity*: the stealable unit is one
//! bounded batch of block pairs of one candidate→group comparison
//! ([`Kernel::compare_bounded`], at most [`BLOCK_PAIRS_PER_JOB`] block
//! pairs), not a whole group or chunk of groups. The orchestrator flattens
//! every group's window candidates into one pair array; workers claim
//! fresh pairs from an atomic cursor and drain a shared continuation queue
//! of batches that hit their block-pair limit. Because the counting tally
//! plus the deterministic block cursor fully describe the remaining work,
//! *any* worker can resume a continuation — one giant group pair can no
//! longer strand a worker the way group-granular chunks could. Groups
//! whose dominator is already known are finished without counting (the
//! per-group dominated flag), preserving the sequential early-exit.
//!
//! ## Fault containment
//!
//! A panicking worker no longer aborts the query. Each batch runs inside
//! `catch_unwind`; on a panic its partial `Stats` die with it (charges are
//! committed only after a successful batch, so retries never double-charge
//! the budget), the pair goes back on the shared queue (recorded in
//! `Stats::worker_retries`) and, when other workers survive, the panicked
//! worker is *quarantined* — it stops taking work
//! (`Stats::workers_quarantined`) while the survivors drain the queue. The
//! worker's shard-local [`PairCache`] may have been abandoned mid-update
//! and is dropped rather than trusted; the requeued job's resume tally is
//! a value captured before the batch and stays sound. Backoff is
//! deterministic queue reordering plus `yield_now`, never wall-clock sleep
//! (rule L5). Only when the same pair panics [`MAX_PAIR_ATTEMPTS`] times
//! does the query fail, with the typed [`Error::WorkerPanicked`] instead
//! of a propagated panic.

use super::{PairDeltas, PairDists, SkylineResult, Status};
use crate::anytime::AnytimeResult;
use crate::dataset::{GroupId, GroupedDataset};
use crate::error::{Error, Result};
use crate::gamma::Gamma;
use crate::kernel::{BoundedCompare, Kernel, KernelConfig};
use crate::paircache::{CachedTally, PairCache};
use crate::paircount::PairOptions;
use crate::runctx::{InterruptReason, Outcome, RunContext};
use crate::stats::Stats;
use aggsky_obs::{Hist, Stamp};
use aggsky_spatial::{Aabb, RTree};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};

/// How many times one pair may panic before the query gives up with
/// [`Error::WorkerPanicked`]. Transient faults (like an injected chaos
/// panic, which fires once) succeed on the first retry; a deterministic
/// panic in the counting kernel would loop forever without this cap.
const MAX_PAIR_ATTEMPTS: u32 = 3;

/// Block pairs one stolen batch may execute before it must yield a
/// resumable continuation. Bounds the time any single steal can hold a
/// worker (load balance under skew) while keeping scheduler traffic — one
/// queue operation per batch — negligible next to the counting the batch
/// performs. Pairs smaller than this finish in their first batch, so the
/// common case costs exactly one steal, like the old chunk scheduler.
const BLOCK_PAIRS_PER_JOB: u64 = 1024;

/// Resolves a requested thread count: `0` means "use all available
/// hardware parallelism" (falling back to 1 when it cannot be queried).
pub fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    } else {
        threads
    }
}

/// Computes the aggregate skyline with `threads` worker threads
/// (`threads = 0` uses [`resolve_threads`]) that steal bounded block-pair
/// batches of single candidate→group comparisons (see the module docs).
///
/// Always returns the exact skyline (it is a parallelization of the naive
/// definition with index-based candidate pruning, not of the heuristic
/// Algorithm 3). `threads = 1` degenerates to a sequential scan and is
/// useful for ablation. Fails only when a pair exhausts its panic retries
/// (see the module docs).
pub fn parallel_skyline(
    ds: &GroupedDataset,
    gamma: Gamma,
    threads: usize,
) -> Result<SkylineResult> {
    parallel_skyline_with(ds, gamma, threads, KernelConfig::Exhaustive)
}

/// [`parallel_skyline`] with an explicit counting kernel; the preparation
/// (when the kernel is prepared) is built once and shared by all workers.
pub fn parallel_skyline_with(
    ds: &GroupedDataset,
    gamma: Gamma,
    threads: usize,
    config: KernelConfig,
) -> Result<SkylineResult> {
    // An unlimited fault-free context never interrupts, so unwrapping to
    // the complete result is lossless here.
    Ok(parallel_skyline_ctx(ds, gamma, threads, config, &RunContext::unlimited())?
        .unwrap_or_partial())
}

/// [`parallel_skyline`] under an execution-control context. The budget is
/// a *global* virtual clock shared by all workers (each worker charges its
/// finished group's record pairs to it), polled at group boundaries; on
/// exhaustion or cancellation the groups already resolved become the
/// confirmed sets and in-flight ones stay undecided.
pub fn parallel_skyline_ctx(
    ds: &GroupedDataset,
    gamma: Gamma,
    threads: usize,
    config: KernelConfig,
    ctx: &RunContext,
) -> Result<Outcome> {
    let kernel = Kernel::new(ds, config)?;
    run_stealing(&kernel, gamma, resolve_threads(threads), ctx)
}

/// Locks a mutex, recovering from poisoning (a worker panicking while
/// holding the lock leaves the data intact for our usage: every critical
/// section is a single push/pop/assignment).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Trace track for worker `wid` (track 0 is the orchestrating thread).
fn track_of(wid: usize) -> u32 {
    u32::try_from(wid.saturating_add(1)).unwrap_or(u32::MAX)
}

/// One stealable unit of parallel work: one bounded batch of block pairs
/// of one ordered candidate→group comparison, plus its panic-retry count.
struct PairJob {
    /// Index into the scheduler's flattened `(group, candidate)` array.
    idx: usize,
    /// Canonical counting state carried over from this pair's previous
    /// batch (`None` for the pair's first batch).
    resume: Option<CachedTally>,
    /// How many times a worker has panicked inside this pair.
    attempts: u32,
}

/// State shared by the pair-granular scheduler's workers.
struct SharedState {
    /// Next fresh pair index to hand out.
    next: AtomicUsize,
    /// Continuations and panic retries, drained before fresh work.
    queue: Mutex<VecDeque<PairJob>>,
    /// Per-group "a dominator was found" flag: set once, never cleared, and
    /// read by every worker to skip the group's remaining pairs.
    dominated: Vec<AtomicBool>,
    /// Per-group count of unfinished candidate pairs. The worker whose
    /// batch brings a group to zero records the group's status.
    remaining: Vec<AtomicUsize>,
    /// Groups fully resolved so far (drives termination).
    done: AtomicUsize,
    /// Global virtual clock: record pairs committed by successful batches.
    spent: AtomicU64,
    /// Workers still taking work; quarantine decrements, keeping ≥ 1.
    active: AtomicUsize,
    /// First interruption reason (0 = none, 1 = cancelled, 2 = budget).
    interrupt: AtomicU8,
    /// Fatal error once a pair exhausts its retries.
    fatal: Mutex<Option<Error>>,
    /// Incident counters folded into the final `Stats`.
    retries: AtomicU64,
    quarantined: AtomicU64,
}

impl SharedState {
    fn new(workers: usize, remaining: Vec<AtomicUsize>, resolved_upfront: usize) -> Self {
        let n = remaining.len();
        SharedState {
            next: AtomicUsize::new(0),
            queue: Mutex::new(VecDeque::new()),
            dominated: (0..n).map(|_| AtomicBool::new(false)).collect(),
            remaining,
            done: AtomicUsize::new(resolved_upfront),
            spent: AtomicU64::new(0),
            active: AtomicUsize::new(workers.max(1)),
            interrupt: AtomicU8::new(0),
            fatal: Mutex::new(None),
            retries: AtomicU64::new(0),
            quarantined: AtomicU64::new(0),
        }
    }

    /// Records the first interruption reason (later ones are ignored).
    fn flag_interrupt(&self, reason: InterruptReason) {
        let code = match reason {
            InterruptReason::Cancelled => 1,
            InterruptReason::BudgetExhausted => 2,
        };
        let _ = self.interrupt.compare_exchange(0, code, Ordering::AcqRel, Ordering::Relaxed);
    }

    fn interrupt_reason(&self) -> Option<InterruptReason> {
        match self.interrupt.load(Ordering::Acquire) {
            1 => Some(InterruptReason::Cancelled),
            2 => Some(InterruptReason::BudgetExhausted),
            _ => None,
        }
    }

    fn should_stop(&self) -> bool {
        self.interrupt.load(Ordering::Acquire) != 0 || lock(&self.fatal).is_some()
    }

    /// Pops a job: queued continuations and retries first (they hold
    /// partially counted pairs whose completion unblocks groups), then a
    /// fresh pair from the atomic cursor.
    fn pop_job(&self, n_pairs: usize) -> Option<PairJob> {
        if let Some(job) = lock(&self.queue).pop_front() {
            return Some(job);
        }
        if self.next.load(Ordering::Relaxed) < n_pairs {
            let idx = self.next.fetch_add(1, Ordering::Relaxed);
            if idx < n_pairs {
                return Some(PairJob { idx, resume: None, attempts: 0 });
            }
        }
        None
    }

    /// Marks one candidate pair of `g` finished. The caller that brings the
    /// group's remaining count to zero records its status (the dominated
    /// flag was published before the final `fetch_sub`'s release, so the
    /// acquiring reader here cannot miss it) and advances `done`.
    fn finish_pair(&self, g: GroupId, part: &mut Vec<(GroupId, Status)>) {
        if self.remaining[g].fetch_sub(1, Ordering::AcqRel) == 1 {
            let status = if self.dominated[g].load(Ordering::Acquire) {
                Status::Dominated
            } else {
                Status::Live
            };
            part.push((g, status));
            self.done.fetch_add(1, Ordering::AcqRel);
        }
    }

    /// The scheduler's virtual clock as a tick stamp (record pairs charged
    /// by committed batches so far). Monotone but coarse: in-flight batches
    /// have not charged yet.
    fn tick_now(&self) -> Stamp {
        Stamp::tick(self.spent.load(Ordering::Relaxed))
    }

    /// Tries to take this worker out of rotation after a panic; refuses
    /// when it is the last active one (somebody must drain the queue).
    fn try_quarantine(&self) -> bool {
        let mut current = self.active.load(Ordering::Acquire);
        loop {
            if current <= 1 {
                return false;
            }
            match self.active.compare_exchange(
                current,
                current - 1,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return true,
                Err(observed) => current = observed,
            }
        }
    }
}

fn run_stealing(
    kernel: &Kernel<'_>,
    gamma: Gamma,
    threads: usize,
    ctx: &RunContext,
) -> Result<Outcome> {
    let threads = threads.max(1);
    let n = kernel.n_groups();
    let parallel_span = ctx.obs().map_or(0, |rec| rec.span_start("parallel", 0, Stamp::ZERO));
    let mut owned_boxes = None;
    let boxes = kernel.boxes(&mut owned_boxes);
    let index_span = ctx.obs().map_or(0, |rec| rec.span_start("index_build", 0, Stamp::ZERO));
    let tree = RTree::bulk_load(
        kernel.dim(),
        boxes.iter().enumerate().map(|(g, b)| (Aabb::point(&b.max), g)).collect(),
    );
    if let Some(rec) = ctx.obs() {
        rec.span_end(index_span, Stamp::ZERO, &[("entries", crate::num::wide(n))]);
    }
    let pair_opts = PairOptions { stop_rule: true, need_bar: false };

    // Flatten every group's candidate dominators into one group-major pair
    // array up front. The window queries are cheap relative to the counting
    // they feed, and a materialized array is what lets the atomic cursor
    // hand out single pairs. Groups with no candidate are members by
    // definition and resolve here.
    let mut setup_stats = Stats::default();
    let mut pairs: Vec<(GroupId, GroupId)> = Vec::new();
    let mut remaining: Vec<AtomicUsize> = Vec::with_capacity(n);
    let mut upfront: Vec<(GroupId, Status)> = Vec::new();
    {
        let mut candidates: Vec<GroupId> = Vec::new();
        for (g, gbox) in boxes.iter().enumerate() {
            tree.window_query_into(&Aabb::at_least(&gbox.min), &mut candidates);
            setup_stats.index_candidates += crate::num::wide(candidates.len().saturating_sub(1));
            let before = pairs.len();
            pairs.extend(candidates.iter().copied().filter(|&c| c != g).map(|c| (g, c)));
            remaining.push(AtomicUsize::new(pairs.len() - before));
            if pairs.len() == before {
                upfront.push((g, Status::Live));
            }
        }
    }
    let pairs = pairs.as_slice();

    let workers = threads.min(n).max(1);
    let shared = SharedState::new(workers, remaining, upfront.len());

    let worker = |wid: usize| -> (Vec<(GroupId, Status)>, Stats) {
        let track = track_of(wid);
        let worker_span =
            ctx.obs().map_or(0, |rec| rec.span_start("worker", track, shared.tick_now()));
        let mut stats = Stats::default();
        // Shard-local pair-count memo: workers never share cache state, so
        // they never serialize on it (duplicate counting across workers is
        // the accepted cost). Only useful when a preparation exists — the
        // cache resumes at the prepared kernel's block cursor.
        let mut pair_cache = kernel.prepared().map(|_| PairCache::new());
        let mut part: Vec<(GroupId, Status)> = Vec::new();
        let mut batches = 0u64;
        let mut dists = PairDists::new(ctx);
        'outer: loop {
            if shared.should_stop() {
                break;
            }
            let Some(mut job) = shared.pop_job(pairs.len()) else {
                if shared.done.load(Ordering::Acquire) >= n {
                    break;
                }
                // Another worker still holds unfinished pairs (and may yet
                // requeue them after a panic): spin cooperatively. No
                // wall-clock sleep — backoff must stay deterministic (L5).
                std::thread::yield_now();
                continue;
            };
            let (g, cand) = pairs[job.idx];
            // A dominator of `g` is already known: this pair's verdict
            // cannot change membership, so finish it without counting (the
            // sequential scan's early exit, cooperatively).
            if shared.dominated[g].load(Ordering::Acquire) {
                shared.finish_pair(g, &mut part);
                continue;
            }
            let attempt = catch_unwind(AssertUnwindSafe(|| {
                // The poll is inside the unwind guard: an injected
                // chaos panic fires from here.
                if let Some(reason) = ctx.poll(shared.spent.load(Ordering::Relaxed)) {
                    return Err(reason);
                }
                let mut local = Stats::default();
                let out = kernel.compare_bounded(
                    cand,
                    g,
                    gamma,
                    Some((&boxes[cand], &boxes[g])),
                    pair_opts,
                    job.resume,
                    BLOCK_PAIRS_PER_JOB,
                    pair_cache.as_mut(),
                    &mut local,
                );
                Ok((out, local))
            }));
            match attempt {
                Ok(Ok((out, local))) => {
                    // Commit-after-success: a panicked batch's charges die
                    // with its discarded `local`, so retries never
                    // double-charge the budget.
                    shared.spent.fetch_add(local.record_pairs, Ordering::Relaxed);
                    batches += 1;
                    if ctx.obs().is_some() {
                        let before_cursor = job.resume.map_or(0, |t| t.cursor);
                        let after_cursor = match &out {
                            BoundedCompare::Pending(t) => Some(t.cursor),
                            // A cache hit served the verdict without
                            // running blocks; its cursor is not this
                            // batch's work.
                            BoundedCompare::Decided { tally: Some(t), .. }
                                if local.cache_hits == 0 =>
                            {
                                Some(t.cursor)
                            }
                            BoundedCompare::Decided { .. } => None,
                        };
                        if let Some(after) = after_cursor {
                            let block_pairs = after.saturating_sub(before_cursor);
                            dists.observe_value(Hist::BatchBlockPairs, block_pairs);
                        }
                        dists.observe(&PairDeltas::before(&Stats::default()), &local);
                    }
                    stats.merge(&local);
                    match out {
                        BoundedCompare::Decided { mut verdict, .. } => {
                            ctx.corrupt_verdict(&mut verdict, local.record_pairs);
                            if verdict.forward.dominates() {
                                shared.dominated[g].store(true, Ordering::Release);
                            }
                            shared.finish_pair(g, &mut part);
                        }
                        BoundedCompare::Pending(tally) => {
                            lock(&shared.queue).push_back(PairJob {
                                idx: job.idx,
                                resume: Some(tally),
                                attempts: job.attempts,
                            });
                        }
                    }
                }
                Ok(Err(reason)) => {
                    shared.flag_interrupt(reason);
                    break 'outer;
                }
                Err(_panic) => {
                    // The worker's cache may have been abandoned mid-update;
                    // drop it rather than trust it. The job's resume tally
                    // is a value captured before the batch and stays sound.
                    pair_cache = kernel.prepared().map(|_| PairCache::new());
                    shared.retries.fetch_add(1, Ordering::Relaxed);
                    if let Some(rec) = ctx.obs() {
                        rec.event(
                            "retry",
                            track,
                            shared.tick_now(),
                            &[
                                ("group", crate::num::wide(g)),
                                ("pair", crate::num::wide(job.idx)),
                                ("attempt", u64::from(job.attempts)),
                            ],
                        );
                        rec.dump("worker_retry");
                    }
                    job.attempts += 1;
                    if job.attempts >= MAX_PAIR_ATTEMPTS {
                        let mut fatal = lock(&shared.fatal);
                        if fatal.is_none() {
                            *fatal = Some(Error::WorkerPanicked { worker: wid, chunk: job.idx });
                        }
                        break 'outer;
                    }
                    lock(&shared.queue).push_back(job);
                    if shared.try_quarantine() {
                        shared.quarantined.fetch_add(1, Ordering::Relaxed);
                        if let Some(rec) = ctx.obs() {
                            rec.event("quarantine", track, shared.tick_now(), &[]);
                            rec.dump("worker_quarantine");
                        }
                        break 'outer;
                    }
                    // Last active worker: keep going and self-retry.
                    continue 'outer;
                }
            }
        }
        if let Some(rec) = ctx.obs() {
            dists.record_to(rec);
            rec.span_end(
                worker_span,
                shared.tick_now(),
                &[("batches", batches), ("record_pairs", stats.record_pairs)],
            );
        }
        (part, stats)
    };

    let mut parts: Vec<(Vec<(GroupId, Status)>, Stats)> = Vec::with_capacity(workers);
    if workers == 1 {
        parts.push(worker(0));
    } else {
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(workers);
            for wid in 0..workers {
                let worker = &worker;
                handles.push(scope.spawn(move || worker(wid)));
            }
            for (wid, handle) in handles.into_iter().enumerate() {
                match handle.join() {
                    Ok(part) => parts.push(part),
                    Err(_panic) => {
                        // A panic outside the per-group unwind guard (all
                        // interesting panics are inside it); treat as fatal
                        // rather than re-raising.
                        let mut fatal = lock(&shared.fatal);
                        if fatal.is_none() {
                            *fatal = Some(Error::WorkerPanicked { worker: wid, chunk: n });
                        }
                    }
                }
            }
        });
    }

    if let Some(err) = lock(&shared.fatal).take() {
        return Err(err);
    }

    let mut stats = setup_stats;
    let mut statuses: Vec<Option<Status>> = vec![None; n];
    for (g, status) in upfront {
        statuses[g] = Some(status);
    }
    for (part, part_stats) in parts {
        stats.merge(&part_stats);
        for (g, status) in part {
            statuses[g] = Some(status);
        }
    }
    stats.worker_retries += shared.retries.load(Ordering::Acquire);
    stats.workers_quarantined += shared.quarantined.load(Ordering::Acquire);

    // Parallel runs bypass `run_on`, so this is their (single) stats dump;
    // together with the one in `run_on` it keeps trace counters equal to
    // the `Stats` of the corresponding plain run.
    if let Some(rec) = ctx.obs() {
        stats.record_to(rec);
        rec.span_end(
            parallel_span,
            Stamp::tick(stats.record_pairs),
            &[
                ("workers", crate::num::wide(workers)),
                ("group_pairs", stats.group_pairs),
                ("record_pairs", stats.record_pairs),
            ],
        );
    }

    let reason = shared.interrupt_reason();
    let missing = statuses.iter().any(Option::is_none);
    if reason.is_none() && !missing {
        let skyline = statuses
            .iter()
            .enumerate()
            .filter(|(_, s)| **s == Some(Status::Live))
            .map(|(g, _)| g)
            .collect();
        return Ok(Outcome::Complete(SkylineResult { skyline, stats }));
    }
    // Interrupted (or, defensively, groups went missing without a recorded
    // reason — impossible by the loop's termination conditions, but mapped
    // to a cancellation rather than a wrong Complete). A Live status means
    // *all* of the group's candidate pairs finished without a dominator, so
    // it is a proven member; a set dominated flag is a real dominator even
    // when the group's other pairs never ran; everything else stays
    // undecided.
    let reason = reason.unwrap_or(InterruptReason::Cancelled);
    let mut confirmed_in = Vec::new();
    let mut confirmed_out = Vec::new();
    let mut undecided = Vec::new();
    for (g, status) in statuses.iter().enumerate() {
        match status {
            Some(Status::Live) => confirmed_in.push(g),
            Some(_) => confirmed_out.push(g),
            None if shared.dominated[g].load(Ordering::Acquire) => confirmed_out.push(g),
            None => undecided.push(g),
        }
    }
    Ok(Outcome::Interrupted {
        reason,
        partial: AnytimeResult { confirmed_in, confirmed_out, undecided, stats, checkpoint: None },
    })
}

#[cfg(test)]
mod tests {
    use super::super::naive::naive_skyline;
    use super::*;
    use crate::testdata::{movie_directors, random_dataset};

    #[test]
    fn parallel_matches_oracle_on_movies() {
        let ds = movie_directors();
        for threads in [1, 2, 4] {
            let result = parallel_skyline(&ds, Gamma::DEFAULT, threads).unwrap();
            let oracle = naive_skyline(&ds, Gamma::DEFAULT);
            assert_eq!(result.skyline, oracle.skyline, "threads={threads}");
        }
    }

    #[test]
    fn parallel_matches_oracle_on_random_data() {
        for seed in 0..10 {
            let ds = random_dataset(25, 6, 4, 4000 + seed);
            for gamma in [0.5, 0.9] {
                let gamma = Gamma::new(gamma).unwrap();
                let result = parallel_skyline(&ds, gamma, 4).unwrap();
                let oracle = naive_skyline(&ds, gamma);
                assert_eq!(result.skyline, oracle.skyline, "seed={seed}");
            }
        }
    }

    #[test]
    fn columnar_kernel_matches_oracle_in_parallel() {
        for seed in 0..5 {
            let ds = random_dataset(20, 10, 3, 8100 + seed);
            let result =
                parallel_skyline_with(&ds, Gamma::DEFAULT, 4, KernelConfig::columnar()).unwrap();
            let oracle = naive_skyline(&ds, Gamma::DEFAULT);
            assert_eq!(result.skyline, oracle.skyline, "seed={seed}");
        }
    }

    #[test]
    fn zero_threads_resolves_to_available_parallelism() {
        assert!(resolve_threads(0) >= 1);
        assert_eq!(resolve_threads(3), 3);
        let ds = movie_directors();
        let result = parallel_skyline(&ds, Gamma::DEFAULT, 0).unwrap();
        let oracle = naive_skyline(&ds, Gamma::DEFAULT);
        assert_eq!(result.skyline, oracle.skyline);
    }

    #[test]
    fn more_threads_than_groups_is_fine() {
        let ds = random_dataset(3, 4, 2, 7);
        let result = parallel_skyline(&ds, Gamma::DEFAULT, 16).unwrap();
        let oracle = naive_skyline(&ds, Gamma::DEFAULT);
        assert_eq!(result.skyline, oracle.skyline);
    }

    #[test]
    fn budget_exhaustion_returns_sound_partial() {
        for threads in [1, 3] {
            let ds = random_dataset(25, 8, 3, 4100);
            let oracle = naive_skyline(&ds, Gamma::DEFAULT).skyline;
            let ctx = RunContext::with_budget(40);
            let outcome =
                parallel_skyline_ctx(&ds, Gamma::DEFAULT, threads, KernelConfig::Exhaustive, &ctx)
                    .unwrap();
            let Outcome::Interrupted { reason, partial } = outcome else {
                panic!("tiny budget completed");
            };
            assert_eq!(reason, InterruptReason::BudgetExhausted);
            for g in &partial.confirmed_in {
                assert!(oracle.contains(g), "threads={threads}: {g} wrongly confirmed in");
            }
            for g in &partial.confirmed_out {
                assert!(!oracle.contains(g), "threads={threads}: {g} wrongly confirmed out");
            }
            let total =
                partial.confirmed_in.len() + partial.confirmed_out.len() + partial.undecided.len();
            assert_eq!(total, ds.n_groups());
        }
    }

    #[test]
    fn cancellation_interrupts_the_run() {
        let ds = random_dataset(20, 6, 3, 4200);
        let ctx = RunContext::unlimited();
        ctx.cancel_token().cancel();
        let outcome =
            parallel_skyline_ctx(&ds, Gamma::DEFAULT, 2, KernelConfig::Exhaustive, &ctx).unwrap();
        assert_eq!(outcome.interrupt_reason(), Some(InterruptReason::Cancelled));
    }

    #[test]
    fn unlimited_ctx_outcome_is_complete_and_exact() {
        let ds = random_dataset(15, 5, 3, 4300);
        let outcome = parallel_skyline_ctx(
            &ds,
            Gamma::DEFAULT,
            4,
            KernelConfig::columnar(),
            &RunContext::unlimited(),
        )
        .unwrap();
        assert!(outcome.is_complete());
        let oracle = naive_skyline(&ds, Gamma::DEFAULT);
        assert_eq!(outcome.unwrap_or_partial().skyline, oracle.skyline);
    }
}
