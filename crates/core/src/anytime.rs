//! Anytime (budgeted, progressive, resumable) aggregate-skyline
//! computation — an extension beyond the paper in the spirit of the
//! authors' companion work on anytime record skylines.
//!
//! [`anytime_skyline`] spends at most a caller-supplied budget of ticks and
//! returns a three-way partition of the groups:
//! *confirmed in*, *confirmed out* (a γ-dominator was found), and
//! *undecided*. With an unlimited budget the result equals the exact
//! skyline; with a tiny budget the confirmed sets are small but never
//! wrong. Candidate dominators are pruned with the Algorithm 5 window query
//! and processed cheapest-pair-first (the Section 3.4 global optimization),
//! which front-loads decisions per unit of work.
//!
//! Every group pair is counted by one [`Kernel`] over a columnar
//! preparation ([`KernelConfig::columnar`], AVX2 when the CPU has it), the
//! kernel `AlgoOptions::exact` uses. A tick is therefore one record
//! comparison inside a straddling block pair; block pairs decided by their
//! corners are free. Verdicts are bit-identical to the paper's exhaustive
//! loop, so the partition, and with it the checkpoint, does not depend on
//! the kernel. The public entry points build the kernel per call; the
//! durable driver ([`crate::checkpoint_step_with`]) takes one from its
//! caller, so a statement re-issued over unchanged data prepares its input
//! once.
//!
//! An incomplete result carries an [`AnytimeCheckpoint`] — the open groups'
//! not-yet-compared candidate lists — so [`anytime_resume`] continues where
//! the budget ran out instead of restarting: repeated resumption with any
//! per-step budget converges to the same partition as one unlimited run.

use crate::algorithms::{end_prepare_span, kernel_boxes, PairDeltas, PairDists};
use crate::dataset::{GroupId, GroupedDataset};
use crate::error::{Error, Result};
use crate::gamma::Gamma;
use crate::kernel::{Kernel, KernelConfig};
use crate::paircount::PairOptions;
use crate::runctx::RunContext;
use crate::stats::Stats;
use aggsky_obs::Stamp;
use aggsky_spatial::{Aabb, RTree};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Outcome of a budgeted run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnytimeResult {
    /// Groups proven to be in the skyline (all candidate dominators
    /// refuted), ascending.
    pub confirmed_in: Vec<GroupId>,
    /// Groups proven dominated, ascending.
    pub confirmed_out: Vec<GroupId>,
    /// Groups whose status was still open when the budget ran out,
    /// ascending.
    pub undecided: Vec<GroupId>,
    /// Work counters (`record_pairs` is the budget, in ticks, actually
    /// spent by this call; resumed runs count from zero again).
    pub stats: Stats,
    /// Resume state: present iff the run left groups undecided *and* the
    /// producer supports resumption (the anytime engine does; interrupted
    /// one-shot algorithms hand back `None`, and [`anytime_resume`] then
    /// restarts from scratch).
    pub checkpoint: Option<AnytimeCheckpoint>,
}

impl AnytimeResult {
    /// True iff no group was left undecided.
    pub fn is_complete(&self) -> bool {
        self.undecided.is_empty()
    }
}

/// The resume state of an incomplete anytime run: for every still-open
/// group, the candidate dominators it has not yet been compared against.
/// Everything else (confirmed sets) lives in the carrying
/// [`AnytimeResult`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnytimeCheckpoint {
    /// `(group, remaining candidate dominators)` for each undecided group,
    /// ascending by group. The engine leaves each list in its visiting
    /// order, ascending by `(|s|, s)`; a list in any other order is sorted
    /// on resume.
    pub remaining: Vec<(GroupId, Vec<GroupId>)>,
}

/// Runs the aggregate skyline until done or until roughly
/// `budget_record_pairs` ticks have been spent (the budget is checked
/// between pairwise group comparisons, so it can overshoot by at most one
/// group-pair resolution).
pub fn anytime_skyline(
    ds: &GroupedDataset,
    gamma: Gamma,
    budget_record_pairs: u64,
) -> AnytimeResult {
    anytime_skyline_ctx(ds, gamma, &RunContext::with_budget(budget_record_pairs))
}

/// [`anytime_skyline`] under an execution-control context (honours both
/// the context's tick budget and its cancellation token).
pub fn anytime_skyline_ctx(ds: &GroupedDataset, gamma: Gamma, ctx: &RunContext) -> AnytimeResult {
    engine(&anytime_kernel(ds), gamma, ctx, None)
}

/// The kernel every anytime run counts with: columnar at the default block
/// size. That block size fits every dataset and a lane, so the exhaustive
/// fallback never runs; it keeps the entry points infallible.
pub(crate) fn anytime_kernel(ds: &GroupedDataset) -> Kernel<'_> {
    Kernel::new(ds, KernelConfig::columnar()).unwrap_or_else(|_| Kernel::exhaustive(ds))
}

/// Continues an earlier run from its checkpoint, spending at most `budget`
/// further ticks. A complete `prev` is returned unchanged; a
/// `prev` *without* a checkpoint (produced by an interrupted one-shot
/// algorithm) falls back to a fresh run. A `prev` whose checkpoint
/// mentions ids outside `ds` — the signature of resuming against the
/// wrong dataset, or of a corrupted frame read from disk — is refused
/// with a typed [`Error::CorruptCheckpoint`] instead of being silently
/// replayed or discarded.
pub fn anytime_resume(
    ds: &GroupedDataset,
    gamma: Gamma,
    budget: u64,
    prev: &AnytimeResult,
) -> Result<AnytimeResult> {
    anytime_resume_ctx(ds, gamma, &RunContext::with_budget(budget), prev)
}

/// [`anytime_resume`] under an execution-control context (honours the
/// context's tick budget, cancellation token and observability recorder).
pub fn anytime_resume_ctx(
    ds: &GroupedDataset,
    gamma: Gamma,
    ctx: &RunContext,
    prev: &AnytimeResult,
) -> Result<AnytimeResult> {
    if prev.is_complete() {
        return Ok(prev.clone());
    }
    anytime_resume_on(&anytime_kernel(ds), gamma, ctx, prev.clone())
}

/// [`anytime_skyline_ctx`] over a caller-built kernel.
pub(crate) fn anytime_skyline_on(
    kernel: &Kernel<'_>,
    gamma: Gamma,
    ctx: &RunContext,
) -> AnytimeResult {
    engine(kernel, gamma, ctx, None)
}

/// [`anytime_resume_ctx`] over a caller-built kernel, taking the earlier
/// partition by value so its candidate lists move into the engine.
pub(crate) fn anytime_resume_on(
    kernel: &Kernel<'_>,
    gamma: Gamma,
    ctx: &RunContext,
    prev: AnytimeResult,
) -> Result<AnytimeResult> {
    if prev.is_complete() {
        return Ok(prev);
    }
    match &prev.checkpoint {
        Some(cp) => {
            validate_checkpoint(&prev, cp, kernel.dataset().n_groups())?;
            Ok(engine(kernel, gamma, ctx, Some(prev)))
        }
        None => Ok(engine(kernel, gamma, ctx, None)),
    }
}

/// A checkpoint is only replayable when every id it mentions exists in the
/// dataset. Violations are typed errors naming the offending id, so a
/// corrupted or mismatched resume state can never be silently replayed.
fn validate_checkpoint(prev: &AnytimeResult, cp: &AnytimeCheckpoint, n: usize) -> Result<()> {
    let oob = |what: &str, g: GroupId| {
        Error::CorruptCheckpoint(format!(
            "{what} mentions group {g}, but the dataset has only {n} groups"
        ))
    };
    for &g in &prev.confirmed_out {
        if g >= n {
            return Err(oob("confirmed-out set", g));
        }
    }
    for (g, cands) in &cp.remaining {
        if *g >= n {
            return Err(oob("checkpoint remaining list", *g));
        }
        for &s in cands {
            if s >= n {
                return Err(oob("checkpoint candidate list", s));
            }
        }
    }
    Ok(())
}

/// One open group's candidate dominators, ascending by the rank of
/// `(|s|, s)`, so for a fixed group they come out in the engine's
/// `(|g|·|s|, s)` cost order.
#[derive(Default)]
struct Candidates {
    /// The candidates, ascending by rank; never reordered once sorted.
    list: Vec<GroupId>,
    /// Index in `list` of the next candidate to compare.
    next: usize,
    /// `done[j]`: the mirror comparison already settled `list[j]`. Empty
    /// until the first such strike.
    done: Vec<bool>,
}

impl Candidates {
    /// The next candidate still to compare, advancing past settled ones.
    fn peek(&mut self) -> Option<GroupId> {
        loop {
            let s = *self.list.get(self.next)?;
            if !self.done.get(self.next).copied().unwrap_or(false) {
                return Some(s);
            }
            self.next += 1;
        }
    }

    /// Marks `s` settled, finding it by binary search on its `rank`.
    fn strike(&mut self, s: GroupId, rank: impl Fn(&GroupId) -> usize) {
        let Ok(j) = self.list.binary_search_by_key(&rank(&s), &rank) else { return };
        if self.done.is_empty() {
            self.done = vec![false; self.list.len()];
        }
        if let Some(d) = self.done.get_mut(j) {
            *d = true;
        }
    }

    /// What is left to compare, in rank order.
    fn into_remaining(self) -> Vec<GroupId> {
        let Candidates { mut list, next, done } = self;
        let mut j = 0;
        list.retain(|_| {
            let keep = j >= next && !done.get(j).copied().unwrap_or(false);
            j += 1;
            keep
        });
        list
    }
}

/// The shared engine behind fresh and resumed runs. State is one candidate
/// list per group (dominators not yet compared against); a group is
/// confirmed in when its list drains, confirmed out when a comparison
/// finds a dominator.
///
/// Work is visited cheapest pair first, in the global `(|g|·|s|, g, s)`
/// order — the same deterministic order whether the run is fresh or
/// resumed, which is why chunked resumption converges to the one-shot
/// partition. A heap holds one entry per open group, its next candidate,
/// so a chunk touches only the pairs it reaches.
fn engine(
    kernel: &Kernel<'_>,
    gamma: Gamma,
    ctx: &RunContext,
    resume: Option<AnytimeResult>,
) -> AnytimeResult {
    let ds = kernel.dataset();
    let n = ds.n_groups();
    let engine_span = ctx.obs().map_or(0, |rec| rec.span_start("anytime", 0, Stamp::ZERO));
    let prep_span = ctx.obs().map_or(0, |rec| rec.span_start("prepare", 0, Stamp::ZERO));
    end_prepare_span(prep_span, kernel, ctx);
    let mut owned_boxes = None;
    let boxes = kernel_boxes(kernel, &mut owned_boxes);
    let mut stats = Stats::default();
    let mut dists = PairDists::new(ctx);

    // rank[s] orders groups by (|s|, s): for a fixed g it is the cost order.
    let mut by_size: Vec<GroupId> = ds.group_ids().collect();
    by_size.sort_unstable_by_key(|&g| (ds.group_len(g), g));
    let mut rank = vec![0usize; n];
    for (r, &g) in by_size.iter().enumerate() {
        if let Some(slot) = rank.get_mut(g) {
            *slot = r;
        }
    }
    let by_rank = |x: &GroupId| rank.get(*x).copied().unwrap_or(usize::MAX);

    let mut out = vec![false; n];
    let mut cands: Vec<Candidates> = std::iter::repeat_with(Candidates::default).take(n).collect();
    match resume {
        None => {
            let index_span =
                ctx.obs().map_or(0, |rec| rec.span_start("index_build", 0, Stamp::ZERO));
            let tree = RTree::bulk_load(
                ds.dim(),
                boxes.iter().enumerate().map(|(g, b)| (Aabb::point(&b.max), g)).collect(),
            );
            if let Some(rec) = ctx.obs() {
                rec.span_end(index_span, Stamp::ZERO, &[("entries", crate::num::wide(n))]);
            }
            for ((g, b), c) in boxes.iter().enumerate().zip(cands.iter_mut()) {
                let mut list = tree.window_query(&Aabb::at_least(&b.min));
                list.retain(|&s| s != g);
                stats.index_candidates += crate::num::wide(list.len());
                list.sort_unstable_by_key(by_rank);
                c.list = list;
            }
        }
        Some(prev) => {
            // Confirmed-out groups stay out (their dominators are real);
            // confirmed-in groups have no remaining candidates and are
            // re-derived as in; undecided groups resume their lists, which
            // a frame stores already in rank order.
            for g in prev.confirmed_out {
                if let Some(o) = out.get_mut(g) {
                    *o = true;
                }
            }
            for (g, mut list) in prev.checkpoint.map(|cp| cp.remaining).unwrap_or_default() {
                let sorted =
                    list.iter().zip(list.iter().skip(1)).all(|(a, b)| by_rank(a) < by_rank(b));
                if !sorted {
                    list.sort_unstable_by_key(by_rank);
                }
                if let Some(c) = cands.get_mut(g) {
                    *c = Candidates { list, ..Candidates::default() };
                }
            }
        }
    }

    let cost = |g: GroupId, s: GroupId| crate::num::pair_product(ds.group_len(g), ds.group_len(s));
    let mut heap: BinaryHeap<Reverse<(u64, GroupId, GroupId)>> = BinaryHeap::with_capacity(n);
    for (g, (c, &o)) in cands.iter_mut().zip(&out).enumerate() {
        if let (false, Some(s)) = (o, c.peek()) {
            heap.push(Reverse((cost(g, s), g, s)));
        }
    }

    let pair_opts = PairOptions { stop_rule: true, need_bar: false };
    while let Some(Reverse((_, g, s))) = heap.pop() {
        // A group confirmed out leaves the heap: its other candidates are
        // moot.
        if out.get(g).copied().unwrap_or(true) {
            continue;
        }
        let Some(c) = cands.get_mut(g) else { continue };
        // The mirror of an earlier comparison may have settled the entry's
        // candidate since it was pushed: requeue at the next one.
        match c.peek() {
            None => continue,
            Some(t) if t != s => {
                heap.push(Reverse((cost(g, t), g, t)));
                continue;
            }
            Some(_) => {}
        }
        if ctx.poll(stats.record_pairs).is_some() {
            break;
        }
        c.next += 1;
        let before = PairDeltas::before(&stats);
        let mut verdict =
            kernel.compare(s, g, gamma, boxes.get(s).zip(boxes.get(g)), pair_opts, &mut stats);
        ctx.corrupt_verdict(&mut verdict, stats.record_pairs);
        dists.observe(&before, &stats);
        let g_out = verdict.forward.dominates();
        if g_out {
            if let Some(o) = out.get_mut(g) {
                *o = true;
            }
        } else if let Some(t) = c.peek() {
            heap.push(Reverse((cost(g, t), g, t)));
        }
        // The comparison resolved BOTH directions, so the mirror item
        // (s, g) — pending whenever the boxes overlap both ways — is free
        // information: settle it in s's list so its record pairs are never
        // recounted, and apply the reverse domination if any.
        if let Some(cs) = cands.get_mut(s) {
            cs.strike(g, by_rank);
        }
        if verdict.backward.dominates() {
            if let Some(o) = out.get_mut(s) {
                *o = true;
            }
        }
    }

    let mut confirmed_in = Vec::new();
    let mut confirmed_out = Vec::new();
    let mut undecided = Vec::new();
    let mut remaining = Vec::new();
    for (g, (c, o)) in cands.into_iter().zip(out).enumerate() {
        if o {
            confirmed_out.push(g);
            continue;
        }
        let left = c.into_remaining();
        if left.is_empty() {
            confirmed_in.push(g);
        } else {
            undecided.push(g);
            remaining.push((g, left));
        }
    }
    let checkpoint = (!undecided.is_empty()).then_some(AnytimeCheckpoint { remaining });
    // The anytime engine bypasses `run_on`, so it dumps its own counters.
    if let Some(rec) = ctx.obs() {
        stats.record_to(rec);
        dists.record_to(rec);
        if checkpoint.is_some() {
            rec.event(
                "checkpoint",
                0,
                Stamp::tick(stats.record_pairs),
                &[("undecided", crate::num::wide(undecided.len()))],
            );
        }
        rec.span_end(
            engine_span,
            Stamp::tick(stats.record_pairs),
            &[
                ("confirmed_in", crate::num::wide(confirmed_in.len())),
                ("confirmed_out", crate::num::wide(confirmed_out.len())),
                ("undecided", crate::num::wide(undecided.len())),
                ("record_pairs", stats.record_pairs),
            ],
        );
    }
    AnytimeResult { confirmed_in, confirmed_out, undecided, stats, checkpoint }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::naive_skyline;
    use crate::testdata::{movie_directors, random_dataset};

    #[test]
    fn unlimited_budget_is_exact() {
        let ds = movie_directors();
        let r = anytime_skyline(&ds, Gamma::DEFAULT, u64::MAX);
        assert!(r.is_complete());
        assert!(r.checkpoint.is_none(), "complete run carries no checkpoint");
        let oracle = naive_skyline(&ds, Gamma::DEFAULT).skyline;
        assert_eq!(r.confirmed_in, oracle);
    }

    #[test]
    fn unlimited_budget_is_exact_on_random_data() {
        for seed in 0..15 {
            let ds = random_dataset(20, 6, 3, 7000 + seed);
            let r = anytime_skyline(&ds, Gamma::DEFAULT, u64::MAX);
            assert!(r.is_complete(), "seed {seed}");
            let oracle = naive_skyline(&ds, Gamma::DEFAULT).skyline;
            assert_eq!(r.confirmed_in, oracle, "seed {seed}");
        }
    }

    #[test]
    fn confirmed_sets_are_always_correct_at_any_budget() {
        for seed in 0..10 {
            let ds = random_dataset(15, 6, 3, 8000 + seed);
            let oracle = naive_skyline(&ds, Gamma::DEFAULT).skyline;
            for budget in [0u64, 10, 50, 200, 1000, 10_000] {
                let r = anytime_skyline(&ds, Gamma::DEFAULT, budget);
                for g in &r.confirmed_in {
                    assert!(oracle.contains(g), "budget {budget}: {g} wrongly confirmed in");
                }
                for g in &r.confirmed_out {
                    assert!(!oracle.contains(g), "budget {budget}: {g} wrongly confirmed out");
                }
                // Partition sanity.
                let total = r.confirmed_in.len() + r.confirmed_out.len() + r.undecided.len();
                assert_eq!(total, ds.n_groups());
                assert_eq!(r.checkpoint.is_some(), !r.is_complete());
            }
        }
    }

    #[test]
    fn more_budget_never_decides_less() {
        let ds = random_dataset(15, 6, 3, 9001);
        let mut prev = 0usize;
        for budget in [0u64, 100, 1_000, 10_000, u64::MAX] {
            let r = anytime_skyline(&ds, Gamma::DEFAULT, budget);
            let decided = r.confirmed_in.len() + r.confirmed_out.len();
            assert!(decided >= prev, "budget {budget} decided {decided} < {prev}");
            prev = decided;
        }
        assert_eq!(prev, ds.n_groups(), "full budget decides everything");
    }

    #[test]
    fn zero_budget_still_confirms_unchallenged_groups() {
        // Two distant clusters: the top cluster's groups have no candidate
        // dominators at all and are confirmed for free.
        let mut b = crate::dataset::GroupedDatasetBuilder::new(2);
        b.push_group("low", &[vec![0.0, 0.0]]).unwrap();
        b.push_group("high", &[vec![10.0, 10.0]]).unwrap();
        let ds = b.build().unwrap();
        let r = anytime_skyline(&ds, Gamma::DEFAULT, 0);
        assert!(r.confirmed_in.contains(&1), "unchallenged group confirmed");
        assert!(r.undecided.contains(&0), "challenged group undecided at zero budget");
    }

    /// `n_groups` groups of `dim`-dimensional records around random
    /// centres, all of `len` records (uniform) or of Zipf-like sizes
    /// `4·len/(g+1)`.
    fn sized_dataset(
        n_groups: usize,
        len: usize,
        dim: usize,
        zipf: bool,
        seed: u64,
    ) -> GroupedDataset {
        let mut next = crate::testdata::lcg(seed);
        let mut b = crate::dataset::GroupedDatasetBuilder::new(dim);
        for g in 0..n_groups {
            let size = if zipf { (4 * len / (g + 1)).max(1) } else { len };
            let centre: Vec<f64> = (0..dim).map(|_| next()).collect();
            let rows: Vec<Vec<f64>> =
                (0..size).map(|_| centre.iter().map(|c| c + 0.4 * next()).collect()).collect();
            b.push_group(format!("g{g}"), &rows).unwrap();
        }
        b.build().unwrap()
    }

    /// Runs `ds` in chunks of `budget` ticks to completion; returns the
    /// final partition, the chunks' merged `Stats` and the chunk count.
    /// With `reverse`, every checkpoint list is reversed before it resumes.
    fn chain(ds: &GroupedDataset, budget: u64, reverse: bool) -> (AnytimeResult, Stats, usize) {
        let mut r = anytime_skyline(ds, Gamma::DEFAULT, budget);
        let mut merged = r.stats;
        let mut chunks = 1;
        while !r.is_complete() {
            if let (true, Some(cp)) = (reverse, &mut r.checkpoint) {
                cp.remaining.iter_mut().for_each(|(_, cands)| cands.reverse());
            }
            r = anytime_resume(ds, Gamma::DEFAULT, budget, &r).unwrap();
            merged.merge(&r.stats);
            chunks += 1;
            assert!(chunks < 100_000, "resume loop did not converge (budget {budget})");
        }
        (r, merged, chunks)
    }

    #[test]
    fn chunked_resume_equals_one_unlimited_run() {
        let mut datasets: Vec<GroupedDataset> =
            (0..8).map(|seed| random_dataset(18, 6, 3, 9100 + seed)).collect();
        for zipf in [false, true] {
            for dim in 1..=4 {
                for seed in 0..2 {
                    datasets.push(sized_dataset(14, 6, dim, zipf, 9150 + 10 * dim as u64 + seed));
                }
            }
        }
        for (i, ds) in datasets.iter().enumerate() {
            let full = anytime_skyline(ds, Gamma::DEFAULT, u64::MAX);
            let total = full.stats.record_pairs;
            for budget in [1u64, 37, 500, total / 3 + 1] {
                let (r, merged, chunks) = chain(ds, budget, false);
                let at = format!("dataset {i} budget {budget} ({chunks} chunks)");
                assert_eq!(r.confirmed_in, full.confirmed_in, "{at}");
                assert_eq!(r.confirmed_out, full.confirmed_out, "{at}");
                // Every pair is counted exactly once across the chain, in
                // the unlimited run's order.
                assert_eq!(merged, full.stats, "{at}");
            }
            // A checkpoint list in any order resumes in the same order.
            assert_eq!(chain(ds, 37, true), chain(ds, 37, false), "dataset {i}, reversed lists");
        }
    }

    /// Unlimited-run `Stats` and chunk counts at 500 ticks per chunk,
    /// pinned so that a change in the visiting order fails even when the
    /// chunks still add up.
    #[test]
    fn seeded_runs_match_their_golden_stats_and_chunk_counts() {
        let golden =
            |group_pairs, record_pairs, bbox_resolved, early_stops, index_candidates| Stats {
                group_pairs,
                record_pairs,
                bbox_resolved,
                early_stops,
                index_candidates,
                records_compared: record_pairs,
                ..Stats::default()
            };
        let cases = [
            (
                sized_dataset(16, 24, 2, false, 9301),
                Stats { blocks_full: 3, blocks_skipped: 1, ..golden(35, 15_079, 0, 30, 159) },
                23,
            ),
            (sized_dataset(20, 12, 3, true, 9302), golden(45, 1_109, 2, 1, 129), 2),
            (random_dataset(24, 40, 4, 9303), golden(276, 94_484, 0, 216, 551), 144),
        ];
        for (i, (ds, stats, chunks)) in cases.iter().enumerate() {
            let full = anytime_skyline(ds, Gamma::DEFAULT, u64::MAX);
            assert_eq!(full.stats, *stats, "case {i}");
            assert_eq!(chain(ds, 500, false).2, *chunks, "case {i}");
        }
    }

    #[test]
    fn resume_monotonically_decides() {
        let ds = random_dataset(15, 8, 3, 9200);
        let mut r = anytime_skyline(&ds, Gamma::DEFAULT, 25);
        let mut decided = r.confirmed_in.len() + r.confirmed_out.len();
        let mut rounds = 0;
        while !r.is_complete() {
            let prev_in = r.confirmed_in.clone();
            let prev_out = r.confirmed_out.clone();
            r = anytime_resume(&ds, Gamma::DEFAULT, 25, &r).unwrap();
            // Decisions are never retracted across a resume.
            for g in &prev_in {
                assert!(r.confirmed_in.contains(g), "round {rounds}: {g} retracted from in");
            }
            for g in &prev_out {
                assert!(r.confirmed_out.contains(g), "round {rounds}: {g} retracted from out");
            }
            let now = r.confirmed_in.len() + r.confirmed_out.len();
            assert!(now >= decided);
            decided = now;
            rounds += 1;
            assert!(rounds < 100_000, "resume loop did not converge");
        }
    }

    #[test]
    fn resume_of_complete_result_is_identity() {
        let ds = movie_directors();
        let full = anytime_skyline(&ds, Gamma::DEFAULT, u64::MAX);
        let resumed = anytime_resume(&ds, Gamma::DEFAULT, 1, &full).unwrap();
        assert_eq!(resumed, full);
    }

    #[test]
    fn resume_without_checkpoint_restarts() {
        let ds = movie_directors();
        let mut r = anytime_skyline(&ds, Gamma::DEFAULT, 1);
        assert!(!r.is_complete(), "movie example should not resolve in one pair");
        r.checkpoint = None; // e.g. a partial handed back by an interrupted algorithm
        let resumed = anytime_resume(&ds, Gamma::DEFAULT, u64::MAX, &r).unwrap();
        assert!(resumed.is_complete());
        let oracle = naive_skyline(&ds, Gamma::DEFAULT).skyline;
        assert_eq!(resumed.confirmed_in, oracle);
    }

    #[test]
    fn out_of_range_checkpoint_ids_are_typed_errors() {
        use crate::error::Error;
        let ds = movie_directors();
        let base = anytime_skyline(&ds, Gamma::DEFAULT, 1);
        assert!(!base.is_complete());
        let n = ds.n_groups();
        // A candidate id beyond the dataset.
        let mut r = base.clone();
        if let Some(cp) = &mut r.checkpoint {
            if let Some((_, cands)) = cp.remaining.first_mut() {
                cands.push(n + 3);
            }
        }
        let err = anytime_resume(&ds, Gamma::DEFAULT, u64::MAX, &r).unwrap_err();
        assert!(matches!(err, Error::CorruptCheckpoint(_)), "{err}");
        // An undecided group id beyond the dataset.
        let mut r = base.clone();
        if let Some(cp) = &mut r.checkpoint {
            cp.remaining.push((n, vec![0]));
        }
        let err = anytime_resume(&ds, Gamma::DEFAULT, u64::MAX, &r).unwrap_err();
        assert!(matches!(err, Error::CorruptCheckpoint(_)), "{err}");
        // A confirmed-out id beyond the dataset.
        let mut r = base.clone();
        r.confirmed_out.push(n + 1);
        let err = anytime_resume(&ds, Gamma::DEFAULT, u64::MAX, &r).unwrap_err();
        assert!(matches!(err, Error::CorruptCheckpoint(_)), "{err}");
        // The untampered checkpoint still resumes fine.
        assert!(anytime_resume(&ds, Gamma::DEFAULT, u64::MAX, &base).is_ok());
    }

    #[test]
    fn ctx_cancellation_stops_the_run() {
        let ds = random_dataset(15, 6, 3, 9300);
        let ctx = RunContext::unlimited();
        ctx.cancel_token().cancel();
        let r = anytime_skyline_ctx(&ds, Gamma::DEFAULT, &ctx);
        assert_eq!(r.stats.record_pairs, 0, "cancelled run spent work");
        // Unchallenged groups are still confirmed for free.
        let total = r.confirmed_in.len() + r.confirmed_out.len() + r.undecided.len();
        assert_eq!(total, ds.n_groups());
    }
}
