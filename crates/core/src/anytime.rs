//! Anytime (budgeted, progressive, resumable) aggregate-skyline
//! computation — an extension beyond the paper in the spirit of the
//! authors' companion work on anytime record skylines.
//!
//! [`anytime_skyline`] spends at most a caller-supplied budget of ticks and
//! returns a three-way partition of the groups:
//! *confirmed in*, *confirmed out* (a γ-dominator was found), and
//! *undecided*. With an unlimited budget the result equals the exact
//! skyline; with a tiny budget the confirmed sets are small but never
//! wrong. It computes every SQL aggregate skyline, plain and durable.
//!
//! Every run visits the groups in one order: ascending size (the Section
//! 3.4 global optimization, cheap pairs first), then descending min-corner
//! coordinate sum (Algorithm 4's sorted access, likely dominators first),
//! then id. Each open group keeps a cursor into that order and draws its
//! candidate dominators lazily: the cursor stops only at groups whose max
//! corner lies in the group's Algorithm 5 window (`s.max ≥ g.min` in every
//! dimension), tested in O(d) over one flat array of max corners. A heap
//! holds one entry per open group, keyed by the cost `|g|·|s|` of its next
//! pair, so the run compares cheapest pair first and touches only the
//! pairs it reaches.
//!
//! Every group pair is counted by one [`Kernel`] over a columnar
//! preparation ([`KernelConfig::columnar`], AVX2 when the CPU has it), the
//! kernel `AlgoOptions::exact` uses. A tick is therefore one record
//! comparison inside a straddling block pair; block pairs decided by their
//! corners are free. Verdicts are bit-identical to the paper's exhaustive
//! loop, so the partition, and with it the checkpoint, does not depend on
//! the kernel. The public entry points build the kernel per call;
//! [`anytime_skyline_with`] and [`crate::checkpoint_step_with`] take one
//! from their caller, so a statement run again over unchanged data
//! prepares its input once.
//!
//! An incomplete result carries an [`AnytimeCheckpoint`] — each open
//! group's cursor and the positions ahead of it that a mirror comparison
//! already settled — so [`anytime_resume`] continues where the budget ran
//! out instead of restarting: repeated resumption with any per-step budget
//! converges to the same partition and the same `Stats` as one unlimited
//! run.

use crate::algorithms::{end_prepare_span, PairDeltas, PairDists};
use crate::dataset::{GroupId, GroupedDataset};
use crate::error::{Error, Result};
use crate::gamma::Gamma;
use crate::kernel::{Kernel, KernelConfig};
use crate::mbb::Mbb;
use crate::paircount::PairOptions;
use crate::runctx::{InterruptReason, RunContext};
use crate::stats::Stats;
use aggsky_obs::Stamp;
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

    /// Why a run under `ctx` stopped short of this partition's completion:
    /// `None` when it is complete, else cancellation when `ctx` was
    /// cancelled and the tick budget otherwise.
    pub fn interrupt(&self, ctx: &RunContext) -> Option<InterruptReason> {
        if self.is_complete() {
            None
        } else if ctx.cancel_token().is_cancelled() {
            Some(InterruptReason::Cancelled)
        } else {
            Some(InterruptReason::BudgetExhausted)
        }
    }
}

/// The resume state of an incomplete anytime run: where each still-open
/// group's cursor stands in the run's visiting order. Everything else
/// (confirmed sets) lives in the carrying [`AnytimeResult`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnytimeCheckpoint {
    /// One cursor per undecided group, ascending by group.
    pub open: Vec<GroupCursor>,
}

/// One undecided group's place in the visiting order. Positions index the
/// order the engine derives from the dataset (sizes and min corners), so a
/// cursor is only meaningful against the dataset it was taken on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupCursor {
    /// The group.
    pub group: GroupId,
    /// Position of the group's next candidate dominator.
    pub cursor: usize,
    /// Positions above `cursor` whose pair with this group the mirror
    /// comparison already counted, ascending.
    pub settled: Vec<usize>,
}

impl AnytimeCheckpoint {
    /// Checks the checkpoint against a dataset of `n` groups: groups
    /// strictly ascending and below `n`, each cursor below `n`, and each
    /// settled list strictly ascending, above its cursor and below `n`.
    /// Violations are typed [`Error::CorruptCheckpoint`]s, so a corrupted
    /// or mismatched resume state can never be silently replayed.
    pub(crate) fn validate(&self, n: usize) -> Result<()> {
        let corrupt = |msg: String| Err(Error::CorruptCheckpoint(msg));
        let mut prev_group = None;
        for c in &self.open {
            if c.group >= n {
                return corrupt(format!(
                    "checkpoint mentions group {}, but the dataset has only {n} groups",
                    c.group
                ));
            }
            if prev_group.is_some_and(|p| c.group <= p) {
                return corrupt(format!(
                    "checkpoint group {} is not above the group before it",
                    c.group
                ));
            }
            prev_group = Some(c.group);
            if c.cursor >= n {
                return corrupt(format!(
                    "cursor {} of group {} is not a position among {n} groups",
                    c.cursor, c.group
                ));
            }
            let mut prev = c.cursor;
            for &p in &c.settled {
                if p <= prev || p >= n {
                    return corrupt(format!(
                        "settled position {p} of group {} is not ascending above cursor {} \
                         and below {n}",
                        c.group, c.cursor
                    ));
                }
                prev = p;
            }
        }
        Ok(())
    }
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

/// [`anytime_skyline_ctx`] over a caller-built kernel, such as one over a
/// kept [`crate::PreparedDataset`] ([`Kernel::with_prepared`]). The kernel
/// should be the columnar one every anytime run counts with, or the tick
/// totals differ.
pub fn anytime_skyline_with(kernel: &Kernel<'_>, gamma: Gamma, ctx: &RunContext) -> AnytimeResult {
    engine(kernel, gamma, ctx, None)
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
/// algorithm) falls back to a fresh run. A `prev` whose checkpoint does not
/// fit `ds` ([`AnytimeCheckpoint::validate`], or a confirmed-out id outside
/// it) — the signature of resuming against the wrong dataset, or of a
/// corrupted frame read from disk — is refused with a typed
/// [`Error::CorruptCheckpoint`] instead of being silently replayed or
/// discarded.
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

/// [`anytime_resume_ctx`] over a caller-built kernel, taking the earlier
/// partition by value so its cursors move into the engine.
pub(crate) fn anytime_resume_on(
    kernel: &Kernel<'_>,
    gamma: Gamma,
    ctx: &RunContext,
    prev: AnytimeResult,
) -> Result<AnytimeResult> {
    if prev.is_complete() {
        return Ok(prev);
    }
    let Some(cp) = &prev.checkpoint else {
        return Ok(engine(kernel, gamma, ctx, None));
    };
    let n = kernel.n_groups();
    cp.validate(n)?;
    if let Some(&g) = prev.confirmed_out.iter().find(|&&g| g >= n) {
        return Err(Error::CorruptCheckpoint(format!(
            "confirmed-out set mentions group {g}, but the dataset has only {n} groups"
        )));
    }
    Ok(engine(kernel, gamma, ctx, Some(prev)))
}

/// The visiting order of a run: groups ascending by `(|s|, min-corner
/// coordinate sum descending, id)`, with every group's max corner laid out
/// flat in that order for the window test. The coordinate sum, not
/// [`Mbb::min_corner_norm`]: data is canonicalised to MAX preference, and a
/// norm misorders negated MIN columns.
struct Order {
    dim: usize,
    /// `groups[p]`: the group at position `p`.
    groups: Vec<GroupId>,
    /// `pos[g]`: the position of group `g`.
    pos: Vec<usize>,
    /// Max corners, `dim` values per position.
    maxs: Vec<f64>,
}

impl Order {
    fn new(kernel: &Kernel<'_>, boxes: &[Mbb]) -> Order {
        let sums: Vec<f64> = boxes.iter().map(|b| b.min.iter().sum()).collect();
        let sum = |g: GroupId| sums.get(g).copied().unwrap_or(0.0);
        let mut groups: Vec<GroupId> = (0..kernel.n_groups()).collect();
        groups.sort_unstable_by(|&a, &b| {
            kernel
                .group_len(a)
                .cmp(&kernel.group_len(b))
                .then_with(|| sum(b).total_cmp(&sum(a)))
                .then(a.cmp(&b))
        });
        let mut pos = vec![0; groups.len()];
        for (p, &g) in groups.iter().enumerate() {
            if let Some(slot) = pos.get_mut(g) {
                *slot = p;
            }
        }
        let maxs = groups
            .iter()
            .filter_map(|&g| boxes.get(g))
            .flat_map(|b| b.max.iter().copied())
            .collect();
        Order { dim: kernel.dim(), groups, pos, maxs }
    }

    fn len(&self) -> usize {
        self.groups.len()
    }

    /// The first position at or after `from`, other than `me`, whose max
    /// corner lies in the window of `min`; `len()` if none.
    fn next_in_window(&self, from: usize, me: usize, min: &[f64]) -> usize {
        self.maxs
            .chunks_exact(self.dim.max(1))
            .enumerate()
            .skip(from)
            .find(|(p, max)| *p != me && in_window(max, min))
            .map_or(self.len(), |(p, _)| p)
    }

    /// Whether the group at position `p` lies in the window of `min`.
    fn in_window(&self, p: usize, min: &[f64]) -> bool {
        let d = self.dim;
        self.maxs.get(p * d..p * d + d).is_some_and(|max| in_window(max, min))
    }
}

/// Algorithm 5's window: a group whose max corner is at least `min` in
/// every dimension may dominate a group with min corner `min`.
fn in_window(max: &[f64], min: &[f64]) -> bool {
    max.iter().zip(min).all(|(s, g)| s >= g)
}

/// One open group's progress through the visiting order.
struct Cursor<'a> {
    /// The group's own position, never its own candidate.
    me: usize,
    /// The group's min corner: its window's lower bound.
    min: &'a [f64],
    /// Position of the next candidate still to compare; `order.len()` once
    /// every candidate is refuted.
    next: usize,
    /// Positions the mirror comparison settled, ascending; those from
    /// `head` on lie above `next`.
    settled: Vec<usize>,
    head: usize,
}

impl Cursor<'_> {
    /// Moves `next` to the first candidate at or after it that is not
    /// settled, passing (and counting) the settled ones.
    fn seek(&mut self, order: &Order, stats: &mut Stats) {
        loop {
            self.next = order.next_in_window(self.next, self.me, self.min);
            while self.settled.get(self.head).is_some_and(|&p| p < self.next) {
                self.head += 1;
            }
            if self.settled.get(self.head) != Some(&self.next) {
                return;
            }
            self.head += 1;
            self.next += 1;
            stats.index_candidates += 1;
        }
    }

    /// Moves past the candidate at `next`, now compared.
    fn pass(&mut self, order: &Order, stats: &mut Stats) {
        self.next += 1;
        stats.index_candidates += 1;
        self.seek(order, stats);
    }

    /// Records that the pair with the candidate at position `p` was counted
    /// from the other side, so this cursor never counts it again.
    fn settle(&mut self, p: usize, order: &Order, stats: &mut Stats) {
        if p == self.next {
            self.pass(order, stats);
        } else if p > self.next && order.in_window(p, self.min) {
            let at = self.head
                + self.settled.get(self.head..).map_or(0, |s| s.partition_point(|&q| q < p));
            self.settled.insert(at, p);
        }
    }
}

/// The shared engine behind fresh and resumed runs. A group is confirmed
/// in when its cursor runs off the end of the order, confirmed out when a
/// comparison finds a dominator.
///
/// Work is visited cheapest pair first, in the global `(|g|·|s|, position
/// of g, position of s)` order — the same deterministic order whether the
/// run is fresh or resumed, which is why chunked resumption converges to
/// the one-shot partition and `Stats`. A comparison resolves both
/// directions, so it settles its mirror pair in the candidate's cursor:
/// no pair is counted twice.
fn engine(
    kernel: &Kernel<'_>,
    gamma: Gamma,
    ctx: &RunContext,
    resume: Option<AnytimeResult>,
) -> AnytimeResult {
    let n = kernel.n_groups();
    let engine_span = ctx.obs().map_or(0, |rec| rec.span_start("anytime", 0, Stamp::ZERO));
    let prep_span = ctx.obs().map_or(0, |rec| rec.span_start("prepare", 0, Stamp::ZERO));
    end_prepare_span(prep_span, kernel, ctx);
    let mut owned_boxes = None;
    let boxes = kernel.boxes(&mut owned_boxes);
    let mut stats = Stats::default();
    let mut dists = PairDists::new(ctx);
    let order = Order::new(kernel, boxes);

    let mut out = vec![false; n];
    let mut cursors: Vec<Cursor<'_>> = boxes
        .iter()
        .zip(&order.pos)
        .map(|(b, &me)| Cursor { me, min: &b.min, next: 0, settled: Vec::new(), head: 0 })
        .collect();
    match resume {
        None => cursors.iter_mut().for_each(|c| c.seek(&order, &mut stats)),
        Some(prev) => {
            // Confirmed-out groups stay out (their dominators are real);
            // confirmed-in groups have refuted every candidate; undecided
            // groups resume at their cursors.
            for g in prev.confirmed_out {
                if let Some(o) = out.get_mut(g) {
                    *o = true;
                }
            }
            cursors.iter_mut().for_each(|c| c.next = order.len());
            for open in prev.checkpoint.map(|cp| cp.open).unwrap_or_default() {
                if let Some(c) = cursors.get_mut(open.group) {
                    c.next = open.cursor;
                    c.settled = open.settled;
                    c.seek(&order, &mut stats);
                }
            }
        }
    }

    let len = |g: GroupId| kernel.group_len(g);
    let cost = |g: GroupId, s: usize| {
        crate::num::pair_product(len(g), order.groups.get(s).map_or(0, |&s| len(s)))
    };
    let mut heap: BinaryHeap<Reverse<(u64, usize)>> = cursors
        .iter()
        .enumerate()
        .filter(|&(g, c)| c.next < order.len() && !out.get(g).copied().unwrap_or(true))
        .map(|(g, c)| Reverse((cost(g, c.next), c.me)))
        .collect();

    let pair_opts = PairOptions { stop_rule: true, need_bar: false };
    while let Some(Reverse((key, me))) = heap.pop() {
        let Some(&g) = order.groups.get(me) else { continue };
        // A group confirmed out leaves the heap: its other candidates are
        // moot.
        if out.get(g).copied().unwrap_or(true) {
            continue;
        }
        let Some(c) = cursors.get_mut(g) else { continue };
        let Some(&s) = order.groups.get(c.next) else { continue };
        // A mirror comparison may have moved the cursor on since the entry
        // was pushed: requeue at the next candidate's cost.
        let now = cost(g, c.next);
        if now != key {
            heap.push(Reverse((now, me)));
            continue;
        }
        if ctx.poll(stats.record_pairs).is_some() {
            break;
        }
        let before = PairDeltas::before(&stats);
        let pair = boxes.get(s).zip(boxes.get(g));
        let mut verdict = kernel.compare(s, g, gamma, pair, pair_opts, &mut stats);
        ctx.corrupt_verdict(&mut verdict, stats.record_pairs);
        dists.observe(&before, &stats);
        if verdict.forward.dominates() {
            if let Some(o) = out.get_mut(g) {
                *o = true;
            }
        } else {
            c.pass(&order, &mut stats);
            if c.next < order.len() {
                heap.push(Reverse((cost(g, c.next), me)));
            }
        }
        // The comparison resolved BOTH directions: apply the reverse
        // domination, or settle the mirror pair in an open s's cursor so its
        // record pairs are never recounted.
        match out.get_mut(s) {
            Some(o) if verdict.backward.dominates() => *o = true,
            Some(false) => {
                if let Some(cs) = cursors.get_mut(s) {
                    cs.settle(me, &order, &mut stats);
                }
            }
            _ => {}
        }
    }

    let mut confirmed_in = Vec::new();
    let mut confirmed_out = Vec::new();
    let mut undecided = Vec::new();
    let mut open = Vec::new();
    for (g, (c, o)) in cursors.into_iter().zip(out).enumerate() {
        if o {
            confirmed_out.push(g);
        } else if c.next >= order.len() {
            confirmed_in.push(g);
        } else {
            undecided.push(g);
            let settled = c.settled.get(c.head..).map(<[usize]>::to_vec).unwrap_or_default();
            open.push(GroupCursor { group: g, cursor: c.next, settled });
        }
    }
    let checkpoint = (!undecided.is_empty()).then_some(AnytimeCheckpoint { open });
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

    #[test]
    fn visiting_order_is_size_then_min_corner_sum_descending() {
        use crate::dominance::Direction;
        // Raw values, the second column under MIN preference: canonically
        // negated, so "close" (min corner sum -1) comes before "far" (-9).
        // A Euclidean norm (1.0 against 9.0) would put "far" first.
        let mut b = crate::dataset::GroupedDatasetBuilder::with_directions(vec![
            Direction::Max,
            Direction::Min,
        ]);
        b.push_group("far", &[vec![0.0, 9.0], vec![0.0, 9.0]]).unwrap();
        b.push_group("close", &[vec![0.0, 1.0], vec![0.0, 1.0]]).unwrap();
        b.push_group("small", &[vec![0.0, 50.0]]).unwrap();
        b.push_group("tie", &[vec![0.0, 1.0], vec![0.0, 1.0]]).unwrap();
        let ds = b.build().unwrap();
        let order = Order::new(&Kernel::exhaustive(&ds), &Mbb::of_all_groups(&ds));
        // Smaller groups first; equal sums fall back to id order.
        assert_eq!(order.groups, vec![2, 1, 3, 0]);
        assert_eq!(order.pos, vec![3, 1, 0, 2]);
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
    fn chain(ds: &GroupedDataset, budget: u64) -> (AnytimeResult, Stats, usize) {
        let mut r = anytime_skyline(ds, Gamma::DEFAULT, budget);
        let mut merged = r.stats;
        let mut chunks = 1;
        while !r.is_complete() {
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
                let (r, merged, chunks) = chain(ds, budget);
                let at = format!("dataset {i} budget {budget} ({chunks} chunks)");
                assert_eq!(r.confirmed_in, full.confirmed_in, "{at}");
                assert_eq!(r.confirmed_out, full.confirmed_out, "{at}");
                // Every pair is counted exactly once across the chain, in
                // the unlimited run's order.
                assert_eq!(merged, full.stats, "{at}");
            }
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
                Stats { blocks_full: 3, ..golden(18, 5_888, 4, 12, 9) },
                10,
            ),
            (sized_dataset(20, 12, 3, true, 9302), golden(43, 913, 4, 2, 30), 2),
            (random_dataset(24, 40, 4, 9303), golden(276, 95_796, 0, 216, 551), 148),
        ];
        for (i, (ds, stats, chunks)) in cases.iter().enumerate() {
            let full = anytime_skyline(ds, Gamma::DEFAULT, u64::MAX);
            assert_eq!(full.stats, *stats, "case {i}");
            assert_eq!(chain(ds, 500).2, *chunks, "case {i}");
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
    fn malformed_checkpoints_are_typed_errors() {
        use crate::error::Error;
        let ds = movie_directors();
        let base = anytime_skyline(&ds, Gamma::DEFAULT, 1);
        assert!(!base.is_complete());
        let n = ds.n_groups();
        let tampered = |edit: &dyn Fn(&mut AnytimeResult)| {
            let mut r = base.clone();
            edit(&mut r);
            anytime_resume(&ds, Gamma::DEFAULT, u64::MAX, &r).unwrap_err()
        };
        fn first(r: &mut AnytimeResult) -> &mut GroupCursor {
            r.checkpoint.as_mut().and_then(|cp| cp.open.first_mut()).unwrap()
        }
        let errors = [
            // A cursor, a settled position and a group beyond the dataset.
            tampered(&|r| first(r).cursor = n),
            tampered(&|r| first(r).settled.push(n + 3)),
            tampered(&|r| {
                let cp = r.checkpoint.as_mut().unwrap();
                cp.open.push(GroupCursor { group: n, cursor: 0, settled: Vec::new() });
            }),
            // A settled position at the cursor, and one out of order.
            tampered(&|r| {
                let c = first(r);
                c.settled = vec![c.cursor];
            }),
            tampered(&|r| {
                let c = first(r);
                c.cursor = 0;
                c.settled = vec![2, 1];
            }),
            // A group repeated.
            tampered(&|r| {
                let cp = r.checkpoint.as_mut().unwrap();
                let again = cp.open.first().unwrap().clone();
                cp.open.push(again);
            }),
            // A confirmed-out id beyond the dataset.
            tampered(&|r| r.confirmed_out.push(n + 1)),
        ];
        for err in errors {
            assert!(matches!(err, Error::CorruptCheckpoint(_)), "{err}");
        }
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
