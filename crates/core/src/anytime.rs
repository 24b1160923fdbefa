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

use crate::algorithms::{end_prepare_span, kernel_boxes, PairDeltas};
use crate::dataset::{GroupId, GroupedDataset};
use crate::error::{Error, Result};
use crate::gamma::Gamma;
use crate::kernel::{Kernel, KernelConfig};
use crate::paircount::PairOptions;
use crate::runctx::RunContext;
use crate::stats::Stats;
use aggsky_obs::Stamp;
use aggsky_spatial::{Aabb, RTree};

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
    /// `(group, remaining candidate dominators)` for each undecided group.
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
    anytime_resume_on(&anytime_kernel(ds), gamma, ctx, prev)
}

/// [`anytime_skyline_ctx`] over a caller-built kernel.
pub(crate) fn anytime_skyline_on(
    kernel: &Kernel<'_>,
    gamma: Gamma,
    ctx: &RunContext,
) -> AnytimeResult {
    engine(kernel, gamma, ctx, None)
}

/// [`anytime_resume_ctx`] over a caller-built kernel.
pub(crate) fn anytime_resume_on(
    kernel: &Kernel<'_>,
    gamma: Gamma,
    ctx: &RunContext,
    prev: &AnytimeResult,
) -> Result<AnytimeResult> {
    if prev.is_complete() {
        return Ok(prev.clone());
    }
    match &prev.checkpoint {
        Some(cp) => {
            validate_checkpoint(prev, cp, kernel.dataset().n_groups())?;
            Ok(engine(kernel, gamma, ctx, Some((prev, cp))))
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

/// The shared engine behind fresh and resumed runs. State is one candidate
/// list per group (dominators not yet compared against); a group is
/// confirmed in when its list drains, confirmed out when a comparison
/// finds a dominator.
fn engine(
    kernel: &Kernel<'_>,
    gamma: Gamma,
    ctx: &RunContext,
    resume: Option<(&AnytimeResult, &AnytimeCheckpoint)>,
) -> AnytimeResult {
    let ds = kernel.dataset();
    let n = ds.n_groups();
    let engine_span = ctx.obs().map_or(0, |rec| rec.span_start("anytime", 0, Stamp::ZERO));
    let prep_span = ctx.obs().map_or(0, |rec| rec.span_start("prepare", 0, Stamp::ZERO));
    end_prepare_span(prep_span, kernel, ctx);
    let mut owned_boxes = None;
    let boxes = kernel_boxes(kernel, &mut owned_boxes);
    let mut stats = Stats::default();

    #[derive(Clone, Copy, PartialEq)]
    enum St {
        Open,
        Out,
    }
    let mut status = vec![St::Open; n];
    let mut remaining: Vec<Vec<GroupId>> = vec![Vec::new(); n];

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
            for (g, b) in boxes.iter().enumerate() {
                let mut c = tree.window_query(&Aabb::at_least(&b.min));
                c.retain(|&s| s != g);
                stats.index_candidates += crate::num::wide(c.len());
                remaining[g] = c;
            }
        }
        Some((prev, cp)) => {
            // Confirmed-out groups stay out (their dominators are real);
            // confirmed-in groups have no remaining candidates and are
            // re-derived as in; undecided groups resume their lists.
            for &g in &prev.confirmed_out {
                status[g] = St::Out;
            }
            for (g, cands) in &cp.remaining {
                remaining[*g] = cands.clone();
            }
        }
    }

    // Work items: (cost, g, candidate) triples, cheapest first — the same
    // deterministic order whether the run is fresh or resumed, which is
    // why chunked resumption converges to the one-shot partition.
    let mut work: Vec<(u64, GroupId, GroupId)> = Vec::new();
    for (g, cands) in remaining.iter().enumerate() {
        for &s in cands {
            let cost = crate::num::pair_product(ds.group_len(g), ds.group_len(s));
            work.push((cost, g, s));
        }
    }
    work.sort_unstable();

    let pair_opts = PairOptions { stop_rule: true, need_bar: false };
    for &(_, g, s) in &work {
        if ctx.poll(stats.record_pairs).is_some() {
            break;
        }
        if status[g] == St::Out {
            continue; // membership settled, remaining candidates moot
        }
        // The mirror of an earlier comparison may already have resolved
        // this item; `remaining` is the ground truth.
        let Some(pos) = remaining[g].iter().position(|&x| x == s) else {
            continue;
        };
        remaining[g].swap_remove(pos);
        let before = PairDeltas::before(&stats);
        let mut verdict =
            kernel.compare(s, g, gamma, Some((&boxes[s], &boxes[g])), pair_opts, &mut stats);
        ctx.corrupt_verdict(&mut verdict, stats.record_pairs);
        before.observe(ctx, &stats);
        if verdict.forward.dominates() {
            status[g] = St::Out;
        }
        // The comparison resolved BOTH directions, so the mirror work item
        // (s, g) — pending whenever the boxes overlap both ways — is free
        // information: strike it from s's list so its record pairs are
        // never recounted, and apply the reverse domination if any.
        if let Some(mirror) = remaining[s].iter().position(|&x| x == g) {
            remaining[s].swap_remove(mirror);
        }
        if verdict.backward.dominates() {
            status[s] = St::Out;
        }
    }

    let mut confirmed_in = Vec::new();
    let mut confirmed_out = Vec::new();
    let mut undecided = Vec::new();
    for g in 0..n {
        match status[g] {
            St::Out => confirmed_out.push(g),
            St::Open if remaining[g].is_empty() => confirmed_in.push(g),
            St::Open => undecided.push(g),
        }
    }
    let checkpoint = (!undecided.is_empty()).then(|| AnytimeCheckpoint {
        remaining: undecided.iter().map(|&g| (g, std::mem::take(&mut remaining[g]))).collect(),
    });
    // The anytime engine bypasses `run_on`, so it dumps its own counters.
    if let Some(rec) = ctx.obs() {
        stats.record_to(rec);
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
    fn chunked_resume_equals_one_unlimited_run() {
        for seed in 0..8 {
            let ds = random_dataset(18, 6, 3, 9100 + seed);
            let full = anytime_skyline(&ds, Gamma::DEFAULT, u64::MAX);
            for step in [1u64, 7, 50, 400] {
                let mut r = anytime_skyline(&ds, Gamma::DEFAULT, step);
                let mut rounds = 0;
                while !r.is_complete() {
                    r = anytime_resume(&ds, Gamma::DEFAULT, step, &r).unwrap();
                    rounds += 1;
                    assert!(rounds < 100_000, "resume loop did not converge (step {step})");
                }
                assert_eq!(r.confirmed_in, full.confirmed_in, "seed {seed} step {step}");
                assert_eq!(r.confirmed_out, full.confirmed_out, "seed {seed} step {step}");
            }
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
