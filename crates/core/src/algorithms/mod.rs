//! Aggregate-skyline algorithms (Section 3 of the paper).
//!
//! Five algorithms are implemented, matching the evaluation's lineup:
//!
//! | Name | Paper | Function |
//! |------|-------|----------|
//! | NL   | Alg. 2 + stop rule       | [`nested_loop`] |
//! | TR   | Alg. 3 (weak transitivity)| [`transitive`] |
//! | SI   | Alg. 4 (sorted access)   | [`sorted`] |
//! | IN   | Alg. 5 (spatial index)   | [`indexed`] |
//! | LO   | Alg. 5 + Fig. 9 boxes    | [`indexed`] with `bbox_prune` |
//!
//! plus the unoptimized [`naive_skyline`], which is the differential-testing
//! oracle.
//!
//! ## Paper vs. exact pruning
//!
//! Algorithm 3 as printed skips *strongly dominated* groups both as
//! comparison targets and as potential dominators. Weak transitivity
//! (Proposition 5) guarantees that a pruned group's γ̄-level dominations are
//! covered by its own dominator, but its plain γ-level dominations are not;
//! on adversarial inputs the printed algorithm can therefore emit a group
//! that the naive algorithm excludes. [`Pruning::Paper`] reproduces the
//! printed behaviour; [`Pruning::Exact`] only skips comparisons whose two
//! sides are both already excluded, which is provably result-preserving.
//! The difference is measured in `tests/` and the ablation benchmarks.

mod indexed;
mod naive;
mod nested_loop;
mod parallel;
mod transitive;

pub use indexed::indexed;
pub use naive::naive_skyline;
pub use nested_loop::nested_loop;
pub use parallel::{
    parallel_skyline, parallel_skyline_ctx, parallel_skyline_with, resolve_threads,
};
pub use transitive::{sorted, transitive};

use crate::anytime::AnytimeResult;
use crate::dataset::{GroupId, GroupedDataset};
use crate::error::Result;
use crate::gamma::Gamma;
use crate::kernel::{Kernel, KernelConfig};
use crate::mbb::Mbb;
use crate::paircache::PairCache;
use crate::paircount::{DomLevel, PairVerdict};
use crate::runctx::{InterruptReason, Outcome, RunContext};
use crate::stats::Stats;
use aggsky_obs::{Hist, HistBatch, Recorder, Stamp};

/// Output of an aggregate-skyline computation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SkylineResult {
    /// Group ids in the skyline, ascending.
    pub skyline: Vec<GroupId>,
    /// Work counters for the run.
    pub stats: Stats,
}

/// Lifecycle of a group while an algorithm runs.
///
/// The ordering matters: a status is only ever *raised*.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Status {
    /// Not (yet) known to be dominated.
    Live,
    /// γ-dominated by some group: excluded from the result.
    Dominated,
    /// γ̄-dominated: excluded and, under [`Pruning::Paper`], also skipped as
    /// a dominator candidate.
    StronglyDominated,
}

impl Status {
    #[inline]
    pub(crate) fn raise(&mut self, to: Status) {
        if to > *self {
            *self = to;
        }
    }
}

/// Pruning discipline for the transitive family of algorithms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pruning {
    /// Algorithm 3 exactly as printed: strongly dominated groups (at the
    /// paper's γ̄ threshold, clamped to ≥ γ) are skipped both as targets
    /// and as dominator candidates.
    Paper,
    /// Conservative variant: a comparison is skipped only when both sides
    /// are already excluded from the result. Always matches the naive
    /// oracle.
    Exact,
}

impl Pruning {
    /// Whether strong (γ̄-level) marks drive skipping.
    #[inline]
    pub(crate) fn uses_strong_marks(self) -> bool {
        !matches!(self, Pruning::Exact)
    }

    /// Pair-counting options implied by this discipline.
    pub(crate) fn pair_options(self, stop_rule: bool) -> crate::paircount::PairOptions {
        crate::paircount::PairOptions { stop_rule, need_bar: self.uses_strong_marks() }
    }
}

/// Order in which the outer loop visits groups (Algorithm 4 / Section 3.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SortStrategy {
    /// Dataset insertion order (what plain NL/TR use).
    InsertionOrder,
    /// Descending sum of the distances between the origin and the MBB's
    /// minimum and maximum corners (Algorithm 4): likely dominators first.
    CornerDistance,
    /// Ascending group cardinality, ties broken by descending minimum-corner
    /// distance: the Section 3.4 global optimization (cheap comparisons
    /// first), which is the configuration the evaluation calls "SI".
    SizeThenDistance,
}

/// Tuning knobs shared by the optimized algorithms. [`AlgoOptions::paper`]
/// reproduces the configurations used in the paper's evaluation.
#[derive(Debug, Clone, Copy)]
pub struct AlgoOptions {
    /// γ threshold (`0.5 ≤ γ ≤ 1`).
    pub gamma: Gamma,
    /// Section 3.3 early-stopping rule inside pair counting.
    pub stop_rule: bool,
    /// Figure 9 bounding-box pruning inside pair counting (the "LO" extra).
    pub bbox_prune: bool,
    /// Weak-transitivity pruning discipline.
    pub pruning: Pruning,
    /// Outer-loop visiting order for [`sorted`] and [`indexed`].
    pub sort: SortStrategy,
    /// Record-counting kernel used inside every pair comparison (see
    /// [`KernelConfig`]); `Columnar` preprocesses each group once and
    /// counts block-at-a-time.
    pub kernel: KernelConfig,
}

impl AlgoOptions {
    /// The paper's canonical configuration at the given γ.
    pub fn paper(gamma: Gamma) -> Self {
        AlgoOptions {
            gamma,
            stop_rule: true,
            bbox_prune: false,
            pruning: Pruning::Paper,
            sort: SortStrategy::SizeThenDistance,
            kernel: KernelConfig::Exhaustive,
        }
    }

    /// Exact-pruning configuration (always oracle-equivalent), counting
    /// with the columnar kernel ([`KernelConfig::columnar`]; AVX2 when the
    /// CPU has it). Its verdicts are bit-identical to the paper's
    /// exhaustive kernel; only the cost and the tick count differ, a tick
    /// being one record comparison inside a straddling block pair.
    pub fn exact(gamma: Gamma) -> Self {
        AlgoOptions {
            pruning: Pruning::Exact,
            kernel: KernelConfig::columnar(),
            ..AlgoOptions::paper(gamma)
        }
    }
}

/// The algorithm lineup of the paper's evaluation (plus the naive oracle).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// Exhaustive nested loop without even the stopping rule.
    Naive,
    /// NL: nested loop with the stop condition (Algorithm 2).
    NestedLoop,
    /// TR: transitive with stop condition (Algorithm 3).
    Transitive,
    /// SI: sorted access (Algorithm 4).
    Sorted,
    /// IN: index-based (Algorithm 5).
    Indexed,
    /// LO: index-based with bounding-box approximation (Algorithm 5 + §3.3).
    IndexedBbox,
}

impl Algorithm {
    /// Short name used in the paper's plots.
    pub fn short_name(self) -> &'static str {
        match self {
            Algorithm::Naive => "NL0",
            Algorithm::NestedLoop => "NL",
            Algorithm::Transitive => "TR",
            Algorithm::Sorted => "SI",
            Algorithm::Indexed => "IN",
            Algorithm::IndexedBbox => "LO",
        }
    }

    /// All five evaluated algorithms, in the paper's order.
    pub const EVALUATED: [Algorithm; 5] = [
        Algorithm::NestedLoop,
        Algorithm::Transitive,
        Algorithm::Sorted,
        Algorithm::Indexed,
        Algorithm::IndexedBbox,
    ];

    /// Runs this algorithm in its canonical paper configuration. The paper
    /// configuration uses the exhaustive kernel, whose construction cannot
    /// fail, so this stays infallible.
    pub fn run(self, ds: &GroupedDataset, gamma: Gamma) -> SkylineResult {
        let kernel = Kernel::exhaustive(ds);
        // An unlimited fault-free context never interrupts, so unwrapping
        // to the complete result is lossless here.
        self.run_on(&kernel, AlgoOptions::paper(gamma), &RunContext::unlimited(), None)
            .unwrap_or_partial()
    }

    /// Runs this algorithm with explicit options (`bbox_prune` and `sort`
    /// are overridden where the algorithm's identity requires it).
    ///
    /// # Errors
    ///
    /// Returns [`crate::Error::InvalidArgument`] when `opts.kernel` is
    /// misconfigured (zero or over-large block size).
    pub fn run_with(self, ds: &GroupedDataset, opts: AlgoOptions) -> Result<SkylineResult> {
        // An unlimited fault-free context never interrupts, so unwrapping
        // to the complete result is lossless here.
        Ok(self.run_ctx(ds, opts, &RunContext::unlimited())?.unwrap_or_partial())
    }

    /// Runs this algorithm under an execution-control context: the run
    /// polls `ctx` at group-pair boundaries and, when cancelled or out of
    /// budget, returns [`Outcome::Interrupted`] with a sound partial
    /// partition instead of the exact skyline.
    ///
    /// # Errors
    ///
    /// Returns [`crate::Error::InvalidArgument`] when `opts.kernel` is
    /// misconfigured (zero or over-large block size).
    pub fn run_ctx(
        self,
        ds: &GroupedDataset,
        opts: AlgoOptions,
        ctx: &RunContext,
    ) -> Result<Outcome> {
        let kernel = Kernel::new(ds, opts.kernel)?;
        let prep_span = ctx.obs().map_or(0, |rec| rec.span_start("prepare", 0, Stamp::ZERO));
        end_prepare_span(prep_span, &kernel, ctx);
        Ok(self.run_on(&kernel, opts, ctx, None))
    }

    /// Runs this algorithm over a shared preparation *and* a shared
    /// [`PairCache`]: every group comparison first consults the cache and
    /// memoizes its (possibly partial) tally. This is the entry point the
    /// γ-sweep driver ([`crate::gamma_sweep`]) uses, and it is equally valid
    /// across *algorithms* within one run — the tallies are algorithm-,
    /// γ- and option-independent.
    ///
    /// The skyline is identical to an uncached run; the `Stats` work
    /// counters reflect only freshly performed counting, with reuse
    /// reported in `cache_hits` / `cache_misses` / `cache_resumes`.
    /// Straddling block pairs use the columnar kernel.
    /// [`Algorithm::Naive`] never consults the kernel and therefore ignores
    /// the cache.
    pub fn run_cached(
        self,
        ds: &GroupedDataset,
        prep: &crate::prepared::PreparedDataset,
        opts: AlgoOptions,
        cache: &mut PairCache,
    ) -> SkylineResult {
        self.run_cached_ctx(ds, prep, opts, cache, &RunContext::unlimited()).unwrap_or_partial()
    }

    /// [`Algorithm::run_cached`] under an execution-control context. Budget
    /// ticks are charged per fresh record pair only, so work resumed from
    /// the cache is never double-charged across a sweep.
    pub fn run_cached_ctx(
        self,
        ds: &GroupedDataset,
        prep: &crate::prepared::PreparedDataset,
        opts: AlgoOptions,
        cache: &mut PairCache,
        ctx: &RunContext,
    ) -> Outcome {
        self.run_on(&Kernel::with_prepared(ds, prep), opts, ctx, Some(cache))
    }

    /// [`Algorithm::run_cached_ctx`] over a preparation with no dataset
    /// behind it ([`Kernel::over_prepared`]): a served epoch's reads.
    pub(crate) fn run_cached_over(
        self,
        prep: &crate::prepared::PreparedDataset,
        opts: AlgoOptions,
        cache: &mut PairCache,
        ctx: &RunContext,
    ) -> Outcome {
        self.run_on(&Kernel::over_prepared(prep), opts, ctx, Some(cache))
    }

    fn run_on(
        self,
        kernel: &Kernel<'_>,
        opts: AlgoOptions,
        ctx: &RunContext,
        cache: Option<&mut PairCache>,
    ) -> Outcome {
        let span = ctx.obs().map_or(0, |rec| rec.span_start(self.short_name(), 0, Stamp::ZERO));
        let mut dists = PairDists::new(ctx);
        let d = &mut dists;
        let outcome = match self {
            Algorithm::Naive => naive::naive_on(kernel, opts.gamma, ctx),
            Algorithm::NestedLoop => nested_loop::nested_loop_on(kernel, &opts, ctx, cache, d),
            Algorithm::Transitive => transitive::transitive_on(kernel, &opts, ctx, cache, d),
            Algorithm::Sorted => transitive::sorted_on(kernel, &opts, ctx, cache, d),
            Algorithm::Indexed => {
                let opts = AlgoOptions { bbox_prune: false, ..opts };
                indexed::indexed_on(kernel, &opts, ctx, cache, d)
            }
            Algorithm::IndexedBbox => {
                let opts = AlgoOptions { bbox_prune: true, ..opts };
                indexed::indexed_on(kernel, &opts, ctx, cache, d)
            }
        };
        if let Some(rec) = ctx.obs() {
            // One dump of the run's final counters into the metric registry:
            // this is what makes `EXPLAIN ANALYZE` totals equal the `Stats`
            // of an uninstrumented run of the same query.
            let stats = outcome.stats();
            stats.record_to(rec);
            dists.record_to(rec);
            rec.span_end(
                span,
                Stamp::tick(stats.record_pairs),
                &[
                    ("group_pairs", stats.group_pairs),
                    ("record_pairs", stats.record_pairs),
                    ("early_stops", stats.early_stops),
                ],
            );
        }
        outcome
    }
}

/// Closes the `"prepare"` span with the dataset/blocking shape as
/// arguments. Preparation happens before any record pair is charged, so
/// both endpoints sit at tick 0 — the span exists for its arguments and for
/// the tree shape, not for duration.
pub(crate) fn end_prepare_span(span: aggsky_obs::SpanId, kernel: &Kernel<'_>, ctx: &RunContext) {
    let Some(rec) = ctx.obs() else { return };
    let mut args = vec![
        ("groups", crate::num::wide(kernel.n_groups())),
        ("records", crate::num::wide(kernel.n_records())),
    ];
    if let Some(prep) = kernel.prepared() {
        let blocks: usize = (0..prep.n_groups()).map(|g| prep.n_blocks(g)).sum();
        args.push(("blocks", crate::num::wide(blocks)));
        args.push(("block_size", crate::num::wide(prep.block_size())));
    }
    rec.span_end(span, Stamp::ZERO, &args);
}

/// Snapshot of the per-pair counters taken before one `kernel.compare`
/// call, used to feed the work-distribution histograms from counter deltas
/// without threading the recorder into the kernel itself.
pub(crate) struct PairDeltas {
    record_pairs: u64,
    records_compared: u64,
}

impl PairDeltas {
    #[inline]
    pub(crate) fn before(stats: &Stats) -> PairDeltas {
        PairDeltas { record_pairs: stats.record_pairs, records_compared: stats.records_compared }
    }
}

/// One run's work distributions (record pairs per group pair, straddle
/// fanout, …), observed locally and merged into the recorder once, beside
/// the run's [`Stats::record_to`] dump: a shared registry update per group
/// pair costs tens of nanoseconds, as much as counting a cheap pair. Holds
/// nothing when the run has no recorder, or one that drops distributions.
#[derive(Default)]
pub(crate) struct PairDists(Option<Box<HistBatch>>);

impl PairDists {
    pub(crate) fn new(ctx: &RunContext) -> PairDists {
        PairDists(ctx.obs().filter(|rec| rec.keeps_distributions()).map(|_| Box::default()))
    }

    /// Records the pair's work into the histograms. Straddle fanout is only
    /// observed when the prepared kernel actually compared records inside
    /// straddling blocks (the delta is zero under the exhaustive kernel and
    /// for block pairs fully classified by corner tests).
    #[inline]
    pub(crate) fn observe(&mut self, before: &PairDeltas, stats: &Stats) {
        let Some(batch) = &mut self.0 else { return };
        batch.observe(
            Hist::RecordPairsPerGroupPair,
            stats.record_pairs.saturating_sub(before.record_pairs),
        );
        let straddle = stats.records_compared.saturating_sub(before.records_compared);
        if straddle > 0 {
            batch.observe(Hist::StraddleFanout, straddle);
        }
    }

    /// Records one observation of another distribution.
    #[inline]
    pub(crate) fn observe_value(&mut self, hist: Hist, value: u64) {
        if let Some(batch) = &mut self.0 {
            batch.observe(hist, value);
        }
    }

    /// Merges everything observed into `rec`.
    pub(crate) fn record_to(&self, rec: &dyn Recorder) {
        if let Some(batch) = &self.0 {
            rec.observe_batch(batch);
        }
    }
}

/// Applies a pair verdict to the two groups' statuses.
///
/// Under [`Pruning::Exact`] a γ̄ verdict is recorded as plain `Dominated`
/// because strong marks are never acted upon (and the cheaper `need_bar =
/// false` counting mode folds both levels together anyway).
pub(crate) fn apply_verdict(
    verdict: PairVerdict,
    s1: &mut Status,
    s2: &mut Status,
    pruning: Pruning,
) {
    let level = |l: DomLevel| match (l, pruning.uses_strong_marks()) {
        (DomLevel::None, _) => None,
        (DomLevel::Gamma, _) | (DomLevel::GammaBar, false) => Some(Status::Dominated),
        (DomLevel::GammaBar, true) => Some(Status::StronglyDominated),
    };
    if let Some(st) = level(verdict.forward) {
        s2.raise(st);
    }
    if let Some(st) = level(verdict.backward) {
        s1.raise(st);
    }
}

/// Builds the typed partial partition for an interrupted run.
///
/// Every non-`Live` status maps to `confirmed_out`: a recorded verdict
/// always reflects a real γ-dominator (γ̄-level domination implies γ-level),
/// so this is sound even under the heuristic [`Pruning::Paper`]. A `Live`
/// group is `confirmed_in` only when `proven_in` vouches for it — callers
/// must return `true` only for groups whose full dominator scan completed
/// under a result-preserving pruning discipline; everything else is
/// `undecided`.
pub(crate) fn interrupted(
    statuses: &[Status],
    proven_in: impl Fn(GroupId) -> bool,
    stats: Stats,
    reason: InterruptReason,
) -> Outcome {
    let mut confirmed_in = Vec::new();
    let mut confirmed_out = Vec::new();
    let mut undecided = Vec::new();
    for (g, status) in statuses.iter().enumerate() {
        match status {
            Status::Live if proven_in(g) => confirmed_in.push(g),
            Status::Live => undecided.push(g),
            _ => confirmed_out.push(g),
        }
    }
    Outcome::Interrupted {
        reason,
        partial: AnytimeResult { confirmed_in, confirmed_out, undecided, stats, checkpoint: None },
    }
}

/// Collects the surviving groups in ascending id order.
pub(crate) fn collect_result(statuses: &[Status], stats: Stats) -> SkylineResult {
    let skyline =
        statuses.iter().enumerate().filter(|(_, s)| **s == Status::Live).map(|(g, _)| g).collect();
    SkylineResult { skyline, stats }
}

/// Computes the outer-loop visiting order for a sort strategy.
pub(crate) fn build_order(
    kernel: &Kernel<'_>,
    boxes: &[Mbb],
    strategy: SortStrategy,
) -> Vec<GroupId> {
    let mut order: Vec<GroupId> = (0..kernel.n_groups()).collect();
    match strategy {
        SortStrategy::InsertionOrder => {}
        SortStrategy::CornerDistance => {
            let key: Vec<f64> = boxes.iter().map(Mbb::corner_distance_sum).collect();
            order.sort_by(|&a, &b| key[b].total_cmp(&key[a]));
        }
        SortStrategy::SizeThenDistance => {
            let key: Vec<f64> = boxes.iter().map(Mbb::min_corner_norm).collect();
            order.sort_by(|&a, &b| {
                kernel
                    .group_len(a)
                    .cmp(&kernel.group_len(b))
                    .then_with(|| key[b].total_cmp(&key[a]))
            });
        }
    }
    order
}
