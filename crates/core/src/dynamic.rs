//! Incremental aggregate-skyline maintenance (an extension beyond the
//! paper, motivated by its Property 2: small updates change domination
//! probabilities by bounded amounts, so recomputing everything from scratch
//! on every insert is wasteful).
//!
//! # Structure
//!
//! [`DynamicAggregateSkyline`] separates each group into a **base** record
//! set — whose exact pairwise tallies `|S ≻ R|` are kept in a dense
//! lower-triangular table of `(n12, n21)` counts, one slot per unordered
//! group pair, grown by one row per added group — and a small **pending**
//! delta buffer of inserts and deletes not yet folded into the base. Edits
//! are O(1): they only grow the buffer. The cost is paid when a group's
//! deltas are *folded*. The fold prepares its insert and its delete buffer
//! once, then counts each against the kept single-group preparation of
//! every other non-empty base set through [`count_pairs_across`]. A base
//! set's preparation is built the first time a fold counts against it and
//! dropped only when that group itself folds. Folding group `R` therefore
//! costs `O(|R_Δ| · Σ|S|)` kernel ticks — charged to [`Stats`], pollable
//! through [`RunContext`], and mirrored to the observability counters —
//! plus one `O(|R| log |R|)` re-preparation of `R`, paid by the next fold
//! that counts against it. No per-pair dataset or preparation is built,
//! and the Property-2 pass below reads each tally with one index
//! computation. On the end-to-end benchmark's traced `serve-mixed` run
//! (12 000 records in 120 groups, a 2-vCPU x86-64 host with AVX2) this cut
//! the median [`DynamicAggregateSkyline::skyline_ctx`] time per write
//! batch from 22.6 ms, when every pair of a fold built and prepared its
//! own two-group dataset, to 2.7 ms, with identical flushed and deferred
//! pair counts; DESIGN.md §17 has the per-layer table.
//!
//! # The Property-2 defer-recompute rule
//!
//! Tallies are order-independent counts, so a pending buffer bounds how far
//! any `p(S ≻ R)` can have drifted from its memoized base value: with
//! `D`/`I` pending deletes/inserts the true dominating-pair count lies in
//! the closed interval
//!
//! ```text
//! [ n_base − D_S·|R_base| − D_R·|S_base| ,  n_base + I_S·|R_cur| + I_R·|S_cur| ]
//! ```
//!
//! clamped to `[0, |S_cur|·|R_cur|]` — exactly the paper's `γ(1±ε)`
//! stability envelope composed over the buffered edits. While both interval
//! endpoints fall on the same side of γ the pair's verdict is *provably*
//! unchanged and no recounting happens ([`Counter::DynDeferred`]); only a
//! pair whose interval straddles γ forces its groups to fold
//! ([`Counter::DynFlushedPairs`]). Queries stay exact: deferral skips work
//! only when the skyline verdict cannot depend on it.
//!
//! # Tracing
//!
//! [`DynamicAggregateSkyline::skyline_ctx`] runs inside a tick-domain
//! `dyn_certify` span, and every folded group inside it gets a `dyn_fold`
//! span carrying the group, its inserts and deletes, and the pairs it
//! revised.
//!
//! [`Counter::DynDeferred`]: aggsky_obs::Counter::DynDeferred
//! [`Counter::DynFlushedPairs`]: aggsky_obs::Counter::DynFlushedPairs

use crate::dataset::{GroupId, GroupedDataset, GroupedDatasetBuilder, MAX_GROUP_LEN};
use crate::error::{Error, Result};
use crate::gamma::Gamma;
use crate::kernel::{count_pairs_across, KernelConfig};
use crate::paircache::{CachedTally, PairCache};
use crate::prepared::{PreparedDataset, MAX_LANE_BLOCK};
use crate::runctx::{InterruptReason, RunContext};
use crate::stats::Stats;
use aggsky_obs::{Counter as ObsCounter, Stamp};
use std::cmp::Ordering;

/// Outcome of one [`DynamicAggregateSkyline::skyline_ctx`] query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DynSkyline {
    /// The aggregate skyline among currently non-empty groups, ascending by
    /// group id. Exact when `interrupted` is `None`; on an interrupt the
    /// result is the optimistic partial (undecidable groups stay in, the
    /// anytime convention), and must not be treated as certified.
    pub groups: Vec<GroupId>,
    /// Ordered pairs involving pending edits whose verdict was served from
    /// the Property-2 drift interval without recounting.
    pub deferred_pairs: u64,
    /// Unordered pair tallies recomputed through the kernel because a drift
    /// interval crossed γ.
    pub flushed_pairs: u64,
    /// `Some` when the context's budget or cancellation stopped folding
    /// before every pair could be decided.
    pub interrupted: Option<InterruptReason>,
}

/// Outcome of folding pending deltas (see
/// [`DynamicAggregateSkyline::flush_ctx`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FlushReport {
    /// Unordered pair tallies revised through the kernel.
    pub flushed_pairs: u64,
    /// `Some` when the fold stopped early; the interrupted group's deltas
    /// stay pending (folds are all-or-nothing per group, so tallies remain
    /// consistent and the fold is exactly resumable).
    pub interrupted: Option<InterruptReason>,
}

/// Result of one delta recount, separating real counts from an interrupt.
enum Counted {
    Done(u64, u64),
    Stopped(InterruptReason),
}

/// Exact base tallies in a dense lower-triangular table: the unordered
/// pair `{a, b}` with `a < b` lives at slot `b·(b−1)/2 + a` as
/// `(|a ≻ b|, |b ≻ a|)`. Adding group `b` appends its row of `b` zero
/// slots, so every pair of existing groups has one. Invariant: every slot
/// is exact over the current base sets, hence zero whenever either base
/// set is empty.
#[derive(Debug, Default)]
struct TallyTable {
    cells: Vec<(u64, u64)>,
}

impl TallyTable {
    /// Appends the row of group `b`: one zero slot per group `a < b`.
    fn push_row(&mut self, b: GroupId) {
        self.cells.resize(self.cells.len() + b, (0, 0));
    }

    /// `(|a ≻ b|, |b ≻ a|)`; zero for `a == b`.
    fn get(&self, a: GroupId, b: GroupId) -> (u64, u64) {
        match a.cmp(&b) {
            Ordering::Less => self.cells[Self::slot(a, b)],
            Ordering::Greater => {
                let (n_ba, n_ab) = self.cells[Self::slot(b, a)];
                (n_ab, n_ba)
            }
            Ordering::Equal => (0, 0),
        }
    }

    /// Stores `n_ab = |a ≻ b|` and `n_ba = |b ≻ a|` for `a != b`.
    fn set(&mut self, a: GroupId, b: GroupId, n_ab: u64, n_ba: u64) {
        match a.cmp(&b) {
            Ordering::Less => self.cells[Self::slot(a, b)] = (n_ab, n_ba),
            Ordering::Greater => self.cells[Self::slot(b, a)] = (n_ba, n_ab),
            Ordering::Equal => {}
        }
    }

    fn slot(lo: GroupId, hi: GroupId) -> usize {
        hi * (hi - 1) / 2 + lo
    }
}

/// Per-group sizes the Property-2 drift interval is computed from.
#[derive(Debug, Clone, Copy)]
struct Sizes {
    /// Live records: `base − del + ins`.
    cur: usize,
    /// Folded records the tallies are exact over.
    base: usize,
    /// Pending inserts.
    ins: usize,
    /// Pending deletes.
    del: usize,
}

/// A mutable collection of groups with incrementally-maintained pairwise
/// domination tallies and Property-2 deferral of recomputation.
///
/// ```
/// use aggsky_core::dynamic::DynamicAggregateSkyline;
/// use aggsky_core::Gamma;
///
/// let mut dyn_sky = DynamicAggregateSkyline::new(2);
/// let t = dyn_sky.add_group("Tarantino");
/// let w = dyn_sky.add_group("Wiseau");
/// dyn_sky.insert(t, &[557.0, 9.0]).unwrap();
/// dyn_sky.insert(w, &[10.0, 3.2]).unwrap();
/// assert_eq!(dyn_sky.skyline(Gamma::DEFAULT).unwrap(), vec![t]);
/// // A surprise hit makes Wiseau incomparable-in-part...
/// dyn_sky.insert(w, &[600.0, 2.0]).unwrap();
/// assert_eq!(dyn_sky.skyline(Gamma::DEFAULT).unwrap(), vec![t, w]);
/// ```
#[derive(Debug)]
pub struct DynamicAggregateSkyline {
    dim: usize,
    /// Kernel strategy for delta recounts (never `Exhaustive`: counting
    /// across kept preparations needs a prepared kernel).
    kernel: KernelConfig,
    labels: Vec<String>,
    /// Folded per-group record storage (row-major); the sets the memoized
    /// tallies are exact over.
    base: Vec<Vec<f64>>,
    /// Pending inserts per group (row-major), not yet folded.
    pending_ins: Vec<Vec<f64>>,
    /// Base row indices pending deletion, ascending, not yet folded.
    pending_del: Vec<Vec<usize>>,
    /// Exact complete tallies over base×base.
    tallies: TallyTable,
    /// Single-group preparation of each base set at the kernel's block
    /// size: built the first time a fold counts against the group, dropped
    /// when the group itself folds.
    preps: Vec<Option<PreparedDataset>>,
    /// Cumulative kernel work across all maintenance counting.
    stats: Stats,
}

impl DynamicAggregateSkyline {
    /// Creates an empty collection of `dim`-dimensional records (all
    /// dimensions MAX preference; negate values for MIN dimensions), using
    /// the default columnar kernel for delta recounts.
    pub fn new(dim: usize) -> Self {
        assert!(dim > 0, "dimension must be positive");
        DynamicAggregateSkyline {
            dim,
            kernel: KernelConfig::Columnar { block_size: PreparedDataset::DEFAULT_BLOCK_SIZE },
            labels: Vec::new(),
            base: Vec::new(),
            pending_ins: Vec::new(),
            pending_del: Vec::new(),
            tallies: TallyTable::default(),
            preps: Vec::new(),
            stats: Stats::default(),
        }
    }

    /// Like [`DynamicAggregateSkyline::new`] with an explicit kernel
    /// strategy for delta recounts.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidArgument`] for [`KernelConfig::Exhaustive`]
    /// (delta recounts run across kept preparations), or a block size of
    /// zero or above [`MAX_LANE_BLOCK`].
    pub fn with_kernel(dim: usize, kernel: KernelConfig) -> Result<Self> {
        let Some(block_size) = kernel.block_size() else {
            return Err(Error::InvalidArgument(
                "dynamic maintenance requires a prepared (columnar) kernel; Exhaustive produces \
                 no memoizable tally"
                    .into(),
            ));
        };
        if block_size == 0 || block_size > MAX_LANE_BLOCK {
            return Err(Error::InvalidArgument(format!(
                "columnar block size {block_size} outside 1..={MAX_LANE_BLOCK}"
            )));
        }
        let mut out = DynamicAggregateSkyline::new(dim);
        out.kernel = kernel;
        Ok(out)
    }

    /// Imports an existing dataset. Cheap — records land in the pending
    /// buffers and the first query folds them through the kernel (so the
    /// initial materialization is charged to that query's context).
    pub fn from_dataset(ds: &GroupedDataset) -> Result<Self> {
        let mut out = DynamicAggregateSkyline::new(ds.dim());
        for g in ds.group_ids() {
            let id = out.add_group(ds.label(g));
            for rec in ds.records(g) {
                out.insert(id, rec)?;
            }
        }
        Ok(out)
    }

    /// Imports a dataset **together with previously exported complete
    /// tallies** (e.g. recovered from a checkpoint), installing the records
    /// directly as folded base state — no kernel recounting. The entries
    /// are validated against a fresh preparation of `ds` and must cover
    /// every unordered group pair completely; anything less is rejected so
    /// a stale or truncated checkpoint can never masquerade as warm state.
    ///
    /// # Errors
    ///
    /// Returns [`Error::CorruptCheckpoint`] when an entry fails validation
    /// (see [`PairCache::ingest`]) or when a group pair has no complete
    /// tally.
    pub fn from_dataset_with_tallies(
        ds: &GroupedDataset,
        entries: &[((GroupId, GroupId), CachedTally)],
    ) -> Result<Self> {
        let mut out = DynamicAggregateSkyline::new(ds.dim());
        for g in ds.group_ids() {
            out.add_group(ds.label(g));
            out.base[g].extend_from_slice(ds.group_rows(g));
        }
        let prep = PreparedDataset::build(ds, PreparedDataset::DEFAULT_BLOCK_SIZE)?;
        // Validated in a memo table first: it tells a missing pair apart
        // from a zero tally, which the dense table cannot.
        let mut ingested = PairCache::new();
        ingested.ingest(&prep, entries)?;
        for a in 0..ds.n_groups() {
            for b in a + 1..ds.n_groups() {
                match ingested.lookup(a, b) {
                    Some(t) if t.complete() => out.tallies.set(a, b, t.n12, t.n21),
                    _ => {
                        return Err(Error::CorruptCheckpoint(format!(
                            "warm restore requires a complete tally for every group pair; \
                             ({a}, {b}) is missing or partial"
                        )));
                    }
                }
            }
        }
        Ok(out)
    }

    /// Number of groups (including empty ones).
    pub fn n_groups(&self) -> usize {
        self.labels.len()
    }

    /// Number of live records in group `g` (base minus pending deletes plus
    /// pending inserts).
    pub fn group_len(&self, g: GroupId) -> usize {
        self.sizes(g).cur
    }

    /// Total number of live records.
    pub fn n_records(&self) -> usize {
        (0..self.n_groups()).map(|g| self.group_len(g)).sum()
    }

    /// Label of group `g`.
    pub fn label(&self, g: GroupId) -> &str {
        &self.labels[g]
    }

    /// Pending (inserts, deletes) of group `g` awaiting a fold.
    pub fn pending_edits(&self, g: GroupId) -> (usize, usize) {
        (self.pending_ins[g].len() / self.dim, self.pending_del[g].len())
    }

    /// Whether any group has unfolded deltas.
    pub fn has_pending(&self) -> bool {
        (0..self.n_groups()).any(|g| self.pending_edits(g) != (0, 0))
    }

    /// Cumulative kernel work charged by maintenance counting so far.
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// Adds a new (empty) group and returns its id. Empty groups are
    /// excluded from skylines until they receive a record.
    pub fn add_group(&mut self, label: impl Into<String>) -> GroupId {
        let g = self.labels.len();
        self.labels.push(label.into());
        self.base.push(Vec::new());
        self.pending_ins.push(Vec::new());
        self.pending_del.push(Vec::new());
        self.preps.push(None);
        self.tallies.push_row(g);
        g
    }

    /// Inserts one record into group `g`. O(1): the record lands in the
    /// pending buffer; pair tallies are revised when the group next folds.
    pub fn insert(&mut self, g: GroupId, record: &[f64]) -> Result<()> {
        self.insert_ctx(g, record, &RunContext::unlimited())
    }

    /// [`DynamicAggregateSkyline::insert`] with observability: charges
    /// [`Counter::DynInserts`](aggsky_obs::Counter::DynInserts) to the
    /// context's recorder.
    pub fn insert_ctx(&mut self, g: GroupId, record: &[f64], ctx: &RunContext) -> Result<()> {
        if record.len() != self.dim {
            return Err(Error::DimensionMismatch { expected: self.dim, got: record.len() });
        }
        if let Some(d) = record.iter().position(|v| !v.is_finite()) {
            return Err(Error::NonFiniteValue { dimension: d });
        }
        if self.group_len(g) >= MAX_GROUP_LEN {
            return Err(Error::GroupTooLarge {
                group: self.labels[g].clone(),
                len: self.group_len(g) + 1,
            });
        }
        self.pending_ins[g].extend_from_slice(record);
        ctx.recorder().add(ObsCounter::DynInserts, 1);
        Ok(())
    }

    /// Removes the record at live index `idx` of group `g` (0-based over
    /// the current order: folded base records first, then pending inserts
    /// in arrival order) and returns it. O(group) — no counting: removing a
    /// pending insert cancels it outright, removing a base record marks it
    /// pending-deleted until the next fold.
    pub fn remove(&mut self, g: GroupId, idx: usize) -> Result<Vec<f64>> {
        let len = self.group_len(g);
        if idx >= len {
            return Err(Error::RecordIndexOutOfRange {
                group: self.labels[g].clone(),
                index: idx,
                len,
            });
        }
        let live_base = self.base_len(g) - self.pending_del[g].len();
        if idx < live_base {
            // The idx-th base row not already pending deletion.
            let mut live_seen = 0usize;
            let mut row = 0usize;
            for r in 0..self.base_len(g) {
                if self.pending_del[g].binary_search(&r).is_ok() {
                    continue;
                }
                if live_seen == idx {
                    row = r;
                    break;
                }
                live_seen += 1;
            }
            let pos = match self.pending_del[g].binary_search(&row) {
                Ok(_) => {
                    return Err(Error::InvalidArgument(format!(
                        "internal: base row {row} of group {g} already pending deletion"
                    )));
                }
                Err(p) => p,
            };
            self.pending_del[g].insert(pos, row);
            Ok(self.base[g][row * self.dim..(row + 1) * self.dim].to_vec())
        } else {
            let j = idx - live_base;
            let rec: Vec<f64> = self.pending_ins[g][j * self.dim..(j + 1) * self.dim].to_vec();
            self.pending_ins[g].drain(j * self.dim..(j + 1) * self.dim);
            Ok(rec)
        }
    }

    /// Live index of the first record of group `g` whose coordinates are
    /// bit-identical to `record` — the deterministic lookup the SQL
    /// delete-by-value path uses with [`DynamicAggregateSkyline::remove`].
    pub fn find_record(&self, g: GroupId, record: &[f64]) -> Option<usize> {
        if record.len() != self.dim || g >= self.n_groups() {
            return None;
        }
        let same =
            |row: &[f64]| row.iter().zip(record.iter()).all(|(a, b)| a.to_bits() == b.to_bits());
        let mut idx = 0usize;
        for (r, row) in self.base[g].chunks_exact(self.dim).enumerate() {
            if self.pending_del[g].binary_search(&r).is_ok() {
                continue;
            }
            if same(row) {
                return Some(idx);
            }
            idx += 1;
        }
        for row in self.pending_ins[g].chunks_exact(self.dim) {
            if same(row) {
                return Some(idx);
            }
            idx += 1;
        }
        None
    }

    /// The exact current `p(S ≻ R)`; zero when either group is empty.
    /// Folds both groups' pending deltas first.
    pub fn domination_probability(&mut self, s: GroupId, r: GroupId) -> Result<f64> {
        let ctx = RunContext::unlimited();
        self.flush_group_ctx(s, &ctx)?;
        self.flush_group_ctx(r, &ctx)?;
        let (len_s, len_r) = (self.group_len(s), self.group_len(r));
        if len_s == 0 || len_r == 0 {
            return Ok(0.0);
        }
        let (n_sr, _) = self.tallies.get(s, r);
        Ok(n_sr as f64 / crate::num::pair_product(len_s, len_r) as f64)
    }

    /// The conservative Property-2 drift interval for `p(S ≻ R)` under the
    /// pending edits: the true probability over the live sets is guaranteed
    /// inside `[lo, hi]`, with `lo == hi` exactly when neither group has
    /// pending deltas. Read-only — never counts.
    pub fn probability_bounds(&self, s: GroupId, r: GroupId) -> (f64, f64) {
        let (zs, zr) = (self.sizes(s), self.sizes(r));
        if zs.cur == 0 || zr.cur == 0 {
            return (0.0, 0.0);
        }
        let (n_lo, n_hi, total) = self.count_bounds(s, r, zs, zr);
        (n_lo as f64 / total as f64, n_hi as f64 / total as f64)
    }

    /// The aggregate skyline of the current state among non-empty groups,
    /// ascending by group id. Exact: folds exactly the groups whose drift
    /// intervals cross γ.
    pub fn skyline(&mut self, gamma: Gamma) -> Result<Vec<GroupId>> {
        self.skyline_ctx(gamma, &RunContext::unlimited()).map(|out| out.groups)
    }

    /// [`DynamicAggregateSkyline::skyline`] under a [`RunContext`]: folding
    /// is budgeted and cancellable, kernel work lands in the recorder
    /// inside a `dyn_certify` span, and the outcome reports deferred vs
    /// flushed pair counts.
    pub fn skyline_ctx(&mut self, gamma: Gamma, ctx: &RunContext) -> Result<DynSkyline> {
        let span = ctx.obs().map_or(0, |rec| {
            rec.span_start("dyn_certify", 0, Stamp::tick(self.stats.record_pairs))
        });
        let out = self.certify(gamma, ctx);
        if let Some(rec) = ctx.obs() {
            let (skyline, deferred, flushed) = out.as_ref().map_or((0, 0, 0), |o| {
                (crate::num::wide(o.groups.len()), o.deferred_pairs, o.flushed_pairs)
            });
            rec.span_end(
                span,
                Stamp::tick(self.stats.record_pairs),
                &[("skyline", skyline), ("deferred", deferred), ("flushed", flushed)],
            );
        }
        out
    }

    /// Folds every group's pending deltas, leaving all tallies exact.
    pub fn flush_ctx(&mut self, ctx: &RunContext) -> Result<FlushReport> {
        let mut total = FlushReport::default();
        for g in 0..self.n_groups() {
            let report = self.flush_group_ctx(g, ctx)?;
            total.flushed_pairs += report.flushed_pairs;
            if report.interrupted.is_some() {
                total.interrupted = report.interrupted;
                return Ok(total);
            }
        }
        Ok(total)
    }

    /// Snapshots the current live state as an immutable [`GroupedDataset`]
    /// (empty groups are skipped; the mapping from snapshot ids to dynamic
    /// ids is returned alongside). Read-only — pending deltas are included
    /// without folding them.
    pub fn snapshot(&self) -> Result<(GroupedDataset, Vec<GroupId>)> {
        let mut b = GroupedDatasetBuilder::new(self.dim).trusted_labels();
        let mut mapping = Vec::new();
        for g in 0..self.n_groups() {
            if self.group_len(g) == 0 {
                continue;
            }
            let rows: Vec<&[f64]> = self.live_rows(g).collect();
            b.push_group(self.labels[g].clone(), &rows)?;
            mapping.push(g);
        }
        Ok((b.build()?, mapping))
    }

    /// Exported base tallies for checkpointing: one complete entry per
    /// pair of non-empty base sets, in canonical orientation, ascending by
    /// key, with the resume cursor at 0 — the format [`PairCache::export`]
    /// writes and [`PairCache::ingest`] validates. Meaningful when nothing
    /// is pending (fold first), which the serving layer guarantees.
    pub fn export_tallies(&self) -> Vec<((GroupId, GroupId), CachedTally)> {
        let n = self.n_groups();
        let mut entries = Vec::new();
        for lo in 0..n {
            for hi in lo + 1..n {
                let (len_lo, len_hi) = (self.base_len(lo), self.base_len(hi));
                if len_lo == 0 || len_hi == 0 {
                    continue;
                }
                let total = crate::num::pair_product(len_lo, len_hi);
                let (n12, n21) = self.tallies.get(lo, hi);
                entries
                    .push(((lo, hi), CachedTally { n12, n21, checked: total, total, cursor: 0 }));
            }
        }
        entries
    }

    /// Validates and installs checkpointed tallies against a preparation of
    /// the current (fully folded) state; see [`PairCache::ingest`]. Each
    /// entry must also be complete and name two groups whose base sets it
    /// covers exactly. All-or-nothing: on any violation nothing is
    /// installed.
    ///
    /// # Errors
    ///
    /// Returns [`Error::CorruptCheckpoint`] naming the offending entry.
    pub fn ingest_tallies(
        &mut self,
        prep: &PreparedDataset,
        entries: &[((GroupId, GroupId), CachedTally)],
    ) -> Result<usize> {
        PairCache::new().ingest(prep, entries)?;
        for &((lo, hi), t) in entries {
            let fits = hi < self.n_groups()
                && t.complete()
                && t.total == crate::num::pair_product(self.base_len(lo), self.base_len(hi));
            if !fits {
                return Err(Error::CorruptCheckpoint(format!(
                    "pair tally ({lo}, {hi}) is partial or does not cover the base sets"
                )));
            }
        }
        for &((lo, hi), t) in entries {
            self.tallies.set(lo, hi, t.n12, t.n21);
        }
        Ok(entries.len())
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    fn base_len(&self, g: GroupId) -> usize {
        self.base[g].len() / self.dim
    }

    fn sizes(&self, g: GroupId) -> Sizes {
        let base = self.base_len(g);
        let (ins, del) = self.pending_edits(g);
        Sizes { cur: base - del + ins, base, ins, del }
    }

    /// Live rows of `g` in index order: base rows minus pending deletes,
    /// then pending inserts.
    fn live_rows(&self, g: GroupId) -> impl Iterator<Item = &[f64]> {
        self.base[g]
            .chunks_exact(self.dim)
            .enumerate()
            .filter(move |(r, _)| self.pending_del[g].binary_search(r).is_err())
            .map(|(_, row)| row)
            .chain(self.pending_ins[g].chunks_exact(self.dim))
    }

    /// Conservative bounds on the live dominating-pair count of the ordered
    /// pair `(s, r)`: `(n_lo, n_hi, |s_cur|·|r_cur|)`, given both groups'
    /// [`Sizes`]. Exact (`n_lo == n_hi`) when neither side has pending
    /// deltas. Callers guarantee both groups are non-empty.
    fn count_bounds(&self, s: GroupId, r: GroupId, zs: Sizes, zr: Sizes) -> (u64, u64, u64) {
        let w = crate::num::wide;
        let total = crate::num::pair_product(zs.cur, zr.cur);
        let (n_base, _) = self.tallies.get(s, r);
        let loss = w(zs.del)
            .saturating_mul(w(zr.base))
            .saturating_add(w(zr.del).saturating_mul(w(zs.base)));
        let gain =
            w(zs.ins).saturating_mul(w(zr.cur)).saturating_add(w(zr.ins).saturating_mul(w(zs.cur)));
        let n_lo = n_base.saturating_sub(loss);
        let n_hi = n_base.saturating_add(gain).min(total);
        (n_lo, n_hi, total)
    }

    /// The certification loop behind [`DynamicAggregateSkyline::skyline_ctx`]:
    /// serves every pair it can from its drift interval and folds the groups
    /// of the pairs it cannot, until the skyline is certified.
    fn certify(&mut self, gamma: Gamma, ctx: &RunContext) -> Result<DynSkyline> {
        let mut flushed_pairs = 0u64;
        let mut interrupted: Option<InterruptReason> = None;
        loop {
            let sizes: Vec<Sizes> = (0..self.n_groups()).map(|g| self.sizes(g)).collect();
            let live: Vec<GroupId> = (0..self.n_groups()).filter(|&g| sizes[g].cur > 0).collect();
            let mut out = Vec::new();
            let mut deferred = 0u64;
            // Groups participating in a γ-straddling drift interval; must
            // fold before the skyline can be certified.
            let mut undecided: Vec<GroupId> = Vec::new();
            for &r in &live {
                let mut dominated = false;
                let mut open = false;
                for &s in &live {
                    if s == r {
                        continue;
                    }
                    let (n_lo, n_hi, total) = self.count_bounds(s, r, sizes[s], sizes[r]);
                    let dom_lo = gamma.dominated(n_lo as f64 / total as f64);
                    // Both endpoints on one side of γ: the verdict holds.
                    let agree =
                        n_lo == n_hi || gamma.dominated(n_hi as f64 / total as f64) == dom_lo;
                    if agree {
                        if n_lo != n_hi {
                            deferred += 1;
                        }
                        if dom_lo {
                            dominated = true;
                        }
                    } else {
                        open = true;
                        for g in [s, r] {
                            if let Err(p) = undecided.binary_search(&g) {
                                undecided.insert(p, g);
                            }
                        }
                    }
                }
                // A certain dominator excludes r whatever the open pairs
                // resolve to; otherwise r stays in (optimistically so when
                // interrupted — the anytime convention).
                if !dominated && (!open || interrupted.is_some()) {
                    out.push(r);
                }
            }
            let open_groups = undecided.iter().any(|&g| self.pending_edits(g) != (0, 0));
            if interrupted.is_some() || !open_groups {
                ctx.recorder().add(ObsCounter::DynDeferred, deferred);
                return Ok(DynSkyline {
                    groups: out,
                    deferred_pairs: deferred,
                    flushed_pairs,
                    interrupted,
                });
            }
            for g in undecided {
                let report = self.flush_group_ctx(g, ctx)?;
                flushed_pairs += report.flushed_pairs;
                if report.interrupted.is_some() {
                    interrupted = report.interrupted;
                    break;
                }
            }
        }
    }

    /// Folds group `g`'s pending deltas into its base inside a `dyn_fold`
    /// span; see [`DynamicAggregateSkyline::fold_group`].
    fn flush_group_ctx(&mut self, g: GroupId, ctx: &RunContext) -> Result<FlushReport> {
        let (ins_cnt, del_cnt) = self.pending_edits(g);
        if ins_cnt == 0 && del_cnt == 0 {
            return Ok(FlushReport::default());
        }
        let span = ctx
            .obs()
            .map_or(0, |rec| rec.span_start("dyn_fold", 0, Stamp::tick(self.stats.record_pairs)));
        let report = self.fold_group(g, ctx);
        if let Some(rec) = ctx.obs() {
            let w = crate::num::wide;
            let revised = report.as_ref().map_or(0, |r| r.flushed_pairs);
            rec.span_end(
                span,
                Stamp::tick(self.stats.record_pairs),
                &[
                    ("group", w(g)),
                    ("inserts", w(ins_cnt)),
                    ("deletes", w(del_cnt)),
                    ("pairs", revised),
                ],
            );
        }
        report
    }

    /// Folds group `g`'s pending deltas into its base, revising every
    /// touched pair tally through the kernel: the insert and delete
    /// buffers are prepared once and counted against each other non-empty
    /// base set's kept preparation. All-or-nothing: an interrupt (or a
    /// chaos panic inside the counting) leaves base, buffers and tallies
    /// exactly as they were; preparations built on the way stay, as their
    /// base sets did not change.
    fn fold_group(&mut self, g: GroupId, ctx: &RunContext) -> Result<FlushReport> {
        let (ins_cnt, del_cnt) = self.pending_edits(g);
        // A prepared kernel's block size; `Exhaustive` never gets here, as
        // the constructors reject it.
        let block_size = self.kernel.block_size().unwrap_or(PreparedDataset::DEFAULT_BLOCK_SIZE);
        let del_rows: Vec<f64> = self.pending_del[g]
            .iter()
            .flat_map(|&r| self.base[g][r * self.dim..(r + 1) * self.dim].iter().copied())
            .collect();
        let ins_prep = (ins_cnt > 0)
            .then(|| prepare_rows(self.dim, block_size, &self.pending_ins[g]))
            .transpose()?;
        let del_prep =
            (del_cnt > 0).then(|| prepare_rows(self.dim, block_size, &del_rows)).transpose()?;
        let new_b = self.base_len(g) - del_cnt + ins_cnt;
        // Stage every revision before committing anything: a panic or an
        // interrupt mid-count must not leave half-revised tallies.
        let mut staged: Vec<(GroupId, u64, u64, u64)> = Vec::new();
        for s in 0..self.n_groups() {
            let len_s = self.base_len(s);
            if s == g || len_s == 0 {
                continue;
            }
            let (mut n_gs, mut n_sg) = self.tallies.get(g, s);
            let base: &PreparedDataset = match &mut self.preps[s] {
                Some(prep) => prep,
                slot => slot.insert(prepare_rows(self.dim, block_size, &self.base[s])?),
            };
            if let Some(ins) = &ins_prep {
                match count_delta(self.kernel, ins, base, &mut self.stats, ctx)? {
                    Counted::Done(w, l) => {
                        n_gs = n_gs.saturating_add(w);
                        n_sg = n_sg.saturating_add(l);
                    }
                    Counted::Stopped(reason) => {
                        return Ok(FlushReport { flushed_pairs: 0, interrupted: Some(reason) });
                    }
                }
            }
            if let Some(del) = &del_prep {
                match count_delta(self.kernel, del, base, &mut self.stats, ctx)? {
                    Counted::Done(w, l) => {
                        // Deleted pairs were part of the base tally, so the
                        // subtraction cannot underflow.
                        n_gs = n_gs.checked_sub(w).ok_or_else(|| tally_drift(g, s))?;
                        n_sg = n_sg.checked_sub(l).ok_or_else(|| tally_drift(g, s))?;
                    }
                    Counted::Stopped(reason) => {
                        return Ok(FlushReport { flushed_pairs: 0, interrupted: Some(reason) });
                    }
                }
            }
            let total = crate::num::pair_count(new_b, len_s)?;
            staged.push((s, n_gs, n_sg, total));
        }

        // Validate every staged tally before committing anything, so the
        // install loop below cannot fail halfway through.
        for &(s, n_gs, n_sg, total) in &staged {
            if n_gs.saturating_add(n_sg) > total {
                return Err(tally_drift(g, s));
            }
        }

        // Commit: rebuild the base row store, clear the buffers, drop the
        // group's stale preparation, install the staged tallies (all zero
        // when the base set emptied).
        let ins_rows = std::mem::take(&mut self.pending_ins[g]);
        for &r in self.pending_del[g].iter().rev() {
            self.base[g].drain(r * self.dim..(r + 1) * self.dim);
        }
        self.pending_del[g].clear();
        self.base[g].extend_from_slice(&ins_rows);
        debug_assert_eq!(self.base_len(g), new_b);
        self.preps[g] = None;
        for &(s, n_gs, n_sg, _) in &staged {
            self.tallies.set(g, s, n_gs, n_sg);
        }
        let flushed = crate::num::wide(staged.len());
        ctx.recorder().add(ObsCounter::DynFlushedPairs, flushed);
        Ok(FlushReport { flushed_pairs: flushed, interrupted: None })
    }
}

/// One-group preparation of the row-major `rows` at `block_size`: the same
/// sorted blocks and key lanes the group gets inside any joint
/// preparation, so counting against it is bit-identical.
fn prepare_rows(dim: usize, block_size: usize, rows: &[f64]) -> Result<PreparedDataset> {
    let records: Vec<&[f64]> = rows.chunks_exact(dim).collect();
    let mut b = GroupedDatasetBuilder::new(dim).trusted_labels();
    b.push_group("rows", &records)?;
    PreparedDataset::build(&b.build()?, block_size)
}

/// Counts `(|Δ ≻ S_base|, |S_base ≻ Δ|)` for a prepared delta buffer
/// against the kept preparation of a base set through
/// [`count_pairs_across`]. Work is charged to `stats`, mirrored to the
/// context's recorder, and polled against the context's budget.
fn count_delta(
    kernel: KernelConfig,
    delta: &PreparedDataset,
    base: &PreparedDataset,
    stats: &mut Stats,
    ctx: &RunContext,
) -> Result<Counted> {
    let mut work = Stats::default();
    let (n12, n21) = count_pairs_across(kernel, delta, 0, base, 0, &mut work)?;
    stats.merge(&work);
    if let Some(rec) = ctx.obs() {
        work.record_to(rec);
    }
    match ctx.poll(work.record_pairs) {
        Some(reason) => Ok(Counted::Stopped(reason)),
        None => Ok(Counted::Done(n12, n21)),
    }
}

fn tally_drift(g: GroupId, s: GroupId) -> Error {
    Error::InvalidArgument(format!(
        "internal: delete recount for pair ({g}, {s}) exceeds the memoized base tally"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::naive_skyline;
    use crate::testdata::lcg;

    /// Differential test: a random sequence of inserts/removes must always
    /// leave the dynamic structure consistent with a from-scratch recompute.
    #[test]
    fn random_update_sequences_match_recompute() {
        for seed in 0..10u64 {
            let mut next = lcg(100 + seed);
            let dim = 1 + (next() * 3.0) as usize;
            let mut dynamic = DynamicAggregateSkyline::new(dim);
            for g in 0..5 {
                dynamic.add_group(format!("g{g}"));
            }
            for step in 0..60 {
                let g = (next() * 5.0) as usize % 5;
                let remove = next() < 0.3 && dynamic.group_len(g) > 0;
                if remove {
                    let idx =
                        (next() * dynamic.group_len(g) as f64) as usize % dynamic.group_len(g);
                    dynamic.remove(g, idx).unwrap();
                } else {
                    let rec: Vec<f64> = (0..dim).map(|_| (next() * 6.0).floor()).collect();
                    dynamic.insert(g, &rec).unwrap();
                }
                // Cross-check against the oracle on the snapshot.
                if dynamic.n_records() == 0 {
                    continue;
                }
                let (snap, mapping) = dynamic.snapshot().unwrap();
                let oracle: Vec<GroupId> = naive_skyline(&snap, Gamma::DEFAULT)
                    .skyline
                    .into_iter()
                    .map(|g| mapping[g])
                    .collect();
                assert_eq!(
                    dynamic.skyline(Gamma::DEFAULT).unwrap(),
                    oracle,
                    "seed={seed} step={step}"
                );
                for s in 0..5 {
                    for r in 0..5 {
                        if s == r || dynamic.group_len(s) == 0 || dynamic.group_len(r) == 0 {
                            continue;
                        }
                        let si = mapping.iter().position(|&m| m == s).unwrap();
                        let ri = mapping.iter().position(|&m| m == r).unwrap();
                        let expect = crate::gamma::domination_probability(&snap, si, ri);
                        let got = dynamic.domination_probability(s, r).unwrap();
                        assert!((expect - got).abs() < 1e-12, "p({s},{r})");
                        // With everything folded the drift interval must
                        // collapse to the exact probability.
                        let (lo, hi) = dynamic.probability_bounds(s, r);
                        assert_eq!(lo, hi, "collapsed interval for ({s},{r})");
                        assert!((lo - got).abs() < 1e-12);
                    }
                }
            }
        }
    }

    #[test]
    fn empty_groups_are_invisible() {
        let mut d = DynamicAggregateSkyline::new(2);
        let a = d.add_group("a");
        let b = d.add_group("b");
        assert_eq!(d.skyline(Gamma::DEFAULT).unwrap(), vec![]);
        d.insert(a, &[1.0, 1.0]).unwrap();
        assert_eq!(d.skyline(Gamma::DEFAULT).unwrap(), vec![a]);
        d.insert(b, &[2.0, 2.0]).unwrap();
        assert_eq!(d.skyline(Gamma::DEFAULT).unwrap(), vec![b]);
        // Remove b's only record: a rules again.
        d.remove(b, 0).unwrap();
        assert_eq!(d.skyline(Gamma::DEFAULT).unwrap(), vec![a]);
    }

    #[test]
    fn late_group_addition_joins_the_tallies() {
        let mut d = DynamicAggregateSkyline::new(2);
        let a = d.add_group("a");
        d.insert(a, &[5.0, 5.0]).unwrap();
        let b = d.add_group("b");
        d.insert(b, &[1.0, 1.0]).unwrap();
        assert_eq!(d.domination_probability(a, b).unwrap(), 1.0);
        assert_eq!(d.skyline(Gamma::DEFAULT).unwrap(), vec![a]);
        let c = d.add_group("c");
        d.insert(c, &[9.0, 9.0]).unwrap();
        assert_eq!(d.skyline(Gamma::DEFAULT).unwrap(), vec![c]);
    }

    #[test]
    fn insert_validates_input() {
        let mut d = DynamicAggregateSkyline::new(2);
        let g = d.add_group("g");
        assert!(d.insert(g, &[1.0]).is_err());
        assert!(d.insert(g, &[1.0, f64::NAN]).is_err());
        assert!(d.remove(g, 0).is_err());
    }

    #[test]
    fn from_dataset_round_trips() {
        let ds = crate::testdata::movie_directors();
        let mut d = DynamicAggregateSkyline::from_dataset(&ds).unwrap();
        assert_eq!(d.n_records(), ds.n_records());
        let oracle = naive_skyline(&ds, Gamma::DEFAULT).skyline;
        assert_eq!(d.skyline(Gamma::DEFAULT).unwrap(), oracle);
    }

    /// The paper's motivating story: one bad movie from a great director
    /// nudges γ but, per Property 2, cannot swing it arbitrarily.
    #[test]
    fn single_insert_moves_gamma_boundedly() {
        let ds = crate::testdata::movie_directors();
        let mut d = DynamicAggregateSkyline::from_dataset(&ds).unwrap();
        let t = ds.group_by_label("Tarantino").unwrap();
        let w = ds.group_by_label("Wiseau").unwrap();
        let before = d.domination_probability(t, w).unwrap();
        assert_eq!(before, 1.0);
        // Tarantino releases a stinker. Before folding, the drift interval
        // must still contain the true probability.
        d.insert(t, &[1.0, 1.0]).unwrap();
        let (lo, hi) = d.probability_bounds(t, w);
        let after = d.domination_probability(t, w).unwrap();
        assert!(lo <= after + 1e-12 && after <= hi + 1e-12, "[{lo}, {hi}] ∌ {after}");
        // ε = 1/2 relative to the previous 2 records: γ(1−ε) = 0.5 ≤ γ'.
        assert!(after >= 1.0 / 1.5 - 1e-12, "after = {after}");
        assert!(after < 1.0);
    }

    /// The defer-recompute rule: an insert that cannot move any pair across
    /// γ is absorbed without kernel work; one that can forces a fold.
    #[test]
    fn deferral_skips_kernel_work_until_gamma_is_threatened() {
        let mut d = DynamicAggregateSkyline::new(2);
        let a = d.add_group("a");
        let b = d.add_group("b");
        for i in 0..8 {
            d.insert(a, &[10.0 + i as f64, 10.0]).unwrap();
            d.insert(b, &[1.0 + i as f64, 1.0]).unwrap();
        }
        assert_eq!(d.skyline(Gamma::DEFAULT).unwrap(), vec![a]);
        let folded = d.stats().record_pairs;
        // One more dominated record for b: p(a ≻ b) can only stay above γ
        // (it was 1, and one edit moves it by at most 1/9 < 1 − γ̄ slack
        // with γ = 0.5 ... ), so the query is served from the interval.
        d.insert(b, &[2.0, 2.0]).unwrap();
        let out = d.skyline_ctx(Gamma::DEFAULT, &RunContext::unlimited()).unwrap();
        assert_eq!(out.groups, vec![a]);
        assert!(out.deferred_pairs > 0, "{out:?}");
        assert_eq!(out.flushed_pairs, 0, "{out:?}");
        assert_eq!(d.stats().record_pairs, folded, "no kernel work while deferred");
        assert!(d.has_pending());
        // Enough dominating records that p(b ≻ a) *could* cross γ = 0.5
        // (the drift interval's upper endpoint passes 1/2): forced fold.
        for _ in 0..10 {
            d.insert(b, &[99.0, 99.0]).unwrap();
        }
        let out = d.skyline_ctx(Gamma::DEFAULT, &RunContext::unlimited()).unwrap();
        assert!(out.flushed_pairs > 0, "{out:?}");
        assert!(d.stats().record_pairs > folded);
        assert!(!d.has_pending());
    }

    /// Budget interruption mid-fold leaves the structure consistent: the
    /// pending deltas survive, and an unlimited retry matches the oracle.
    #[test]
    fn interrupted_fold_is_resumable() {
        let mut d = DynamicAggregateSkyline::new(2);
        let a = d.add_group("a");
        let b = d.add_group("b");
        for i in 0..20 {
            d.insert(a, &[i as f64, 20.0 - i as f64]).unwrap();
            d.insert(b, &[i as f64 + 0.5, 20.5 - i as f64]).unwrap();
        }
        let tiny = RunContext::with_budget(1);
        let out = d.skyline_ctx(Gamma::DEFAULT, &tiny).unwrap();
        assert_eq!(out.interrupted, Some(InterruptReason::BudgetExhausted));
        assert!(d.has_pending(), "interrupted fold must not half-commit");
        let (snap, mapping) = d.snapshot().unwrap();
        let oracle: Vec<GroupId> =
            naive_skyline(&snap, Gamma::DEFAULT).skyline.into_iter().map(|g| mapping[g]).collect();
        assert_eq!(d.skyline(Gamma::DEFAULT).unwrap(), oracle);
        assert!(!d.has_pending());
    }

    /// The dense table keeps one orientation-free slot per unordered pair
    /// and grows by one row per added group without moving earlier slots.
    #[test]
    fn tally_table_slots_are_orientation_free() {
        let mut t = TallyTable::default();
        for g in 0..4 {
            t.push_row(g);
        }
        assert_eq!(t.cells.len(), 6);
        t.set(3, 1, 7, 2);
        t.set(0, 2, 5, 0);
        assert_eq!(t.get(3, 1), (7, 2));
        assert_eq!(t.get(1, 3), (2, 7));
        assert_eq!(t.get(2, 0), (0, 5));
        assert_eq!(t.get(2, 2), (0, 0), "a group never dominates itself");
        t.push_row(4);
        assert_eq!(t.get(1, 3), (2, 7), "a new row leaves earlier slots in place");
        assert_eq!(t.get(4, 0), (0, 0));
    }

    /// A fold interrupted after it prepared a group keeps that preparation
    /// (its base set did not change) and nothing else; the unlimited retry
    /// commits exact tallies and drops the folded group's own preparation.
    #[test]
    fn interrupted_fold_keeps_built_preparations() {
        let mut d = DynamicAggregateSkyline::new(2);
        let rows: [&[[f64; 2]]; 4] = [
            &[[5.0, 5.0]],
            &[[0.0, 0.0], [1.0, 0.0]],
            &[[100.0, 100.0]],
            &[[6.0, 4.5], [4.0, 6.0]],
        ];
        for (g, recs) in rows.iter().enumerate() {
            d.add_group(format!("g{g}"));
            for rec in recs.iter() {
                d.insert(g, rec).unwrap();
            }
        }
        d.flush_ctx(&RunContext::unlimited()).unwrap();
        // Each fold prepared the groups folded before it; the last one folded
        // has no preparation yet.
        assert_eq!(
            d.preps.iter().map(Option::is_some).collect::<Vec<_>>(),
            [true, true, true, false]
        );
        let before = d.export_tallies();
        // Group 0's insert counts against groups 1 and 2 in full blocks (no
        // ticks), then against group 3 with one record test: a one-tick
        // budget stops the fold right after it prepared group 3.
        d.insert(0, &[5.0, 5.0]).unwrap();
        let report = d.flush_ctx(&RunContext::with_budget(1)).unwrap();
        assert_eq!(report.interrupted, Some(InterruptReason::BudgetExhausted));
        assert!(d.preps[3].is_some(), "the preparation built before the interrupt stays");
        assert_eq!(d.pending_edits(0), (1, 0), "an interrupted fold commits nothing");
        assert_eq!(d.export_tallies(), before);
        let report = d.flush_ctx(&RunContext::unlimited()).unwrap();
        assert_eq!((report.flushed_pairs, report.interrupted), (3, None));
        assert!(d.preps[0].is_none(), "the folded group's preparation is stale");
        let (snap, mapping) = d.snapshot().unwrap();
        assert_eq!(mapping, [0, 1, 2, 3], "every group is live");
        for ((lo, hi), t) in d.export_tallies() {
            assert_eq!(t.n12, crate::gamma::domination_count(&snap, lo, hi), "({lo}, {hi})");
            assert_eq!(t.n21, crate::gamma::domination_count(&snap, hi, lo), "({lo}, {hi})");
        }
    }

    /// Certification runs inside one balanced `dyn_certify` span holding
    /// one `dyn_fold` span per folded group, with the fold's sizes and
    /// revised pairs as arguments.
    #[test]
    fn folds_are_traced_inside_the_certify_span() {
        let rec = std::sync::Arc::new(aggsky_obs::TraceRecorder::new());
        let ctx = RunContext::unlimited().with_recorder(rec.clone());
        let mut d = DynamicAggregateSkyline::new(2);
        let a = d.add_group("a");
        let b = d.add_group("b");
        d.insert_ctx(a, &[5.0, 5.0], &ctx).unwrap();
        d.insert_ctx(a, &[6.0, 1.0], &ctx).unwrap();
        d.insert_ctx(b, &[1.0, 1.0], &ctx).unwrap();
        let out = d.skyline_ctx(Gamma::DEFAULT, &ctx).unwrap();
        assert_eq!((out.groups, out.flushed_pairs), (vec![a], 1));
        let spans = rec.snapshot().spans;
        assert!(spans.iter().all(|s| s.end.is_some()), "every span is closed: {spans:?}");
        let certify: Vec<_> = spans.iter().filter(|s| s.name == "dyn_certify").collect();
        assert_eq!(certify.len(), 1, "{spans:?}");
        assert_eq!(certify[0].args, [("skyline", 1), ("deferred", 0), ("flushed", 1)]);
        let folds: Vec<_> = spans.iter().filter(|s| s.name == "dyn_fold").collect();
        assert!(folds.iter().all(|s| s.parent == certify[0].id), "{spans:?}");
        let args: Vec<_> = folds.iter().map(|s| s.args.clone()).collect();
        assert_eq!(
            args,
            [
                vec![("group", 0), ("inserts", 2), ("deletes", 0), ("pairs", 0)],
                vec![("group", 1), ("inserts", 1), ("deletes", 0), ("pairs", 1)],
            ]
        );
    }

    /// Tallies are kernel-config independent: columnar-scalar and
    /// columnar-auto maintenance produce bit-identical skylines, tallies
    /// and Stats on the same edit stream.
    #[test]
    fn kernel_configs_agree_bit_for_bit() {
        let configs = [
            KernelConfig::ColumnarScalar { block_size: 4 },
            KernelConfig::Columnar { block_size: 4 },
        ];
        let mut outcomes = Vec::new();
        for cfg in configs {
            let mut d = DynamicAggregateSkyline::with_kernel(2, cfg).unwrap();
            let mut next = lcg(7);
            for g in 0..4 {
                d.add_group(format!("g{g}"));
            }
            let mut skylines = Vec::new();
            for _ in 0..40 {
                let g = (next() * 4.0) as usize % 4;
                if next() < 0.25 && d.group_len(g) > 0 {
                    let idx = (next() * d.group_len(g) as f64) as usize % d.group_len(g);
                    d.remove(g, idx).unwrap();
                } else {
                    d.insert(g, &[(next() * 9.0).floor(), (next() * 9.0).floor()]).unwrap();
                }
                skylines.push(d.skyline(Gamma::DEFAULT).unwrap());
            }
            outcomes.push((skylines, d.export_tallies(), *d.stats()));
        }
        assert_eq!(outcomes[0], outcomes[1], "columnar-scalar vs columnar-auto");
    }

    #[test]
    fn exhaustive_kernel_is_rejected() {
        let err = DynamicAggregateSkyline::with_kernel(2, KernelConfig::Exhaustive).unwrap_err();
        assert!(matches!(err, Error::InvalidArgument(_)), "{err}");
    }

    /// Removing a record that was itself still pending cancels it without
    /// ever touching a tally.
    #[test]
    fn removing_a_pending_insert_is_free() {
        let mut d = DynamicAggregateSkyline::new(2);
        let a = d.add_group("a");
        let b = d.add_group("b");
        d.insert(a, &[5.0, 5.0]).unwrap();
        d.insert(b, &[1.0, 1.0]).unwrap();
        assert_eq!(d.skyline(Gamma::DEFAULT).unwrap(), vec![a]);
        let before = d.stats().record_pairs;
        d.insert(b, &[9.0, 9.0]).unwrap();
        assert_eq!(d.find_record(b, &[9.0, 9.0]), Some(1));
        let got = d.remove(b, 1).unwrap();
        assert_eq!(got, vec![9.0, 9.0]);
        assert_eq!(d.skyline(Gamma::DEFAULT).unwrap(), vec![a]);
        assert_eq!(d.stats().record_pairs, before, "cancelled insert must cost nothing");
    }
}
