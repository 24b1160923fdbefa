//! Epoch-based live serving of aggregate skylines.
//!
//! [`SkylineService`] wraps a [`DynamicAggregateSkyline`] writer behind an
//! epoch-snapshot reader protocol:
//!
//! * **Readers** grab the current [`Epoch`] — an immutable, atomically
//!   published bundle of the live dataset, its [`PreparedDataset`], the
//!   service-γ skyline, and a [`PairCache`] pre-seeded with the writer's
//!   exact tallies — and answer γ-queries or γ-sweeps against it with no
//!   locks held and no coordination with the writer. Grabbing the epoch
//!   takes the epoch `RwLock` just long enough to clone the `Arc`, so a
//!   reader waits only for a publish's pointer swap, never for a fold.
//! * **A single writer** absorbs a [`WriteBatch`], maintains the tallies
//!   incrementally (Property-2 deferral included, see [`crate::dynamic`]),
//!   rebuilds only the *dirty* groups' lane blocks through
//!   [`PreparedDataset::rebuild_dirty`], and publishes the next epoch with
//!   one pointer swap.
//!
//! Publication is the **last** step of [`SkylineService::apply_ctx`], so a
//! writer that panics mid-batch (chaos-tested with
//! [`FaultPlan::panic_at_pair`](crate::runctx::FaultPlan)) leaves the old
//! epoch fully intact — readers never observe a half-built snapshot, and
//! the poisoned writer lock is recovered on the next apply because the
//! underlying fold protocol is all-or-nothing per group.
//!
//! Epochs persist through the §15 checkpoint frame codec:
//! [`SkylineService::persist`] writes the live dataset fingerprint (epoch
//! id in the seed slot) plus every exact tally, and
//! [`SkylineService::restore`] warm-starts from such a frame without any
//! kernel recounting — falling back to a cold rebuild when the frame is
//! missing, torn, or belongs to different data.

use crate::algorithms::{AlgoOptions, Algorithm};
use crate::dataset::{GroupId, GroupedDataset};
use crate::dynamic::DynamicAggregateSkyline;
use crate::error::{Error, Result};
use crate::gamma::Gamma;
use crate::paircache::{CachedTally, PairCache};
use crate::persist::{CheckpointStore, Fingerprint, PairEntry, SaveReceipt, Snapshot};
use crate::prepared::PreparedDataset;
use crate::runctx::{InterruptReason, RunContext};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, RwLock};

/// One write operation of a [`WriteBatch`]. Groups are addressed by label:
/// inserting into an unknown label creates the group, deleting from one is
/// an error.
#[derive(Debug, Clone, PartialEq)]
pub enum WriteOp {
    /// Insert `record` into the group labelled `group` (created if new).
    Insert {
        /// Target group label.
        group: String,
        /// Record coordinates (must match the service dimensionality).
        record: Vec<f64>,
    },
    /// Delete the first record of `group` whose coordinates are
    /// bit-identical to `record`.
    Delete {
        /// Target group label.
        group: String,
        /// Coordinates of the record to remove.
        record: Vec<f64>,
    },
}

/// An ordered batch of write operations, absorbed into one new epoch.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct WriteBatch {
    /// The operations, applied in order.
    pub ops: Vec<WriteOp>,
}

impl WriteBatch {
    /// An empty batch.
    pub fn new() -> WriteBatch {
        WriteBatch::default()
    }

    /// Appends an insert (builder style).
    pub fn insert(mut self, group: impl Into<String>, record: &[f64]) -> WriteBatch {
        self.ops.push(WriteOp::Insert { group: group.into(), record: record.to_vec() });
        self
    }

    /// Appends a delete-by-value (builder style).
    pub fn delete(mut self, group: impl Into<String>, record: &[f64]) -> WriteBatch {
        self.ops.push(WriteOp::Delete { group: group.into(), record: record.to_vec() });
        self
    }

    /// Number of operations in the batch.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the batch holds no operations.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

/// What applying a batch produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpochReceipt {
    /// Id of the epoch now serving reads: the newly published one, or the
    /// unchanged previous epoch when `interrupted` is `Some`.
    pub epoch: u64,
    /// Write operations absorbed from the batch.
    pub batch_rows: u64,
    /// Pairs served from the Property-2 drift interval without recounting
    /// while certifying the new epoch's skyline.
    pub deferred_pairs: u64,
    /// Pair tallies recomputed through the kernel because their drift
    /// interval crossed γ.
    pub flushed_pairs: u64,
    /// `Some` when the context's budget or cancellation stopped the fold:
    /// the batch's edits stay pending in the writer and **no epoch was
    /// published** — apply a further (possibly empty) batch with more
    /// budget to publish the pending edits. Do **not** re-submit the same
    /// batch: its operations were already absorbed and would apply twice.
    pub interrupted: Option<InterruptReason>,
}

/// How [`SkylineService::restore`] started.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeRecovery {
    /// A checkpoint frame matched the dataset: tallies were installed
    /// without recounting and serving resumed at the persisted epoch id.
    Warm {
        /// Epoch id recovered from the frame's fingerprint seed.
        epoch: u64,
        /// Number of pair tallies installed from the frame.
        pairs: usize,
    },
    /// No usable frame (missing, torn, or fingerprint mismatch): the
    /// service rebuilt its state from the dataset alone.
    Cold,
}

/// An immutable, atomically published snapshot of the service state.
///
/// Readers hold an `Arc<Epoch>` and answer any number of γ-queries and
/// γ-sweeps against it concurrently; a later publish never invalidates an
/// epoch already handed out.
#[derive(Debug)]
pub struct Epoch {
    id: u64,
    snapshot: GroupedDataset,
    /// `mapping[snapshot_id] = service_id`, strictly ascending (the
    /// snapshot skips empty groups).
    mapping: Vec<GroupId>,
    prep: Arc<PreparedDataset>,
    /// The service-γ skyline, in service group ids, ascending.
    skyline: Vec<GroupId>,
    /// Tallies exact at publish time, keyed by snapshot ids; queries clone
    /// this, so fully folded pairs are never recounted by readers.
    cache: PairCache,
}

impl Epoch {
    /// Monotone epoch id (0 for a fresh service).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The live records at publish time (empty groups omitted), addressed
    /// by *snapshot* ids; translate with [`Epoch::service_id`].
    pub fn dataset(&self) -> &GroupedDataset {
        &self.snapshot
    }

    /// The epoch's shared preparation (sorted blocks + key lanes).
    pub fn prepared(&self) -> &Arc<PreparedDataset> {
        &self.prep
    }

    /// Service group id of snapshot group `si`.
    pub fn service_id(&self, si: GroupId) -> GroupId {
        self.mapping[si]
    }

    /// The skyline at the service γ, in service group ids, ascending.
    pub fn skyline(&self) -> &[GroupId] {
        &self.skyline
    }

    /// Labels of the service-γ skyline, sorted.
    pub fn skyline_labels(&self) -> Vec<&str> {
        let snapshot_ids: Vec<GroupId> =
            self.skyline.iter().filter_map(|g| self.mapping.binary_search(g).ok()).collect();
        self.snapshot.sorted_labels(&snapshot_ids)
    }

    /// The aggregate skyline of this epoch at an arbitrary `gamma`, in
    /// service group ids, ascending. Pairs already folded by the writer are
    /// served from the seeded tally cache; only pairs that were still
    /// deferred at publish time cost kernel work.
    pub fn query(&self, gamma: Gamma) -> Vec<GroupId> {
        let mut cache = self.cache.clone();
        self.query_with(gamma, &mut cache)
    }

    /// Runs [`Algorithm::Indexed`] at every threshold in `gammas`, sharing
    /// this epoch's preparation and one tally cache across the whole sweep.
    pub fn sweep(&self, gammas: &[Gamma]) -> Vec<(Gamma, Vec<GroupId>)> {
        let mut cache = self.cache.clone();
        gammas.iter().map(|&gamma| (gamma, self.query_with(gamma, &mut cache))).collect()
    }

    fn query_with(&self, gamma: Gamma, cache: &mut PairCache) -> Vec<GroupId> {
        // Exact pruning: the paper's heuristic can keep a group the naive
        // oracle excludes, and a read must return the writer's skyline.
        let opts = AlgoOptions::exact(gamma);
        let result = Algorithm::Indexed
            .run_cached_ctx(&self.snapshot, &self.prep, opts, cache, &RunContext::unlimited())
            .unwrap_or_partial();
        result.skyline.iter().map(|&si| self.mapping[si]).collect()
    }
}

/// Writer-side state, serialized behind the service's writer lock.
#[derive(Debug)]
struct WriterState {
    engine: DynamicAggregateSkyline,
    /// Label → service group id (labels are never forgotten; a group whose
    /// records are all deleted keeps its id and simply drops out of the
    /// snapshots).
    index: HashMap<String, GroupId>,
    next_epoch: u64,
    /// Groups whose records changed since the last **published** epoch.
    /// Accumulated across applies and cleared only after a successful
    /// publish: a failed or interrupted apply leaves its edits pending in
    /// the writer (possibly already folded into a group's base), and the
    /// next successful publish must still rebuild those groups' prepared
    /// segments — their net length may be unchanged, which would otherwise
    /// slip past [`PreparedDataset::rebuild_dirty`]'s length guard and
    /// publish stale sorted rows. Indices past the end are treated as
    /// dirty by [`build_epoch`].
    dirty: Vec<bool>,
}

impl WriterState {
    fn group_for(&mut self, label: &str) -> GroupId {
        if let Some(&g) = self.index.get(label) {
            return g;
        }
        let g = self.engine.add_group(label);
        self.index.insert(label.to_string(), g);
        g
    }
}

/// Concurrent aggregate-skyline serving: epoch reads that wait only for the
/// pointer swap of a publish, a single incremental writer, atomic
/// publication, durable checkpoints.
///
/// ```
/// use aggsky_core::service::{SkylineService, WriteBatch};
/// use aggsky_core::Gamma;
///
/// let svc = SkylineService::new(2, Gamma::DEFAULT).unwrap();
/// let batch = WriteBatch::new()
///     .insert("Tarantino", &[557.0, 9.0])
///     .insert("Wiseau", &[10.0, 3.2]);
/// let receipt = svc.apply(&batch).unwrap();
/// assert_eq!(receipt.epoch, 1);
/// let epoch = svc.current();
/// assert_eq!(epoch.skyline_labels(), vec!["Tarantino"]);
/// ```
#[derive(Debug)]
pub struct SkylineService {
    gamma: Gamma,
    writer: Mutex<WriterState>,
    current: RwLock<Arc<Epoch>>,
}

impl SkylineService {
    /// An empty service of `dim`-dimensional records at threshold `gamma`,
    /// serving epoch 0 (no groups).
    ///
    /// # Errors
    ///
    /// Returns [`Error::ZeroDimensions`] when `dim` is zero.
    pub fn new(dim: usize, gamma: Gamma) -> Result<SkylineService> {
        if dim == 0 {
            return Err(Error::ZeroDimensions);
        }
        SkylineService::bootstrap(DynamicAggregateSkyline::new(dim), gamma, 0)
    }

    /// A service pre-loaded with `ds`, serving it as epoch 0. The initial
    /// materialization counts every group pair once through the kernel.
    pub fn from_dataset(ds: &GroupedDataset, gamma: Gamma) -> Result<SkylineService> {
        SkylineService::bootstrap(DynamicAggregateSkyline::from_dataset(ds)?, gamma, 0)
    }

    /// Restores a service for `ds` from the newest usable checkpoint frame
    /// in `store`: when the frame's fingerprint matches the dataset (epoch
    /// id aside), the persisted exact tallies are installed **without any
    /// kernel recounting** and serving resumes at the persisted epoch id;
    /// otherwise — no frame, torn frames, foreign data, or invalid
    /// tallies — the service starts cold from `ds` alone. The outcome is
    /// reported in the returned [`ServeRecovery`].
    pub fn restore(
        ds: &GroupedDataset,
        gamma: Gamma,
        store: &CheckpointStore,
    ) -> Result<(SkylineService, ServeRecovery)> {
        let expected = Fingerprint::of(ds, gamma);
        let recovery = store.load()?;
        if let Some((_seq, frame)) = recovery.snapshot {
            let mut found = frame.fingerprint;
            let epoch_id = found.seed;
            found.seed = expected.seed;
            if found == expected {
                let entries: Vec<((GroupId, GroupId), CachedTally)> =
                    frame.pairs.iter().map(|p| ((p.lo, p.hi), p.tally)).collect();
                if let Ok(engine) = DynamicAggregateSkyline::from_dataset_with_tallies(ds, &entries)
                {
                    let svc = SkylineService::bootstrap(engine, gamma, epoch_id)?;
                    return Ok((
                        svc,
                        ServeRecovery::Warm { epoch: epoch_id, pairs: entries.len() },
                    ));
                }
            }
        }
        Ok((SkylineService::from_dataset(ds, gamma)?, ServeRecovery::Cold))
    }

    fn bootstrap(
        engine: DynamicAggregateSkyline,
        gamma: Gamma,
        first_epoch: u64,
    ) -> Result<SkylineService> {
        let index = (0..engine.n_groups()).map(|g| (engine.label(g).to_string(), g)).collect();
        let dirty = vec![false; engine.n_groups()];
        let mut w = WriterState { engine, index, next_epoch: first_epoch, dirty };
        let (epoch, _outcome) = build_epoch(&mut w, gamma, None, &[], &RunContext::unlimited())?;
        w.next_epoch += 1;
        Ok(SkylineService { gamma, writer: Mutex::new(w), current: RwLock::new(Arc::new(epoch)) })
    }

    /// The service's γ threshold (epoch skylines are certified at it).
    pub fn gamma(&self) -> Gamma {
        self.gamma
    }

    /// The epoch currently serving reads. The returned handle stays valid
    /// (and immutable) however many epochs are published after it. Takes
    /// the epoch lock only to clone the `Arc`: a reader waits for a
    /// publish's pointer swap, never for the writer's fold.
    pub fn current(&self) -> Arc<Epoch> {
        self.current.read().unwrap_or_else(|p| p.into_inner()).clone()
    }

    /// [`SkylineService::apply_ctx`] with an unlimited context.
    pub fn apply(&self, batch: &WriteBatch) -> Result<EpochReceipt> {
        self.apply_ctx(batch, &RunContext::unlimited())
    }

    /// Absorbs `batch` and publishes the next epoch.
    ///
    /// The writer applies every operation to the incremental engine (O(1)
    /// each), certifies the new skyline at the service γ — folding only the
    /// groups whose Property-2 drift interval crossed γ — rebuilds only the
    /// touched groups' segments of the preparation, and publishes the new
    /// epoch as the very last step. Concurrent readers keep answering from
    /// the previous epoch throughout; an interrupt (or a chaos panic inside
    /// the fold) publishes nothing.
    ///
    /// # Errors
    ///
    /// Returns the engine's validation errors (dimension mismatch,
    /// non-finite values) and [`Error::InvalidArgument`] for a delete
    /// addressing an unknown group or record. A failed batch publishes no
    /// epoch; operations applied before the failure stay pending in the
    /// writer (their groups stay flagged dirty) and ride along with the
    /// next successful batch.
    pub fn apply_ctx(&self, batch: &WriteBatch, ctx: &RunContext) -> Result<EpochReceipt> {
        let mut w = self.writer.lock().unwrap_or_else(|p| p.into_inner());
        let mut batch_rows = 0u64;
        for op in &batch.ops {
            let g = match op {
                WriteOp::Insert { group, record } => {
                    let g = w.group_for(group);
                    w.engine.insert_ctx(g, record, ctx)?;
                    g
                }
                WriteOp::Delete { group, record } => {
                    let g = w.index.get(group.as_str()).copied().ok_or_else(|| {
                        Error::InvalidArgument(format!("delete from unknown group {group:?}"))
                    })?;
                    let idx = w.engine.find_record(g, record).ok_or_else(|| {
                        Error::InvalidArgument(format!("no record {record:?} in group {group:?}"))
                    })?;
                    w.engine.remove(g, idx)?;
                    g
                }
            };
            if g >= w.dirty.len() {
                w.dirty.resize(g + 1, false);
            }
            w.dirty[g] = true;
            batch_rows += 1;
        }
        let prev = self.current();
        let dirty = w.dirty.clone();
        let (epoch, outcome) = build_epoch(&mut w, self.gamma, Some(&prev), &dirty, ctx)?;
        if let Some(reason) = outcome.interrupted {
            return Ok(EpochReceipt {
                epoch: prev.id,
                batch_rows,
                deferred_pairs: outcome.deferred_pairs,
                flushed_pairs: outcome.flushed_pairs,
                interrupted: Some(reason),
            });
        }
        let id = epoch.id;
        // The single point of publication: everything above worked on
        // writer-private state, so a panic or error anywhere before this
        // line leaves `prev` serving unchanged.
        *self.current.write().unwrap_or_else(|p| p.into_inner()) = Arc::new(epoch);
        w.next_epoch += 1;
        w.dirty.iter_mut().for_each(|d| *d = false);
        Ok(EpochReceipt {
            epoch: id,
            batch_rows,
            deferred_pairs: outcome.deferred_pairs,
            flushed_pairs: outcome.flushed_pairs,
            interrupted: None,
        })
    }

    /// Checkpoints the current state through `store`'s atomic frame
    /// protocol: folds any deferred deltas to make every tally exact, then
    /// persists the live dataset's fingerprint (current epoch id in the
    /// seed slot) and all pair tallies. Readers are unaffected; the live
    /// records do not change.
    pub fn persist(&self, store: &CheckpointStore) -> Result<SaveReceipt> {
        let mut w = self.writer.lock().unwrap_or_else(|p| p.into_inner());
        w.engine.flush_ctx(&RunContext::unlimited())?;
        let (snap, mapping) = w.engine.snapshot()?;
        let pairs = snapshot_pairs(&w.engine, &mapping)
            .into_iter()
            .map(|((lo, hi), tally)| PairEntry { lo, hi, tally })
            .collect();
        let epoch_id = self.current().id;
        let fingerprint = Fingerprint::of(&snap, self.gamma).with_seed(epoch_id);
        store.save(&Snapshot { fingerprint, partition: None, pairs })
    }
}

/// Translates the engine's exact tallies (service ids) into snapshot-id
/// space, keeping only pairs whose both groups are fully folded and live.
/// `mapping` is ascending, so the canonical `lo < hi` orientation survives
/// the translation.
fn snapshot_pairs(
    engine: &DynamicAggregateSkyline,
    mapping: &[GroupId],
) -> Vec<((GroupId, GroupId), CachedTally)> {
    let mut rev: Vec<Option<GroupId>> = vec![None; engine.n_groups()];
    for (si, &g) in mapping.iter().enumerate() {
        rev[g] = Some(si);
    }
    let mut entries = Vec::new();
    for ((lo, hi), t) in engine.export_tallies() {
        if !t.complete() || engine.pending_edits(lo) != (0, 0) || engine.pending_edits(hi) != (0, 0)
        {
            continue;
        }
        if let (Some(sl), Some(sh)) = (rev[lo], rev[hi]) {
            entries.push(((sl, sh), t));
        }
    }
    entries.sort_unstable_by_key(|&(key, _)| key);
    entries
}

/// Builds the next epoch from the writer state: certifies the skyline at
/// `gamma` (Property-2 deferral deciding what folds), snapshots the live
/// records, and prepares them — reusing `prev`'s clean per-group segments
/// via [`PreparedDataset::rebuild_dirty`] whenever the group layout is
/// unchanged. `dirty` flags every group (in service ids) whose records
/// changed since `prev` was published — across however many failed or
/// interrupted applies; indices past its end are conservatively treated
/// as dirty. Pure with respect to the served epoch: nothing is published
/// here.
fn build_epoch(
    w: &mut WriterState,
    gamma: Gamma,
    prev: Option<&Epoch>,
    dirty: &[bool],
    ctx: &RunContext,
) -> Result<(Epoch, crate::dynamic::DynSkyline)> {
    let outcome = w.engine.skyline_ctx(gamma, ctx)?;
    let (snap, mapping) = w.engine.snapshot()?;
    let prep = match prev {
        Some(p) if p.mapping == mapping && p.snapshot.dim() == snap.dim() => {
            let dirty: Vec<bool> =
                mapping.iter().map(|&g| dirty.get(g).copied().unwrap_or(true)).collect();
            p.prep.rebuild_dirty(&snap, &dirty)?
        }
        _ => PreparedDataset::build(&snap, PreparedDataset::DEFAULT_BLOCK_SIZE)?,
    };
    let mut cache = PairCache::new();
    cache.ingest(&prep, &snapshot_pairs(&w.engine, &mapping))?;
    let epoch = Epoch {
        id: w.next_epoch,
        snapshot: snap,
        mapping,
        prep: Arc::new(prep),
        skyline: outcome.groups.clone(),
        cache,
    };
    Ok((epoch, outcome))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::naive_skyline;
    use crate::testdata::{lcg, movie_directors};

    fn oracle(epoch: &Epoch, gamma: Gamma) -> Vec<GroupId> {
        naive_skyline(epoch.dataset(), gamma)
            .skyline
            .into_iter()
            .map(|si| epoch.service_id(si))
            .collect()
    }

    #[test]
    fn epochs_advance_and_match_the_oracle() {
        let svc = SkylineService::new(2, Gamma::DEFAULT).unwrap();
        assert_eq!(svc.current().id(), 0);
        assert!(svc.current().skyline().is_empty());
        let mut next = lcg(9);
        for round in 1..=12u64 {
            let mut batch = WriteBatch::new();
            for _ in 0..4 {
                let g = format!("g{}", (next() * 5.0) as usize % 5);
                batch = batch.insert(g, &[(next() * 9.0).floor(), (next() * 9.0).floor()]);
            }
            let receipt = svc.apply(&batch).unwrap();
            assert_eq!(receipt.epoch, round);
            assert_eq!(receipt.batch_rows, 4);
            assert_eq!(receipt.interrupted, None);
            let epoch = svc.current();
            assert_eq!(epoch.id(), round);
            assert_eq!(epoch.skyline(), oracle(&epoch, Gamma::DEFAULT), "round {round}");
            assert_eq!(epoch.query(Gamma::DEFAULT), epoch.skyline(), "round {round}");
        }
    }

    #[test]
    fn deletes_and_group_disappearance_publish_correctly() {
        let svc = SkylineService::from_dataset(&movie_directors(), Gamma::DEFAULT).unwrap();
        let epoch = svc.current();
        assert_eq!(epoch.id(), 0);
        let labels = epoch.skyline_labels();
        assert!(!labels.is_empty());
        // Delete every Wiseau record: the group must drop out of snapshots.
        let ds = movie_directors();
        let w = ds.group_by_label("Wiseau").unwrap();
        let mut batch = WriteBatch::new();
        for rec in ds.records(w) {
            batch = batch.delete("Wiseau", rec);
        }
        let receipt = svc.apply(&batch).unwrap();
        assert_eq!(receipt.interrupted, None);
        let epoch = svc.current();
        assert!(epoch.dataset().group_by_label("Wiseau").is_none());
        assert_eq!(epoch.skyline(), oracle(&epoch, Gamma::DEFAULT));
        // Deleting from a missing group or a missing record is an error
        // and publishes nothing.
        let before = epoch.id();
        assert!(svc.apply(&WriteBatch::new().delete("Nolan", &[1.0, 1.0])).is_err());
        assert!(svc.apply(&WriteBatch::new().delete("Wiseau", &[1.0, 1.0])).is_err());
        assert_eq!(svc.current().id(), before);
    }

    #[test]
    fn old_epoch_handles_survive_later_publishes() {
        let svc = SkylineService::from_dataset(&movie_directors(), Gamma::DEFAULT).unwrap();
        let old = svc.current();
        let old_skyline = old.skyline().to_vec();
        let old_records = old.dataset().n_records();
        svc.apply(&WriteBatch::new().insert("Nolan", &[999.0, 9.9])).unwrap();
        assert_eq!(svc.current().id(), old.id() + 1);
        // The retained handle is untouched by the publish.
        assert_eq!(old.skyline(), old_skyline);
        assert_eq!(old.dataset().n_records(), old_records);
        assert_eq!(old.query(Gamma::DEFAULT), old_skyline);
    }

    #[test]
    fn epoch_sweep_matches_independent_queries() {
        let svc = SkylineService::from_dataset(&movie_directors(), Gamma::DEFAULT).unwrap();
        svc.apply(&WriteBatch::new().insert("Nolan", &[400.0, 8.9])).unwrap();
        let epoch = svc.current();
        let gammas: Vec<Gamma> = [0.5, 0.75, 1.0].iter().map(|&v| Gamma::new(v).unwrap()).collect();
        let swept = epoch.sweep(&gammas);
        for (gamma, skyline) in swept {
            assert_eq!(skyline, epoch.query(gamma), "gamma {gamma:?}");
            assert_eq!(skyline, oracle(&epoch, gamma), "gamma {gamma:?}");
        }
    }

    /// The published preparation must describe exactly the records of the
    /// published snapshot, group by group (order-insensitive: the
    /// preparation sorts within groups).
    fn assert_prep_matches(epoch: &Epoch) {
        let ds = epoch.dataset();
        let prep = epoch.prepared();
        let bits = |r: &Vec<f64>| r.iter().map(|v| v.to_bits()).collect::<Vec<u64>>();
        for g in 0..ds.n_groups() {
            let mut want: Vec<Vec<f64>> = ds.records(g).map(<[f64]>::to_vec).collect();
            let mut got: Vec<Vec<f64>> =
                (0..prep.group_len(g)).map(|i| prep.record(g, i).to_vec()).collect();
            want.sort_by_key(bits);
            got.sort_by_key(bits);
            assert_eq!(got, want, "prep and snapshot disagree in group {g}");
        }
    }

    #[test]
    fn failed_apply_keeps_its_groups_dirty_for_the_next_publish() {
        let svc = SkylineService::new(2, Gamma::DEFAULT).unwrap();
        svc.apply(&WriteBatch::new().insert("a", &[1.0, 1.0]).insert("b", &[5.0, 5.0])).unwrap();
        assert_eq!(svc.current().id(), 1);
        // A balanced delete+insert on `a` followed by a failing op: the
        // batch errors, the first two edits stay pending in the writer,
        // and `a`'s net length is unchanged — exactly the shape that
        // would slip past rebuild_dirty's length guard if dirtiness were
        // tracked per batch instead of per publish.
        let bad = WriteBatch::new()
            .delete("a", &[1.0, 1.0])
            .insert("a", &[10.0, 10.0])
            .delete("missing", &[0.0, 0.0]);
        assert!(svc.apply(&bad).is_err());
        assert_eq!(svc.current().id(), 1, "failed batch publishes nothing");
        // The next apply touches only `b`, yet must rebuild `a`'s segment.
        let receipt = svc.apply(&WriteBatch::new().insert("b", &[6.0, 4.0])).unwrap();
        assert_eq!(receipt.interrupted, None);
        let epoch = svc.current();
        assert_prep_matches(&epoch);
        assert_eq!(epoch.skyline(), oracle(&epoch, Gamma::DEFAULT));
        assert_eq!(epoch.query(Gamma::DEFAULT), epoch.skyline());
    }

    #[test]
    fn interrupted_apply_keeps_its_groups_dirty_for_the_next_publish() {
        let svc = SkylineService::new(2, Gamma::DEFAULT).unwrap();
        let seed = WriteBatch::new()
            .insert("a", &[1.0, 9.0])
            .insert("a", &[9.0, 1.0])
            .insert("b", &[5.0, 5.0]);
        svc.apply(&seed).unwrap();
        assert_eq!(svc.current().id(), 1);
        // Replace both of `a`'s records: the drift interval for p(a ≻ b)
        // widens to [0, 1], which straddles γ and forces a fold — and the
        // 1-tick budget interrupts it. All four ops were absorbed, nothing
        // was published, and `a`'s net length is unchanged.
        let balanced = WriteBatch::new()
            .delete("a", &[1.0, 9.0])
            .delete("a", &[9.0, 1.0])
            .insert("a", &[10.0, 10.0])
            .insert("a", &[0.0, 0.0]);
        let receipt = svc.apply_ctx(&balanced, &RunContext::with_budget(1)).unwrap();
        assert_eq!(receipt.interrupted, Some(InterruptReason::BudgetExhausted));
        assert_eq!(svc.current().id(), 1, "interrupted apply publishes nothing");
        // An empty unbudgeted batch publishes the backlog; `a`'s prepared
        // segment must be rebuilt even though this batch touched nothing.
        let receipt = svc.apply(&WriteBatch::new()).unwrap();
        assert_eq!(receipt.interrupted, None);
        let epoch = svc.current();
        assert_prep_matches(&epoch);
        assert_eq!(epoch.dataset().n_records(), 3);
        assert_eq!(epoch.skyline(), oracle(&epoch, Gamma::DEFAULT));
        assert_eq!(epoch.query(Gamma::DEFAULT), epoch.skyline());
    }

    #[test]
    fn interrupted_apply_publishes_nothing_and_is_retryable() {
        let svc = SkylineService::new(2, Gamma::DEFAULT).unwrap();
        let mut batch = WriteBatch::new();
        for i in 0..20 {
            batch = batch
                .insert("a", &[i as f64, 20.0 - i as f64])
                .insert("b", &[i as f64 + 0.5, 20.5 - i as f64]);
        }
        let tiny = RunContext::with_budget(1);
        let receipt = svc.apply_ctx(&batch, &tiny).unwrap();
        assert_eq!(receipt.interrupted, Some(InterruptReason::BudgetExhausted));
        assert_eq!(receipt.epoch, 0);
        assert_eq!(svc.current().id(), 0);
        assert_eq!(svc.current().dataset().n_groups(), 0);
        // The edits stayed pending: an unbudgeted empty batch publishes
        // them.
        let receipt = svc.apply(&WriteBatch::new()).unwrap();
        assert_eq!(receipt.interrupted, None);
        let epoch = svc.current();
        assert_eq!(epoch.dataset().n_records(), 40);
        assert_eq!(epoch.skyline(), oracle(&epoch, Gamma::DEFAULT));
    }

    #[test]
    fn persist_and_warm_restore_skip_recounting() {
        let dir = tempdir("svc_persist_warm");
        let store = CheckpointStore::open(&dir).unwrap();
        let svc = SkylineService::from_dataset(&movie_directors(), Gamma::DEFAULT).unwrap();
        svc.apply(&WriteBatch::new().insert("Nolan", &[400.0, 8.9])).unwrap();
        let live = svc.current();
        svc.persist(&store).unwrap();
        // Restore against the same live records.
        let snap = live.dataset().clone();
        let (restored, how) = SkylineService::restore(&snap, Gamma::DEFAULT, &store).unwrap();
        match how {
            ServeRecovery::Warm { epoch, pairs } => {
                assert_eq!(epoch, live.id());
                assert!(pairs > 0);
            }
            ServeRecovery::Cold => panic!("expected warm restore"),
        }
        assert_eq!(restored.current().id(), live.id());
        assert_eq!(restored.current().skyline_labels(), live.skyline_labels());
        // Warm restore must not recount: bootstrap serves the skyline from
        // the installed tallies.
        let next = restored.apply(&WriteBatch::new().insert("Nolan", &[1.0, 1.0])).unwrap();
        assert_eq!(next.epoch, live.id() + 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Service frames carry complete tallies with cursor 0, so they do not
    /// depend on the block size that counted them: tallies counted on
    /// 8-record blocks restore warm under the default block size and serve
    /// the oracle's skyline.
    #[test]
    fn frames_counted_at_another_block_size_restore_warm() {
        const COUNTED_AT: usize = 8;
        assert_ne!(PreparedDataset::DEFAULT_BLOCK_SIZE, COUNTED_AT);
        let dir = tempdir("svc_persist_block_size");
        let store = CheckpointStore::open(&dir).unwrap();
        let ds = crate::testdata::random_dataset(6, 40, 3, 0xB10C);
        let kernel = crate::kernel::KernelConfig::Columnar { block_size: COUNTED_AT };
        let mut engine = DynamicAggregateSkyline::with_kernel(ds.dim(), kernel).unwrap();
        for g in ds.group_ids() {
            let id = engine.add_group(ds.label(g));
            for rec in ds.records(g) {
                engine.insert(id, rec).unwrap();
            }
        }
        engine.flush_ctx(&RunContext::unlimited()).unwrap();
        let pairs: Vec<PairEntry> = engine
            .export_tallies()
            .into_iter()
            .map(|((lo, hi), tally)| PairEntry { lo, hi, tally })
            .collect();
        let n_pairs = pairs.len();
        assert_eq!(n_pairs, ds.n_groups() * (ds.n_groups() - 1) / 2);
        let fingerprint = Fingerprint::of(&ds, Gamma::DEFAULT).with_seed(7);
        store.save(&Snapshot { fingerprint, partition: None, pairs }).unwrap();

        let (restored, how) = SkylineService::restore(&ds, Gamma::DEFAULT, &store).unwrap();
        assert_eq!(how, ServeRecovery::Warm { epoch: 7, pairs: n_pairs });
        let epoch = restored.current();
        assert_eq!(epoch.skyline(), oracle(&epoch, Gamma::DEFAULT));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn restore_persisted_frames_degrades_to_cold_on_foreign_data() {
        let dir = tempdir("svc_persist_cold");
        let store = CheckpointStore::open(&dir).unwrap();
        // No frames at all: cold.
        let ds = movie_directors();
        let (svc, how) = SkylineService::restore(&ds, Gamma::DEFAULT, &store).unwrap();
        assert_eq!(how, ServeRecovery::Cold);
        svc.persist(&store).unwrap();
        // Same store, different data: cold again (never an error).
        let mut b = crate::dataset::GroupedDatasetBuilder::new(2);
        b.push_group("only", &[vec![1.0, 2.0]]).unwrap();
        let other = b.build().unwrap();
        let (_svc, how) = SkylineService::restore(&other, Gamma::DEFAULT, &store).unwrap();
        assert_eq!(how, ServeRecovery::Cold);
        std::fs::remove_dir_all(&dir).ok();
    }

    fn tempdir(tag: &str) -> std::path::PathBuf {
        let mut dir = std::env::temp_dir();
        dir.push(format!("aggsky_{tag}_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }
}
