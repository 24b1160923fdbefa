//! Epoch-based live serving of aggregate skylines.
//!
//! [`SkylineService`] wraps a [`DynamicAggregateSkyline`] writer behind an
//! epoch-snapshot reader protocol:
//!
//! * **Readers** grab the current [`Epoch`] — an immutable, atomically
//!   published bundle of the live records as a [`PreparedDataset`], the
//!   service-γ skyline, and the writer's exact tallies — and answer
//!   γ-queries or γ-sweeps against it with no locks held and no
//!   coordination with the writer. Grabbing the epoch takes the epoch
//!   `RwLock` just long enough to clone the `Arc`, so a reader waits only
//!   for a publish's pointer swap, never for a fold.
//! * **A single writer** absorbs a [`WriteBatch`], maintains the tallies
//!   incrementally (Property-2 deferral included, see [`crate::dynamic`]),
//!   and publishes the next epoch with one pointer swap.
//!
//! An epoch is built by **structural sharing**. Its preparation is one
//! `Arc`'d [`crate::prepared::Segment`] per non-empty group, kept by the
//! engine until the group's next edit: only a group edited since its
//! segment was built is prepared again, from the writer's live rows, and
//! every other group's segment is shared with the previous epochs and with
//! the engine's fold. The exact tallies are the engine's
//! dense tally table behind an `Arc`, copied on write by the next fold that
//! changes it, plus a bitset of the groups with no pending edits; a read
//! overlays its own counts on them ([`PairCache`]). The group labels are
//! the engine's shared list. So a publish costs `O(groups + dirty
//! records)`, and a kept epoch owns only the segments no later epoch
//! shares. The epoch's [`GroupedDataset`] is built on the first call to
//! [`Epoch::dataset`]; reads count from the segments alone.
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
//! missing, torn, or belongs to different data. The fingerprint hashes
//! each group's records in one canonical order, so a frame matches the
//! same records in whatever order the caller lists them.

use crate::algorithms::{AlgoOptions, Algorithm};
use crate::dataset::{GroupId, GroupedDataset};
use crate::dynamic::{DynamicAggregateSkyline, TallySeed};
use crate::error::{Error, Result};
use crate::gamma::Gamma;
use crate::paircache::{CachedTally, PairCache};
use crate::persist::{CheckpointStore, Fingerprint, PairEntry, SaveReceipt, Snapshot};
use crate::prepared::PreparedDataset;
use crate::runctx::{InterruptReason, RunContext};
use std::sync::{Arc, Mutex, OnceLock, RwLock};

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
/// epoch already handed out. Groups are addressed by *snapshot* ids, the
/// non-empty groups in service-id order; translate with
/// [`Epoch::service_id`].
#[derive(Debug)]
pub struct Epoch {
    id: u64,
    /// One shared segment per snapshot group.
    prep: Arc<PreparedDataset>,
    /// The writer's labels by service id, shared.
    labels: Arc<Vec<Arc<str>>>,
    /// The writer's exact tallies, and the snapshot → service id map.
    seed: Arc<TallySeed>,
    /// The service-γ skyline, in service group ids, ascending.
    skyline: Vec<GroupId>,
    /// Built from `prep` and `labels` on the first [`Epoch::dataset`].
    dataset: OnceLock<GroupedDataset>,
}

impl Epoch {
    /// Monotone epoch id (0 for a fresh service).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The live records at publish time (empty groups omitted), addressed
    /// by *snapshot* ids; translate with [`Epoch::service_id`]. Built from
    /// the epoch's segments on the first call, so each group's records come
    /// back **sorted by descending coordinate sum** (ties in insertion
    /// order), not in insertion order. [`PreparedDataset::build`] of it
    /// equals [`Epoch::prepared`].
    pub fn dataset(&self) -> &GroupedDataset {
        self.dataset.get_or_init(|| dataset_of(&self.prep, &self.labels, self.seed.service()))
    }

    /// The epoch's shared preparation (sorted blocks + key lanes).
    pub fn prepared(&self) -> &Arc<PreparedDataset> {
        &self.prep
    }

    /// Service group id of snapshot group `si`.
    pub fn service_id(&self, si: GroupId) -> GroupId {
        self.seed.service()[si]
    }

    /// The skyline at the service γ, in service group ids, ascending.
    pub fn skyline(&self) -> &[GroupId] {
        &self.skyline
    }

    /// Labels of the service-γ skyline, sorted.
    pub fn skyline_labels(&self) -> Vec<&str> {
        let mut out: Vec<&str> = self.skyline.iter().map(|&g| &*self.labels[g]).collect();
        out.sort_unstable();
        out
    }

    /// The aggregate skyline of this epoch at an arbitrary `gamma`, in
    /// service group ids, ascending. Pairs already folded by the writer are
    /// served from its exact tallies; only pairs that were still deferred
    /// at publish time cost kernel work.
    pub fn query(&self, gamma: Gamma) -> Vec<GroupId> {
        self.query_with(gamma, &mut PairCache::seeded(Arc::clone(&self.seed)))
    }

    /// Runs [`Algorithm::Indexed`] at every threshold in `gammas`, sharing
    /// this epoch's preparation and one tally cache across the whole sweep.
    pub fn sweep(&self, gammas: &[Gamma]) -> Vec<(Gamma, Vec<GroupId>)> {
        let mut cache = PairCache::seeded(Arc::clone(&self.seed));
        gammas.iter().map(|&gamma| (gamma, self.query_with(gamma, &mut cache))).collect()
    }

    fn query_with(&self, gamma: Gamma, cache: &mut PairCache) -> Vec<GroupId> {
        // Exact pruning: the paper's heuristic can keep a group the naive
        // oracle excludes, and a read must return the writer's skyline.
        let opts = AlgoOptions::exact(gamma);
        let result = Algorithm::Indexed
            .run_cached_over(&self.prep, opts, cache, &RunContext::unlimited())
            .unwrap_or_partial();
        result.skyline.iter().map(|&si| self.service_id(si)).collect()
    }
}

/// The dataset of a preparation's groups, labelled through the snapshot →
/// service id map: each group's records in segment (sorted) order.
fn dataset_of(prep: &PreparedDataset, labels: &[Arc<str>], service: &[GroupId]) -> GroupedDataset {
    GroupedDataset::from_groups(
        prep.dim(),
        service.iter().enumerate().map(|(si, &g)| (&*labels[g], prep.segment(si).rows())),
    )
}

/// Writer-side state, serialized behind the service's writer lock.
#[derive(Debug)]
struct WriterState {
    /// Owns the labels (a group whose records are all deleted keeps its
    /// id and simply drops out of the epochs) and the live segments, which
    /// track what changed since the last publish.
    engine: DynamicAggregateSkyline,
    next_epoch: u64,
}

impl WriterState {
    fn group_for(&mut self, label: &str) -> GroupId {
        match self.engine.group_id(label) {
            Some(g) => g,
            None => self.engine.add_group(label),
        }
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
    ///
    /// The match ignores the order of the records within each group (the
    /// groups' order and labels must match) and compares the records as
    /// normalized to MAX, as the epochs keep them. A frame fingerprinted
    /// over `ds` as given, as older versions wrote them, matches too.
    pub fn restore(
        ds: &GroupedDataset,
        gamma: Gamma,
        store: &CheckpointStore,
    ) -> Result<(SkylineService, ServeRecovery)> {
        let recovery = store.load()?;
        if let Some((_seq, frame)) = recovery.snapshot {
            let epoch_id = frame.fingerprint.seed;
            let found = frame.fingerprint.with_seed(0);
            if found == canonical_fingerprint(ds, gamma) || found == Fingerprint::of(ds, gamma) {
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
        let mut w = WriterState { engine, next_epoch: first_epoch };
        let outcome = w.engine.skyline_ctx(gamma, &RunContext::unlimited())?;
        let epoch = build_epoch(&mut w, outcome.groups)?;
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
    /// groups whose Property-2 drift interval crossed γ — prepares only the
    /// segments of groups edited since they were last prepared, and
    /// publishes the new epoch as the very last step. Concurrent readers
    /// keep answering from the previous epoch throughout; an interrupt (or
    /// a chaos panic inside the fold) publishes nothing.
    ///
    /// # Errors
    ///
    /// Returns the engine's validation errors (dimension mismatch,
    /// non-finite values) and [`Error::InvalidArgument`] for a delete
    /// addressing an unknown group or record. A failed batch publishes no
    /// epoch; operations applied before the failure stay pending in the
    /// writer (their groups' segments are prepared again at the next
    /// publish) and ride along with the next successful batch.
    pub fn apply_ctx(&self, batch: &WriteBatch, ctx: &RunContext) -> Result<EpochReceipt> {
        let mut w = self.writer.lock().unwrap_or_else(|p| p.into_inner());
        let mut batch_rows = 0u64;
        for op in &batch.ops {
            match op {
                WriteOp::Insert { group, record } => {
                    let g = w.group_for(group);
                    w.engine.insert_ctx(g, record, ctx)?;
                }
                WriteOp::Delete { group, record } => {
                    let g = w.engine.group_id(group).ok_or_else(|| {
                        Error::InvalidArgument(format!("delete from unknown group {group:?}"))
                    })?;
                    let idx = w.engine.find_record(g, record).ok_or_else(|| {
                        Error::InvalidArgument(format!("no record {record:?} in group {group:?}"))
                    })?;
                    w.engine.remove(g, idx)?;
                }
            }
            batch_rows += 1;
        }
        let outcome = w.engine.skyline_ctx(self.gamma, ctx)?;
        if let Some(reason) = outcome.interrupted {
            return Ok(EpochReceipt {
                epoch: self.current().id,
                batch_rows,
                deferred_pairs: outcome.deferred_pairs,
                flushed_pairs: outcome.flushed_pairs,
                interrupted: Some(reason),
            });
        }
        let epoch = build_epoch(&mut w, outcome.groups)?;
        let id = epoch.id;
        // The single point of publication: everything above worked on
        // writer-private state, so a panic or error anywhere before this
        // line leaves the previous epoch serving unchanged.
        *self.current.write().unwrap_or_else(|p| p.into_inner()) = Arc::new(epoch);
        w.next_epoch += 1;
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
    /// persists the fingerprint of the live records in canonical order
    /// (current epoch id in the seed slot) and all pair tallies. Readers
    /// are unaffected; the live records do not change.
    pub fn persist(&self, store: &CheckpointStore) -> Result<SaveReceipt> {
        let mut w = self.writer.lock().unwrap_or_else(|p| p.into_inner());
        w.engine.flush_ctx(&RunContext::unlimited())?;
        let (prep, mapping) = live_preparation(&mut w.engine)?;
        let snap = dataset_of(&prep, w.engine.labels(), &mapping);
        // Every group is folded, so every tally is exact; `mapping` is
        // ascending, so the canonical `lo < hi` orientation survives the
        // translation to snapshot ids.
        let mut rev: Vec<Option<GroupId>> = vec![None; w.engine.n_groups()];
        for (si, &g) in mapping.iter().enumerate() {
            rev[g] = Some(si);
        }
        let pairs = w
            .engine
            .export_tallies()
            .into_iter()
            .filter_map(|((lo, hi), tally)| Some(PairEntry { lo: rev[lo]?, hi: rev[hi]?, tally }))
            .collect();
        let epoch_id = self.current().id;
        let fingerprint = canonical_fingerprint(&snap, self.gamma).with_seed(epoch_id);
        store.save(&Snapshot { fingerprint, partition: None, pairs })
    }
}

/// The fingerprint of `ds`'s normalized records, all directions MAX, with
/// each group's records sorted by their bit patterns, so it does not
/// depend on the order the records are kept in: records that tie are
/// bit-identical (a numeric order would tie `0.0` with `-0.0` and leave
/// their order to the input).
fn canonical_fingerprint(ds: &GroupedDataset, gamma: Gamma) -> Fingerprint {
    let groups: Vec<Vec<f64>> = ds
        .group_ids()
        .map(|g| {
            let mut records: Vec<&[f64]> = ds.records(g).collect();
            records.sort_unstable_by(|a, b| {
                a.iter().map(|v| v.to_bits()).cmp(b.iter().map(|v| v.to_bits()))
            });
            records.concat()
        })
        .collect();
    let sorted = GroupedDataset::from_groups(
        ds.dim(),
        groups.iter().enumerate().map(|(g, rows)| (ds.label(g), rows.as_slice())),
    );
    Fingerprint::of(&sorted, gamma)
}

/// The engine's live records as a preparation of one shared segment per
/// non-empty group, with the service id of each (ascending).
fn live_preparation(
    engine: &mut DynamicAggregateSkyline,
) -> Result<(PreparedDataset, Vec<GroupId>)> {
    let mapping: Vec<GroupId> =
        (0..engine.n_groups()).filter(|&g| engine.group_len(g) > 0).collect();
    let segments = mapping.iter().map(|&g| engine.live_segment(g)).collect::<Result<Vec<_>>>()?;
    let prep = PreparedDataset::from_segments(engine.dim(), engine.block_size(), segments)?;
    Ok((prep, mapping))
}

/// Builds the next epoch from the writer state, whose skyline at the
/// service γ was just certified as `skyline`: shares every segment and the
/// tally table the engine holds, preparing only groups edited since their
/// segment was built. Pure with respect to the served epoch: nothing is
/// published here.
fn build_epoch(w: &mut WriterState, skyline: Vec<GroupId>) -> Result<Epoch> {
    let (prep, mapping) = live_preparation(&mut w.engine)?;
    Ok(Epoch {
        id: w.next_epoch,
        prep: Arc::new(prep),
        labels: Arc::clone(w.engine.labels()),
        seed: Arc::new(w.engine.tally_seed(mapping)),
        skyline,
        dataset: OnceLock::new(),
    })
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

    /// Consecutive epochs share every segment but the edited group's
    /// (`Arc::ptr_eq`), every published preparation equals a fresh build of
    /// the epoch's dataset, the dataset holds exactly the live records, and
    /// reads answer as the oracle does.
    #[test]
    fn epochs_share_clean_segments_and_match_a_fresh_build() {
        let ds = crate::testdata::random_dataset(8, 20, 3, 0x5EED);
        let svc = SkylineService::from_dataset(&ds, Gamma::DEFAULT).unwrap();
        let mut model: Vec<Vec<Vec<f64>>> =
            ds.group_ids().map(|g| ds.records(g).map(<[f64]>::to_vec).collect()).collect();
        let mut next = lcg(3);
        let mut prev = svc.current();
        for round in 0..40 {
            let g = (next() * 8.0) as usize % 8;
            let batch = if round % 3 == 2 {
                let rec = model[g].swap_remove(0);
                WriteBatch::new().delete(ds.label(g), &rec)
            } else {
                let rec = vec![next() * 9.0, next() * 9.0, next() * 9.0];
                model[g].push(rec.clone());
                WriteBatch::new().insert(ds.label(g), &rec)
            };
            assert_eq!(svc.apply(&batch).unwrap().interrupted, None);
            let epoch = svc.current();
            let prep = epoch.prepared();
            let fresh =
                PreparedDataset::build(epoch.dataset(), PreparedDataset::DEFAULT_BLOCK_SIZE)
                    .unwrap();
            assert_eq!(**prep, fresh, "round {round}");
            for si in 0..prep.n_groups() {
                let service = epoch.service_id(si);
                let mut got: Vec<Vec<f64>> =
                    epoch.dataset().records(si).map(<[f64]>::to_vec).collect();
                let mut want = model[service].clone();
                got.sort_by(|a, b| crate::ord::cmp_slices(a, b));
                want.sort_by(|a, b| crate::ord::cmp_slices(a, b));
                assert_eq!(got, want, "round {round} group {service}");
                let before =
                    (0..prev.prepared().n_groups()).find(|&p| prev.service_id(p) == service);
                let shared = before
                    .is_some_and(|p| Arc::ptr_eq(prev.prepared().segment(p), prep.segment(si)));
                assert_eq!(shared, service != g, "round {round} group {service}");
            }
            for gamma in [0.5, 0.75, 0.9] {
                let gamma = Gamma::new(gamma).unwrap();
                assert_eq!(epoch.query(gamma), oracle(&epoch, gamma), "round {round} {gamma:?}");
            }
            prev = epoch;
        }
    }

    /// `1e16 + 1 == 1e16`: a read must still see that `a`'s record
    /// dominates two of `b`'s three at an equal rounded sum.
    #[test]
    fn reads_see_dominance_at_equal_rounded_sums() {
        let batch = WriteBatch::new()
            .insert("a", &[1e16, 1.0])
            .insert("b", &[1e16, 0.0])
            .insert("b", &[1e16, 0.0])
            .insert("b", &[0.0, 5.0]);
        let svc = SkylineService::new(2, Gamma::DEFAULT).unwrap();
        svc.apply(&batch).unwrap();
        let epoch = svc.current();
        assert_eq!(epoch.skyline_labels(), vec!["a"]);
        // p(a ≻ b) = 2/3: b is out up to γ 2/3 and back in above it.
        for (gamma, want) in [(0.5, vec![0]), (0.6, vec![0]), (0.75, vec![0, 1])] {
            let gamma = Gamma::new(gamma).unwrap();
            assert_eq!(epoch.query(gamma), oracle(&epoch, gamma), "{gamma:?}");
            assert_eq!(epoch.query(gamma), want, "{gamma:?}");
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

    /// A frame matches the same records whatever order they come in: the
    /// dataset the service started from, the same groups with every
    /// group's records reversed or given through a MIN column, and, after
    /// a write, the records in insertion order all restore warm.
    #[test]
    fn restore_is_warm_whatever_order_the_records_come_in() {
        let dir = tempdir("svc_persist_order");
        let store = CheckpointStore::open(&dir).unwrap();
        let ds = crate::testdata::random_dataset(6, 20, 3, 0x0DE5);
        let n_pairs = ds.n_groups() * (ds.n_groups() - 1) / 2;
        // `ds`, each group's records reversed when `reverse`, `extra`
        // appended to group 0.
        let relist = |reverse: bool, extra: Option<&[f64]>| {
            let mut b = crate::dataset::GroupedDatasetBuilder::new(ds.dim());
            for g in ds.group_ids() {
                let mut rows: Vec<&[f64]> = ds.records(g).collect();
                if reverse {
                    rows.reverse();
                }
                rows.extend(extra.filter(|_| g == 0));
                b.push_group(ds.label(g), &rows).unwrap();
            }
            b.build().unwrap()
        };
        // The same normalized records, given with the first column as MIN:
        // the fingerprint hashes normalized values, as the epochs keep them.
        let mut b = crate::dataset::GroupedDatasetBuilder::with_directions(vec![
            crate::dominance::Direction::Min,
            crate::dominance::Direction::Max,
            crate::dominance::Direction::Max,
        ]);
        for g in ds.group_ids() {
            let rows: Vec<Vec<f64>> = ds.records(g).map(|r| vec![-r[0], r[1], r[2]]).collect();
            b.push_group(ds.label(g), &rows).unwrap();
        }
        let with_min = b.build().unwrap();
        let svc = SkylineService::from_dataset(&ds, Gamma::DEFAULT).unwrap();
        svc.persist(&store).unwrap();
        let givens = [
            ("as given", relist(false, None)),
            ("reversed", relist(true, None)),
            ("a MIN column", with_min),
        ];
        for (name, given) in givens {
            let (restored, how) = SkylineService::restore(&given, Gamma::DEFAULT, &store).unwrap();
            assert_eq!(how, ServeRecovery::Warm { epoch: 0, pairs: n_pairs }, "{name}");
            assert_eq!(restored.current().skyline(), svc.current().skyline(), "{name}");
        }
        let extra = [0.5, 0.25, 0.75];
        svc.apply(&WriteBatch::new().insert(ds.label(0), &extra)).unwrap();
        svc.persist(&store).unwrap();
        let given = relist(false, Some(&extra));
        let (restored, how) = SkylineService::restore(&given, Gamma::DEFAULT, &store).unwrap();
        assert_eq!(how, ServeRecovery::Warm { epoch: 1, pairs: n_pairs });
        assert_eq!(restored.current().skyline(), svc.current().skyline());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Two records that differ only in the sign of a zero hash the same
    /// in either order, and not as two copies of one of them.
    #[test]
    fn canonical_fingerprint_tells_signed_zeros_apart_in_any_order() {
        let one_group = |rows: &[&[f64]]| {
            let mut b = crate::dataset::GroupedDatasetBuilder::new(2);
            b.push_group("g", rows).unwrap();
            b.build().unwrap()
        };
        let (pos, neg): (&[f64], &[f64]) = (&[0.0, 1.0], &[-0.0, 1.0]);
        let both = canonical_fingerprint(&one_group(&[pos, neg]), Gamma::DEFAULT);
        assert_eq!(both, canonical_fingerprint(&one_group(&[neg, pos]), Gamma::DEFAULT));
        assert_ne!(both, canonical_fingerprint(&one_group(&[pos, pos]), Gamma::DEFAULT));
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
