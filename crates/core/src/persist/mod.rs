//! Durable, crash-consistent checkpoints for anytime runs and pair-cache
//! state (DESIGN.md §15).
//!
//! The layer has three floors:
//!
//! * [`crc64`] — the dependency-free CRC-64/XZ integrity check;
//! * [`frame`] — the checksummed, versioned, length-prefixed frame codec
//!   for one [`Snapshot`] (an [`AnytimeResult`] partition and/or exported
//!   [`crate::PairCache`] tallies, bound to a [`Fingerprint`]);
//! * [`store`] — numbered frame files written with the atomic
//!   temp-file + fsync + rename protocol and read back with graceful
//!   degradation (newest valid frame → older valid frame → cold start).
//!
//! On top sit the drivers: [`checkpoint_step`] runs *one* budgeted chunk —
//! recover from disk, advance, persist — and [`run_durable`] loops it to
//! completion. Crucially the drivers persist **cumulative** [`Stats`]
//! inside each frame: work that was charged and persisted is never charged
//! again after a crash (it is recovered, not recomputed), while work lost
//! between the crash and the last durable frame is recomputed *and*
//! recharged — it was never persisted, so the totals still come out
//! exactly equal to an uninterrupted one-shot run. This mirrors the
//! γ-sweep single-charging rule and is what the crash/recovery
//! differential suite pins down bit-for-bit.

pub mod crc64;
pub mod frame;
pub mod profile;
pub mod store;

pub use profile::{is_regression, render_profile_diff, ProfileSnapshot};
pub use store::{CheckpointStore, Recovery, SaveReceipt, SkippedFrame};

#[cfg(feature = "chaos")]
pub use store::{IoFaultKind, IoFaultPlan};

use crate::anytime::{anytime_kernel, anytime_resume_on, anytime_skyline_with, AnytimeResult};
use crate::dataset::{GroupId, GroupedDataset};
use crate::error::{Error, Result};
use crate::gamma::Gamma;
use crate::kernel::Kernel;
use crate::paircache::CachedTally;
use crate::runctx::{InterruptReason, RunContext};
use crate::stats::Stats;
use aggsky_obs::{Counter, Hist, Stamp, WallClock};
use std::fmt;

/// Identity of the inputs a checkpoint was computed from. Embedded at the
/// head of every frame; resuming against a different dataset, γ or kernel
/// configuration is refused with [`Error::CheckpointMismatch`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    /// Number of groups in the dataset.
    pub n_groups: u64,
    /// Total number of records.
    pub n_records: u64,
    /// Dimensionality.
    pub dim: u64,
    /// IEEE-754 bit pattern of the γ threshold (bit-exact, no epsilon).
    pub gamma_bits: u64,
    /// Kernel block size the persisted cursors are meaningful for. Every
    /// driver fingerprints with [`Fingerprint::of`], which writes 0; the
    /// field stays in the frame so existing frames decode and match as
    /// before.
    pub block_size: u64,
    /// Kernel family tag: 0 from [`Fingerprint::of`], kept in the frame
    /// like `block_size`.
    pub kernel_tag: u8,
    /// Caller-chosen seed / run identifier (0 when unused).
    pub seed: u64,
    /// CRC-64 over the dataset content: dimensions, directions, group
    /// labels and lengths, and every coordinate's bit pattern.
    pub data_hash: u64,
}

impl Fingerprint {
    /// Fingerprints `ds` under `gamma` (block size and kernel tag 0, seed
    /// 0). Refine with [`Fingerprint::with_seed`].
    pub fn of(ds: &GroupedDataset, gamma: Gamma) -> Fingerprint {
        let mut h = crc64::Crc64::new();
        h.update_u64(crate::num::wide(ds.dim()));
        h.update_u64(crate::num::wide(ds.n_groups()));
        for d in ds.directions() {
            h.update(&[match d {
                crate::dominance::Direction::Max => 0u8,
                crate::dominance::Direction::Min => 1u8,
            }]);
        }
        for g in ds.group_ids() {
            let label = ds.label(g);
            h.update_u64(crate::num::wide(label.len()));
            h.update(label.as_bytes());
            h.update_u64(crate::num::wide(ds.group_len(g)));
            for v in ds.group_rows(g) {
                h.update_u64(v.to_bits());
            }
        }
        Fingerprint {
            n_groups: crate::num::wide(ds.n_groups()),
            n_records: crate::num::wide(ds.n_records()),
            dim: crate::num::wide(ds.dim()),
            gamma_bits: gamma.value().to_bits(),
            block_size: 0,
            kernel_tag: 0,
            seed: 0,
            data_hash: h.finish(),
        }
    }

    /// Binds the fingerprint to a caller-chosen seed / run identifier.
    pub fn with_seed(mut self, seed: u64) -> Fingerprint {
        self.seed = seed;
        self
    }
}

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} groups / {} records / {} dims, gamma bits {:#x}, kernel {} block {}, seed {}, \
             data hash {:#018x}",
            self.n_groups,
            self.n_records,
            self.dim,
            self.gamma_bits,
            self.kernel_tag,
            self.block_size,
            self.seed,
            self.data_hash
        )
    }
}

/// One exported [`crate::PairCache`] entry in canonical orientation
/// (`lo < hi`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PairEntry {
    /// Smaller group id of the unordered pair.
    pub lo: GroupId,
    /// Larger group id.
    pub hi: GroupId,
    /// The memoized counting state.
    pub tally: CachedTally,
}

/// Everything one frame persists: the input fingerprint, optionally an
/// anytime partition (with **cumulative** stats across all chunks charged
/// so far), and optionally exported pair-cache tallies.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// Identity of the inputs; checked before anything else is trusted.
    pub fingerprint: Fingerprint,
    /// The anytime partition at the moment of the save, if the frame
    /// carries one. Its `stats` are cumulative, so recovery resumes the
    /// budget accounting exactly where the durable history left it.
    pub partition: Option<AnytimeResult>,
    /// Exported pair-cache tallies, canonical orientation, ascending keys.
    pub pairs: Vec<PairEntry>,
}

/// What a durable run (or single [`checkpoint_step`]) produced.
#[derive(Debug, Clone, PartialEq)]
pub struct DurableOutcome {
    /// The partition, with stats cumulative across every chunk ever
    /// charged for this checkpoint lineage (recovered frames included).
    pub result: AnytimeResult,
    /// Sequence number of the frame recovery resumed from (`None` = cold
    /// start).
    pub resumed_seq: Option<u64>,
    /// Sequence number of the frame this step committed (`None` when the
    /// recovered state was already complete and nothing new was written).
    pub saved_seq: Option<u64>,
    /// Frames that failed validation during recovery (torn writes found
    /// and degraded past).
    pub frames_skipped: usize,
    /// Why the chunk stopped short of completion, if it did.
    pub interrupt: Option<InterruptReason>,
}

impl DurableOutcome {
    /// True iff no group is left undecided.
    pub fn is_complete(&self) -> bool {
        self.result.is_complete()
    }
}

/// Runs **one** durable chunk: recover the newest valid frame for this
/// dataset/γ (degrading past torn frames), advance the anytime engine
/// under `ctx`'s budget/cancellation, and commit the new cumulative state
/// as a frame. Persist I/O is recorded on `ctx`'s recorder under the
/// wall-clock domain ([`WallClock`], the sanctioned source — persistence
/// is off the deterministic counting path).
///
/// Stats discipline: the committed frame stores *cumulative* stats
/// (recovered total + this chunk's fresh work), so a later recovery
/// continues the accounting without double-charging anything that was
/// already durable.
pub fn checkpoint_step(
    ds: &GroupedDataset,
    gamma: Gamma,
    ctx: &RunContext,
    store: &CheckpointStore,
) -> Result<DurableOutcome> {
    let fp = Fingerprint::of(ds, gamma);
    checkpoint_step_with(&anytime_kernel(ds), gamma, ctx, store, &fp)
}

/// [`checkpoint_step`] over a caller-built kernel and [`Fingerprint`], so a
/// caller that re-issues one step over unchanged data prepares its input
/// and hashes it once. `fp` must describe the kernel's dataset (e.g.
/// [`Fingerprint::of`], optionally bound to a seed via
/// [`Fingerprint::with_seed`]); the kernel should be the columnar one
/// every anytime run counts with, or the persisted tick totals differ.
pub fn checkpoint_step_with(
    kernel: &Kernel<'_>,
    gamma: Gamma,
    ctx: &RunContext,
    store: &CheckpointStore,
    fp: &Fingerprint,
) -> Result<DurableOutcome> {
    let rec = ctx.recorder();

    let clock = WallClock::start();
    let load_span = rec.span_start("checkpoint_load", 0, Stamp::wall_micros(0));
    let recovery = store.load_for(fp)?;
    let frames_skipped = recovery.skipped.len();
    rec.span_end(
        load_span,
        Stamp::wall_micros(clock.elapsed_micros()),
        &[
            ("recovered", u64::from(recovery.snapshot.is_some())),
            ("frames_skipped", crate::num::wide(frames_skipped)),
        ],
    );
    rec.add(Counter::CheckpointLoads, 1);
    rec.add(Counter::CheckpointFramesSkipped, crate::num::wide(frames_skipped));

    let (prev, resumed_seq) = match recovery.snapshot {
        Some((seq, snap)) => (snap.partition, Some(seq)),
        None => (None, None),
    };
    if resumed_seq.is_some() {
        // Recovery is rare and diagnostic gold: flush the flight ring so
        // the events leading into the crash survive next to the resume.
        rec.dump("checkpoint_recovery");
    }

    // A recovered complete partition is final: return it verbatim (its
    // stats are already the cumulative total) and write nothing.
    if let Some(p) = &prev {
        if p.is_complete() {
            return Ok(DurableOutcome {
                result: p.clone(),
                resumed_seq,
                saved_seq: None,
                frames_skipped,
                interrupt: None,
            });
        }
    }

    let recovered_stats = prev.as_ref().map_or_else(Stats::default, |p| p.stats);
    let chunk = match prev {
        None => anytime_skyline_with(kernel, gamma, ctx),
        Some(p) => anytime_resume_on(kernel, gamma, ctx, p)?,
    };

    // Cumulative accounting: recovered (already persisted, never redone)
    // plus this chunk's fresh work. `chunk.stats` counts from zero.
    let mut cumulative = recovered_stats;
    cumulative.merge(&chunk.stats);
    let mut partition = chunk;
    partition.stats = cumulative;

    let interrupt = partition.interrupt(ctx);

    let snap = Snapshot { fingerprint: *fp, partition: Some(partition.clone()), pairs: Vec::new() };
    let clock = WallClock::start();
    let save_span = rec.span_start("checkpoint_save", 0, Stamp::wall_micros(0));
    let receipt = store.save(&snap);
    let (saved_seq, bytes) = match &receipt {
        Ok(r) => (Some(r.seq), r.bytes),
        Err(_) => (None, 0),
    };
    rec.span_end(
        save_span,
        Stamp::wall_micros(clock.elapsed_micros()),
        &[("seq", saved_seq.unwrap_or(0)), ("bytes", bytes)],
    );
    let receipt = receipt?;
    rec.add(Counter::CheckpointSaves, 1);
    rec.observe(Hist::CheckpointFrameBytes, receipt.bytes);

    Ok(DurableOutcome {
        result: partition,
        resumed_seq,
        saved_seq: Some(receipt.seq),
        frames_skipped,
        interrupt,
    })
}

/// Loops [`checkpoint_step`] with a fresh `chunk_budget`-tick context per
/// chunk until the partition is complete, preparing and fingerprinting
/// `ds` once for all chunks. Every chunk re-recovers from disk before
/// advancing, so the loop *is* the crash-at-every-boundary discipline the
/// differential suite exercises: killing the process between any two
/// chunks and re-invoking `run_durable` changes nothing.
pub fn run_durable(
    ds: &GroupedDataset,
    gamma: Gamma,
    chunk_budget: u64,
    store: &CheckpointStore,
) -> Result<DurableOutcome> {
    if chunk_budget == 0 {
        return Err(Error::InvalidArgument(
            "durable chunk budget must be positive (a zero-tick chunk can never progress)".into(),
        ));
    }
    let fp = Fingerprint::of(ds, gamma);
    let kernel = anytime_kernel(ds);
    let mut first_resume = None;
    let mut total_skipped = 0usize;
    let mut first = true;
    loop {
        let ctx = RunContext::with_budget(chunk_budget);
        let step = checkpoint_step_with(&kernel, gamma, &ctx, store, &fp)?;
        if first {
            first_resume = step.resumed_seq;
            first = false;
        }
        total_skipped += step.frames_skipped;
        if step.is_complete() {
            return Ok(DurableOutcome {
                resumed_seq: first_resume,
                frames_skipped: total_skipped,
                ..step
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::anytime::anytime_skyline;
    use crate::testdata::random_dataset;
    use std::path::PathBuf;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("aggsky-persist-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn fingerprint_is_sensitive_to_every_input() {
        let ds = random_dataset(10, 5, 3, 42);
        let base = Fingerprint::of(&ds, Gamma::DEFAULT);
        assert_eq!(base, Fingerprint::of(&ds, Gamma::DEFAULT), "deterministic");
        let other_gamma = Fingerprint::of(&ds, Gamma::new(0.75).unwrap());
        assert_ne!(base, other_gamma);
        let other_data = Fingerprint::of(&random_dataset(10, 5, 3, 43), Gamma::DEFAULT);
        assert_ne!(base.data_hash, other_data.data_hash);
        assert_ne!(base, base.with_seed(1));
    }

    #[test]
    fn run_durable_equals_one_shot_at_any_chunk_size() {
        for seed in 0..4 {
            let ds = random_dataset(14, 6, 3, 4200 + seed);
            let full = anytime_skyline(&ds, Gamma::DEFAULT, u64::MAX);
            for step in [1u64, 13, 250, u64::MAX] {
                let dir = tmpdir(&format!("durable-{seed}-{step}"));
                let store = CheckpointStore::open(&dir).unwrap();
                let out = run_durable(&ds, Gamma::DEFAULT, step, &store).unwrap();
                assert!(out.is_complete());
                assert_eq!(out.result, full, "seed {seed} step {step}");
                let _ = std::fs::remove_dir_all(&dir);
            }
        }
    }

    #[test]
    fn rerunning_a_complete_checkpoint_is_instant_and_identical() {
        let ds = random_dataset(12, 6, 3, 4300);
        let dir = tmpdir("rerun");
        let store = CheckpointStore::open(&dir).unwrap();
        let first = run_durable(&ds, Gamma::DEFAULT, 100, &store).unwrap();
        let second = run_durable(&ds, Gamma::DEFAULT, 100, &store).unwrap();
        assert_eq!(second.result, first.result, "stats must not re-accumulate");
        assert_eq!(second.saved_seq, None, "a complete recovery writes nothing");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mismatched_dataset_is_refused() {
        let ds1 = random_dataset(10, 5, 3, 4400);
        let ds2 = random_dataset(10, 5, 3, 4401);
        let dir = tmpdir("refuse");
        let store = CheckpointStore::open(&dir).unwrap();
        run_durable(&ds1, Gamma::DEFAULT, 50, &store).unwrap();
        let err = run_durable(&ds2, Gamma::DEFAULT, 50, &store).unwrap_err();
        assert!(matches!(err, Error::CheckpointMismatch(_)), "{err}");
        // Same data under a different γ is a different question too.
        let err = run_durable(&ds1, Gamma::new(0.9).unwrap(), 50, &store).unwrap_err();
        assert!(matches!(err, Error::CheckpointMismatch(_)), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn zero_chunk_budget_is_rejected() {
        let ds = random_dataset(6, 4, 2, 4500);
        let dir = tmpdir("zerobudget");
        let store = CheckpointStore::open(&dir).unwrap();
        let err = run_durable(&ds, Gamma::DEFAULT, 0, &store).unwrap_err();
        assert!(matches!(err, Error::InvalidArgument(_)), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_step_reports_interrupt_reason() {
        let ds = random_dataset(14, 6, 3, 4600);
        let dir = tmpdir("reason");
        let store = CheckpointStore::open(&dir).unwrap();
        let ctx = RunContext::with_budget(1);
        let step = checkpoint_step(&ds, Gamma::DEFAULT, &ctx, &store).unwrap();
        assert!(!step.is_complete(), "one tick should not finish this dataset");
        assert_eq!(step.interrupt, Some(InterruptReason::BudgetExhausted));
        let ctx = RunContext::unlimited();
        ctx.cancel_token().cancel();
        let step = checkpoint_step(&ds, Gamma::DEFAULT, &ctx, &store).unwrap();
        assert_eq!(step.interrupt, Some(InterruptReason::Cancelled));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
