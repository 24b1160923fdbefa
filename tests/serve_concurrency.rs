//! Concurrent readers against one writer. Epochs share their groups'
//! segments and the writer's tally table by reference count, so this is the
//! test that sharing never lets a read see a later write: three reader
//! threads loop on `current()` while the writer applies a seeded stream of
//! inserts, deletes, a new group and one budget-interrupted apply. Every
//! reader checks that epoch ids never decrease, that every epoch it gets
//! answers `query(γ)` at γ 0.5, 0.75 and 0.9 as the naive oracle does on
//! that epoch's `dataset()`, and, once the writer is done, that every epoch
//! it held still gives the answers it gave when it was current.
//!
//! By default the readers call `current()` in a loop while the writer
//! publishes a thousand batches, so reads race publishes, and each reader
//! checks every epoch it happens to get (tens to hundreds of them). With
//! `AGGSKY_SERVE_LOCKSTEP=1` the threads hand each epoch over explicitly
//! instead ([`Handoff`]): a reader calls `current()` once the writer has
//! announced a new epoch, and the writer applies the next batch once every
//! reader has taken the current epoch, so every reader checks every epoch
//! while the writer builds the next one from the segments they share.
//! `scripts/sanitizers.sh` runs the lockstep under ThreadSanitizer, which
//! sees these atomics but not the synchronization inside std's
//! uninstrumented lock slow paths: run freely, it reports the epoch lock's
//! pointer read in `current()` against the publish's write as races.

use aggsky::core::{naive_skyline, Epoch, GroupId, RunContext, SkylineService, WriteBatch};
use aggsky::{Gamma, GroupedDataset, GroupedDatasetBuilder};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

const READERS: usize = 3;
/// Batches in lockstep, where every reader checks every epoch.
const LOCKSTEP_BATCHES: usize = 36;
/// Batches when readers run freely: enough for their reads to keep
/// meeting publishes.
const FREE_BATCHES: usize = 1000;
/// A group this long loses a record more often than it gains one.
const SHRINK_AT: usize = 16;
const GROUPS: usize = 6;
/// The batch that adds a group no earlier batch named.
const NEW_GROUP_AT: usize = 9;
/// The batch applied with a one-tick budget: it folds, so it is
/// interrupted and publishes nothing; the next batch publishes its edits.
const INTERRUPTED_AT: usize = 20;
const GAMMAS: [f64; 3] = [0.5, 0.75, 0.9];

/// splitmix64, the repo's standard seeded generator for tests.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn below(state: &mut u64, n: u64) -> usize {
    (splitmix64(state) % n) as usize
}

/// A record on a 10-value grid in each of three dimensions.
fn record(state: &mut u64) -> Vec<f64> {
    (0..3).map(|_| below(state, 10) as f64).collect()
}

fn label(g: usize) -> String {
    format!("g{g}")
}

/// The starting groups, and the writer's `n` batches.
fn workload(seed: u64, n: usize) -> (GroupedDataset, Vec<WriteBatch>) {
    let mut state = seed;
    let mut live: Vec<Vec<Vec<f64>>> =
        (0..GROUPS).map(|_| (0..12).map(|_| record(&mut state)).collect()).collect();
    let mut b = GroupedDatasetBuilder::new(3);
    for (g, rows) in live.iter().enumerate() {
        b.push_group(label(g), rows).unwrap();
    }
    let ds = b.build().unwrap();
    let mut batches = Vec::new();
    for i in 0..n {
        if i == NEW_GROUP_AT {
            live.push(Vec::new());
        }
        let mut batch = WriteBatch::new();
        let ops = if i == INTERRUPTED_AT { 16 } else { 1 + below(&mut state, 8) };
        for _ in 0..ops {
            let g = below(&mut state, live.len() as u64);
            let shrink = if live[g].len() > SHRINK_AT { 3 } else { 0 };
            if i != INTERRUPTED_AT && live[g].len() > 2 && below(&mut state, 4) <= shrink {
                let at = below(&mut state, live[g].len() as u64);
                let rec = live[g].swap_remove(at);
                batch = batch.delete(label(g), &rec);
            } else {
                let rec = record(&mut state);
                batch = batch.insert(label(g), &rec);
                live[g].push(rec);
            }
        }
        batches.push(batch);
    }
    (ds, batches)
}

/// The oracle's skyline of an epoch at `gamma`, in service ids.
fn oracle(epoch: &Epoch, gamma: Gamma) -> Vec<GroupId> {
    naive_skyline(epoch.dataset(), gamma)
        .skyline
        .into_iter()
        .map(|si| epoch.service_id(si))
        .collect()
}

/// Each γ's answer.
fn answers(epoch: &Epoch) -> Vec<Vec<GroupId>> {
    GAMMAS.iter().map(|&g| epoch.query(Gamma::new(g).unwrap())).collect()
}

/// The writer's and readers' turns: the writer announces each epoch it
/// publishes, readers count each epoch they take, and the writer says when
/// it is done. Only `lockstep` runs wait for the announcements.
#[derive(Default)]
struct Handoff {
    lockstep: bool,
    published: AtomicU64,
    taken: AtomicUsize,
    done: AtomicBool,
}

impl Handoff {
    /// Whether the writer is done; in lockstep, first spins until it has
    /// announced epoch `id` or is done.
    fn wait_published(&self, id: u64) -> bool {
        loop {
            let done = self.done.load(Ordering::Acquire);
            if done || !self.lockstep || self.published.load(Ordering::Acquire) >= id {
                return done;
            }
            std::thread::yield_now();
        }
    }

    /// Announces epoch `id`; in lockstep, waits until every reader took it.
    fn publish(&self, id: u64) {
        self.published.store(id, Ordering::Release);
        if self.lockstep {
            self.wait_taken(id);
        }
    }

    /// Spins until every reader has taken epoch `id`.
    fn wait_taken(&self, id: u64) {
        while (self.taken.load(Ordering::Acquire) as u64) < READERS as u64 * (id + 1) {
            std::thread::yield_now();
        }
    }
}

/// Loops on `current()` until the writer is done (and once more after):
/// counts each new epoch in `taken`, answers it and keeps it with its
/// answers. Each kept epoch's answers are checked against the oracle as
/// they come in lockstep, and once the writer is done otherwise, so that
/// free readers return to `current()` quickly.
fn reader(svc: &SkylineService, turns: &Handoff) -> Vec<(Arc<Epoch>, Vec<Vec<GroupId>>)> {
    let mut held: Vec<(Arc<Epoch>, Vec<Vec<GroupId>>)> = Vec::new();
    loop {
        let next = held.last().map_or(0, |(e, _)| e.id() + 1);
        let finished = turns.wait_published(next);
        let epoch = svc.current();
        let last = held.last().map_or(0, |(e, _)| e.id());
        assert!(epoch.id() >= last, "epoch id went back from {last} to {}", epoch.id());
        if held.is_empty() || epoch.id() > last {
            turns.taken.fetch_add(1, Ordering::AcqRel);
            let got = answers(&epoch);
            if turns.lockstep {
                check(&epoch, &got);
            }
            held.push((epoch, got));
        } else {
            std::thread::yield_now();
        }
        if finished {
            break;
        }
    }
    if !turns.lockstep {
        for (epoch, got) in &held {
            check(epoch, got);
        }
    }
    held
}

/// Checks an epoch's answers at [`GAMMAS`] against the oracle.
fn check(epoch: &Epoch, got: &[Vec<GroupId>]) {
    for (&g, answer) in GAMMAS.iter().zip(got) {
        let want = oracle(epoch, Gamma::new(g).unwrap());
        assert_eq!(answer, &want, "epoch {} at γ {g}", epoch.id());
    }
    assert_eq!(epoch.skyline(), &got[0][..], "epoch {}: the service-γ skyline", epoch.id());
}

#[test]
fn concurrent_readers_see_monotone_epochs_that_answer_as_the_oracle() {
    let lockstep = std::env::var_os("AGGSKY_SERVE_LOCKSTEP").is_some_and(|v| v == "1");
    let n_batches = if lockstep { LOCKSTEP_BATCHES } else { FREE_BATCHES };
    let (ds, batches) = workload(0x5E27E, n_batches);
    let svc = SkylineService::from_dataset(&ds, Gamma::DEFAULT).unwrap();
    let turns = Handoff { lockstep, ..Handoff::default() };
    let held = std::thread::scope(|s| {
        let readers: Vec<_> = (0..READERS).map(|_| s.spawn(|| reader(&svc, &turns))).collect();
        let mut published = 0;
        turns.wait_taken(0);
        for (i, batch) in batches.iter().enumerate() {
            if i == INTERRUPTED_AT {
                let before = svc.current().id();
                let receipt = svc.apply_ctx(batch, &RunContext::with_budget(1)).unwrap();
                assert!(receipt.interrupted.is_some(), "batch {i} folded within one tick");
                assert_eq!(svc.current().id(), before, "an interrupted apply publishes nothing");
            } else {
                let receipt = svc.apply(batch).unwrap();
                assert_eq!(receipt.interrupted, None, "batch {i}");
                published += 1;
                assert_eq!(receipt.epoch, published, "batch {i}");
                turns.publish(published);
            }
        }
        turns.done.store(true, Ordering::Release);
        readers.into_iter().map(|r| r.join().unwrap()).collect::<Vec<_>>()
    });
    let last = svc.current();
    assert_eq!(last.id(), n_batches as u64 - 1, "every batch but the interrupted one published");
    assert!(last.dataset().group_by_label(&label(GROUPS)).is_some(), "the new group is served");
    let between = |(e, _): &(Arc<Epoch>, _)| e.id() != 0 && e.id() != last.id();
    assert!(held.iter().flatten().any(between), "no read fell between two publishes");
    for (r, epochs) in held.iter().enumerate() {
        let ids: Vec<u64> = epochs.iter().map(|(e, _)| e.id()).collect();
        assert_eq!(ids.last(), Some(&last.id()), "reader {r} ends on the last epoch");
        if lockstep {
            assert_eq!(ids, (0..=last.id()).collect::<Vec<_>>(), "reader {r} took every epoch");
        }
        // Later publishes changed nothing an earlier epoch answers from.
        for (epoch, got) in epochs {
            assert_eq!(&answers(epoch), got, "reader {r}, epoch {} re-read", epoch.id());
        }
    }
}
