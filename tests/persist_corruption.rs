//! Seeded fuzz-style corruption suite for the persist layer.
//!
//! Mutates committed frame files — random single-byte flips and random
//! prefix truncations — and asserts the recovery contract: every mutation
//! is either *detected* (the store degrades past the frame, or to a cold
//! start) or the recovered snapshot is *byte-identical* to the pristine
//! one. There is no third outcome: no panic, no silently different resume
//! state.

use aggsky::core::paircache::PairCache;
use aggsky::core::persist::{frame, CheckpointStore, Fingerprint, PairEntry, Snapshot};
use aggsky::core::prepared::PreparedDataset;
use aggsky::core::{anytime_skyline, run_durable, CachedTally, Gamma, GroupedDataset};
use aggsky_datagen::{Distribution, SyntheticConfig};

fn dataset(seed: u64) -> GroupedDataset {
    SyntheticConfig {
        n_records: 90,
        n_groups: 9,
        dim: 3,
        seed,
        ..SyntheticConfig::paper_default(Distribution::AntiCorrelated)
    }
    .generate()
}

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("aggsky-corrupt-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The newest committed frame file in `dir`.
fn newest_frame(dir: &std::path::Path) -> std::path::PathBuf {
    let mut frames: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "agsk"))
        .collect();
    frames.sort();
    frames.pop().expect("no frame committed")
}

/// splitmix64, the repo's standard seeded generator for tests.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[test]
fn every_mutation_is_detected_or_harmless() {
    let ds = dataset(7);
    let dir = tmpdir("fuzz");
    let store = CheckpointStore::open(&dir).unwrap();
    run_durable(&ds, Gamma::DEFAULT, u64::MAX, &store).unwrap();
    let frame_path = newest_frame(&dir);
    let pristine_bytes = std::fs::read(&frame_path).unwrap();
    let pristine = frame::decode_snapshot(frame::decode_frame(&pristine_bytes).unwrap()).unwrap();

    let mut rng = 0xF00D_u64;
    let mut detected = 0usize;
    let mut harmless = 0usize;
    for trial in 0..300 {
        let mut mutated = pristine_bytes.clone();
        if trial % 5 == 4 {
            // Random prefix truncation (including empty files).
            let keep = (splitmix64(&mut rng) as usize) % mutated.len();
            mutated.truncate(keep);
        } else {
            // Random single-byte XOR with a random non-zero mask.
            let pos = (splitmix64(&mut rng) as usize) % mutated.len();
            let mask = (splitmix64(&mut rng) % 255 + 1) as u8;
            mutated[pos] ^= mask;
        }
        std::fs::write(&frame_path, &mutated).unwrap();

        let recovery = store
            .load()
            .unwrap_or_else(|e| panic!("trial {trial}: load must degrade, not fail hard: {e}"));
        match recovery.snapshot {
            Some((_, snap)) => {
                // Only acceptable if the recovered state is bit-identical
                // to the pristine snapshot (e.g. an older intact frame, or
                // a mutation the checksum provably cannot miss never hits
                // this arm with different content).
                assert_eq!(
                    snap, pristine,
                    "trial {trial}: a mutated frame yielded *different* resume state"
                );
                harmless += 1;
            }
            None => {
                assert!(
                    !recovery.skipped.is_empty(),
                    "trial {trial}: cold start without reporting the skipped frame"
                );
                detected += 1;
            }
        }
    }
    assert!(detected > 0, "the fuzzer never produced a detectable corruption");
    // With a single frame on disk, a detectably mutated file can only cold
    // start; "harmless" arms require the mutation to be semantically
    // invisible, which a CRC-covered byte flip never is. Count them anyway
    // so a retention change that adds fallback frames keeps this honest.
    assert_eq!(detected + harmless, 300);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn mutated_newest_frame_degrades_to_the_older_one() {
    let ds = dataset(8);
    let dir = tmpdir("degrade");
    let store = CheckpointStore::open(&dir).unwrap();
    // A quarter of the run's own ticks per chunk splits the run into
    // several chunks, each committing a frame.
    let total = anytime_skyline(&ds, Gamma::DEFAULT, u64::MAX).stats.record_pairs;
    assert!(total >= 4, "the dataset must need record comparisons, got {total} ticks");
    let out = run_durable(&ds, Gamma::DEFAULT, total / 4, &store).unwrap();
    assert!(out.is_complete());
    let seqs = store.frames().unwrap();
    assert!(seqs.len() >= 2, "need at least two frames, got {seqs:?}");
    let newest = newest_frame(&dir);
    let mut bytes = std::fs::read(&newest).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x41;
    std::fs::write(&newest, &bytes).unwrap();
    let recovery = store.load().unwrap();
    let (seq, snap) = recovery.snapshot.expect("older frame must still recover");
    assert!(seq < *seqs.last().unwrap(), "recovered the corrupt newest frame");
    assert_eq!(recovery.skipped.len(), 1);
    assert!(snap.partition.is_some());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn foreign_checkpoint_directory_is_refused_not_overwritten() {
    let ds1 = dataset(9);
    let ds2 = dataset(10);
    let dir = tmpdir("foreign");
    let store = CheckpointStore::open(&dir).unwrap();
    run_durable(&ds1, Gamma::DEFAULT, u64::MAX, &store).unwrap();
    let frames_before = store.frames().unwrap();
    let err = run_durable(&ds2, Gamma::DEFAULT, u64::MAX, &store).unwrap_err();
    assert!(
        matches!(err, aggsky::core::Error::CheckpointMismatch(_)),
        "foreign dataset must be a typed mismatch, got: {err}"
    );
    assert_eq!(store.frames().unwrap(), frames_before, "the refusal must not write");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unrelated_files_in_the_directory_are_ignored() {
    let ds = dataset(11);
    let dir = tmpdir("garbage");
    let store = CheckpointStore::open(&dir).unwrap();
    std::fs::write(dir.join("frame-000001.tmp"), b"half a frame from a dead process").unwrap();
    std::fs::write(dir.join("notes.txt"), b"operator scribbles").unwrap();
    std::fs::write(dir.join("frame-xyz.agsk"), b"unparseable name").unwrap();
    let full = anytime_skyline(&ds, Gamma::DEFAULT, u64::MAX);
    let out = run_durable(&ds, Gamma::DEFAULT, 250, &store).unwrap();
    assert_eq!(out.result, full, "garbage files changed the durable result");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn pair_cache_tallies_round_trip_through_a_frame() {
    let ds = dataset(12);
    let prep = PreparedDataset::build(&ds, 8).unwrap();
    let mut cache = PairCache::new();
    let total = |lo: usize, hi: usize| {
        aggsky::core::num::pair_count(prep.group_len(lo), prep.group_len(hi)).unwrap()
    };
    cache.store(0, 1, CachedTally { n12: 3, n21: 1, checked: 7, total: total(0, 1), cursor: 1 });
    cache.store(2, 5, CachedTally::fresh(total(2, 5)));
    let entries = cache.export();
    let snap = Snapshot {
        fingerprint: Fingerprint::of(&ds, Gamma::DEFAULT),
        partition: None,
        pairs: entries
            .iter()
            .map(|((lo, hi), tally)| PairEntry { lo: *lo, hi: *hi, tally: *tally })
            .collect(),
    };
    let bytes = frame::encode_frame(&frame::encode_snapshot(&snap));
    let decoded = frame::decode_snapshot(frame::decode_frame(&bytes).unwrap()).unwrap();
    assert_eq!(decoded, snap, "frame round-trip changed the pair tallies");
    let mut restored = PairCache::new();
    let restored_entries: Vec<_> = decoded.pairs.iter().map(|p| ((p.lo, p.hi), p.tally)).collect();
    assert_eq!(restored.ingest(&prep, &restored_entries).unwrap(), entries.len());
    assert_eq!(restored.export(), entries, "ingested tallies diverged from the originals");
}

/// `snap` in an earlier frame layout: every id a `u64`, and the checkpoint
/// as candidate lists under `tag` — tag 1 (`u64` ids) or tag 2 (varints).
/// Each undecided group lists the positions from its cursor on; a reader
/// refuses both tags before it looks at the lists.
fn encode_candidate_list_frame(snap: &Snapshot, tag: u8) -> Vec<u8> {
    let mut out = Vec::new();
    let put = |out: &mut Vec<u8>, v: u64| out.extend_from_slice(&v.to_le_bytes());
    let varint = |out: &mut Vec<u8>, mut v: u64| {
        while v >= 0x80 {
            out.push((v & 0x7F) as u8 | 0x80);
            v >>= 7;
        }
        out.push(v as u8);
    };
    let fp = &snap.fingerprint;
    for v in [fp.n_groups, fp.n_records, fp.dim, fp.gamma_bits, fp.block_size] {
        put(&mut out, v);
    }
    out.push(fp.kernel_tag);
    put(&mut out, fp.seed);
    put(&mut out, fp.data_hash);
    let p = snap.partition.as_ref().expect("the frame carries a partition");
    out.push(1);
    for ids in [&p.confirmed_in, &p.confirmed_out, &p.undecided] {
        put(&mut out, ids.len() as u64);
        for &g in ids.iter() {
            put(&mut out, g as u64);
        }
    }
    let s = p.stats;
    for v in [
        s.group_pairs,
        s.record_pairs,
        s.bbox_resolved,
        s.bbox_skipped_pairs,
        s.early_stops,
        s.transitive_skips,
        s.index_candidates,
        s.blocks_full,
        s.blocks_skipped,
        s.records_compared,
        s.worker_retries,
        s.workers_quarantined,
        s.cache_hits,
        s.cache_misses,
        s.cache_resumes,
    ] {
        put(&mut out, v);
    }
    let cp = p.checkpoint.as_ref().expect("an incomplete partition carries a checkpoint");
    let id: &dyn Fn(&mut Vec<u8>, u64) = if tag == 1 { &put } else { &varint };
    out.push(tag);
    id(&mut out, cp.open.len() as u64);
    for c in &cp.open {
        let cands: Vec<u64> = (c.cursor as u64..fp.n_groups).collect();
        id(&mut out, c.group as u64);
        id(&mut out, cands.len() as u64);
        for s in cands {
            id(&mut out, s);
        }
    }
    assert!(snap.pairs.is_empty());
    put(&mut out, 0);
    frame::encode_frame(&out)
}

/// Rewrites the newest frame of `dir` in an earlier layout.
fn downgrade_newest_frame(dir: &std::path::Path, tag: u8) {
    let path = newest_frame(dir);
    let bytes = std::fs::read(&path).unwrap();
    let snap = frame::decode_snapshot(frame::decode_frame(&bytes).unwrap()).unwrap();
    std::fs::write(&path, encode_candidate_list_frame(&snap, tag)).unwrap();
}

#[test]
fn frame_in_the_fixed_width_layout_is_skipped_and_the_run_restarts_cold() {
    candidate_list_frame_is_skipped_and_the_run_restarts_cold(1);
}

#[test]
fn frame_in_the_varint_list_layout_is_skipped_and_the_run_restarts_cold() {
    candidate_list_frame_is_skipped_and_the_run_restarts_cold(2);
}

/// A frame in the candidate-list layout `tag` is skipped with
/// `UnsupportedCheckpoint`, and both `checkpoint_step` and a repeated SQL
/// statement under `SET CHECKPOINT` restart cold and end at the oracle's
/// skyline.
fn candidate_list_frame_is_skipped_and_the_run_restarts_cold(tag: u8) {
    use aggsky::core::persist::checkpoint_step;
    use aggsky::core::{naive_skyline, RunContext};
    let ds = dataset(13);
    let gamma = Gamma::DEFAULT;
    let oracle = naive_skyline(&ds, gamma).skyline;
    let total = anytime_skyline(&ds, gamma, u64::MAX).stats.record_pairs;
    let budget = total / 4 + 1;
    let dir = tmpdir(&format!("list-tag-{tag}"));
    let store = CheckpointStore::open(&dir).unwrap();
    let step = |store: &CheckpointStore| {
        checkpoint_step(&ds, gamma, &RunContext::with_budget(budget), store).unwrap()
    };
    let first = step(&store);
    assert!(!first.is_complete(), "a quarter of the ticks must not finish the run");
    downgrade_newest_frame(&dir, tag);
    let recovery = store.load().unwrap();
    assert!(recovery.snapshot.is_none());
    assert_eq!(recovery.skipped.len(), 1);
    let reason = &recovery.skipped[0].reason;
    assert!(reason.contains("no longer read"), "{:?}", recovery.skipped);
    assert!(reason.contains(&format!("tag {tag}")), "{:?}", recovery.skipped);

    // The re-issue reports the frame skipped and redoes the first chunk.
    let mut out = step(&store);
    assert_eq!((out.frames_skipped, out.resumed_seq), (1, None));
    assert_eq!(out.result, first.result, "a cold restart repeats the first chunk");
    while !out.is_complete() {
        out = step(&store);
        assert_eq!(out.frames_skipped, 0);
    }
    assert_eq!(out.result.confirmed_in, oracle);
    assert_eq!(out.result.stats, anytime_skyline(&ds, gamma, u64::MAX).stats);
    let _ = std::fs::remove_dir_all(&dir);

    // The same through SQL: a `SET CHECKPOINT` re-issue logs the skipped
    // frame, starts cold and ends with the oracle's skyline.
    let mut db = aggsky::Database::new();
    let dims: Vec<String> = (0..ds.dim()).map(|d| format!("d{d}")).collect();
    let cols: Vec<String> = dims.iter().map(|d| format!("{d} FLOAT")).collect();
    db.execute(&format!("CREATE TABLE t (g TEXT, {})", cols.join(", "))).unwrap();
    for g in ds.group_ids() {
        for rec in ds.records(g) {
            let nums: Vec<String> = rec.iter().map(|v| format!("{v:?}")).collect();
            db.execute(&format!("INSERT INTO t VALUES ('{}', {})", ds.label(g), nums.join(", ")))
                .unwrap();
        }
    }
    let sky: Vec<String> = dims.iter().map(|d| format!("{d} MAX")).collect();
    let sql = format!("SELECT g FROM t GROUP BY g SKYLINE OF {} GAMMA 0.5", sky.join(", "));
    let sql_dir = tmpdir(&format!("list-tag-{tag}-sql"));
    db.execute(&format!("SET CHECKPOINT '{}'", sql_dir.display())).unwrap();
    db.execute(&format!("SET TIMEOUT {budget}")).unwrap();
    let first = db.execute(&sql).unwrap();
    assert!(first.interrupted.is_some());
    let first_ticks = db.journal().records().last().unwrap().ticks;
    downgrade_newest_frame(&sql_dir, tag);
    let mut r = db.execute(&sql).unwrap();
    let log = db.journal().records().last().unwrap().clone();
    assert_eq!(log.frames_skipped, 1);
    assert!(log.to_json().contains("\"frames_skipped\":1"), "{}", log.to_json());
    assert_eq!((log.ticks, &r.rows), (first_ticks, &first.rows), "the re-issue starts cold");
    while r.interrupted.is_some() {
        r = db.execute(&sql).unwrap();
        assert_eq!(db.journal().records().last().unwrap().frames_skipped, 0);
    }
    let mut got: Vec<String> = r.rows.iter().map(|row| row[0].to_string()).collect();
    got.sort();
    let want: Vec<String> = ds.sorted_labels(&oracle).into_iter().map(str::to_string).collect();
    assert_eq!(got, want);
    let _ = std::fs::remove_dir_all(&sql_dir);
}
