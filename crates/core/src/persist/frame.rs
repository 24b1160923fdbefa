//! The checkpoint frame codec: a checksummed, versioned, length-prefixed
//! container for one [`Snapshot`] (DESIGN.md §15).
//!
//! ```text
//! ┌──────────┬─────────┬─────────────┬───────────────┬───────────┐
//! │ magic    │ version │ payload_len │ payload       │ crc64     │
//! │ 8 bytes  │ u32 LE  │ u64 LE      │ payload_len B │ u64 LE    │
//! │ AGSKCKP1 │         │             │               │ over v+l+p│
//! └──────────┴─────────┴─────────────┴───────────────┴───────────┘
//! ```
//!
//! The CRC covers everything after the magic (version, length prefix and
//! payload), so a torn write, a flipped bit or a truncated tail is detected
//! before a single payload byte is interpreted. Decoding never panics and
//! never allocates more than the input holds: every length field is checked
//! against the bytes actually present before it is trusted.
//!
//! The payload is the [`Snapshot`] encoding, fingerprint first — a reader
//! can reject a frame from the wrong dataset without parsing the rest.
//! Integers are little-endian `u64` (group ids go through the sanctioned
//! [`crate::num`] conversions), floats travel as IEEE-754 bit patterns so
//! the round-trip is bit-exact. The one exception is the resume state:
//! checkpoint tag 3 stores each undecided group's id, its cursor into the
//! engine's visiting order and the settled positions ahead of it as LEB128
//! varints (one to two bytes each on datasets of up to 16 384 groups).
//! Tags 1 and 2, the earlier candidate-list layouts, are no longer read:
//! such a frame fails to decode with [`Error::UnsupportedCheckpoint`], so
//! the store skips it and the run restarts cold.

use crate::anytime::{AnytimeCheckpoint, AnytimeResult, GroupCursor};
use crate::dataset::GroupId;
use crate::error::{Error, Result};
use crate::paircache::CachedTally;
use crate::persist::crc64::crc64;
use crate::persist::{Fingerprint, PairEntry, Snapshot};
use crate::stats::Stats;

/// Frame magic: "AGSK" (the project) + "CKP" (checkpoint) + format family.
pub const MAGIC: [u8; 8] = *b"AGSKCKP1";
/// Current frame version; readers refuse newer versions instead of
/// guessing at their layout.
pub const VERSION: u32 = 1;

// ---------------------------------------------------------------------------
// Byte-level reader/writer (no indexing, no panics)
// ---------------------------------------------------------------------------

struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    fn new() -> ByteWriter {
        ByteWriter { buf: Vec::new() }
    }

    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn usize(&mut self, v: usize) {
        self.u64(crate::num::wide(v));
    }

    /// LEB128: seven bits per byte, low groups first, the high bit set on
    /// every byte but the last.
    fn varint(&mut self, v: usize) {
        let mut v = crate::num::wide(v);
        while v >= 0x80 {
            self.buf.push(low_byte(v) | 0x80);
            v >>= 7;
        }
        self.buf.push(low_byte(v));
    }

    fn ids(&mut self, ids: &[GroupId]) {
        self.usize(ids.len());
        for &g in ids {
            self.usize(g);
        }
    }
}

struct ByteReader<'a> {
    rest: &'a [u8],
}

impl<'a> ByteReader<'a> {
    fn new(bytes: &'a [u8]) -> ByteReader<'a> {
        ByteReader { rest: bytes }
    }

    fn corrupt(what: &str) -> Error {
        Error::CorruptCheckpoint(format!("frame payload truncated reading {what}"))
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8]> {
        let (head, tail) = self.rest.split_at_checked(n).ok_or_else(|| Self::corrupt(what))?;
        self.rest = tail;
        Ok(head)
    }

    fn u8(&mut self, what: &str) -> Result<u8> {
        let b = self.take(1, what)?;
        b.first().copied().ok_or_else(|| Self::corrupt(what))
    }

    fn u64(&mut self, what: &str) -> Result<u64> {
        let b = self.take(8, what)?;
        let arr: [u8; 8] = b.try_into().map_err(|_| Self::corrupt(what))?;
        Ok(u64::from_le_bytes(arr))
    }

    fn usize(&mut self, what: &str) -> Result<usize> {
        let v = self.u64(what)?;
        crate::num::narrow(v)
            .ok_or_else(|| Error::CorruptCheckpoint(format!("{what} {v} exceeds usize")))
    }

    /// A length prefix that must be realizable from the remaining bytes
    /// (each element at least `elem_bytes` wide), so a corrupted count can
    /// never drive an over-allocation.
    fn len(&mut self, elem_bytes: usize, what: &str) -> Result<usize> {
        let n = self.usize(what)?;
        if n.checked_mul(elem_bytes).is_none_or(|total| total > self.rest.len()) {
            return Err(Error::CorruptCheckpoint(format!(
                "{what} {n} larger than the remaining {} payload bytes allow",
                self.rest.len()
            )));
        }
        Ok(n)
    }

    /// A LEB128 varint (see [`ByteWriter::varint`]): at most ten bytes,
    /// the tenth carrying only bit 63.
    fn varint(&mut self, what: &str) -> Result<usize> {
        let mut v = 0u64;
        for shift in (0..64).step_by(7) {
            let b = self.u8(what)?;
            v |= u64::from(b & 0x7F) << shift;
            if b & 0x80 == 0 {
                if shift == 63 && b > 1 {
                    return Err(Error::CorruptCheckpoint(format!(
                        "{what} varint overflows 64 bits"
                    )));
                }
                return crate::num::narrow(v)
                    .ok_or_else(|| Error::CorruptCheckpoint(format!("{what} {v} exceeds usize")));
            }
        }
        Err(Error::CorruptCheckpoint(format!("{what} varint longer than 10 bytes")))
    }

    /// A varint count that must be realizable from the remaining bytes
    /// (each element at least `min_bytes` long).
    fn varint_len(&mut self, min_bytes: usize, what: &str) -> Result<usize> {
        let n = self.varint(what)?;
        if n.checked_mul(min_bytes).is_none_or(|total| total > self.rest.len()) {
            return Err(Error::CorruptCheckpoint(format!(
                "{what} {n} larger than the remaining {} payload bytes allow",
                self.rest.len()
            )));
        }
        Ok(n)
    }

    fn ids(&mut self, what: &str) -> Result<Vec<GroupId>> {
        let n = self.len(8, what)?;
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            v.push(self.usize(what)?);
        }
        Ok(v)
    }

    fn done(&self) -> Result<()> {
        if self.rest.is_empty() {
            Ok(())
        } else {
            Err(Error::CorruptCheckpoint(format!(
                "{} trailing bytes after the snapshot encoding",
                self.rest.len()
            )))
        }
    }
}

// ---------------------------------------------------------------------------
// Frame container
// ---------------------------------------------------------------------------

/// Wraps an encoded payload in the checksummed frame container.
pub fn encode_frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(MAGIC.len() + 4 + 8 + payload.len() + 8);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&crate::num::wide(payload.len()).to_le_bytes());
    out.extend_from_slice(payload);
    // The CRC covers version + length + payload (everything after magic,
    // before the trailer itself).
    let crc = crc64(out.get(MAGIC.len()..).unwrap_or_default());
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// Unwraps a frame, verifying magic, version, length prefix and checksum.
/// Returns the payload slice. Every failure mode is a typed
/// [`Error::CorruptCheckpoint`] — never a panic, never a partial payload.
pub fn decode_frame(bytes: &[u8]) -> Result<&[u8]> {
    let mut r = ByteReader::new(bytes);
    let magic = r.take(MAGIC.len(), "magic")?;
    if magic != MAGIC {
        return Err(Error::CorruptCheckpoint("bad frame magic".into()));
    }
    let vbytes = r.take(4, "version")?;
    let varr: [u8; 4] = vbytes.try_into().map_err(|_| ByteReader::corrupt("version"))?;
    let version = u32::from_le_bytes(varr);
    if version != VERSION {
        return Err(Error::CorruptCheckpoint(format!(
            "frame version {version} not supported (reader speaks {VERSION})"
        )));
    }
    let len = r.u64("payload length")?;
    let len = crate::num::narrow(len)
        .ok_or_else(|| Error::CorruptCheckpoint(format!("payload length {len} exceeds usize")))?;
    if r.rest.len() != len + 8 {
        return Err(Error::CorruptCheckpoint(format!(
            "frame holds {} bytes where the length prefix promises {} payload + 8 crc",
            r.rest.len(),
            len
        )));
    }
    let payload = r.take(len, "payload")?;
    let stored = r.u64("crc")?;
    let covered = bytes.get(MAGIC.len()..bytes.len().saturating_sub(8)).unwrap_or_default();
    let actual = crc64(covered);
    if stored != actual {
        return Err(Error::CorruptCheckpoint(format!(
            "frame checksum mismatch (stored {stored:#018x}, computed {actual:#018x})"
        )));
    }
    Ok(payload)
}

// ---------------------------------------------------------------------------
// Snapshot payload
// ---------------------------------------------------------------------------

fn encode_fingerprint(w: &mut ByteWriter, fp: &Fingerprint) {
    w.u64(fp.n_groups);
    w.u64(fp.n_records);
    w.u64(fp.dim);
    w.u64(fp.gamma_bits);
    w.u64(fp.block_size);
    w.u8(fp.kernel_tag);
    w.u64(fp.seed);
    w.u64(fp.data_hash);
}

fn decode_fingerprint(r: &mut ByteReader<'_>) -> Result<Fingerprint> {
    Ok(Fingerprint {
        n_groups: r.u64("fingerprint n_groups")?,
        n_records: r.u64("fingerprint n_records")?,
        dim: r.u64("fingerprint dim")?,
        gamma_bits: r.u64("fingerprint gamma bits")?,
        block_size: r.u64("fingerprint block size")?,
        kernel_tag: r.u8("fingerprint kernel tag")?,
        seed: r.u64("fingerprint seed")?,
        data_hash: r.u64("fingerprint data hash")?,
    })
}

fn encode_stats(w: &mut ByteWriter, stats: &Stats) {
    // Exhaustive destructuring, like `Stats::merge`: a new counter field
    // fails to compile here until the frame format accounts for it.
    let Stats {
        group_pairs,
        record_pairs,
        bbox_resolved,
        bbox_skipped_pairs,
        early_stops,
        transitive_skips,
        index_candidates,
        blocks_full,
        blocks_skipped,
        records_compared,
        worker_retries,
        workers_quarantined,
        cache_hits,
        cache_misses,
        cache_resumes,
    } = *stats;
    for v in [
        group_pairs,
        record_pairs,
        bbox_resolved,
        bbox_skipped_pairs,
        early_stops,
        transitive_skips,
        index_candidates,
        blocks_full,
        blocks_skipped,
        records_compared,
        worker_retries,
        workers_quarantined,
        cache_hits,
        cache_misses,
        cache_resumes,
    ] {
        w.u64(v);
    }
}

fn decode_stats(r: &mut ByteReader<'_>) -> Result<Stats> {
    Ok(Stats {
        group_pairs: r.u64("stats group_pairs")?,
        record_pairs: r.u64("stats record_pairs")?,
        bbox_resolved: r.u64("stats bbox_resolved")?,
        bbox_skipped_pairs: r.u64("stats bbox_skipped_pairs")?,
        early_stops: r.u64("stats early_stops")?,
        transitive_skips: r.u64("stats transitive_skips")?,
        index_candidates: r.u64("stats index_candidates")?,
        blocks_full: r.u64("stats blocks_full")?,
        blocks_skipped: r.u64("stats blocks_skipped")?,
        records_compared: r.u64("stats records_compared")?,
        worker_retries: r.u64("stats worker_retries")?,
        workers_quarantined: r.u64("stats workers_quarantined")?,
        cache_hits: r.u64("stats cache_hits")?,
        cache_misses: r.u64("stats cache_misses")?,
        cache_resumes: r.u64("stats cache_resumes")?,
    })
}

/// The low seven bits of `v`.
fn low_byte(v: u64) -> u8 {
    u8::try_from(v & 0x7F).unwrap_or(0x7F)
}

/// Checkpoint tag of a partition with no resume state.
const NO_CHECKPOINT: u8 = 0;
/// Checkpoint tags of the earlier candidate-list layouts (`u64` ids, then
/// varint ids), no longer read.
const CHECKPOINT_LISTS: [u8; 2] = [1, 2];
/// Checkpoint tag of the current layout: per undecided group, its id, its
/// cursor and its settled positions, all varints.
const CHECKPOINT_CURSORS: u8 = 3;

fn encode_partition(w: &mut ByteWriter, p: &AnytimeResult) {
    w.ids(&p.confirmed_in);
    w.ids(&p.confirmed_out);
    w.ids(&p.undecided);
    encode_stats(w, &p.stats);
    match &p.checkpoint {
        None => w.u8(NO_CHECKPOINT),
        Some(cp) => {
            w.u8(CHECKPOINT_CURSORS);
            w.varint(cp.open.len());
            for c in &cp.open {
                w.varint(c.group);
                w.varint(c.cursor);
                w.varint(c.settled.len());
                for &p in &c.settled {
                    w.varint(p);
                }
            }
        }
    }
}

/// Decodes a partition of a dataset of `n_groups` groups; its checkpoint
/// must fit them ([`AnytimeCheckpoint::validate`]).
fn decode_partition(r: &mut ByteReader<'_>, n_groups: u64) -> Result<AnytimeResult> {
    let confirmed_in = r.ids("confirmed_in")?;
    let confirmed_out = r.ids("confirmed_out")?;
    let undecided = r.ids("undecided")?;
    let stats = decode_stats(r)?;
    let checkpoint = match r.u8("checkpoint tag")? {
        NO_CHECKPOINT => None,
        CHECKPOINT_CURSORS => {
            // Each group needs at least its id, cursor and settled count.
            let n = r.varint_len(3, "checkpoint group count")?;
            let mut open = Vec::with_capacity(n);
            for _ in 0..n {
                let group = r.varint("checkpoint group id")?;
                let cursor = r.varint("checkpoint cursor")?;
                let len = r.varint_len(1, "checkpoint settled count")?;
                let mut settled = Vec::with_capacity(len);
                for _ in 0..len {
                    settled.push(r.varint("checkpoint settled position")?);
                }
                open.push(GroupCursor { group, cursor, settled });
            }
            let cp = AnytimeCheckpoint { open };
            cp.validate(crate::num::narrow(n_groups).unwrap_or(usize::MAX))?;
            Some(cp)
        }
        tag if CHECKPOINT_LISTS.contains(&tag) => {
            return Err(Error::UnsupportedCheckpoint(format!(
                "checkpoint tag {tag} (candidate lists, written by an earlier version); the run \
                 restarts cold"
            )))
        }
        other => {
            return Err(Error::CorruptCheckpoint(format!(
                "checkpoint tag must be 0 or {CHECKPOINT_CURSORS}, found {other}"
            )))
        }
    };
    Ok(AnytimeResult { confirmed_in, confirmed_out, undecided, stats, checkpoint })
}

/// Encodes a [`Snapshot`] into the (unframed) payload byte stream,
/// fingerprint first.
pub fn encode_snapshot(snap: &Snapshot) -> Vec<u8> {
    let mut w = ByteWriter::new();
    encode_fingerprint(&mut w, &snap.fingerprint);
    match &snap.partition {
        None => w.u8(0),
        Some(p) => {
            w.u8(1);
            encode_partition(&mut w, p);
        }
    }
    w.usize(snap.pairs.len());
    for e in &snap.pairs {
        w.usize(e.lo);
        w.usize(e.hi);
        let CachedTally { n12, n21, checked, total, cursor } = e.tally;
        for v in [n12, n21, checked, total, cursor] {
            w.u64(v);
        }
    }
    w.buf
}

/// Decodes a snapshot payload produced by [`encode_snapshot`]. The whole
/// payload must be consumed — trailing bytes are treated as corruption.
pub fn decode_snapshot(payload: &[u8]) -> Result<Snapshot> {
    let mut r = ByteReader::new(payload);
    let fingerprint = decode_fingerprint(&mut r)?;
    let partition = match r.u8("partition flag")? {
        0 => None,
        1 => Some(decode_partition(&mut r, fingerprint.n_groups)?),
        other => {
            return Err(Error::CorruptCheckpoint(format!(
                "partition flag must be 0 or 1, found {other}"
            )))
        }
    };
    let n = r.len(56, "pair entry count")?;
    let mut pairs = Vec::with_capacity(n);
    for _ in 0..n {
        let lo = r.usize("pair lo id")?;
        let hi = r.usize("pair hi id")?;
        let tally = CachedTally {
            n12: r.u64("pair n12")?,
            n21: r.u64("pair n21")?,
            checked: r.u64("pair checked")?,
            total: r.u64("pair total")?,
            cursor: r.u64("pair cursor")?,
        };
        pairs.push(PairEntry { lo, hi, tally });
    }
    r.done()?;
    Ok(Snapshot { fingerprint, partition, pairs })
}

/// Reads only the fingerprint from a snapshot payload (the first 57 bytes),
/// so a loader can reject a foreign frame without decoding the rest.
pub fn peek_fingerprint(payload: &[u8]) -> Result<Fingerprint> {
    let mut r = ByteReader::new(payload);
    decode_fingerprint(&mut r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::persist::Snapshot;

    fn sample_snapshot() -> Snapshot {
        Snapshot {
            fingerprint: Fingerprint {
                n_groups: 4,
                n_records: 17,
                dim: 3,
                gamma_bits: 0.5f64.to_bits(),
                block_size: 8,
                kernel_tag: 2,
                seed: 99,
                data_hash: 0xDEAD_BEEF_CAFE_F00D,
            },
            partition: Some(AnytimeResult {
                confirmed_in: vec![0, 2],
                confirmed_out: vec![3],
                undecided: vec![1],
                stats: Stats { record_pairs: 42, group_pairs: 5, ..Stats::default() },
                checkpoint: Some(AnytimeCheckpoint {
                    open: vec![GroupCursor { group: 1, cursor: 0, settled: vec![3] }],
                }),
            }),
            pairs: vec![PairEntry {
                lo: 0,
                hi: 1,
                tally: CachedTally { n12: 3, n21: 1, checked: 10, total: 12, cursor: 2 },
            }],
        }
    }

    #[test]
    fn frame_round_trip_is_identity() {
        let snap = sample_snapshot();
        let frame = encode_frame(&encode_snapshot(&snap));
        let payload = decode_frame(&frame).expect("fresh frame must decode");
        assert_eq!(decode_snapshot(payload).expect("payload must parse"), snap);
    }

    #[test]
    fn empty_snapshot_round_trips() {
        let snap = Snapshot {
            fingerprint: sample_snapshot().fingerprint,
            partition: None,
            pairs: Vec::new(),
        };
        let frame = encode_frame(&encode_snapshot(&snap));
        assert_eq!(decode_snapshot(decode_frame(&frame).unwrap()).unwrap(), snap);
    }

    #[test]
    fn peek_fingerprint_matches_full_decode() {
        let snap = sample_snapshot();
        let payload = encode_snapshot(&snap);
        assert_eq!(peek_fingerprint(&payload).unwrap(), snap.fingerprint);
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut frame = encode_frame(&encode_snapshot(&sample_snapshot()));
        if let Some(b) = frame.first_mut() {
            *b ^= 0xFF;
        }
        assert!(matches!(decode_frame(&frame), Err(Error::CorruptCheckpoint(_))));
    }

    #[test]
    fn future_version_is_refused_not_guessed() {
        let payload = encode_snapshot(&sample_snapshot());
        let mut frame = Vec::new();
        frame.extend_from_slice(&MAGIC);
        frame.extend_from_slice(&(VERSION + 1).to_le_bytes());
        frame.extend_from_slice(&crate::num::wide(payload.len()).to_le_bytes());
        frame.extend_from_slice(&payload);
        let crc = crate::persist::crc64::crc64(frame.get(MAGIC.len()..).unwrap_or_default());
        frame.extend_from_slice(&crc.to_le_bytes());
        let err = decode_frame(&frame).unwrap_err();
        assert!(matches!(err, Error::CorruptCheckpoint(ref m) if m.contains("version")), "{err}");
    }

    #[test]
    fn every_truncation_is_detected() {
        let frame = encode_frame(&encode_snapshot(&sample_snapshot()));
        for keep in 0..frame.len() {
            let cut = frame.get(..keep).unwrap_or_default();
            assert!(
                matches!(decode_frame(cut), Err(Error::CorruptCheckpoint(_))),
                "truncation to {keep} bytes slipped through"
            );
        }
    }

    #[test]
    fn every_single_byte_flip_is_detected() {
        let frame = encode_frame(&encode_snapshot(&sample_snapshot()));
        for i in 0..frame.len() {
            let mut m = frame.clone();
            if let Some(b) = m.get_mut(i) {
                *b ^= 0x41;
            }
            assert!(
                matches!(decode_frame(&m), Err(Error::CorruptCheckpoint(_))),
                "byte flip at {i} slipped through"
            );
        }
    }

    #[test]
    fn corrupt_length_prefix_cannot_over_allocate() {
        // A payload whose pair count claims usize::MAX: the reader must
        // reject it against the remaining byte budget, not allocate.
        let mut w = ByteWriter::new();
        encode_fingerprint(&mut w, &sample_snapshot().fingerprint);
        w.u8(0); // no partition
        w.u64(u64::MAX); // absurd pair count
        let err = decode_snapshot(&w.buf).unwrap_err();
        assert!(matches!(err, Error::CorruptCheckpoint(_)), "{err}");
    }

    #[test]
    fn trailing_garbage_is_corruption() {
        let mut payload = encode_snapshot(&sample_snapshot());
        payload.push(0);
        assert!(matches!(decode_snapshot(&payload), Err(Error::CorruptCheckpoint(_))));
    }

    /// The payload of `sample_snapshot` up to and including its checkpoint
    /// tag, for hand-built checkpoint sections.
    fn payload_up_to_checkpoint_tag(tag: u8) -> ByteWriter {
        let snap = sample_snapshot();
        let p = snap.partition.unwrap();
        let mut w = ByteWriter::new();
        encode_fingerprint(&mut w, &snap.fingerprint);
        w.u8(1);
        w.ids(&p.confirmed_in);
        w.ids(&p.confirmed_out);
        w.ids(&p.undecided);
        encode_stats(&mut w, &p.stats);
        w.u8(tag);
        w
    }

    #[test]
    fn cursor_checkpoint_round_trips_at_every_width() {
        let mut snap = sample_snapshot();
        snap.fingerprint.n_groups = 300;
        if let Some(p) = &mut snap.partition {
            p.checkpoint = Some(AnytimeCheckpoint {
                open: vec![
                    GroupCursor { group: 0, cursor: 0, settled: vec![127, 128, 299] },
                    GroupCursor { group: 127, cursor: 128, settled: Vec::new() },
                    GroupCursor { group: 128, cursor: 127, settled: vec![128] },
                    GroupCursor { group: 299, cursor: 299, settled: Vec::new() },
                ],
            });
        }
        let frame = encode_frame(&encode_snapshot(&snap));
        assert_eq!(decode_snapshot(decode_frame(&frame).unwrap()).unwrap(), snap);
        // One byte below 128, two from 128, ten for usize::MAX on 64 bits.
        let mut w = ByteWriter::new();
        for (v, bytes) in [(0usize, 1usize), (127, 1), (128, 2), (1 << 32, 5), (usize::MAX, 10)] {
            let before = w.buf.len();
            w.varint(v);
            assert_eq!(w.buf.len() - before, bytes, "varint width of {v}");
        }
    }

    #[test]
    fn malformed_cursor_sections_are_rejected() {
        // `sample_snapshot` has 4 groups; a section is the group count,
        // then per group its id, cursor, settled count and positions.
        let decode = |section: &[u8]| {
            let mut w = payload_up_to_checkpoint_tag(CHECKPOINT_CURSORS);
            w.buf.extend_from_slice(section);
            w.u64(0); // no pair entries
            decode_snapshot(&w.buf)
        };
        let corrupt = |section: &[u8], what: &str| {
            let err = decode(section).unwrap_err();
            assert!(
                matches!(err, Error::CorruptCheckpoint(ref m) if m.contains(what)),
                "{section:?}: {err}"
            );
        };
        // Well-formed sections decode.
        assert!(decode(&[1, 1, 0, 2, 2, 3]).is_ok());
        assert!(decode(&[2, 0, 3, 0, 2, 1, 0]).is_ok());
        // A varint longer than 10 bytes, and a tenth byte carrying more
        // than bit 63.
        let mut long = vec![1, 1, 0, 1];
        long.extend_from_slice(&[0x80; 10]);
        long.push(0);
        corrupt(&long, "10 bytes");
        let mut wide = vec![1, 1, 0, 1];
        wide.extend_from_slice(&[0xFF; 9]);
        wide.push(0x02);
        corrupt(&wide, "64 bits");
        // Counts larger than the bytes that remain: groups, then settled.
        corrupt(&[0x90, 0x4E], "group count"); // 10 000 groups
        corrupt(&[1, 1, 0, 50, 3], "settled count");
        // A cursor past the last position.
        corrupt(&[1, 1, 4, 0], "cursor 4");
        // Settled positions at or below the cursor, descending, or past
        // the last position.
        corrupt(&[1, 1, 2, 1, 2], "settled position 2");
        corrupt(&[1, 1, 2, 1, 1], "settled position 1");
        corrupt(&[1, 1, 0, 2, 3, 2], "settled position 2");
        corrupt(&[1, 1, 0, 1, 4], "settled position 4");
        // Group ids descending, repeated, or past the last group.
        corrupt(&[2, 2, 0, 0, 1, 0, 0], "group 1");
        corrupt(&[2, 1, 0, 0, 1, 0, 0], "group 1");
        corrupt(&[1, 4, 0, 0], "group 4");
        // Trailing bytes after the snapshot.
        let mut w = payload_up_to_checkpoint_tag(CHECKPOINT_CURSORS);
        w.buf.extend_from_slice(&[1, 1, 0, 0]);
        w.u64(0);
        w.u8(7);
        assert!(matches!(decode_snapshot(&w.buf), Err(Error::CorruptCheckpoint(_))));
        // An unknown tag.
        let mut w = payload_up_to_checkpoint_tag(4);
        w.u64(0);
        let err = decode_snapshot(&w.buf).unwrap_err();
        assert!(matches!(err, Error::CorruptCheckpoint(ref m) if m.contains("found 4")), "{err}");
    }

    #[test]
    fn candidate_list_checkpoint_tags_are_refused_with_their_own_error() {
        // Tag 1: a u64 group count, then per group a u64 id and a
        // length-prefixed list of u64 candidate ids.
        let mut w = payload_up_to_checkpoint_tag(1);
        w.usize(1);
        w.usize(1);
        w.ids(&[0, 3]);
        w.u64(0);
        let err = decode_snapshot(&w.buf).unwrap_err();
        assert!(matches!(err, Error::UnsupportedCheckpoint(ref m) if m.contains("tag 1")), "{err}");
        // Tag 2: the same as varints.
        let mut w = payload_up_to_checkpoint_tag(2);
        w.buf.extend_from_slice(&[1, 1, 2, 0, 3]);
        w.u64(0);
        let err = decode_snapshot(&w.buf).unwrap_err();
        assert!(matches!(err, Error::UnsupportedCheckpoint(ref m) if m.contains("tag 2")), "{err}");
    }
}
