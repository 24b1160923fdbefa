//! Persisted performance profiles and profile diffing (DESIGN.md §16).
//!
//! A [`ProfileSnapshot`] is the durable form of one run's observability
//! state: every non-zero counter, histogram and quantile sketch from a
//! [`TraceSnapshot`], plus per-name span aggregates (invocation count and
//! total duration). It travels inside the same checksummed `AGSKCKP1`
//! frame container as checkpoints ([`super::frame`]), with its own inner
//! tag and version so a profile file can never be mistaken for a
//! checkpoint (or vice versa) even though both share the outer codec.
//!
//! [`render_profile_diff`] compares two snapshots and flags counters,
//! span costs and tail quantiles that grew past a caller-chosen relative
//! threshold — the engine behind `aggsky profile diff`.

use crate::error::{Error, Result};
use crate::persist::frame::{decode_frame, encode_frame};
use aggsky_obs::{Counter, Hist, TraceSnapshot};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// Inner payload tag: "AGSK" + "PROF". Distinguishes profile payloads from
/// checkpoint snapshots inside the shared frame container.
pub const PROFILE_TAG: [u8; 8] = *b"AGSKPROF";
/// Profile payload version; readers refuse newer versions.
pub const PROFILE_VERSION: u32 = 1;

/// Aggregate of all spans sharing one name: how often the span ran and the
/// summed duration of its completed instances (in the span's own clock
/// domain — ticks for counting-path spans, microseconds for persist I/O).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SpanStat {
    /// Span name.
    pub name: String,
    /// Number of spans recorded under this name.
    pub count: u64,
    /// Total `end - start` across completed instances.
    pub total: u64,
}

/// Persisted view of one histogram: enough to diff totals without
/// shipping the full bucket array.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HistStat {
    /// Metric name.
    pub name: String,
    /// Number of observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
}

/// Persisted view of one quantile sketch: the tail summary the sketch
/// exists to answer, frozen at snapshot time.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SketchStat {
    /// Metric name.
    pub name: String,
    /// Number of observations.
    pub count: u64,
    /// Median estimate.
    pub p50: u64,
    /// 95th percentile estimate.
    pub p95: u64,
    /// 99th percentile estimate.
    pub p99: u64,
    /// Exact maximum observed.
    pub max: u64,
}

/// One run's observability state in persistable form. Entries are sorted
/// by name so equal recordings encode to equal bytes.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ProfileSnapshot {
    /// Non-zero counters, name-sorted.
    pub counters: Vec<(String, u64)>,
    /// Observed histograms, name-sorted.
    pub hists: Vec<HistStat>,
    /// Non-empty sketches, name-sorted.
    pub sketches: Vec<SketchStat>,
    /// Per-name span aggregates, name-sorted.
    pub spans: Vec<SpanStat>,
}

impl ProfileSnapshot {
    /// Builds a profile from a live trace snapshot. Zero counters, empty
    /// histograms/sketches and unfinished spans contribute nothing, so a
    /// quiet run produces a small file.
    pub fn from_trace(snap: &TraceSnapshot) -> ProfileSnapshot {
        let counters = Counter::ALL
            .into_iter()
            .filter(|c| snap.metrics.counter(*c) > 0)
            .map(|c| (c.name().to_owned(), snap.metrics.counter(c)))
            .collect();
        let hists = Hist::ALL
            .into_iter()
            .map(|h| (h, snap.metrics.sketch(h)))
            .filter(|(_, sk)| sk.count > 0)
            .map(|(h, sk)| HistStat { name: h.name().to_owned(), count: sk.count, sum: sk.sum })
            .collect();
        let sketches = Hist::ALL
            .into_iter()
            .filter_map(|h| Some((h.summary_name()?, snap.metrics.sketch(h))))
            .filter(|(_, sk)| sk.count > 0)
            .map(|(name, sk)| SketchStat {
                name: name.to_owned(),
                count: sk.count,
                p50: sk.quantile(500).unwrap_or(0),
                p95: sk.quantile(950).unwrap_or(0),
                p99: sk.quantile(990).unwrap_or(0),
                max: sk.max,
            })
            .collect();
        let mut by_name: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for s in &snap.spans {
            let entry = by_name.entry(s.name).or_insert((0, 0));
            entry.0 += 1;
            if let Some(end) = s.end {
                entry.1 = entry.1.saturating_add(end.value.saturating_sub(s.start.value));
            }
        }
        let spans = by_name
            .into_iter()
            .map(|(name, (count, total))| SpanStat { name: name.to_owned(), count, total })
            .collect();
        ProfileSnapshot { counters, hists, sketches, spans }
    }

    /// Encodes the profile into a framed byte stream ready to write to
    /// disk: inner tag + version + sections inside the outer `AGSKCKP1`
    /// checksummed frame.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ProfWriter::new();
        w.bytes_raw(&PROFILE_TAG);
        w.buf.extend_from_slice(&PROFILE_VERSION.to_le_bytes());
        w.u64(u64_len(self.counters.len()));
        for (name, v) in &self.counters {
            w.str(name);
            w.u64(*v);
        }
        w.u64(u64_len(self.hists.len()));
        for h in &self.hists {
            w.str(&h.name);
            w.u64(h.count);
            w.u64(h.sum);
        }
        w.u64(u64_len(self.sketches.len()));
        for s in &self.sketches {
            w.str(&s.name);
            for v in [s.count, s.p50, s.p95, s.p99, s.max] {
                w.u64(v);
            }
        }
        w.u64(u64_len(self.spans.len()));
        for s in &self.spans {
            w.str(&s.name);
            w.u64(s.count);
            w.u64(s.total);
        }
        encode_frame(&w.buf)
    }

    /// Decodes a framed profile produced by [`ProfileSnapshot::encode`].
    /// Wrong tag, future version, truncation and trailing garbage are all
    /// typed [`Error::CorruptCheckpoint`] failures — never panics.
    pub fn decode(bytes: &[u8]) -> Result<ProfileSnapshot> {
        let payload = decode_frame(bytes)?;
        let mut r = ProfReader::new(payload);
        let tag = r.take(PROFILE_TAG.len(), "profile tag")?;
        if tag != PROFILE_TAG {
            return Err(Error::CorruptCheckpoint(
                "payload is not a profile snapshot (bad inner tag)".into(),
            ));
        }
        let vbytes = r.take(4, "profile version")?;
        let varr: [u8; 4] =
            vbytes.try_into().map_err(|_| ProfReader::corrupt("profile version"))?;
        let version = u32::from_le_bytes(varr);
        if version != PROFILE_VERSION {
            return Err(Error::CorruptCheckpoint(format!(
                "profile version {version} not supported (reader speaks {PROFILE_VERSION})"
            )));
        }
        let n = r.len(9, "counter count")?;
        let mut counters = Vec::with_capacity(n);
        for _ in 0..n {
            let name = r.str("counter name")?;
            let v = r.u64("counter value")?;
            counters.push((name, v));
        }
        let n = r.len(17, "histogram count")?;
        let mut hists = Vec::with_capacity(n);
        for _ in 0..n {
            hists.push(HistStat {
                name: r.str("histogram name")?,
                count: r.u64("histogram count field")?,
                sum: r.u64("histogram sum")?,
            });
        }
        let n = r.len(41, "sketch count")?;
        let mut sketches = Vec::with_capacity(n);
        for _ in 0..n {
            sketches.push(SketchStat {
                name: r.str("sketch name")?,
                count: r.u64("sketch count field")?,
                p50: r.u64("sketch p50")?,
                p95: r.u64("sketch p95")?,
                p99: r.u64("sketch p99")?,
                max: r.u64("sketch max")?,
            });
        }
        let n = r.len(17, "span count")?;
        let mut spans = Vec::with_capacity(n);
        for _ in 0..n {
            spans.push(SpanStat {
                name: r.str("span name")?,
                count: r.u64("span count field")?,
                total: r.u64("span total")?,
            });
        }
        r.done()?;
        Ok(ProfileSnapshot { counters, hists, sketches, spans })
    }

    /// Writes the encoded profile to `path`.
    pub fn save(&self, path: &Path) -> Result<()> {
        std::fs::write(path, self.encode())
            .map_err(|e| Error::Io(format!("writing profile {}: {e}", path.display())))
    }

    /// Reads and decodes a profile from `path`.
    pub fn load(path: &Path) -> Result<ProfileSnapshot> {
        let bytes = std::fs::read(path)
            .map_err(|e| Error::Io(format!("reading profile {}: {e}", path.display())))?;
        ProfileSnapshot::decode(&bytes)
    }
}

fn u64_len(n: usize) -> u64 {
    crate::num::wide(n)
}

// Local byte helpers: `frame::ByteWriter`/`ByteReader` are private to the
// snapshot codec, and the profile payload additionally needs strings.

struct ProfWriter {
    buf: Vec<u8>,
}

impl ProfWriter {
    fn new() -> ProfWriter {
        ProfWriter { buf: Vec::new() }
    }

    fn bytes_raw(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }

    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn str(&mut self, s: &str) {
        self.u64(crate::num::wide(s.len()));
        self.buf.extend_from_slice(s.as_bytes());
    }
}

struct ProfReader<'a> {
    rest: &'a [u8],
}

impl<'a> ProfReader<'a> {
    fn new(bytes: &'a [u8]) -> ProfReader<'a> {
        ProfReader { rest: bytes }
    }

    fn corrupt(what: &str) -> Error {
        Error::CorruptCheckpoint(format!("profile payload truncated reading {what}"))
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8]> {
        let (head, tail) = self.rest.split_at_checked(n).ok_or_else(|| Self::corrupt(what))?;
        self.rest = tail;
        Ok(head)
    }

    fn u64(&mut self, what: &str) -> Result<u64> {
        let b = self.take(8, what)?;
        let arr: [u8; 8] = b.try_into().map_err(|_| Self::corrupt(what))?;
        Ok(u64::from_le_bytes(arr))
    }

    /// A length prefix bounded by the remaining bytes (each element at
    /// least `elem_bytes` wide), so a corrupted count cannot drive an
    /// over-allocation.
    fn len(&mut self, elem_bytes: usize, what: &str) -> Result<usize> {
        let v = self.u64(what)?;
        let n = crate::num::narrow(v)
            .ok_or_else(|| Error::CorruptCheckpoint(format!("{what} {v} exceeds usize")))?;
        if n.checked_mul(elem_bytes).is_none_or(|total| total > self.rest.len()) {
            return Err(Error::CorruptCheckpoint(format!(
                "{what} {n} larger than the remaining {} payload bytes allow",
                self.rest.len()
            )));
        }
        Ok(n)
    }

    fn str(&mut self, what: &str) -> Result<String> {
        let n = self.len(1, what)?;
        let b = self.take(n, what)?;
        String::from_utf8(b.to_vec())
            .map_err(|_| Error::CorruptCheckpoint(format!("{what} is not valid UTF-8")))
    }

    fn done(&self) -> Result<()> {
        if self.rest.is_empty() {
            Ok(())
        } else {
            Err(Error::CorruptCheckpoint(format!(
                "{} trailing bytes after the profile encoding",
                self.rest.len()
            )))
        }
    }
}

// ---------------------------------------------------------------------------
// Diffing
// ---------------------------------------------------------------------------

/// `true` when `new` grew past `old` by more than `threshold_pct` percent.
/// Integer-exact: `new * 100 > old * (100 + threshold_pct)`, computed in
/// u128 so no realistic counter can overflow. A value that appears from
/// zero is always flagged (any growth from nothing exceeds any relative
/// threshold).
pub fn is_regression(old: u64, new: u64, threshold_pct: u64) -> bool {
    if new <= old {
        return false;
    }
    if old == 0 {
        return true;
    }
    u128::from(new) * 100 > u128::from(old) * (100 + u128::from(threshold_pct))
}

fn fmt_delta(old: u64, new: u64) -> String {
    if new >= old {
        format!("+{}", new - old)
    } else {
        format!("-{}", old - new)
    }
}

fn diff_line(out: &mut String, name: &str, old: u64, new: u64, threshold_pct: u64) {
    let flag = if is_regression(old, new, threshold_pct) { " REGRESSION" } else { "" };
    let _ = writeln!(out, "  {name}: {old} -> {new} ({}){flag}", fmt_delta(old, new));
}

/// Merges two name-keyed value lists into one sorted sequence of
/// `(name, old, new)`, treating a missing side as zero.
fn merge<'a, I, J>(old: I, new: J) -> Vec<(String, u64, u64)>
where
    I: IntoIterator<Item = (&'a str, u64)>,
    J: IntoIterator<Item = (&'a str, u64)>,
{
    let mut m: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
    for (name, v) in old {
        m.entry(name).or_insert((0, 0)).0 = v;
    }
    for (name, v) in new {
        m.entry(name).or_insert((0, 0)).1 = v;
    }
    m.into_iter().map(|(name, (o, n))| (name.to_owned(), o, n)).collect()
}

/// Renders a human-readable diff of two profiles: counters, span costs,
/// histogram sums and sketch tail quantiles, each line flagged
/// `REGRESSION` when the new value grew more than `threshold_pct` percent
/// over the old. Output is deterministic (name-sorted) and returns the
/// number of regressions alongside the text.
pub fn render_profile_diff(
    old: &ProfileSnapshot,
    new: &ProfileSnapshot,
    threshold_pct: u64,
) -> (String, u64) {
    let mut out = String::new();
    let _ = writeln!(out, "profile diff (regression threshold {threshold_pct}%)");
    let mut regressions = 0u64;
    let mut section = |out: &mut String, title: &str, rows: Vec<(String, u64, u64)>| {
        if rows.is_empty() {
            return;
        }
        let _ = writeln!(out, "{title}:");
        for (name, o, n) in rows {
            if is_regression(o, n, threshold_pct) {
                regressions += 1;
            }
            diff_line(out, &name, o, n, threshold_pct);
        }
    };
    section(
        &mut out,
        "counters",
        merge(
            old.counters.iter().map(|(n, v)| (n.as_str(), *v)),
            new.counters.iter().map(|(n, v)| (n.as_str(), *v)),
        ),
    );
    section(
        &mut out,
        "span totals",
        merge(
            old.spans.iter().map(|s| (s.name.as_str(), s.total)),
            new.spans.iter().map(|s| (s.name.as_str(), s.total)),
        ),
    );
    section(
        &mut out,
        "histogram sums",
        merge(
            old.hists.iter().map(|h| (h.name.as_str(), h.sum)),
            new.hists.iter().map(|h| (h.name.as_str(), h.sum)),
        ),
    );
    section(
        &mut out,
        "sketch p99",
        merge(
            old.sketches.iter().map(|s| (s.name.as_str(), s.p99)),
            new.sketches.iter().map(|s| (s.name.as_str(), s.p99)),
        ),
    );
    let _ = writeln!(out, "regressions: {regressions}");
    (out, regressions)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aggsky_obs::{Recorder, Stamp, TraceRecorder};

    fn sample_profile() -> ProfileSnapshot {
        let rec = TraceRecorder::new();
        let root = rec.span_start("select", 0, Stamp::tick(0));
        let scan = rec.span_start("scan", 0, Stamp::tick(0));
        rec.span_end(scan, Stamp::tick(40), &[]);
        rec.span_end(root, Stamp::tick(100), &[]);
        rec.add(aggsky_obs::Counter::RecordPairs, 100);
        rec.add(aggsky_obs::Counter::CacheHits, 7);
        rec.observe(aggsky_obs::Hist::BatchBlockPairs, 12);
        rec.observe(aggsky_obs::Hist::BatchBlockPairs, 48);
        ProfileSnapshot::from_trace(&rec.snapshot())
    }

    #[test]
    fn from_trace_aggregates_spans_and_filters_zeroes() {
        let p = sample_profile();
        assert!(p.counters.iter().any(|(n, v)| n == "aggsky_record_pairs_total" && *v == 100));
        assert!(!p.counters.iter().any(|(n, _)| n == "aggsky_checkpoint_saves_total"));
        let scan = p.spans.iter().find(|s| s.name == "scan").expect("scan span aggregated");
        assert_eq!((scan.count, scan.total), (1, 40));
        // BatchBlockPairs names a summary, so the profile carries its tail
        // quantiles too.
        let sk = p.sketches.iter().find(|s| s.name.contains("batch_block_pairs"));
        assert_eq!(sk.map(|s| s.count), Some(2));
    }

    #[test]
    fn encode_decode_round_trip_is_identity() {
        let p = sample_profile();
        let bytes = p.encode();
        assert_eq!(ProfileSnapshot::decode(&bytes).expect("fresh profile must decode"), p);
    }

    #[test]
    fn empty_profile_round_trips() {
        let p = ProfileSnapshot::default();
        assert_eq!(ProfileSnapshot::decode(&p.encode()).unwrap(), p);
    }

    #[test]
    fn checkpoint_payloads_are_refused_by_tag() {
        // A checkpoint frame decodes at the outer layer but must be
        // rejected as a profile by the inner tag.
        let frame = encode_frame(b"not a profile payload");
        let err = ProfileSnapshot::decode(&frame).unwrap_err();
        assert!(matches!(err, Error::CorruptCheckpoint(ref m) if m.contains("tag")), "{err}");
    }

    #[test]
    fn every_truncation_is_detected() {
        let bytes = sample_profile().encode();
        for keep in 0..bytes.len() {
            let cut = bytes.get(..keep).unwrap_or_default();
            assert!(
                ProfileSnapshot::decode(cut).is_err(),
                "truncation to {keep} bytes slipped through"
            );
        }
    }

    #[test]
    fn regression_threshold_is_relative_and_exact() {
        assert!(!is_regression(100, 100, 10));
        assert!(!is_regression(100, 110, 10)); // exactly at threshold: not flagged
        assert!(is_regression(100, 111, 10));
        assert!(!is_regression(100, 50, 10)); // improvements never flag
        assert!(is_regression(0, 1, 1000)); // growth from zero always flags
        assert!(is_regression(u64::MAX - 1, u64::MAX, 0)); // no overflow
    }

    #[test]
    fn diff_flags_synthetic_regression_and_counts_it() {
        let old = sample_profile();
        let mut new = sample_profile();
        for (name, v) in &mut new.counters {
            if name == "aggsky_record_pairs_total" {
                *v = 250;
            }
        }
        let (text, regressions) = render_profile_diff(&old, &new, 10);
        assert_eq!(regressions, 1);
        assert!(text.contains("aggsky_record_pairs_total: 100 -> 250 (+150) REGRESSION"), "{text}");
        assert!(text.contains("regressions: 1"), "{text}");
        let (same_text, same) = render_profile_diff(&old, &old, 10);
        assert_eq!(same, 0);
        assert!(same_text.contains("aggsky_record_pairs_total: 100 -> 100 (+0)\n"), "{same_text}");
    }

    #[test]
    fn diff_treats_missing_entries_as_zero() {
        let old = ProfileSnapshot::default();
        let new = sample_profile();
        let (text, regressions) = render_profile_diff(&old, &new, 50);
        assert!(regressions > 0, "appearing counters must flag: {text}");
        assert!(text.contains("aggsky_cache_hits_total: 0 -> 7 (+7) REGRESSION"), "{text}");
    }
}
