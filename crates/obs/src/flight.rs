//! The always-on flight recorder: a bounded, deterministic ring buffer of
//! recent spans and events that turns every failure into a black box.
//!
//! Unlike [`crate::TraceRecorder`], which buffers a whole run for offline
//! export, the flight recorder keeps only the last `capacity` entries in a
//! preallocated ring: pushing copies one fixed-size [`FlightEntry`]
//! (static name, track, stamp, up to [`MAX_INLINE_ARGS`] inline args) and
//! never allocates on the hot path. Entries are stamped by the caller in
//! the virtual tick domain, so same-seed runs fill the ring identically.
//!
//! On a failure edge — budget exhaustion, cancellation, worker
//! panic/quarantine, chaos fault, checkpoint recovery — core code calls
//! [`Recorder::dump`] with a static reason. The first dump per distinct
//! reason renders the ring to a Chrome-trace JSON snapshot (loadable in
//! Perfetto like the full export) and retains it in memory; when a dump
//! directory is configured the snapshot is also written to
//! `flight-<seq>-<reason>.json`. Deduping per reason keeps the dump list —
//! and therefore the bytes — deterministic even when a failure edge is
//! polled repeatedly.

use crate::chrome::escape;
use crate::clock::Stamp;
use crate::metrics::{Counter, Hist, HistBatch, MetricsRegistry};
use crate::recorder::{Recorder, SpanId};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::Mutex;

/// Ring capacity used by [`FlightRecorder::new`].
pub const DEFAULT_FLIGHT_CAPACITY: usize = 256;

/// How many leading span/event args are kept inline per entry; the rest
/// are dropped rather than allocated for.
pub const MAX_INLINE_ARGS: usize = 2;

/// Open spans tracked for end-entry naming; beyond this depth span ends
/// render as `"span"`.
const OPEN_CAP: usize = 64;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EntryKind {
    SpanStart,
    SpanEnd,
    Event,
}

/// One fixed-size ring entry.
#[derive(Debug, Clone, Copy)]
struct FlightEntry {
    kind: EntryKind,
    name: &'static str,
    track: u32,
    at: Stamp,
    span_id: SpanId,
    args: [(&'static str, u64); MAX_INLINE_ARGS],
    n_args: usize,
}

/// One retained black-box snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightDump {
    /// 0-based dump sequence number (also part of the on-disk file name).
    pub seq: u64,
    /// The failure edge that triggered the dump.
    pub reason: &'static str,
    /// Chrome-trace JSON of the ring at dump time.
    pub json: String,
}

#[derive(Debug)]
struct FlightState {
    ring: Vec<FlightEntry>,
    /// Next write position; the ring holds `len` valid entries ending here.
    head: usize,
    len: usize,
    next_span: SpanId,
    open: Vec<(SpanId, &'static str, u32)>,
    dumped_reasons: Vec<&'static str>,
    dumps: Vec<FlightDump>,
}

/// The always-on bounded recorder. See the module docs.
#[derive(Debug)]
pub struct FlightRecorder {
    state: Mutex<FlightState>,
    metrics: MetricsRegistry,
    capacity: usize,
    dump_dir: Option<PathBuf>,
}

impl FlightRecorder {
    /// A recorder with the default ring capacity and no dump directory.
    pub fn new() -> FlightRecorder {
        FlightRecorder::with_capacity(DEFAULT_FLIGHT_CAPACITY)
    }

    /// A recorder whose ring holds the last `capacity` entries
    /// (`capacity` is clamped to at least 1).
    pub fn with_capacity(capacity: usize) -> FlightRecorder {
        let capacity = capacity.max(1);
        FlightRecorder {
            state: Mutex::new(FlightState {
                ring: Vec::with_capacity(capacity),
                head: 0,
                len: 0,
                next_span: 0,
                open: Vec::with_capacity(OPEN_CAP),
                dumped_reasons: Vec::new(),
                dumps: Vec::new(),
            }),
            metrics: MetricsRegistry::new(),
            capacity,
            dump_dir: None,
        }
    }

    /// Also writes each dump to `dir/flight-<seq>-<reason>.json`
    /// (best-effort: dump retention in memory never fails).
    pub fn with_dump_dir(mut self, dir: impl Into<PathBuf>) -> FlightRecorder {
        self.dump_dir = Some(dir.into());
        self
    }

    /// The metric registry shared with [`Recorder::add`] /
    /// [`Recorder::observe`].
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Number of entries currently held (≤ capacity).
    pub fn ring_len(&self) -> usize {
        self.state.lock().map_or(0, |st| st.len)
    }

    /// All dumps taken so far, in trigger order.
    pub fn dumps(&self) -> Vec<FlightDump> {
        self.state.lock().map_or_else(|_| Vec::new(), |st| st.dumps.clone())
    }

    /// Renders the current ring as Chrome-trace JSON without recording a
    /// dump (used by tests and ad-hoc inspection).
    pub fn render(&self) -> String {
        self.state.lock().map_or_else(|_| String::from("[\n\n]\n"), |st| render_ring(&st))
    }

    fn push(&self, entry: FlightEntry) {
        let Ok(mut st) = self.state.lock() else { return };
        let head = st.head;
        if st.ring.len() < self.capacity {
            st.ring.push(entry);
        } else if let Some(slot) = st.ring.get_mut(head) {
            *slot = entry;
        }
        st.head = (head + 1) % self.capacity;
        st.len = (st.len + 1).min(self.capacity);
    }
}

impl Default for FlightRecorder {
    fn default() -> FlightRecorder {
        FlightRecorder::new()
    }
}

fn inline_args(args: &[(&'static str, u64)]) -> ([(&'static str, u64); MAX_INLINE_ARGS], usize) {
    let mut out = [("", 0u64); MAX_INLINE_ARGS];
    let n = args.len().min(MAX_INLINE_ARGS);
    for (slot, arg) in out.iter_mut().zip(args.iter().take(n)) {
        *slot = *arg;
    }
    (out, n)
}

impl Recorder for FlightRecorder {
    fn is_enabled(&self) -> bool {
        true
    }

    fn span_start(&self, name: &'static str, track: u32, at: Stamp) -> SpanId {
        let id = {
            let Ok(mut st) = self.state.lock() else { return 0 };
            st.next_span = st.next_span.saturating_add(1);
            let id = st.next_span;
            if st.open.len() < OPEN_CAP {
                st.open.push((id, name, track));
            }
            id
        };
        self.push(FlightEntry {
            kind: EntryKind::SpanStart,
            name,
            track,
            at,
            span_id: id,
            args: [("", 0); MAX_INLINE_ARGS],
            n_args: 0,
        });
        id
    }

    fn span_end(&self, id: SpanId, at: Stamp, args: &[(&'static str, u64)]) {
        if id == 0 {
            return;
        }
        let (name, track) = {
            let Ok(mut st) = self.state.lock() else { return };
            match st.open.iter().rposition(|(open_id, _, _)| *open_id == id) {
                Some(i) => {
                    let (_, name, track) = st.open.remove(i);
                    (name, track)
                }
                None => ("span", 0),
            }
        };
        let (inline, n) = inline_args(args);
        self.push(FlightEntry {
            kind: EntryKind::SpanEnd,
            name,
            track,
            at,
            span_id: id,
            args: inline,
            n_args: n,
        });
    }

    fn event(&self, name: &'static str, track: u32, at: Stamp, args: &[(&'static str, u64)]) {
        let (inline, n) = inline_args(args);
        self.push(FlightEntry {
            kind: EntryKind::Event,
            name,
            track,
            at,
            span_id: 0,
            args: inline,
            n_args: n,
        });
    }

    fn add(&self, counter: Counter, delta: u64) {
        self.metrics.add(counter, delta);
    }

    fn observe(&self, hist: Hist, value: u64) {
        self.metrics.observe(hist, value);
    }

    fn observe_batch(&self, batch: &HistBatch) {
        self.metrics.merge(batch);
    }

    fn dump(&self, reason: &'static str) {
        let Ok(mut st) = self.state.lock() else { return };
        if st.dumped_reasons.contains(&reason) {
            return;
        }
        st.dumped_reasons.push(reason);
        let seq = u64::try_from(st.dumps.len()).unwrap_or(u64::MAX);
        let json = render_ring(&st);
        if let Some(dir) = &self.dump_dir {
            let path = dir.join(format!("flight-{seq:03}-{reason}.json"));
            // Best-effort black box: a failed write must not mask the
            // original failure, and the dump stays retrievable in memory.
            let _ = std::fs::create_dir_all(dir);
            let _ = std::fs::write(path, &json);
        }
        st.dumps.push(FlightDump { seq, reason, json });
    }
}

/// Renders the ring, oldest entry first, as a Chrome trace-event JSON
/// array: span starts become `"B"` events, span ends `"E"`, instants
/// `"i"`, preceded by one `thread_name` metadata record per track.
fn render_ring(st: &FlightState) -> String {
    let mut out = String::from("[\n");
    let mut first = true;
    // The ring holds `len == ring.len()` entries; when it has not wrapped,
    // `head % len == 0`, so the oldest entry is always `head % len`.
    let n = st.ring.len();
    let in_order = |i: usize| {
        if n == 0 {
            return None;
        }
        st.ring.get((st.head % n + i) % n)
    };
    let mut tracks: Vec<u32> = Vec::new();
    for i in 0..st.len {
        if let Some(e) = in_order(i) {
            if !tracks.contains(&e.track) {
                tracks.push(e.track);
            }
        }
    }
    tracks.sort_unstable();
    for t in &tracks {
        let name = if *t == 0 { "main".to_string() } else { format!("worker-{}", t - 1) };
        sep(&mut out, &mut first);
        let _ = write!(
            out,
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{t},\
             \"args\":{{\"name\":\"{}\"}}}}",
            escape(&name)
        );
    }
    for i in 0..st.len {
        let Some(e) = in_order(i) else { continue };
        let ph = match e.kind {
            EntryKind::SpanStart => "B",
            EntryKind::SpanEnd => "E",
            EntryKind::Event => "i",
        };
        sep(&mut out, &mut first);
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"{ph}\",\"ts\":{},\"pid\":0,\"tid\":{}",
            escape(e.name),
            e.at.domain.label(),
            e.at.value,
            e.track
        );
        if e.kind == EntryKind::Event {
            out.push_str(",\"s\":\"t\"");
        }
        out.push_str(",\"args\":{");
        let mut afirst = true;
        if e.span_id != 0 {
            let _ = write!(out, "\"span_id\":{}", e.span_id);
            afirst = false;
        }
        for (k, v) in e.args.iter().take(e.n_args) {
            if !afirst {
                out.push(',');
            }
            afirst = false;
            let _ = write!(out, "\"{}\":{v}", escape(k));
        }
        out.push_str("}}");
    }
    out.push_str("\n]\n");
    out
}

fn sep(out: &mut String, first: &mut bool) {
    if !*first {
        out.push_str(",\n");
    }
    *first = false;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fill(rec: &FlightRecorder, n: u64) {
        for i in 0..n {
            let s = rec.span_start("step", 0, Stamp::tick(i));
            rec.event("probe", 1, Stamp::tick(i), &[("i", i), ("sq", i * i), ("dropped", 1)]);
            rec.span_end(s, Stamp::tick(i + 1), &[("n", i)]);
        }
    }

    #[test]
    fn ring_is_bounded_and_keeps_newest() {
        let rec = FlightRecorder::with_capacity(8);
        fill(&rec, 100);
        assert_eq!(rec.ring_len(), 8);
        let json = rec.render();
        // Only recent ticks survive; tick 0 was overwritten long ago.
        assert!(json.contains("\"ts\":99"), "newest entry retained:\n{json}");
        assert!(!json.contains("\"ts\":0,"), "oldest entries evicted:\n{json}");
    }

    #[test]
    fn args_beyond_inline_capacity_are_dropped_not_allocated() {
        let rec = FlightRecorder::with_capacity(4);
        rec.event("e", 0, Stamp::tick(1), &[("a", 1), ("b", 2), ("c", 3)]);
        let json = rec.render();
        assert!(json.contains("\"a\":1"));
        assert!(json.contains("\"b\":2"));
        assert!(!json.contains("\"c\":3"), "third arg dropped: {json}");
    }

    #[test]
    fn dump_dedupes_per_reason() {
        let rec = FlightRecorder::new();
        fill(&rec, 3);
        rec.dump("budget_exhausted");
        rec.dump("budget_exhausted");
        rec.dump("chaos_panic");
        let dumps = rec.dumps();
        assert_eq!(dumps.len(), 2);
        assert_eq!(dumps[0].reason, "budget_exhausted");
        assert_eq!(dumps[0].seq, 0);
        assert_eq!(dumps[1].reason, "chaos_panic");
        assert_eq!(dumps[1].seq, 1);
        assert!(dumps[0].json.starts_with("[\n"));
        assert!(dumps[0].json.ends_with("\n]\n"));
    }

    #[test]
    fn identical_recordings_dump_identical_bytes() {
        let make = || {
            let rec = FlightRecorder::with_capacity(16);
            fill(&rec, 40);
            rec.dump("interrupt");
            rec.dumps().remove(0).json
        };
        assert_eq!(make(), make());
    }

    #[test]
    fn span_ends_recover_their_names() {
        let rec = FlightRecorder::with_capacity(8);
        let a = rec.span_start("outer", 0, Stamp::tick(0));
        let b = rec.span_start("inner", 0, Stamp::tick(1));
        rec.span_end(b, Stamp::tick(2), &[]);
        rec.span_end(a, Stamp::tick(3), &[]);
        let json = rec.render();
        assert_eq!(json.matches("\"name\":\"inner\"").count(), 2, "start + end: {json}");
        assert_eq!(json.matches("\"name\":\"outer\"").count(), 2);
    }

    #[test]
    fn dump_writes_file_when_dir_configured() {
        let dir = std::env::temp_dir().join(format!("aggsky-flight-{}", std::process::id()));
        let rec = FlightRecorder::new().with_dump_dir(&dir);
        fill(&rec, 2);
        rec.dump("test_reason");
        let path = dir.join("flight-000-test_reason.json");
        let on_disk = std::fs::read_to_string(&path).expect("dump file written");
        assert_eq!(on_disk, rec.dumps()[0].json);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn metrics_flow_through() {
        let rec = FlightRecorder::new();
        rec.add(Counter::RecordPairs, 7);
        rec.observe(Hist::BatchBlockPairs, 5);
        let snap = rec.metrics().snapshot();
        assert_eq!(snap.counter(Counter::RecordPairs), 7);
        assert_eq!(snap.hist(Hist::BatchBlockPairs).count, 1);
    }
}
