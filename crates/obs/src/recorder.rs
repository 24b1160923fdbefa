//! The [`Recorder`] trait and its three implementations.
//!
//! [`NoopRecorder`] is a zero-sized unit type; every method is an empty
//! body, so a call through `&NOOP` compiles to (at most) one virtual
//! dispatch that the optimizer folds away when the receiver type is known.
//! Instrumented code holds a `&dyn Recorder` obtained from its
//! `RunContext`; the disabled path therefore costs one discriminant load
//! and no allocation — the overhead contract of DESIGN.md §11.
//!
//! [`TraceRecorder`] records spans and instant events into mutex-protected
//! buffers and metrics into the [`MetricsRegistry`]. Span and
//! event identities are assigned in arrival order; combined with tick-domain
//! stamps, a sequential run produces a byte-identical export every time.
//!
//! [`CounterSink`] keeps counters and notes whether one named span opened,
//! and drops everything else: what a statement log needs, without a trace.

use crate::clock::Stamp;
use crate::metrics::{Counter, CounterSet, Hist, HistBatch, MetricsRegistry, MetricsSnapshot};
use std::collections::BTreeMap;
use std::sync::{Mutex, OnceLock};

/// Identifier of an open or finished span. `0` means "no span" (the noop
/// recorder returns it, and it is the parent id of root spans).
pub type SpanId = u64;

/// Span/event arguments: small static-keyed integer payloads.
pub type Args = Vec<(&'static str, u64)>;

/// The instrumentation sink. All methods take `&self`; implementations are
/// `Send + Sync` so one recorder can be shared across scheduler workers.
pub trait Recorder: Send + Sync {
    /// `false` for the noop recorder; lets callers skip computing
    /// observation values that would be thrown away.
    fn is_enabled(&self) -> bool;

    /// Opens a span named `name` on `track` (0 = main, `w + 1` = worker
    /// `w`). Returns an id to pass to [`Recorder::span_end`]. The span's
    /// parent is the innermost span still open on the same track.
    fn span_start(&self, name: &'static str, track: u32, at: Stamp) -> SpanId;

    /// Closes span `id`, attaching final arguments (counter values, sizes).
    fn span_end(&self, id: SpanId, at: Stamp, args: &[(&'static str, u64)]);

    /// Records an instant event (checkpoint, retry, quarantine, …).
    fn event(&self, name: &'static str, track: u32, at: Stamp, args: &[(&'static str, u64)]);

    /// Adds `delta` to a counter.
    fn add(&self, counter: Counter, delta: u64);

    /// Records one histogram observation.
    fn observe(&self, hist: Hist, value: u64);

    /// Records every observation a run accumulated in `batch`, once (the
    /// per-pair hot loops observe locally and merge here, beside the run's
    /// counter dump).
    fn observe_batch(&self, batch: &HistBatch);

    /// `false` when the recorder drops every distribution observation, so
    /// hot loops need not accumulate a [`HistBatch`] for it. Defaults to
    /// [`Recorder::is_enabled`].
    fn keeps_distributions(&self) -> bool {
        self.is_enabled()
    }

    /// Asks the recorder to persist a black-box snapshot of recent
    /// activity, tagged with the failure `reason` (`"budget_exhausted"`,
    /// `"chaos_panic"`, `"worker_retry"`, …). The default is a no-op; the
    /// flight recorder renders its ring and dedupes per reason, so hot
    /// paths may call this unconditionally on every failure edge.
    fn dump(&self, _reason: &'static str) {}
}

/// The disabled recorder: every method is a no-op. Use the shared
/// [`NOOP`] static rather than constructing one.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopRecorder;

/// The canonical `&'static` disabled recorder.
pub static NOOP: NoopRecorder = NoopRecorder;

impl Recorder for NoopRecorder {
    fn is_enabled(&self) -> bool {
        false
    }
    fn span_start(&self, _name: &'static str, _track: u32, _at: Stamp) -> SpanId {
        0
    }
    fn span_end(&self, _id: SpanId, _at: Stamp, _args: &[(&'static str, u64)]) {}
    fn event(&self, _name: &'static str, _track: u32, _at: Stamp, _args: &[(&'static str, u64)]) {}
    fn add(&self, _counter: Counter, _delta: u64) {}
    fn observe(&self, _hist: Hist, _value: u64) {}
    fn observe_batch(&self, _batch: &HistBatch) {}
}

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRec {
    /// This span's id (1-based arrival order).
    pub id: SpanId,
    /// Parent span id, `0` for roots.
    pub parent: SpanId,
    /// Static span name (`"prepare"`, `"worker"`, …).
    pub name: &'static str,
    /// Track the span runs on (0 = main, `w + 1` = worker `w`).
    pub track: u32,
    /// Opening stamp.
    pub start: Stamp,
    /// Closing stamp; `None` if the span was never closed.
    pub end: Option<Stamp>,
    /// Arguments attached at close.
    pub args: Args,
}

/// One recorded instant event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventRec {
    /// Arrival sequence number (0-based).
    pub seq: u64,
    /// Static event name (`"checkpoint"`, `"retry"`, …).
    pub name: &'static str,
    /// Track the event belongs to.
    pub track: u32,
    /// When it happened.
    pub at: Stamp,
    /// Event arguments.
    pub args: Args,
}

#[derive(Debug, Default)]
struct TraceState {
    spans: Vec<SpanRec>,
    events: Vec<EventRec>,
    /// Per-track stack of open span ids, for parent attribution.
    open: BTreeMap<u32, Vec<SpanId>>,
}

/// The enabled recorder: buffers spans/events, counts metrics.
#[derive(Debug, Default)]
pub struct TraceRecorder {
    state: Mutex<TraceState>,
    metrics: MetricsRegistry,
}

impl TraceRecorder {
    /// An empty recorder.
    pub fn new() -> TraceRecorder {
        TraceRecorder::default()
    }

    /// Copies everything recorded so far into an immutable snapshot.
    /// Returns an empty snapshot if the state mutex was poisoned by a
    /// panicking instrumented thread.
    pub fn snapshot(&self) -> TraceSnapshot {
        let (spans, events) = match self.state.lock() {
            Ok(st) => (st.spans.clone(), st.events.clone()),
            Err(_) => (Vec::new(), Vec::new()),
        };
        TraceSnapshot { spans, events, metrics: self.metrics.snapshot() }
    }

    /// Direct access to the metric registry (shared with the trait's
    /// [`Recorder::add`] / [`Recorder::observe`]).
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }
}

impl Recorder for TraceRecorder {
    fn is_enabled(&self) -> bool {
        true
    }

    fn span_start(&self, name: &'static str, track: u32, at: Stamp) -> SpanId {
        let Ok(mut st) = self.state.lock() else { return 0 };
        let id = u64::try_from(st.spans.len()).unwrap_or(u64::MAX).saturating_add(1);
        let parent = st.open.get(&track).and_then(|stack| stack.last().copied()).unwrap_or(0);
        st.spans.push(SpanRec { id, parent, name, track, start: at, end: None, args: Vec::new() });
        st.open.entry(track).or_default().push(id);
        id
    }

    fn span_end(&self, id: SpanId, at: Stamp, args: &[(&'static str, u64)]) {
        if id == 0 {
            return;
        }
        let Ok(mut st) = self.state.lock() else { return };
        let Some(idx) = id.checked_sub(1).and_then(|i| usize::try_from(i).ok()) else { return };
        let Some(track) = st.spans.get(idx).map(|s| s.track) else { return };
        if let Some(span) = st.spans.get_mut(idx) {
            span.end = Some(at);
            span.args.extend_from_slice(args);
        }
        if let Some(stack) = st.open.get_mut(&track) {
            stack.retain(|open_id| *open_id != id);
        }
    }

    fn event(&self, name: &'static str, track: u32, at: Stamp, args: &[(&'static str, u64)]) {
        let Ok(mut st) = self.state.lock() else { return };
        let seq = u64::try_from(st.events.len()).unwrap_or(u64::MAX);
        st.events.push(EventRec { seq, name, track, at, args: args.to_vec() });
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
}

/// A recorder that keeps only counters, and whether a span of one name
/// opened. Spans, events and distributions are dropped on arrival, so a
/// run under it pays for neither a trace nor per-pair distributions.
#[derive(Debug)]
pub struct CounterSink {
    counters: CounterSet,
    watched: &'static str,
    opened: OnceLock<()>,
}

impl CounterSink {
    /// A sink with every counter at zero that notes spans named `span`.
    pub fn watching(span: &'static str) -> CounterSink {
        CounterSink { counters: CounterSet::new(), watched: span, opened: OnceLock::new() }
    }

    /// A counter's current value.
    pub fn counter(&self, counter: Counter) -> u64 {
        self.counters.get(counter)
    }

    /// Whether a span of the watched name opened.
    pub fn opened(&self) -> bool {
        self.opened.get().is_some()
    }
}

impl Recorder for CounterSink {
    fn is_enabled(&self) -> bool {
        true
    }

    fn span_start(&self, name: &'static str, _track: u32, _at: Stamp) -> SpanId {
        if name == self.watched {
            self.opened.get_or_init(|| ());
        }
        0
    }

    fn span_end(&self, _id: SpanId, _at: Stamp, _args: &[(&'static str, u64)]) {}

    fn event(&self, _name: &'static str, _track: u32, _at: Stamp, _args: &[(&'static str, u64)]) {}

    fn add(&self, counter: Counter, delta: u64) {
        self.counters.add(counter, delta);
    }

    fn observe(&self, _hist: Hist, _value: u64) {}

    fn observe_batch(&self, _batch: &HistBatch) {}

    fn keeps_distributions(&self) -> bool {
        false
    }
}

/// Everything a [`TraceRecorder`] captured, frozen for export.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceSnapshot {
    /// All spans in arrival (id) order.
    pub spans: Vec<SpanRec>,
    /// All instant events in arrival (seq) order.
    pub events: Vec<EventRec>,
    /// Final metric values.
    pub metrics: MetricsSnapshot,
}

impl TraceSnapshot {
    /// An empty snapshot.
    pub fn empty() -> TraceSnapshot {
        TraceSnapshot { spans: Vec::new(), events: Vec::new(), metrics: MetricsSnapshot::empty() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_returns_zero_and_records_nothing() {
        let r: &dyn Recorder = &NOOP;
        assert!(!r.is_enabled());
        let id = r.span_start("x", 0, Stamp::ZERO);
        assert_eq!(id, 0);
        r.span_end(id, Stamp::tick(5), &[("k", 1)]);
        r.event("e", 0, Stamp::ZERO, &[]);
        r.add(Counter::RecordPairs, 3);
        r.observe(Hist::BatchBlockPairs, 3);
    }

    #[test]
    fn spans_nest_per_track() {
        let rec = TraceRecorder::new();
        let a = rec.span_start("outer", 0, Stamp::tick(0));
        let b = rec.span_start("inner", 0, Stamp::tick(1));
        let c = rec.span_start("other_track", 1, Stamp::tick(1));
        rec.span_end(b, Stamp::tick(2), &[("pairs", 4)]);
        let d = rec.span_start("sibling", 0, Stamp::tick(3));
        rec.span_end(d, Stamp::tick(4), &[]);
        rec.span_end(a, Stamp::tick(5), &[]);
        rec.span_end(c, Stamp::tick(5), &[]);
        let snap = rec.snapshot();
        assert_eq!(snap.spans.len(), 4);
        let by_name = |n: &str| snap.spans.iter().find(|s| s.name == n).unwrap();
        assert_eq!(by_name("outer").parent, 0);
        assert_eq!(by_name("inner").parent, a);
        assert_eq!(by_name("sibling").parent, a);
        assert_eq!(by_name("other_track").parent, 0, "tracks have independent stacks");
        assert_eq!(by_name("inner").args, vec![("pairs", 4)]);
        assert_eq!(by_name("inner").end, Some(Stamp::tick(2)));
    }

    #[test]
    fn events_get_sequence_numbers() {
        let rec = TraceRecorder::new();
        rec.event("a", 0, Stamp::tick(1), &[]);
        rec.event("b", 2, Stamp::tick(1), &[("n", 9)]);
        let snap = rec.snapshot();
        assert_eq!(snap.events.iter().map(|e| e.seq).collect::<Vec<_>>(), vec![0, 1]);
        assert_eq!(snap.events[1].args, vec![("n", 9)]);
    }

    #[test]
    fn counter_sink_keeps_the_counters_a_trace_would() {
        let sink = CounterSink::watching("skyline");
        let rec = TraceRecorder::new();
        for r in [&sink as &dyn Recorder, &rec] {
            let outer = r.span_start("select", 0, Stamp::ZERO);
            r.add(Counter::SqlRowsScanned, 40);
            let inner = r.span_start("skyline", 0, Stamp::ZERO);
            r.add(Counter::RecordPairs, 7);
            r.add(Counter::RecordPairs, 5);
            r.observe(Hist::BatchBlockPairs, 3);
            r.span_end(inner, Stamp::tick(12), &[]);
            r.span_end(outer, Stamp::tick(12), &[]);
        }
        let snap = rec.snapshot();
        for c in Counter::ALL {
            assert_eq!(sink.counter(c), snap.metrics.counter(c), "{c:?}");
        }
        assert!(sink.opened());
        assert!(!CounterSink::watching("anytime").opened());
        assert!(!sink.keeps_distributions() && rec.keeps_distributions());
        assert!(!NOOP.keeps_distributions());
    }

    #[test]
    fn unclosed_span_survives_snapshot() {
        let rec = TraceRecorder::new();
        rec.span_start("open", 0, Stamp::tick(0));
        let snap = rec.snapshot();
        assert_eq!(snap.spans[0].end, None);
    }
}
