//! # aggsky-obs
//!
//! Deterministic, dependency-free observability for the aggsky workspace:
//! a span/event [`Recorder`] with two clock domains, a static metric
//! registry (counters + distributions stored as quantile sketches and
//! exported as log2-bucketed histograms), and three exporters —
//! Chrome trace-event JSON ([`export_chrome`], loadable in Perfetto),
//! Prometheus text exposition ([`export_prometheus`]), and a human-readable
//! per-phase summary tree ([`render_summary`], the renderer behind SQL
//! `EXPLAIN ANALYZE`).
//!
//! ## Design rules (DESIGN.md §11)
//!
//! * **Two clock domains.** Counting-path instrumentation stamps events in
//!   virtual **ticks** (record pairs spent), never wall time; the same run
//!   therefore records the same trace, byte for byte. Wall-clock stamps
//!   exist only for bench-side use via [`WallClock`] — lint rule L6 forbids
//!   `Instant`/`SystemTime` everywhere else.
//! * **Overhead contract.** Disabled instrumentation is a [`NoopRecorder`]
//!   behind the same trait: no allocation, no locking, no branching beyond
//!   the one load that fetches the recorder reference.
//! * **Layering.** This crate sits at the bottom of the workspace DAG
//!   (`obs → ∅`); `core` and `sql` may depend on it, never the reverse.
//!
//! ```
//! use aggsky_obs::{export_chrome, Recorder, Stamp, TraceRecorder};
//!
//! let rec = TraceRecorder::new();
//! let span = rec.span_start("prepare", 0, Stamp::tick(0));
//! rec.span_end(span, Stamp::tick(128), &[("blocks", 16)]);
//! let json = export_chrome(&rec.snapshot());
//! assert!(json.contains("\"name\":\"prepare\""));
//! ```

#![warn(missing_docs)]

pub mod chrome;
pub mod clock;
pub mod flight;
pub mod metrics;
pub mod prom;
pub mod querylog;
pub mod recorder;
pub mod sketch;
pub mod summary;

pub use chrome::export_chrome;
pub use clock::{ClockDomain, Stamp, WallClock};
pub use flight::{FlightDump, FlightRecorder, DEFAULT_FLIGHT_CAPACITY};
pub use metrics::{
    bucket_le, bucket_of, Counter, Hist, HistBatch, HistSnapshot, MetricsRegistry, MetricsSnapshot,
    HIST_BUCKETS,
};
pub use prom::{export_prometheus, validate_prometheus};
pub use querylog::{query_id, QueryJournal, QueryRecord};
pub use recorder::{
    Args, CounterSink, EventRec, NoopRecorder, Recorder, SpanId, SpanRec, TraceRecorder,
    TraceSnapshot, NOOP,
};
pub use sketch::{
    sketch_bucket_of, sketch_value_of, SketchSnapshot, SKETCH_BUCKETS, SKETCH_LINEAR_BITS,
};
pub use summary::render_summary;
