//! The structured query log: one self-describing record per executed SQL
//! statement, buffered in an in-memory journal with a JSONL exporter.
//!
//! ## Query ids
//!
//! A query id must be deterministic (same script → same ids, byte for
//! byte) yet distinguish re-executions of the same text. The scheme hashes
//! the statement text with FNV-1a 64, rotates it so text and sequence bits
//! interleave, and folds in the statement's 0-based session sequence
//! number scaled by the 64-bit golden-ratio constant:
//!
//! ```text
//! id = rotl(fnv1a64(sql), 17) ^ (seq · 0x9E3779B97F4A7C15)
//! ```
//!
//! ## Determinism
//!
//! Every field is derived from the virtual tick domain or the statement
//! itself; wall-clock durations are recorded only when the journal's
//! wall-time switch is explicitly enabled, so the default JSONL export is
//! byte-identical across same-seed runs. Per-query tick costs also feed a
//! [`SketchSnapshot`] so p50/p95/p99 of query cost are available without
//! retaining unbounded history.

use crate::chrome::escape;
use crate::sketch::SketchSnapshot;
use std::fmt::Write as _;
use std::sync::Mutex;

/// FNV-1a 64-bit hash of `text`.
pub fn fnv1a64(text: &str) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in text.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// The deterministic query id for the `seq`-th statement of a session (see
/// the module docs for the scheme).
pub fn query_id(seq: u64, sql: &str) -> u64 {
    fnv1a64(sql).rotate_left(17) ^ seq.wrapping_mul(0x9E3779B97F4A7C15)
}

/// One executed statement, self-described.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct QueryRecord {
    /// Deterministic id (see [`query_id`]).
    pub query_id: u64,
    /// 0-based statement sequence number within the session.
    pub seq: u64,
    /// The statement text as executed (whitespace-trimmed).
    pub sql: String,
    /// Statement class: `"select"`, `"explain"`, `"explain_analyze"`,
    /// `"ddl"`, `"dml"`, `"set"`.
    pub kind: &'static str,
    /// Compact plan shape, e.g. `"scan(movie)+group+skyline(d=2)"`.
    pub plan: String,
    /// Skyline γ threshold in per-mille (`1000` = classic skyline); `None`
    /// for statements without a skyline clause.
    pub gamma_permille: Option<u64>,
    /// The record loop the aggregate skyline counted with (e.g.
    /// `columnar-avx2`); `default` for statements whose skyline did not run.
    pub kernel: String,
    /// Record-pair ticks charged (the pair budget actually spent).
    pub ticks: u64,
    /// The budget in force (`0` = unlimited).
    pub budget: u64,
    /// Pair-cache hits serving group comparisons.
    pub cache_hits: u64,
    /// Pair-cache misses.
    pub cache_misses: u64,
    /// Block pairs classified all-dominating by corner tests.
    pub blocks_full: u64,
    /// Block pairs classified none-dominating by corner tests.
    pub blocks_skipped: u64,
    /// Table rows scanned.
    pub rows_scanned: u64,
    /// Groups materialized by the aggregation pipeline.
    pub groups_built: u64,
    /// True when an aggregate skyline reused the input its database kept
    /// from an earlier statement; `rows_scanned` and `groups_built` are
    /// then 0.
    pub input_reused: bool,
    /// Checkpoint frames a durable statement (`SET CHECKPOINT`) passed over
    /// while recovering: torn, corrupt, or in a layout no longer read.
    /// Exported only when nonzero.
    pub frames_skipped: u64,
    /// Rows returned to the client.
    pub rows_out: u64,
    /// True when the statement hit its budget/cancellation edge.
    pub interrupted: bool,
    /// True when `ticks` met the journal's `SET SLOW_QUERY` threshold.
    pub slow: bool,
    /// Epoch id published by a write batch routed through a live skyline
    /// service binding; `None` for unrouted statements (the serving fields
    /// below are then omitted from the JSON export entirely).
    pub epoch: Option<u64>,
    /// Write operations absorbed by the routed batch.
    pub batch_rows: u64,
    /// Pairs the routed batch served from the Property-2 drift interval
    /// without recounting.
    pub deferred_pairs: u64,
    /// Pair tallies the routed batch recomputed through the kernel.
    pub flushed_pairs: u64,
    /// Wall-clock duration; `None` unless wall timing was explicitly
    /// enabled (keeps the default export deterministic).
    pub wall_micros: Option<u64>,
}

impl QueryRecord {
    /// Renders the record as one JSON object (no trailing newline). Key
    /// order is fixed; `frames_skipped` is omitted when zero and
    /// `wall_micros` when absent.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256);
        let _ = write!(
            out,
            "{{\"query_id\":\"{:016x}\",\"seq\":{},\"kind\":\"{}\",\"sql\":\"{}\"",
            self.query_id,
            self.seq,
            escape(self.kind),
            escape(&self.sql)
        );
        let _ = write!(out, ",\"plan\":\"{}\"", escape(&self.plan));
        match self.gamma_permille {
            Some(g) => {
                let _ = write!(out, ",\"gamma_permille\":{g}");
            }
            None => out.push_str(",\"gamma_permille\":null"),
        }
        let _ = write!(out, ",\"kernel\":\"{}\"", escape(&self.kernel));
        let _ = write!(
            out,
            ",\"ticks\":{},\"budget\":{},\"cache_hits\":{},\"cache_misses\":{}",
            self.ticks, self.budget, self.cache_hits, self.cache_misses
        );
        let _ = write!(
            out,
            ",\"blocks_full\":{},\"blocks_skipped\":{},\"rows_scanned\":{},\"groups_built\":{}",
            self.blocks_full, self.blocks_skipped, self.rows_scanned, self.groups_built
        );
        let _ = write!(
            out,
            ",\"input_reused\":{},\"rows_out\":{},\"interrupted\":{},\"slow\":{}",
            self.input_reused, self.rows_out, self.interrupted, self.slow
        );
        if self.frames_skipped > 0 {
            out.push_str(&format!(",\"frames_skipped\":{}", self.frames_skipped));
        }
        if let Some(e) = self.epoch {
            let _ = write!(
                out,
                ",\"epoch\":{e},\"batch_rows\":{},\"deferred_pairs\":{},\"flushed_pairs\":{}",
                self.batch_rows, self.deferred_pairs, self.flushed_pairs
            );
        }
        if let Some(w) = self.wall_micros {
            let _ = write!(out, ",\"wall_micros\":{w}");
        }
        out.push('}');
        out
    }
}

#[derive(Debug, Default)]
struct JournalState {
    records: Vec<QueryRecord>,
    ticks_sketch: SketchSnapshot,
    slow_threshold_ticks: u64,
}

/// The in-memory journal: appended to by the SQL engine, read by
/// exporters, tests, and the CLI.
#[derive(Debug, Default)]
pub struct QueryJournal {
    state: Mutex<JournalState>,
}

impl QueryJournal {
    /// An empty journal with no slow-query threshold.
    pub fn new() -> QueryJournal {
        QueryJournal::default()
    }

    /// Sets the `SET SLOW_QUERY` threshold in ticks (`0` disables flagging).
    pub fn set_slow_threshold_ticks(&self, ticks: u64) {
        if let Ok(mut st) = self.state.lock() {
            st.slow_threshold_ticks = ticks;
        }
    }

    /// The active slow-query threshold in ticks (`0` = disabled).
    pub fn slow_threshold_ticks(&self) -> u64 {
        self.state.lock().map_or(0, |st| st.slow_threshold_ticks)
    }

    /// Appends one record, flagging it slow when the threshold is set and
    /// met, and feeding the per-query tick sketch.
    pub fn push(&self, mut record: QueryRecord) {
        if let Ok(mut st) = self.state.lock() {
            record.slow = st.slow_threshold_ticks > 0 && record.ticks >= st.slow_threshold_ticks;
            st.ticks_sketch.observe(record.ticks);
            st.records.push(record);
        }
    }

    /// Number of journaled statements.
    pub fn len(&self) -> usize {
        self.state.lock().map_or(0, |st| st.records.len())
    }

    /// True when nothing has been journaled.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A copy of every record, in execution order.
    pub fn records(&self) -> Vec<QueryRecord> {
        self.state.lock().map_or_else(|_| Vec::new(), |st| st.records.clone())
    }

    /// Records currently flagged slow.
    pub fn slow_records(&self) -> Vec<QueryRecord> {
        self.records().into_iter().filter(|r| r.slow).collect()
    }

    /// The mergeable sketch of per-query tick costs.
    pub fn ticks_sketch(&self) -> SketchSnapshot {
        self.state.lock().map_or_else(|_| SketchSnapshot::default(), |st| st.ticks_sketch.clone())
    }

    /// Exports the journal as JSON Lines (one record per line, fixed key
    /// order, trailing newline when non-empty). Byte-identical across
    /// same-seed runs unless wall timing was enabled.
    pub fn export_jsonl(&self) -> String {
        let mut out = String::new();
        for r in self.records() {
            out.push_str(&r.to_json());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(seq: u64, sql: &str, ticks: u64) -> QueryRecord {
        QueryRecord {
            query_id: query_id(seq, sql),
            seq,
            sql: sql.to_string(),
            kind: "select",
            plan: "scan(t)+skyline(d=2)".to_string(),
            gamma_permille: Some(750),
            kernel: "blocked(8)".to_string(),
            ticks,
            ..QueryRecord::default()
        }
    }

    #[test]
    fn query_ids_are_deterministic_and_distinguish_reexecution() {
        let a = query_id(0, "SELECT 1");
        assert_eq!(a, query_id(0, "SELECT 1"), "same seq + text → same id");
        assert_ne!(a, query_id(1, "SELECT 1"), "re-execution gets a new id");
        assert_ne!(a, query_id(0, "SELECT 2"), "different text → different id");
    }

    #[test]
    fn journal_flags_slow_queries_against_threshold() {
        let j = QueryJournal::new();
        j.push(record(0, "SELECT a", 100));
        j.set_slow_threshold_ticks(500);
        j.push(record(1, "SELECT b", 499));
        j.push(record(2, "SELECT c", 500));
        let slow = j.slow_records();
        assert_eq!(slow.len(), 1);
        assert_eq!(slow[0].seq, 2);
        assert_eq!(j.len(), 3);
    }

    #[test]
    fn jsonl_is_deterministic_and_omits_wall_time_by_default() {
        let make = || {
            let j = QueryJournal::new();
            j.push(record(0, "SELECT 'quo\"ted'", 42));
            j.push(record(1, "SELECT b", 7));
            j.export_jsonl()
        };
        let text = make();
        assert_eq!(text, make());
        assert_eq!(text.lines().count(), 2);
        assert!(!text.contains("wall_micros"), "wall time off by default");
        assert!(text.contains("\"gamma_permille\":750"));
        assert!(text.contains("quo\\\"ted"), "sql text is JSON-escaped");
        let mut with_wall = record(2, "SELECT c", 9);
        with_wall.wall_micros = Some(123);
        assert!(with_wall.to_json().contains("\"wall_micros\":123"));
    }

    #[test]
    fn ticks_sketch_tracks_query_costs() {
        let j = QueryJournal::new();
        for t in [10u64, 20, 30, 1000] {
            j.push(record(t, "SELECT x", t));
        }
        let sk = j.ticks_sketch();
        assert_eq!(sk.count, 4);
        assert_eq!(sk.max, 1000);
        assert!(sk.quantile(500).unwrap() <= 30);
    }
}
