//! Benchmark-side tracing: wall-clock spans around calls into the program's
//! public functions, recorded through the `aggsky_obs` recorder API. Nothing
//! here reaches inside the program; a span covers exactly one public call
//! (or a group of them, when it is a parent span).

use aggsky::core::obs::{export_chrome, Recorder, TraceRecorder, TraceSnapshot, WallClock};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

pub struct Tracer {
    rec: TraceRecorder,
    clock: WallClock,
    /// Each span's duration again, at `Instant` precision: the recorder's
    /// wall stamps are whole microseconds, too coarse for µs-scale calls.
    durations: RefCell<BTreeMap<&'static str, Vec<f64>>>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            rec: TraceRecorder::new(),
            clock: WallClock::start(),
            durations: RefCell::default(),
        }
    }

    /// Runs `f` inside a span named `name`; spans opened inside `f` become
    /// its children.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.rec.span_start(name, 0, self.clock.stamp());
        let start = Instant::now();
        let out = f();
        let elapsed = crate::util::ms(start.elapsed());
        self.rec.span_end(id, self.clock.stamp(), &[]);
        self.durations.borrow_mut().entry(name).or_default().push(elapsed);
        out
    }

    /// Every duration recorded for `name`, in ms.
    pub fn samples(&self, name: &str) -> Vec<f64> {
        self.durations.borrow().get(name).cloned().unwrap_or_default()
    }

    /// Median duration of `name` in ms (0 when never recorded).
    pub fn median_ms(&self, name: &str) -> f64 {
        crate::util::median(&self.samples(name))
    }

    /// Writes the Chrome trace and the per-layer self-time table.
    pub fn write(&self, dir: &Path, seed: u64) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        let snap = self.rec.snapshot();
        std::fs::write(dir.join(format!("trace-seed{seed}.json")), export_chrome(&snap))?;
        std::fs::write(dir.join(format!("layers-seed{seed}.txt")), self_time_table(&snap))
    }
}

/// Per span name: count, total and self time (total minus the time its
/// direct children cover), and the share of all self time.
fn self_time_table(snap: &TraceSnapshot) -> String {
    let dur = |i: usize| {
        let s = &snap.spans[i];
        s.end.map_or(0, |e| e.value.saturating_sub(s.start.value))
    };
    let mut child_cover: BTreeMap<u64, u64> = BTreeMap::new();
    for (i, s) in snap.spans.iter().enumerate() {
        if s.parent != 0 {
            *child_cover.entry(s.parent).or_default() += dur(i);
        }
    }
    let mut rows: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new();
    for (i, s) in snap.spans.iter().enumerate() {
        let total = dur(i);
        let own = total.saturating_sub(child_cover.get(&s.id).copied().unwrap_or(0));
        let row = rows.entry(s.name).or_default();
        row.0 += 1;
        row.1 += total;
        row.2 += own;
    }
    let all_self: u64 = rows.values().map(|r| r.2).sum::<u64>().max(1);
    let mut out = format!(
        "{:<22} {:>8} {:>12} {:>12} {:>7}\n",
        "span", "count", "total_ms", "self_ms", "self_%"
    );
    let mut sorted: Vec<_> = rows.into_iter().collect();
    sorted.sort_by_key(|(_, (_, _, own))| std::cmp::Reverse(*own));
    for (name, (count, total, own)) in sorted {
        let _ = writeln!(
            out,
            "{name:<22} {count:>8} {:>12.3} {:>12.3} {:>7.2}",
            total as f64 / 1e3,
            own as f64 / 1e3,
            100.0 * own as f64 / all_self as f64
        );
    }
    out
}
