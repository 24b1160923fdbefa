//! Human-readable per-phase summary: the span tree with inline arguments,
//! aggregated instant events, and non-zero metric totals.
//!
//! This is the renderer behind SQL `EXPLAIN ANALYZE` and the bench
//! harness's span summaries. Output is plain ASCII-plus-box-drawing text,
//! deterministic for deterministic recordings.

use crate::clock::ClockDomain;
use crate::metrics::{Counter, Hist, HistSnapshot};
use crate::recorder::{SpanRec, TraceSnapshot};
use crate::sketch::SketchSnapshot;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Renders the snapshot as a span tree followed by event and metric
/// sections. Sections with nothing to show are omitted.
pub fn render_summary(snap: &TraceSnapshot) -> String {
    let mut out = String::new();
    if !snap.spans.is_empty() {
        let mut children: BTreeMap<u64, Vec<&SpanRec>> = BTreeMap::new();
        let mut roots: Vec<&SpanRec> = Vec::new();
        for s in &snap.spans {
            if s.parent == 0 {
                roots.push(s);
            } else {
                children.entry(s.parent).or_default().push(s);
            }
        }
        for (i, root) in roots.iter().enumerate() {
            render_span(&mut out, root, &children, "", i + 1 == roots.len(), true);
        }
    }
    let mut event_counts: BTreeMap<&'static str, u64> = BTreeMap::new();
    for e in &snap.events {
        *event_counts.entry(e.name).or_insert(0) += 1;
    }
    if !event_counts.is_empty() {
        out.push_str("events:");
        for (name, n) in &event_counts {
            let _ = write!(out, " {name}\u{00d7}{n}");
        }
        out.push('\n');
    }
    let nonzero: Vec<Counter> =
        Counter::ALL.into_iter().filter(|c| snap.metrics.counter(*c) > 0).collect();
    if !nonzero.is_empty() {
        out.push_str("counters:\n");
        for c in nonzero {
            let _ = writeln!(out, "  {} = {}", c.name(), snap.metrics.counter(c));
        }
    }
    let observed: Vec<(Hist, HistSnapshot)> = Hist::ALL
        .into_iter()
        .map(|h| (h, snap.metrics.hist(h)))
        .filter(|(_, snap_h)| snap_h.count > 0)
        .collect();
    if !observed.is_empty() {
        out.push_str("histograms:\n");
        for (h, snap_h) in observed {
            let p50 = snap_h.quantile_le(500).unwrap_or(0);
            let p99 = snap_h.quantile_le(990).unwrap_or(0);
            let _ = writeln!(
                out,
                "  {} count={} sum={} p50\u{2264}{p50} p99\u{2264}{p99}",
                h.name(),
                snap_h.count,
                snap_h.sum
            );
        }
    }
    let sketched: Vec<(&str, &SketchSnapshot)> = Hist::ALL
        .into_iter()
        .filter_map(|h| Some((h.summary_name()?, snap.metrics.sketch(h))))
        .filter(|(_, sk)| sk.count > 0)
        .collect();
    if !sketched.is_empty() {
        out.push_str("sketches:\n");
        for (name, sk) in sketched {
            let p50 = sk.quantile(500).unwrap_or(0);
            let p95 = sk.quantile(950).unwrap_or(0);
            let p99 = sk.quantile(990).unwrap_or(0);
            let _ = writeln!(
                out,
                "  {name} count={} p50={p50} p95={p95} p99={p99} max={}",
                sk.count, sk.max
            );
        }
    }
    out
}

fn render_span(
    out: &mut String,
    span: &SpanRec,
    children: &BTreeMap<u64, Vec<&SpanRec>>,
    prefix: &str,
    last: bool,
    root: bool,
) {
    let (branch, child_pad) = if root {
        ("", "")
    } else if last {
        ("\u{2514}\u{2500} ", "   ")
    } else {
        ("\u{251c}\u{2500} ", "\u{2502}  ")
    };
    let _ = write!(out, "{prefix}{branch}{}", span.name);
    let unit = match span.start.domain {
        ClockDomain::Tick => "ticks",
        ClockDomain::Wall => "\u{00b5}s",
    };
    match span.end {
        Some(end) => {
            let _ = write!(out, " [{}..{} {unit}]", span.start.value, end.value);
        }
        None => {
            let _ = write!(out, " [{}.. {unit}, unfinished]", span.start.value);
        }
    }
    if span.track > 0 {
        let _ = write!(out, " (worker {})", span.track - 1);
    }
    for (k, v) in &span.args {
        let _ = write!(out, " {k}={v}");
    }
    out.push('\n');
    let kids: &[&SpanRec] = match children.get(&span.id) {
        Some(v) => v.as_slice(),
        None => &[],
    };
    let child_prefix = format!("{prefix}{child_pad}");
    for (i, kid) in kids.iter().enumerate() {
        render_span(out, kid, children, &child_prefix, i + 1 == kids.len(), false);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::Stamp;
    use crate::metrics::{Counter, Hist};
    use crate::recorder::{Recorder, TraceRecorder};

    #[test]
    fn renders_tree_events_and_metrics() {
        let rec = TraceRecorder::new();
        let sel = rec.span_start("select", 0, Stamp::tick(0));
        let scan = rec.span_start("scan", 0, Stamp::tick(0));
        rec.span_end(scan, Stamp::tick(0), &[("rows", 500)]);
        let sky = rec.span_start("IN", 0, Stamp::tick(0));
        rec.event("checkpoint", 0, Stamp::tick(64), &[]);
        rec.event("checkpoint", 0, Stamp::tick(128), &[]);
        rec.span_end(sky, Stamp::tick(200), &[("group_pairs", 40)]);
        rec.span_end(sel, Stamp::tick(200), &[]);
        rec.add(Counter::RecordPairs, 200);
        rec.observe(Hist::RecordPairsPerGroupPair, 5);
        let text = render_summary(&rec.snapshot());
        assert!(text.contains("select [0..200 ticks]"));
        assert!(text.contains("├─ scan [0..0 ticks] rows=500"));
        assert!(text.contains("└─ IN [0..200 ticks] group_pairs=40"));
        assert!(text.contains("events: checkpoint×2"));
        assert!(text.contains("aggsky_record_pairs_total = 200"));
        assert!(text.contains("aggsky_record_pairs_per_group_pair count=1 sum=5"));
    }

    #[test]
    fn empty_snapshot_renders_empty() {
        assert_eq!(render_summary(&TraceSnapshot::empty()), "");
    }

    #[test]
    fn renders_checkpoint_counters_and_sketches() {
        let rec = TraceRecorder::new();
        rec.add(Counter::CheckpointSaves, 3);
        rec.add(Counter::CheckpointLoads, 1);
        rec.add(Counter::CheckpointFramesSkipped, 2);
        rec.observe(Hist::CheckpointFrameBytes, 4096);
        for v in 1..=50u64 {
            rec.observe(Hist::BatchBlockPairs, v);
        }
        let text = render_summary(&rec.snapshot());
        assert!(text.contains("aggsky_checkpoint_saves_total = 3"));
        assert!(text.contains("aggsky_checkpoint_loads_total = 1"));
        assert!(text.contains("aggsky_checkpoint_frames_skipped_total = 2"));
        assert!(text.contains("aggsky_checkpoint_frame_bytes count=1 sum=4096"));
        assert!(text.contains("sketches:"));
        assert!(text.contains("aggsky_batch_block_pairs_quantiles count=50"));
        assert!(text.contains("max=50"));
    }

    #[test]
    fn deterministic_rendering() {
        let make = || {
            let rec = TraceRecorder::new();
            let a = rec.span_start("a", 0, Stamp::tick(0));
            rec.span_end(a, Stamp::tick(1), &[]);
            render_summary(&rec.snapshot())
        };
        assert_eq!(make(), make());
    }
}
