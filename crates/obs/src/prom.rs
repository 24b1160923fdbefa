//! Prometheus text exposition (version 0.0.4) export and a small in-tree
//! format checker used by tests and CI.
//!
//! Counters become `# TYPE name counter` + one sample. Histograms follow
//! the standard cumulative-bucket convention: `name_bucket{le="…"}` lines
//! in increasing `le` order ending with `le="+Inf"`, then `name_sum` and
//! `name_count`. Bucket boundaries are the log2 upper bounds of
//! [`crate::metrics::bucket_le`]; empty tail buckets are trimmed (the
//! `+Inf` bucket always remains), so output size tracks the data.
//! Distributions with a [`Hist::summary_name`] also export their sketch as
//! a `summary` family: `name{quantile="…"}` lines in increasing quantile
//! order (omitted when empty), then `name_sum` and `name_count`.

use crate::metrics::{bucket_le, Counter, Hist, MetricsSnapshot};
use std::fmt::Write as _;

/// The quantiles every sketch exports, as (label, per-mille) pairs.
const SUMMARY_QUANTILES: [(&str, u64); 3] = [("0.5", 500), ("0.95", 950), ("0.99", 990)];

/// Serializes every counter and distribution to Prometheus text format.
pub fn export_prometheus(snap: &MetricsSnapshot) -> String {
    let mut out = String::new();
    for c in Counter::ALL {
        let name = c.name();
        let _ = writeln!(out, "# TYPE {name} counter");
        let _ = writeln!(out, "{name} {}", snap.counter(c));
    }
    for h in Hist::ALL {
        let name = h.name();
        let hist = snap.hist(h);
        let _ = writeln!(out, "# TYPE {name} histogram");
        let last_nonzero = hist.buckets.iter().rposition(|b| *b > 0);
        let mut cum: u64 = 0;
        if let Some(last) = last_nonzero {
            for (i, b) in hist.buckets.iter().enumerate().take(last + 1) {
                cum = cum.saturating_add(*b);
                let _ = writeln!(out, "{name}_bucket{{le=\"{}\"}} {cum}", bucket_le(i));
            }
        }
        let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", hist.count);
        let _ = writeln!(out, "{name}_sum {}", hist.sum);
        let _ = writeln!(out, "{name}_count {}", hist.count);
    }
    for (name, sk) in
        Hist::ALL.into_iter().filter_map(|h| Some((h.summary_name()?, snap.sketch(h))))
    {
        let _ = writeln!(out, "# TYPE {name} summary");
        if sk.count > 0 {
            for (label, q) in SUMMARY_QUANTILES {
                if let Some(v) = sk.quantile(q) {
                    let _ = writeln!(out, "{name}{{quantile=\"{label}\"}} {v}");
                }
            }
            let _ = writeln!(out, "{name}{{quantile=\"1\"}} {}", sk.max);
        }
        let _ = writeln!(out, "{name}_sum {}", sk.sum);
        let _ = writeln!(out, "{name}_count {}", sk.count);
    }
    out
}

/// Checks `text` against the subset of the Prometheus exposition format
/// this crate emits: `# TYPE` declarations before their samples, legal
/// metric names, integer values, escape-aware label parsing, histograms
/// with monotone cumulative buckets terminated by `+Inf` and `_count`
/// equal to the `+Inf` bucket, and summaries with monotone quantile
/// samples plus `_sum`/`_count`. An empty exposition (or one whose
/// families all have zero observations) validates.
pub fn validate_prometheus(text: &str) -> Result<(), String> {
    let mut declared: Vec<(String, String)> = Vec::new();
    // In-flight compound-family check state (histogram or summary).
    let mut check: Option<Check> = None;
    for (lineno, line) in text.lines().enumerate() {
        let n = lineno + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            let (Some(name), Some(kind)) = (parts.next(), parts.next()) else {
                return Err(format!("line {n}: malformed TYPE line"));
            };
            if parts.next().is_some() {
                return Err(format!("line {n}: trailing tokens after TYPE"));
            }
            if !matches!(kind, "counter" | "gauge" | "histogram" | "summary") {
                return Err(format!("line {n}: unknown metric kind `{kind}`"));
            }
            if !valid_name(name) {
                return Err(format!("line {n}: invalid metric name `{name}`"));
            }
            if declared.iter().any(|(d, _)| d == name) {
                return Err(format!("line {n}: duplicate TYPE for `{name}`"));
            }
            finish_check(&check, n)?;
            check = match kind {
                "histogram" => Some(Check::Hist(HistCheck::new(name))),
                "summary" => Some(Check::Summary(SummaryCheck::new(name))),
                _ => None,
            };
            declared.push((name.to_string(), kind.to_string()));
            continue;
        }
        if line.starts_with('#') {
            continue; // HELP or comment
        }
        let (name_and_labels, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("line {n}: sample line without a value"))?;
        let value: u64 =
            value.parse().map_err(|_| format!("line {n}: non-integer value `{value}`"))?;
        let (name, labels) = match name_and_labels.split_once('{') {
            Some((name, rest)) => {
                let raw = rest
                    .strip_suffix('}')
                    .ok_or_else(|| format!("line {n}: unterminated label set"))?;
                (name, Some(parse_labels(raw, n)?))
            }
            None => (name_and_labels, None),
        };
        if !valid_name(name) {
            return Err(format!("line {n}: invalid metric name `{name}`"));
        }
        let family = family_of(name);
        if !declared.iter().any(|(d, _)| d == family || d == name) {
            return Err(format!("line {n}: sample `{name}` precedes its TYPE declaration"));
        }
        match check.as_mut() {
            Some(Check::Hist(chk)) if family == chk.family => {
                chk.sample(name, labels.as_deref(), value, n)?;
                continue;
            }
            Some(Check::Summary(chk)) if family == chk.family || name == chk.family => {
                chk.sample(name, labels.as_deref(), value, n)?;
                continue;
            }
            _ => {}
        }
        if labels.is_some_and(|l| !l.is_empty()) {
            return Err(format!("line {n}: unexpected labels on non-compound `{name}`"));
        }
    }
    finish_check(&check, text.lines().count())?;
    Ok(())
}

/// Parses a brace-stripped label set (`k="v",k2="v2"`), honoring the
/// exposition-format escapes `\\`, `\"`, and `\n` inside values.
fn parse_labels(raw: &str, n: usize) -> Result<Vec<(String, String)>, String> {
    let mut out = Vec::new();
    let mut chars = raw.chars().peekable();
    loop {
        while matches!(chars.peek(), Some(&',') | Some(&' ')) {
            chars.next();
        }
        if chars.peek().is_none() {
            return Ok(out);
        }
        let mut key = String::new();
        while let Some(c) = chars.peek().copied() {
            if c == '=' {
                break;
            }
            key.push(c);
            chars.next();
        }
        if !valid_name(&key) {
            return Err(format!("line {n}: invalid label name `{key}`"));
        }
        if chars.next() != Some('=') {
            return Err(format!("line {n}: label `{key}` without `=`"));
        }
        if chars.next() != Some('"') {
            return Err(format!("line {n}: unquoted value for label `{key}`"));
        }
        let mut val = String::new();
        loop {
            match chars.next() {
                Some('\\') => match chars.next() {
                    Some('"') => val.push('"'),
                    Some('\\') => val.push('\\'),
                    Some('n') => val.push('\n'),
                    other => {
                        return Err(format!("line {n}: bad escape {other:?} in label `{key}`"))
                    }
                },
                Some('"') => break,
                Some(c) => val.push(c),
                None => return Err(format!("line {n}: unterminated value for label `{key}`")),
            }
        }
        out.push((key, val));
    }
}

enum Check {
    Hist(HistCheck),
    Summary(SummaryCheck),
}

struct HistCheck {
    family: String,
    prev_cum: u64,
    inf: Option<u64>,
    count: Option<u64>,
    sum_seen: bool,
}

impl HistCheck {
    fn new(family: &str) -> HistCheck {
        HistCheck {
            family: family.to_string(),
            prev_cum: 0,
            inf: None,
            count: None,
            sum_seen: false,
        }
    }

    fn sample(
        &mut self,
        name: &str,
        labels: Option<&[(String, String)]>,
        value: u64,
        n: usize,
    ) -> Result<(), String> {
        if name == format!("{}_bucket", self.family) {
            let le = labels
                .and_then(|l| l.iter().find(|(k, _)| k == "le"))
                .map(|(_, v)| v.as_str())
                .ok_or_else(|| format!("line {n}: bucket sample without an le label"))?;
            if self.inf.is_some() {
                return Err(format!("line {n}: bucket after le=\"+Inf\""));
            }
            // Cumulative-bucket monotonicity: each bucket must hold at
            // least as many observations as every earlier one.
            if value < self.prev_cum {
                return Err(format!(
                    "line {n}: cumulative bucket decreased ({} → {value})",
                    self.prev_cum
                ));
            }
            self.prev_cum = value;
            if le == "+Inf" {
                self.inf = Some(value);
            } else if le.parse::<u128>().is_err() {
                return Err(format!("line {n}: non-numeric le `{le}`"));
            }
        } else if name == format!("{}_sum", self.family) {
            self.sum_seen = true;
        } else if name == format!("{}_count", self.family) {
            self.count = Some(value);
        } else {
            return Err(format!("line {n}: unexpected sample `{name}` inside histogram"));
        }
        Ok(())
    }
}

struct SummaryCheck {
    family: String,
    prev_quantile_value: u64,
    count: Option<u64>,
    sum_seen: bool,
}

impl SummaryCheck {
    fn new(family: &str) -> SummaryCheck {
        SummaryCheck {
            family: family.to_string(),
            prev_quantile_value: 0,
            count: None,
            sum_seen: false,
        }
    }

    fn sample(
        &mut self,
        name: &str,
        labels: Option<&[(String, String)]>,
        value: u64,
        n: usize,
    ) -> Result<(), String> {
        if name == self.family {
            let q = labels
                .and_then(|l| l.iter().find(|(k, _)| k == "quantile"))
                .map(|(_, v)| v.as_str())
                .ok_or_else(|| format!("line {n}: summary sample without a quantile label"))?;
            if !valid_quantile(q) {
                return Err(format!("line {n}: invalid quantile `{q}`"));
            }
            // This crate emits quantiles in increasing q, so the reported
            // values must be non-decreasing.
            if value < self.prev_quantile_value {
                return Err(format!(
                    "line {n}: quantile value decreased ({} → {value})",
                    self.prev_quantile_value
                ));
            }
            self.prev_quantile_value = value;
        } else if name == format!("{}_sum", self.family) {
            self.sum_seen = true;
        } else if name == format!("{}_count", self.family) {
            self.count = Some(value);
        } else {
            return Err(format!("line {n}: unexpected sample `{name}` inside summary"));
        }
        Ok(())
    }
}

/// A quantile label must be a decimal in `[0, 1]`: `0`, `1`, `0.…`, or
/// `1.0…0` (checked lexically — no float arithmetic).
fn valid_quantile(q: &str) -> bool {
    let (int, frac) = match q.split_once('.') {
        Some((i, f)) => (i, Some(f)),
        None => (q, None),
    };
    let frac_ok = frac.is_none_or(|f| !f.is_empty() && f.chars().all(|c| c.is_ascii_digit()));
    match int {
        "0" => frac_ok,
        "1" => frac_ok && frac.is_none_or(|f| f.chars().all(|c| c == '0')),
        _ => false,
    }
}

fn finish_check(check: &Option<Check>, n: usize) -> Result<(), String> {
    match check {
        None => Ok(()),
        Some(Check::Hist(chk)) => {
            let inf = chk.inf.ok_or_else(|| {
                format!("line {n}: histogram `{}` has no +Inf bucket", chk.family)
            })?;
            if !chk.sum_seen {
                return Err(format!("line {n}: histogram `{}` has no _sum", chk.family));
            }
            match chk.count {
                Some(c) if c == inf => Ok(()),
                Some(c) => {
                    Err(format!("line {n}: `{}` _count {c} != +Inf bucket {inf}", chk.family))
                }
                None => Err(format!("line {n}: histogram `{}` has no _count", chk.family)),
            }
        }
        Some(Check::Summary(chk)) => {
            if !chk.sum_seen {
                return Err(format!("line {n}: summary `{}` has no _sum", chk.family));
            }
            if chk.count.is_none() {
                return Err(format!("line {n}: summary `{}` has no _count", chk.family));
            }
            Ok(())
        }
    }
}

/// Strips the `_bucket`/`_sum`/`_count` histogram suffixes.
fn family_of(name: &str) -> &str {
    for suffix in ["_bucket", "_sum", "_count"] {
        if let Some(stem) = name.strip_suffix(suffix) {
            return stem;
        }
    }
    name
}

fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    let Some(first) = chars.next() else { return false };
    (first.is_ascii_alphabetic() || first == '_' || first == ':')
        && chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{Counter, Hist, MetricsRegistry};

    fn sample_snapshot() -> MetricsSnapshot {
        let reg = MetricsRegistry::new();
        reg.add(Counter::RecordPairs, 42);
        reg.add(Counter::GroupPairs, 6);
        for v in [0u64, 1, 2, 3, 9, 1000] {
            reg.observe(Hist::RecordPairsPerGroupPair, v);
        }
        reg.snapshot()
    }

    #[test]
    fn export_validates_and_contains_expected_lines() {
        let text = export_prometheus(&sample_snapshot());
        validate_prometheus(&text).unwrap();
        assert!(text.contains("# TYPE aggsky_record_pairs_total counter"));
        assert!(text.contains("aggsky_record_pairs_total 42"));
        assert!(text.contains("# TYPE aggsky_record_pairs_per_group_pair histogram"));
        assert!(text.contains("aggsky_record_pairs_per_group_pair_bucket{le=\"+Inf\"} 6"));
        assert!(text.contains("aggsky_record_pairs_per_group_pair_sum 1015"));
        assert!(text.contains("aggsky_record_pairs_per_group_pair_count 6"));
        // le="1023" is the bucket holding 1000 (2^10 − 1).
        assert!(text.contains("le=\"1023\""));
    }

    #[test]
    fn empty_registry_still_validates() {
        let text = export_prometheus(&MetricsRegistry::new().snapshot());
        validate_prometheus(&text).unwrap();
    }

    #[test]
    fn export_is_deterministic() {
        assert_eq!(export_prometheus(&sample_snapshot()), export_prometheus(&sample_snapshot()));
    }

    #[test]
    fn sketches_export_as_valid_summaries() {
        let reg = MetricsRegistry::new();
        for v in 1..=100u64 {
            reg.observe(Hist::BatchBlockPairs, v);
        }
        let text = export_prometheus(&reg.snapshot());
        validate_prometheus(&text).unwrap();
        assert!(text.contains("# TYPE aggsky_batch_block_pairs_quantiles summary"));
        assert!(text.contains("aggsky_batch_block_pairs_quantiles{quantile=\"0.5\"}"));
        assert!(text.contains("aggsky_batch_block_pairs_quantiles{quantile=\"0.99\"}"));
        assert!(text.contains("aggsky_batch_block_pairs_quantiles{quantile=\"1\"} 100"));
        assert!(text.contains("aggsky_batch_block_pairs_quantiles_count 100"));
        assert!(text.contains("aggsky_batch_block_pairs_quantiles_sum 5050"));
        // Empty sketches emit only the sum/count pair, which validates too.
        assert!(text.contains("# TYPE aggsky_straddle_fanout_quantiles summary"));
        assert!(text.contains("aggsky_straddle_fanout_quantiles_count 0"));
        assert!(!text.contains("aggsky_straddle_fanout_quantiles{"));
        // Only the distributions that name a summary export one.
        assert_eq!(text.matches(" summary\n").count(), 2);
    }

    #[test]
    fn validator_parses_escaped_label_values() {
        // An escaped quote and backslash inside a label value must not
        // confuse the label parser (the old strip_prefix parsing did).
        let ok = "# TYPE h histogram\nh_bucket{job=\"a\\\"b\\\\c\",le=\"3\"} 2\n\
                  h_bucket{le=\"+Inf\"} 2\nh_sum 4\nh_count 2\n";
        validate_prometheus(ok).unwrap();
        let labels = parse_labels("job=\"a\\\"b\\\\c\",le=\"3\"", 1).unwrap();
        assert_eq!(labels[0], ("job".to_string(), "a\"b\\c".to_string()));
        assert_eq!(labels[1], ("le".to_string(), "3".to_string()));
        assert!(parse_labels("le=\"unterminated", 1).is_err());
        assert!(parse_labels("le=unquoted", 1).is_err());
        assert!(parse_labels("le=\"bad\\x\"", 1).is_err());
        assert!(parse_labels("9bad=\"v\"", 1).is_err());
    }

    #[test]
    fn validator_rejects_malformed_summaries() {
        // Quantile values must be non-decreasing in emission order.
        let bad = "# TYPE s summary\ns{quantile=\"0.5\"} 9\ns{quantile=\"0.99\"} 3\n\
                   s_sum 12\ns_count 2\n";
        assert!(validate_prometheus(bad).is_err());
        // A quantile label outside [0, 1] is invalid.
        let bad2 = "# TYPE s summary\ns{quantile=\"1.5\"} 9\ns_sum 9\ns_count 1\n";
        assert!(validate_prometheus(bad2).is_err());
        // Missing _count.
        let bad3 = "# TYPE s summary\ns{quantile=\"0.5\"} 9\ns_sum 9\n";
        assert!(validate_prometheus(bad3).is_err());
        // Missing _sum.
        let bad4 = "# TYPE s summary\ns{quantile=\"0.5\"} 9\ns_count 1\n";
        assert!(validate_prometheus(bad4).is_err());
        // A summary with no observations still validates.
        validate_prometheus("# TYPE s summary\ns_sum 0\ns_count 0\n").unwrap();
        assert!(valid_quantile("0.95"));
        assert!(valid_quantile("1"));
        assert!(valid_quantile("1.000"));
        assert!(!valid_quantile("1.01"));
        assert!(!valid_quantile("2"));
        assert!(!valid_quantile("0."));
        assert!(!valid_quantile(".5"));
    }

    #[test]
    fn empty_exposition_validates() {
        validate_prometheus("").unwrap();
        validate_prometheus("\n\n").unwrap();
    }

    #[test]
    fn validator_rejects_malformed_text() {
        assert!(validate_prometheus("no_type_decl 5\n").is_err());
        assert!(validate_prometheus("# TYPE m counter\nm not_a_number\n").is_err());
        assert!(validate_prometheus("# TYPE m counter\n# TYPE m counter\n").is_err());
        assert!(validate_prometheus("# TYPE 9bad counter\n9bad 1\n").is_err());
        // Histogram with decreasing cumulative buckets.
        let bad = "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"3\"} 2\n\
                   h_bucket{le=\"+Inf\"} 5\nh_sum 9\nh_count 5\n";
        assert!(validate_prometheus(bad).is_err());
        // Histogram whose _count disagrees with the +Inf bucket.
        let bad2 = "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 5\nh_sum 9\nh_count 4\n";
        assert!(validate_prometheus(bad2).is_err());
        // Histogram missing the +Inf bucket entirely.
        let bad3 = "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_sum 9\nh_count 5\n";
        assert!(validate_prometheus(bad3).is_err());
    }
}
