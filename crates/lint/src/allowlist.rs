//! The grandfather allowlist: suppresses known findings without weakening
//! the rules for new code.
//!
//! Format, one entry per line (`#` starts a comment):
//!
//! ```text
//! <rule-id>|* <path>[:<line>]
//! ```
//!
//! * `L1-panic crates/sql/src/plan.rs:88` — one site.
//! * `L1-index crates/core/src/dataset.rs` — every `L1-index` finding in the
//!   file (for modules whose indexing is bounds-proven by construction).
//! * `* crates/core/src/testdata.rs` — every rule in the file (for modules
//!   compiled only under `cfg(test)` at the crate root).
//!
//! A file-wide entry that covers L1 (`L1-*` or `*`) is accepted only under
//! `crates/core/`, where the `invariants` build re-checks the bounds it
//! relies on. Anywhere else it would absorb every new panic site of the
//! file unseen, so such sites are pinned line by line.
//!
//! Line-pinned entries are intentionally brittle: editing an allowlisted
//! region forces the author to re-justify the suppression.

use crate::rules::Finding;

/// One parsed allowlist entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Entry {
    /// Rule id, or `*` for all rules.
    pub rule: String,
    /// Workspace-relative file path.
    pub path: String,
    /// Specific line, or `None` to cover the whole file.
    pub line: Option<usize>,
    /// 1-based line of the entry inside the allowlist file (for reporting
    /// stale entries).
    pub source_line: usize,
}

impl Entry {
    /// Does this entry suppress the given finding?
    pub fn covers(&self, f: &Finding) -> bool {
        (self.rule == "*" || self.rule == f.rule)
            && self.path == f.path
            && self.line.is_none_or(|l| l == f.line)
    }
}

/// The only tree where a file-wide entry may cover L1.
pub const FILE_WIDE_L1_ROOT: &str = "crates/core/";

/// Parses allowlist text. Malformed lines, and file-wide L1 entries outside
/// [`FILE_WIDE_L1_ROOT`], are returned as errors with their line numbers; a
/// missing file should be treated as an empty allowlist by the caller.
pub fn parse(text: &str) -> Result<Vec<Entry>, String> {
    let mut entries = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut parts = line.split_whitespace();
        let (Some(rule), Some(target), None) = (parts.next(), parts.next(), parts.next()) else {
            return Err(format!("allowlist line {line_no}: expected `<rule> <path>[:line]`"));
        };
        let (path, line_pin) = match target.rsplit_once(':') {
            Some((p, l)) => {
                let n: usize = l
                    .parse()
                    .map_err(|_| format!("allowlist line {line_no}: bad line number {l:?}"))?;
                (p.to_string(), Some(n))
            }
            None => (target.to_string(), None),
        };
        let covers_l1 = rule == "*" || rule.starts_with("L1-");
        if covers_l1 && line_pin.is_none() && !path.starts_with(FILE_WIDE_L1_ROOT) {
            return Err(format!(
                "allowlist line {line_no}: a file-wide {rule} entry is allowed only under \
                 {FILE_WIDE_L1_ROOT}; pin {path}'s sites line by line"
            ));
        }
        entries.push(Entry { rule: rule.to_string(), path, line: line_pin, source_line: line_no });
    }
    Ok(entries)
}

/// Splits findings into (active, suppressed) and reports entries that cover
/// nothing (stale) so the allowlist can only shrink over time.
pub fn apply(
    findings: Vec<Finding>,
    entries: &[Entry],
) -> (Vec<Finding>, Vec<Finding>, Vec<Entry>) {
    let mut active = Vec::new();
    let mut suppressed = Vec::new();
    let mut used = vec![false; entries.len()];
    for f in findings {
        match entries.iter().position(|e| e.covers(&f)) {
            Some(i) => {
                used[i] = true;
                suppressed.push(f);
            }
            None => active.push(f),
        }
    }
    let stale =
        entries.iter().zip(used.iter()).filter(|(_, u)| !**u).map(|(e, _)| e.clone()).collect();
    (active, suppressed, stale)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(rule: &'static str, path: &str, line: usize) -> Finding {
        Finding { rule, path: path.to_string(), line, message: String::new() }
    }

    #[test]
    fn parse_and_match() {
        let entries = parse(
            "# comment\nL1-panic crates/a.rs:7\nL1-index crates/core/b.rs\n* crates/core/t.rs # trailing\n",
        )
        .unwrap();
        assert_eq!(entries.len(), 3);
        assert!(entries[0].covers(&finding("L1-panic", "crates/a.rs", 7)));
        assert!(!entries[0].covers(&finding("L1-panic", "crates/a.rs", 8)));
        assert!(entries[1].covers(&finding("L1-index", "crates/core/b.rs", 99)));
        assert!(!entries[1].covers(&finding("L1-panic", "crates/core/b.rs", 99)));
        assert!(entries[2].covers(&finding("L5-determinism", "crates/core/t.rs", 3)));
    }

    #[test]
    fn malformed_lines_error() {
        assert!(parse("L1-panic").is_err());
        assert!(parse("L1-panic a.rs:x").is_err());
        assert!(parse("L1-panic a.rs extra").is_err());
    }

    #[test]
    fn apply_partitions_and_reports_stale() {
        let entries = parse("L1-panic a.rs:1\nL2-floatord never.rs\n").unwrap();
        let fs = vec![finding("L1-panic", "a.rs", 1), finding("L1-panic", "a.rs", 2)];
        let (active, suppressed, stale) = apply(fs, &entries);
        assert_eq!(active.len(), 1);
        assert_eq!(active[0].line, 2);
        assert_eq!(suppressed.len(), 1);
        assert_eq!(stale.len(), 1);
        assert_eq!(stale[0].path, "never.rs");
    }
}
