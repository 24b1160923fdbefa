//! The project rules L1–L11. L1–L8 are patterns over the flat token stream
//! produced by [`crate::lexer`]; L9–L11 are *function-granular* dataflow
//! approximations over the token tree recovered by [`crate::ast`].
//!
//! | Rule | Id | What it forbids |
//! |------|----|-----------------|
//! | L1 | `L1-panic` | `.unwrap()`, `.expect(…)`, `panic!`, `todo!`, `unimplemented!` in non-test library code |
//! | L1 | `L1-index` | slice/array indexing `expr[…]` (panics on out-of-range) |
//! | L2 | `L2-floatord` | `partial_cmp` calls and `==`/`!=`/`<`/`<=`/`>`/`>=` against float literals outside the sanctioned `ord` modules |
//! | L3 | `L3-cast` | `as` casts to a numeric type that can truncate or wrap |
//! | L4 | `L4-layering` | imports that violate the crate DAG (`spatial`/`obs` → ∅, `core` → `spatial`+`obs`, `sql` → `core`+`obs`, `datagen` → `core`) |
//! | L5 | `L5-determinism` | `Instant`/`SystemTime`/`thread::sleep`/`std::env` inside counting-path modules |
//! | L6 | `L6-wallclock` | `Instant::now`/`SystemTime::now` reads anywhere in scanned library code (counting paths are covered by the stricter L5); the one sanctioned site is `obs::WallClock`, carried as a justified allowlist entry |
//! | L7 | `L7-unsafe` | every `unsafe` token in scanned library code; the sanctioned SIMD kernel modules carry their occurrences as line-pinned, justified allowlist entries, everywhere else the keyword is forbidden outright |
//! | L8 | `L8-atomics` | every atomic memory-ordering site (`Ordering::Relaxed`/`Acquire`/`Release`/`AcqRel`/`SeqCst`); each one is carried as a line-pinned allowlist entry documenting the happens-before argument it relies on, and `Relaxed` is forbidden outright outside the sanctioned counter modules |
//! | L9 | `L9-budget` | in counting-path modules, a function that calls a compare primitive (`dominates`, `compare`, `compare_bounded`, the columnar/SIMD kernel entry points, …) without referencing the `RunContext`/`Stats` tick-charging API — no code path may count record pairs without charging the budget |
//! | L10 | `L10-spans` | a function that enters more obs spans (`span_start`) than it exits (`span_end`, a `*_span` helper, or a `SpanGuard` binding) — an unbalanced trace corrupts the byte-identical determinism pin |
//! | L11 | `L11-silent-drop` | silently discarded outcomes in library code: `let _ = <call>;`, statement-position `.ok();`, and dropped results of same-file `#[must_use]` functions — interrupted/partial `Outcome`s must be handled or explicitly allowlisted |
//!
//! Code under `#[cfg(test)]` (and any item carrying a `test` attribute) is
//! stripped before the rules run: test code may panic freely.

use crate::ast::{self, Function};
use crate::lexer::{scan, Kind, Token};

/// One rule violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule identifier, e.g. `L1-panic`.
    pub rule: &'static str,
    /// Workspace-relative path of the offending file.
    pub path: String,
    /// 1-based source line.
    pub line: usize,
    /// Human-readable description of the violation.
    pub message: String,
}

impl Ord for Finding {
    /// Reports sort by `(path, line, rule, message)` so same-line findings
    /// from different rules land in one deterministic order, independent of
    /// the order the checks happened to run (or of any parallel walk of the
    /// scanned directories).
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.path.as_str(), self.line, self.rule, self.message.as_str()).cmp(&(
            other.path.as_str(),
            other.line,
            other.rule,
            other.message.as_str(),
        ))
    }
}

impl PartialOrd for Finding {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Keywords that can legally precede `[` without forming an indexing
/// expression (`let [a, b] = …`, `return [x]`, `in [..]`, …).
const KEYWORDS: &[&str] = &[
    "as", "async", "await", "box", "break", "const", "continue", "crate", "dyn", "else", "enum",
    "extern", "fn", "for", "if", "impl", "in", "let", "loop", "match", "mod", "move", "mut", "pub",
    "ref", "return", "self", "Self", "static", "struct", "super", "trait", "type", "unsafe", "use",
    "where", "while", "yield",
];

/// `as`-cast targets that can truncate (int→narrower-int, float→int) or lose
/// precision (`f32`). `f64` and the 128-bit types are treated as widening
/// and allowed; `usize → u64` style widening must go through
/// `aggsky_core::num` instead of `as` so intent is explicit.
const TRUNCATING_TARGETS: &[&str] =
    &["u8", "u16", "u32", "u64", "usize", "i8", "i16", "i32", "i64", "isize", "f32"];

/// Internal crates and the internal crates each may import. `bench` and the
/// root binary are intentionally unconstrained consumers at the top of the
/// DAG and are not scanned.
const LAYERING: &[(&str, &[&str])] = &[
    ("core", &["aggsky_spatial", "aggsky_obs"]),
    ("spatial", &[]),
    ("obs", &[]),
    ("sql", &["aggsky_core", "aggsky_obs"]),
    ("datagen", &["aggsky_core"]),
];

const INTERNAL_CRATES: &[&str] = &[
    "aggsky_core",
    "aggsky_spatial",
    "aggsky_obs",
    "aggsky_sql",
    "aggsky_datagen",
    "aggsky_bench",
];

/// Modules on the γ-dominance counting path, where wall-clock reads,
/// sleeps and environment lookups would make verdicts or stats
/// nondeterministic (rule L5).
const COUNTING_PATHS: &[&str] = &[
    "crates/core/src/dominance.rs",
    "crates/core/src/gamma.rs",
    "crates/core/src/paircount.rs",
    "crates/core/src/kernel.rs",
    "crates/core/src/columnar.rs",
    "crates/core/src/simd.rs",
    "crates/core/src/paircache.rs",
    "crates/core/src/sweep.rs",
    "crates/core/src/prepared.rs",
    "crates/core/src/dynamic.rs",
    "crates/core/src/service.rs",
    "crates/core/src/matrix.rs",
    "crates/core/src/mbb.rs",
    "crates/core/src/algorithms/",
];

/// Files allowed to use raw float comparisons: the sanctioned total-order
/// modules themselves (rule L2). `spatial` may not depend on `core` (rule
/// L4), so it carries a minimal mirror of `core::ord`.
const SANCTIONED_ORD: &[&str] = &["crates/core/src/ord.rs", "crates/spatial/src/ord.rs"];

/// Files allowed to contain `as` widening casts wrapped in named helpers
/// (rule L3).
const SANCTIONED_NUM: &[&str] = &["crates/core/src/num.rs"];

/// The only modules where `unsafe` may appear at all (rule L7): the
/// runtime-dispatched SIMD kernels, whose `std::arch` intrinsics are
/// `unsafe` by signature. Every occurrence is still a finding — carried as
/// a line-pinned, justified allowlist entry — so a new `unsafe` block even
/// inside these files surfaces in review; outside them the keyword is
/// rejected with a message that does not invite allowlisting.
const SANCTIONED_SIMD: &[&str] = &["crates/core/src/simd.rs"];

/// Atomic memory-ordering names (rule L8). The `cmp::Ordering` variants
/// (`Less`/`Equal`/`Greater`) never match, so comparison code is unaffected.
const ATOMIC_ORDERINGS: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// Modules whose atomics may use `Ordering::Relaxed` (rule L8): monotonic
/// work/metric counters that are read for reporting only, never to
/// establish cross-thread happens-before. The scheduler's `spent`/`retries`
/// tallies and the obs metric registry qualify; everywhere else `Relaxed`
/// is rejected outright with a message that does not invite allowlisting.
const SANCTIONED_RELAXED: &[&str] =
    &["crates/core/src/algorithms/parallel.rs", "crates/obs/src/metrics.rs"];

/// Compare primitives called as free functions (possibly path-qualified)
/// on the counting paths (rule L9).
const COMPARE_FREE: &[&str] = &[
    "dominates",
    "dominates_keys",
    "compare_groups",
    "compare_groups_exhaustive",
    "count_pairs",
    "count_segments",
];

/// Compare primitives that may also appear as method calls (`Kernel::…`,
/// rule L9).
const COMPARE_METHODS: &[&str] = &["compare", "compare_cached", "compare_bounded"];

/// Identifiers whose presence in a function marks it as participating in
/// tick charging (rule L9): constructing/receiving a [`Stats`] accumulator,
/// polling a `RunContext`, or touching the `record_pairs`/`spent` tallies.
const CHARGE_IDENTS: &[&str] = &["RunContext", "Stats", "poll", "record_pairs", "spent"];

/// The innermost primitive-definition layer (rule L9): `dominance.rs`
/// defines the per-record comparisons themselves; ticks are charged one
/// accounting layer up, per record pair, by everything that loops over
/// these primitives.
const SANCTIONED_PRIMITIVES: &[&str] = &["crates/core/src/dominance.rs"];

/// Analyzes one file's source. `path` is the workspace-relative path (used
/// for rule scoping and reporting); the file is not re-read from disk.
pub fn analyze(path: &str, src: &str) -> Vec<Finding> {
    let tokens = strip_test_code(scan(src));
    let trees = ast::parse(&tokens);
    let functions = ast::functions(&trees);
    let mut findings = Vec::new();
    check_l1(path, &tokens, &mut findings);
    check_l2(path, &tokens, &mut findings);
    check_l3(path, &tokens, &mut findings);
    check_l4(path, &tokens, &mut findings);
    check_l5(path, &tokens, &mut findings);
    check_l6(path, &tokens, &mut findings);
    check_l7(path, &tokens, &mut findings);
    check_l8(path, &tokens, &mut findings);
    check_l9(path, &functions, &mut findings);
    check_l10(path, &functions, &mut findings);
    check_l11(path, &functions, &mut findings);
    findings.sort();
    findings
}

/// Removes every item annotated with an attribute whose argument list
/// mentions `test` (`#[cfg(test)]`, `#[test]`, `#[cfg(all(test, …))]`).
/// The item body is found by brace matching: everything up to the first
/// `;` at depth 0, or through the matching `}` of the first `{`.
fn strip_test_code(tokens: Vec<Token>) -> Vec<Token> {
    let mut out = Vec::with_capacity(tokens.len());
    let mut i = 0;
    while i < tokens.len() {
        if tokens[i].is_sym("#") && i + 1 < tokens.len() && tokens[i + 1].is_sym("[") {
            // Find the attribute's closing bracket and whether it gates test
            // code.
            let mut depth = 0;
            let mut j = i + 1;
            let mut is_test = false;
            while j < tokens.len() {
                if tokens[j].is_sym("[") {
                    depth += 1;
                } else if tokens[j].is_sym("]") {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                } else if tokens[j].is_ident("test") {
                    is_test = true;
                }
                j += 1;
            }
            if !is_test {
                // Keep the attribute tokens; rules ignore them anyway.
                out.extend_from_slice(&tokens[i..=j.min(tokens.len() - 1)]);
                i = j + 1;
                continue;
            }
            // Skip any further attributes, then the item itself.
            i = j + 1;
            while i + 1 < tokens.len() && tokens[i].is_sym("#") && tokens[i + 1].is_sym("[") {
                let mut d = 0;
                while i < tokens.len() {
                    if tokens[i].is_sym("[") {
                        d += 1;
                    } else if tokens[i].is_sym("]") {
                        d -= 1;
                        if d == 0 {
                            break;
                        }
                    }
                    i += 1;
                }
                i += 1;
            }
            let mut brace = 0i64;
            let mut entered = false;
            while i < tokens.len() {
                if tokens[i].is_sym("{") {
                    brace += 1;
                    entered = true;
                } else if tokens[i].is_sym("}") {
                    brace -= 1;
                } else if tokens[i].is_sym(";") && !entered {
                    i += 1;
                    break;
                }
                i += 1;
                if entered && brace == 0 {
                    break;
                }
            }
        } else {
            out.push(tokens[i].clone());
            i += 1;
        }
    }
    out
}

/// L1: panic-freedom. Flags `.unwrap()` / `.expect(` calls, panicking
/// macros, and indexing expressions.
fn check_l1(path: &str, tokens: &[Token], findings: &mut Vec<Finding>) {
    for (i, t) in tokens.iter().enumerate() {
        if t.kind != Kind::Ident && !(t.kind == Kind::Sym && t.text == "[") {
            continue;
        }
        let prev = i.checked_sub(1).map(|p| &tokens[p]);
        let next = tokens.get(i + 1);
        match t.text.as_str() {
            "unwrap" | "expect" => {
                let is_method_call =
                    prev.is_some_and(|p| p.is_sym(".")) && next.is_some_and(|n| n.is_sym("("));
                if is_method_call {
                    findings.push(Finding {
                        rule: "L1-panic",
                        path: path.to_string(),
                        line: t.line,
                        message: format!(
                            ".{}() panics on the error path; route through error types instead",
                            t.text
                        ),
                    });
                }
            }
            "panic" | "todo" | "unimplemented" if next.is_some_and(|n| n.is_sym("!")) => {
                findings.push(Finding {
                    rule: "L1-panic",
                    path: path.to_string(),
                    line: t.line,
                    message: format!("{}! is forbidden in library code", t.text),
                });
            }
            "[" => {
                // Indexing: `[` directly after a value-producing token. An
                // identifier, `)` or `]` before `[` means `expr[…]`; keywords
                // (`let [a,b]`), symbols (`= [1,2]`, `&[f64]`) and `#[attr]`
                // do not.
                let is_index = prev.is_some_and(|p| match p.kind {
                    Kind::Ident => !KEYWORDS.contains(&p.text.as_str()),
                    Kind::Sym => p.text == ")" || p.text == "]",
                    _ => false,
                });
                if is_index {
                    findings.push(Finding {
                        rule: "L1-index",
                        path: path.to_string(),
                        line: t.line,
                        message: "indexing panics when out of range; use get()/get_mut() or \
                                  prove the bound and allowlist the site"
                            .to_string(),
                    });
                }
            }
            _ => {}
        }
    }
}

/// L2: NaN-safe float ordering. Flags `partial_cmp` calls (but not trait
/// impl definitions) and comparison operators with a float-literal operand,
/// outside the sanctioned `ord` modules.
fn check_l2(path: &str, tokens: &[Token], findings: &mut Vec<Finding>) {
    if SANCTIONED_ORD.contains(&path) {
        return;
    }
    for (i, t) in tokens.iter().enumerate() {
        let prev = i.checked_sub(1).map(|p| &tokens[p]);
        if t.is_ident("partial_cmp") {
            // `fn partial_cmp` defines the PartialOrd impl; calling it is
            // what loses NaN totality.
            if prev.is_some_and(|p| p.is_ident("fn")) {
                continue;
            }
            findings.push(Finding {
                rule: "L2-floatord",
                path: path.to_string(),
                line: t.line,
                message: "partial_cmp is not total on floats; use aggsky_core::ord (total_cmp)"
                    .to_string(),
            });
        } else if t.kind == Kind::Sym
            && matches!(t.text.as_str(), "==" | "!=" | "<" | "<=" | ">" | ">=")
        {
            let next = tokens.get(i + 1);
            let float_operand = prev.is_some_and(|p| p.kind == Kind::Float)
                || next.is_some_and(|n| n.kind == Kind::Float);
            if float_operand {
                findings.push(Finding {
                    rule: "L2-floatord",
                    path: path.to_string(),
                    line: t.line,
                    message: format!(
                        "raw `{}` against a float literal; use aggsky_core::ord comparators",
                        t.text
                    ),
                });
            }
        }
    }
}

/// L3: no truncating `as` casts. Flags `as <int-or-f32 type>`.
fn check_l3(path: &str, tokens: &[Token], findings: &mut Vec<Finding>) {
    if SANCTIONED_NUM.contains(&path) {
        return;
    }
    for (i, t) in tokens.iter().enumerate() {
        if !t.is_ident("as") {
            continue;
        }
        if let Some(next) = tokens.get(i + 1) {
            if next.kind == Kind::Ident && TRUNCATING_TARGETS.contains(&next.text.as_str()) {
                findings.push(Finding {
                    rule: "L3-cast",
                    path: path.to_string(),
                    line: t.line,
                    message: format!(
                        "`as {}` can truncate or wrap; use try_from/checked_mul or the \
                         aggsky_core::num widening helpers",
                        next.text
                    ),
                });
            }
        }
    }
}

/// L4: crate layering. Flags references to internal crates outside the
/// allowed set for the file's crate.
fn check_l4(path: &str, tokens: &[Token], findings: &mut Vec<Finding>) {
    let Some(crate_name) = crate_of(path) else { return };
    let Some((_, allowed)) = LAYERING.iter().find(|(c, _)| *c == crate_name) else { return };
    let own = format!("aggsky_{crate_name}");
    for t in tokens {
        if t.kind == Kind::Ident
            && INTERNAL_CRATES.contains(&t.text.as_str())
            && t.text != own
            && !allowed.contains(&t.text.as_str())
        {
            findings.push(Finding {
                rule: "L4-layering",
                path: path.to_string(),
                line: t.line,
                message: format!(
                    "crate `{crate_name}` must not reference `{}` (layering DAG: spatial → ∅, \
                     core → spatial, sql/datagen → core)",
                    t.text
                ),
            });
        }
    }
}

/// L5: determinism on counting paths. Flags clock reads, sleeps and
/// environment access inside the modules listed in [`COUNTING_PATHS`].
fn check_l5(path: &str, tokens: &[Token], findings: &mut Vec<Finding>) {
    if !COUNTING_PATHS.iter().any(|p| path == *p || (p.ends_with('/') && path.starts_with(p))) {
        return;
    }
    for (i, t) in tokens.iter().enumerate() {
        if t.kind != Kind::Ident {
            continue;
        }
        let banned = match t.text.as_str() {
            "Instant" | "SystemTime" => true,
            "sleep" => true,
            "env" => {
                // Only `std::env` / `core::env`; a local variable named
                // `env` is fine.
                i >= 2
                    && tokens[i - 1].is_sym("::")
                    && (tokens[i - 2].is_ident("std") || tokens[i - 2].is_ident("core"))
            }
            _ => false,
        };
        if banned {
            findings.push(Finding {
                rule: "L5-determinism",
                path: path.to_string(),
                line: t.line,
                message: format!(
                    "`{}` makes counting nondeterministic; timing belongs in the bench crate",
                    t.text
                ),
            });
        }
    }
}

/// L6: no wall-clock reads in library code. Flags `Instant::now` and
/// `SystemTime::now` call sites in every scanned file off the counting
/// paths (on them, L5 forbids the types outright). Wall time belongs to
/// `obs::WallClock` and the bench crate; the former is the one sanctioned
/// site, carried as a line-pinned, justified allowlist entry so any new
/// clock read — even inside `obs` — still surfaces.
fn check_l6(path: &str, tokens: &[Token], findings: &mut Vec<Finding>) {
    if COUNTING_PATHS.iter().any(|p| path == *p || (p.ends_with('/') && path.starts_with(p))) {
        return;
    }
    for (i, t) in tokens.iter().enumerate() {
        let is_clock_type =
            t.kind == Kind::Ident && matches!(t.text.as_str(), "Instant" | "SystemTime");
        let is_read = is_clock_type
            && tokens.get(i + 1).is_some_and(|n| n.is_sym("::"))
            && tokens.get(i + 2).is_some_and(|n| n.is_ident("now"));
        if is_read {
            findings.push(Finding {
                rule: "L6-wallclock",
                path: path.to_string(),
                line: t.line,
                message: format!(
                    "`{}::now()` reads the wall clock; take a Stamp from obs::WallClock (or \
                     move the timing into the bench crate)",
                    t.text
                ),
            });
        }
    }
}

/// L7: `unsafe` confinement. Flags every `unsafe` token in scanned library
/// code. Inside the [`SANCTIONED_SIMD`] modules the finding asks the
/// author to keep the line-pinned allowlist entry and its safety argument
/// current (moving or adding an `unsafe` invalidates the pin and fails the
/// lint); anywhere else the keyword itself is the violation.
fn check_l7(path: &str, tokens: &[Token], findings: &mut Vec<Finding>) {
    let sanctioned = SANCTIONED_SIMD.contains(&path);
    for t in tokens {
        if !t.is_ident("unsafe") {
            continue;
        }
        let message = if sanctioned {
            "`unsafe` in a sanctioned SIMD module; pin the line in lint-allowlist.txt and keep \
             the module's safety argument current"
                .to_string()
        } else {
            "`unsafe` is confined to the sanctioned SIMD kernel modules (see SANCTIONED_SIMD); \
             rewrite with safe code"
                .to_string()
        };
        findings.push(Finding { rule: "L7-unsafe", path: path.to_string(), line: t.line, message });
    }
}

/// L8: justified atomics. Every atomic memory-ordering site in scanned
/// library code is a finding, carried — like L7's `unsafe` — as a
/// line-pinned allowlist entry whose comment must state the happens-before
/// argument the ordering relies on (or, for `Relaxed`, why no edge is
/// needed). `Relaxed` outside the [`SANCTIONED_RELAXED`] counter modules is
/// rejected with a message that does not invite allowlisting: an unfenced
/// relaxed load/store in ordering-sensitive code is exactly the bug class
/// ThreadSanitizer exists for.
fn check_l8(path: &str, tokens: &[Token], findings: &mut Vec<Finding>) {
    for (i, t) in tokens.iter().enumerate() {
        if !t.is_ident("Ordering") {
            continue;
        }
        let is_ordering_site = tokens.get(i + 1).is_some_and(|n| n.is_sym("::"))
            && tokens.get(i + 2).is_some_and(|n| {
                n.kind == Kind::Ident && ATOMIC_ORDERINGS.contains(&n.text.as_str())
            });
        if !is_ordering_site {
            continue;
        }
        let name = &tokens[i + 2].text;
        let message = if name == "Relaxed" && !SANCTIONED_RELAXED.contains(&path) {
            "`Ordering::Relaxed` is forbidden outside the sanctioned counter modules \
             (SANCTIONED_RELAXED); establish a real happens-before edge (Acquire/Release) or \
             move the tally into a sanctioned counter module"
                .to_string()
        } else {
            format!(
                "atomic `Ordering::{name}`: pin the line in lint-allowlist.txt with the \
                 happens-before argument (what it synchronizes with, or why a counter needs \
                 no edge)"
            )
        };
        findings.push(Finding {
            rule: "L8-atomics",
            path: path.to_string(),
            line: t.line,
            message,
        });
    }
}

/// L9: budget conservation. On the counting paths, a function that calls a
/// compare primitive must also reference the tick-charging API
/// ([`CHARGE_IDENTS`]) somewhere in its signature or body — constructing or
/// threading a `Stats`, polling a `RunContext`, or touching the
/// `record_pairs`/`spent` tallies. A function that loops over comparisons
/// with none of these is a code path that counts record pairs for free,
/// which breaks deterministic budgets and `EXPLAIN ANALYZE` totals alike.
fn check_l9(path: &str, functions: &[Function], findings: &mut Vec<Finding>) {
    if !on_counting_path(path) || SANCTIONED_PRIMITIVES.contains(&path) {
        return;
    }
    for f in functions {
        let calls = f.calls();
        let primitive = calls.iter().find(|c| {
            !c.is_macro
                && (COMPARE_METHODS.contains(&c.name)
                    || (!c.method && COMPARE_FREE.contains(&c.name)))
        });
        let Some(call) = primitive else { continue };
        if CHARGE_IDENTS.iter().any(|w| f.references(w)) {
            continue;
        }
        findings.push(Finding {
            rule: "L9-budget",
            path: path.to_string(),
            line: call.line,
            message: format!(
                "fn `{}` calls compare primitive `{}` without referencing the RunContext/Stats \
                 tick-charging API; every counting code path must charge record pairs to the \
                 budget",
                f.name, call.name
            ),
        });
    }
}

/// L10: balanced obs spans. Within one function, every `span_start` call
/// must be matched by a `span_end`, a delegated `*_span` helper call (the
/// `end_prepare_span` idiom), or a `SpanGuard` RAII binding. A function
/// that enters more spans than it exits leaves unfinished spans in the
/// trace, corrupting the byte-identical determinism pin and the
/// `EXPLAIN ANALYZE` span tree.
fn check_l10(path: &str, functions: &[Function], findings: &mut Vec<Finding>) {
    for f in functions {
        if f.references("SpanGuard") {
            continue; // RAII guard closes the span on every exit path
        }
        let calls = f.calls();
        let mut starts = 0usize;
        let mut first_start = 0usize;
        let mut ends = 0usize;
        for c in &calls {
            if c.method && c.name == "span_start" {
                if starts == 0 {
                    first_start = c.line;
                }
                starts += 1;
            } else if (c.method && c.name == "span_end")
                || (!c.is_macro && c.name.ends_with("_span"))
            {
                ends += 1;
            }
        }
        if starts > ends {
            findings.push(Finding {
                rule: "L10-spans",
                path: path.to_string(),
                line: first_start,
                message: format!(
                    "fn `{}` enters {starts} obs span(s) but exits only {ends}; match every \
                     span_start with a span_end (or a `*_span` helper / SpanGuard binding) in \
                     the same function so traces stay balanced",
                    f.name
                ),
            });
        }
    }
}

/// L11: no silent drops. Flags, in every scanned file: `let _ = <expr>;`
/// where the expression performs a call (function, method or macro) or uses
/// `?` — the canonical way to discard a `Result`/`Outcome`; statement-
/// position `.ok();`, which acknowledges an error path only to ignore it;
/// and statement-position calls to a same-file `#[must_use]` function whose
/// value is discarded. Infallible formatting writes and intentionally
/// raced CAS results are carried as justified allowlist entries.
fn check_l11(path: &str, functions: &[Function], findings: &mut Vec<Finding>) {
    let must_use: Vec<&str> =
        functions.iter().filter(|f| f.has_attr("must_use")).map(|f| f.name.as_str()).collect();
    for f in functions {
        let tokens = &f.tokens;
        for (i, t) in tokens.iter().enumerate() {
            if t.is_ident("let")
                && tokens.get(i + 1).is_some_and(|n| n.is_ident("_"))
                && tokens.get(i + 2).is_some_and(|n| n.is_sym("="))
            {
                if let Some(line) = dropped_call_in_binding(tokens, i + 3) {
                    findings.push(Finding {
                        rule: "L11-silent-drop",
                        path: path.to_string(),
                        line,
                        message: "`let _ =` silently discards the call's result; handle the \
                                  Result/Outcome (or allowlist the site with a written \
                                  justification, e.g. infallible String formatting)"
                            .to_string(),
                    });
                }
            }
            let ok_statement = t.is_sym(".")
                && tokens.get(i + 1).is_some_and(|n| n.is_ident("ok"))
                && tokens.get(i + 2).is_some_and(|n| n.is_sym("("))
                && tokens.get(i + 3).is_some_and(|n| n.is_sym(")"))
                && tokens.get(i + 4).is_some_and(|n| n.is_sym(";"))
                && discards_ok_value(tokens, i);
            if ok_statement {
                findings.push(Finding {
                    rule: "L11-silent-drop",
                    path: path.to_string(),
                    line: tokens[i + 1].line,
                    message: "statement-position `.ok();` acknowledges the error path only to \
                              ignore it; handle the Result or allowlist the site"
                        .to_string(),
                });
            }
            let statement_start = i == 0
                || tokens
                    .get(i - 1)
                    .is_some_and(|p| p.is_sym(";") || p.is_sym("{") || p.is_sym("}"));
            if statement_start
                && t.kind == Kind::Ident
                && must_use.contains(&t.text.as_str())
                && tokens.get(i + 1).is_some_and(|n| n.is_sym("("))
            {
                if let Some(close) = matching_close(tokens, i + 1) {
                    if tokens.get(close + 1).is_some_and(|n| n.is_sym(";")) {
                        findings.push(Finding {
                            rule: "L11-silent-drop",
                            path: path.to_string(),
                            line: t.line,
                            message: format!(
                                "`{}` is #[must_use] but its result is discarded in statement \
                                 position; bind and handle the value",
                                t.text
                            ),
                        });
                    }
                }
            }
        }
    }
}

/// Whether the `.ok();` whose `.` sits at `dot` actually discards the
/// value. `let value = env_var().ok();` binds the `Option` and
/// `x = f().ok();` assigns it — only an expression *statement* ending in
/// `.ok()` throws the error path away. Walks back to the statement start
/// (the token after the previous `;`/`{`/`}`) and bails out on `let`,
/// `return`, `break`, or any `=` before the dot.
fn discards_ok_value(tokens: &[Token], dot: usize) -> bool {
    let mut start = 0usize;
    for j in (0..dot).rev() {
        let t = &tokens[j];
        if t.kind == Kind::Sym && matches!(t.text.as_str(), ";" | "{" | "}") {
            start = j + 1;
            break;
        }
    }
    let stmt = &tokens[start..dot];
    if stmt
        .first()
        .is_some_and(|t| t.is_ident("let") || t.is_ident("return") || t.is_ident("break"))
    {
        return false;
    }
    // `x = f().ok();` / `x += …` style assignments consume the value too.
    !stmt
        .iter()
        .any(|t| t.kind == Kind::Sym && matches!(t.text.as_str(), "=" | "+=" | "-=" | "*=" | "/="))
}

/// Scans the right-hand side of a `let _ = …;` binding starting at `start`
/// (the token after `=`). Returns the line of the first call expression or
/// `?` operator inside the binding, or `None` when the RHS performs no
/// call (casts, literals, and plain moves are L11-clean).
fn dropped_call_in_binding(tokens: &[Token], start: usize) -> Option<usize> {
    let mut depth = 0usize;
    let mut found: Option<usize> = None;
    let mut i = start;
    while i < tokens.len() {
        let t = &tokens[i];
        if t.kind == Kind::Sym {
            match t.text.as_str() {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => {
                    let Some(d) = depth.checked_sub(1) else { break };
                    depth = d;
                }
                ";" if depth == 0 => break,
                "?" => found = found.or(Some(t.line)),
                _ => {}
            }
        } else if t.kind == Kind::Ident && !tokens.get(i - 1).is_some_and(|p| p.is_ident("fn")) {
            let call = tokens.get(i + 1).is_some_and(|n| n.is_sym("("))
                || (tokens.get(i + 1).is_some_and(|n| n.is_sym("!"))
                    && tokens.get(i + 2).is_some_and(|n| n.is_sym("(")));
            if call {
                found = found.or(Some(t.line));
            }
        }
        i += 1;
    }
    found
}

/// Given the index of an opening `(`, returns the index of its matching
/// closer in a flat, delimiter-materialized token list.
fn matching_close(tokens: &[Token], open: usize) -> Option<usize> {
    let mut depth = 0usize;
    for (i, t) in tokens.iter().enumerate().skip(open) {
        if t.kind != Kind::Sym {
            continue;
        }
        match t.text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => {
                depth = depth.checked_sub(1)?;
                if depth == 0 {
                    return Some(i);
                }
            }
            _ => {}
        }
    }
    None
}

/// Whether `path` is one of the γ-counting modules (shared by L5 and L9).
fn on_counting_path(path: &str) -> bool {
    COUNTING_PATHS.iter().any(|p| path == *p || (p.ends_with('/') && path.starts_with(p)))
}

/// Extracts the crate name from a `crates/<name>/src/…` path.
fn crate_of(path: &str) -> Option<&str> {
    let rest = path.strip_prefix("crates/")?;
    let (name, tail) = rest.split_once('/')?;
    tail.starts_with("src/").then_some(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules_at(path: &str, src: &str) -> Vec<(&'static str, usize)> {
        analyze(path, src).into_iter().map(|f| (f.rule, f.line)).collect()
    }

    #[test]
    fn l1_flags_unwrap_expect_and_macros() {
        let src = "fn f() {\n    x.unwrap();\n    y.expect(\"msg\");\n    panic!(\"boom\");\n    todo!()\n}\n";
        let got = rules_at("crates/core/src/x.rs", src);
        assert_eq!(got, vec![("L1-panic", 2), ("L1-panic", 3), ("L1-panic", 4), ("L1-panic", 5)]);
    }

    #[test]
    fn l1_ignores_unwrap_or_variants() {
        let src = "fn f() { x.unwrap_or(0); x.unwrap_or_else(|| 1); x.unwrap_or_default(); }";
        assert!(rules_at("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn l1_flags_indexing_but_not_array_syntax() {
        let src = "fn f(v: &[f64]) -> f64 {\n    let a = [1, 2];\n    let [x, y] = a;\n    v[0] + g()[1]\n}\n";
        let got = rules_at("crates/core/src/x.rs", src);
        assert_eq!(got, vec![("L1-index", 4), ("L1-index", 4)]);
    }

    #[test]
    fn l2_flags_partial_cmp_calls_not_defs() {
        let src = "impl PartialOrd for E {\n    fn partial_cmp(&self, o: &E) -> Option<Ordering> { Some(self.cmp(o)) }\n}\nfn g(a: f64, b: f64) { a.partial_cmp(&b); }\n";
        let got = rules_at("crates/core/src/x.rs", src);
        assert_eq!(got, vec![("L2-floatord", 4)]);
    }

    #[test]
    fn l2_flags_float_literal_comparisons() {
        let src = "fn f(p: f64) -> bool { p >= 1.0 || 0.5 < p }";
        let got = rules_at("crates/core/src/x.rs", src);
        assert_eq!(got, vec![("L2-floatord", 1), ("L2-floatord", 1)]);
    }

    #[test]
    fn l2_sanctioned_module_is_exempt() {
        let src = "pub fn gt(a: f64, b: f64) -> bool { a > b || a == 1.0 }";
        assert!(rules_at("crates/core/src/ord.rs", src).is_empty());
        assert!(!rules_at("crates/core/src/other.rs", src).is_empty());
    }

    #[test]
    fn l3_flags_truncating_casts_only() {
        let src = "fn f(x: usize, y: f64) { let _ = x as u64; let _ = y as u32; let _ = x as f64; let _ = x as u128; }";
        let got = rules_at("crates/core/src/x.rs", src);
        assert_eq!(got, vec![("L3-cast", 1), ("L3-cast", 1)]);
    }

    #[test]
    fn l4_layering_violations() {
        let src = "use aggsky_sql::Engine;\n";
        assert_eq!(rules_at("crates/core/src/x.rs", src), vec![("L4-layering", 1)]);
        assert_eq!(
            rules_at("crates/spatial/src/x.rs", "use aggsky_core::Gamma;"),
            vec![("L4-layering", 1)]
        );
        assert!(rules_at("crates/core/src/x.rs", "use aggsky_spatial::RTree;").is_empty());
        assert!(rules_at("crates/sql/src/x.rs", "use aggsky_core::Gamma;").is_empty());
    }

    #[test]
    fn l5_only_fires_on_counting_paths() {
        let src = "use std::time::Instant;\nfn f() { let t = Instant::now(); }\n";
        assert_eq!(
            rules_at("crates/core/src/paircount.rs", src),
            vec![("L5-determinism", 1), ("L5-determinism", 2)]
        );
        // Off the counting paths L5 is silent; the actual clock read is
        // still caught, by the workspace-wide L6.
        assert_eq!(rules_at("crates/core/src/stats.rs", src), vec![("L6-wallclock", 2)]);
        let env = "fn f() { let v = std::env::var(\"X\"); }";
        assert_eq!(
            rules_at("crates/core/src/algorithms/parallel.rs", env),
            vec![("L5-determinism", 1)]
        );
    }

    #[test]
    fn l6_flags_clock_reads_everywhere_but_counting_paths() {
        let src = "use std::time::{Instant, SystemTime};\n\
                   fn f() { let t = Instant::now(); }\n\
                   fn g() { let t = SystemTime::now(); }\n\
                   fn h(start: Instant) -> bool { start.elapsed().as_secs() > 0 }\n";
        // The `use` and the `Instant` parameter type are not reads; the two
        // `::now()` calls are, in every scanned crate including obs.
        for path in
            ["crates/sql/src/exec.rs", "crates/core/src/stats.rs", "crates/obs/src/clock.rs"]
        {
            assert_eq!(
                rules_at(path, src),
                vec![("L6-wallclock", 2), ("L6-wallclock", 3)],
                "{path}"
            );
        }
        // On a counting path L5 owns the diagnosis (it forbids the types
        // outright, not just the reads) and L6 stays silent.
        assert!(rules_at("crates/core/src/kernel.rs", src)
            .iter()
            .all(|(rule, _)| *rule == "L5-determinism"));
    }

    #[test]
    fn l7_confines_unsafe_to_sanctioned_simd_modules() {
        let src = "fn f() {\n    let v = unsafe { intrinsics() };\n}\nunsafe fn intrinsics() -> u32 { 0 }\n";
        let outside = analyze("crates/core/src/kernel.rs", src);
        let outside_rules: Vec<_> = outside.iter().map(|f| (f.rule, f.line)).collect();
        assert_eq!(outside_rules, vec![("L7-unsafe", 2), ("L7-unsafe", 4)]);
        assert!(
            outside.iter().all(|f| f.message.contains("rewrite with safe code")),
            "outside the sanctioned modules the keyword itself is the violation"
        );
        let inside = analyze("crates/core/src/simd.rs", src);
        let inside_rules: Vec<_> = inside.iter().map(|f| (f.rule, f.line)).collect();
        assert_eq!(inside_rules, vec![("L7-unsafe", 2), ("L7-unsafe", 4)]);
        assert!(
            inside.iter().all(|f| f.message.contains("pin the line")),
            "sanctioned modules still surface every occurrence, as pinnable findings"
        );
    }

    #[test]
    fn cfg_test_code_is_stripped() {
        let src = "fn lib() -> u32 { 1 }\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { x.unwrap(); v[0]; }\n}\n";
        assert!(rules_at("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn non_test_attributes_do_not_strip() {
        let src = "#[derive(Debug)]\nstruct S;\nfn f() { x.unwrap(); }\n";
        assert_eq!(rules_at("crates/core/src/x.rs", src), vec![("L1-panic", 3)]);
    }
}
