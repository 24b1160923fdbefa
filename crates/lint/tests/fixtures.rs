//! Fixture corpus: each seeded file must light up exactly the expected
//! rule ids and lines, the clean fixture must stay silent, the real
//! workspace must be clean under the committed allowlist, and the CLI must
//! report violations through its exit status.

use aggsky_lint::{allowlist, rules};
use std::path::{Path, PathBuf};

fn findings(path: &str, src: &str) -> Vec<(&'static str, usize)> {
    rules::analyze(path, src).into_iter().map(|f| (f.rule, f.line)).collect()
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").canonicalize().unwrap()
}

#[test]
fn l1_fixture_flags_panics_and_indexing() {
    assert_eq!(
        findings("crates/core/src/fixture_l1.rs", include_str!("../fixtures/l1_panics.rs")),
        vec![
            ("L1-panic", 4),  // .unwrap()
            ("L1-panic", 5),  // .expect(...)
            ("L1-panic", 7),  // panic!
            ("L1-index", 9),  // v[2]
            ("L1-panic", 14), // todo!
        ],
        "the unwrap_or family and the #[cfg(test)] module must not be flagged"
    );
}

#[test]
fn l2_fixture_flags_raw_float_ordering() {
    assert_eq!(
        findings("crates/core/src/fixture_l2.rs", include_str!("../fixtures/l2_floatord.rs")),
        vec![
            ("L2-floatord", 6),     // p >= 1.0
            ("L11-silent-drop", 9), // the fixture discards the partial_cmp result
            ("L2-floatord", 9),     // p.partial_cmp(&q)
            ("L2-floatord", 10),    // 0.0 < q
        ],
        "the `fn partial_cmp` trait-impl definition must not be flagged"
    );
}

#[test]
fn l2_fixture_is_exempt_in_sanctioned_module() {
    // Only the L2 rule is exempted in ord.rs; the fixture's seeded
    // `let _ = …` discard still trips L11 there.
    assert_eq!(
        findings("crates/core/src/ord.rs", include_str!("../fixtures/l2_floatord.rs")),
        vec![("L11-silent-drop", 9)]
    );
}

#[test]
fn l3_fixture_flags_truncating_casts() {
    assert_eq!(
        findings("crates/core/src/fixture_l3.rs", include_str!("../fixtures/l3_casts.rs")),
        vec![("L3-cast", 4), ("L3-cast", 5), ("L3-cast", 6)],
        "From/TryFrom conversions and widening to u128/f64 must not be flagged"
    );
}

#[test]
fn l4_fixture_flags_layering_violation() {
    assert_eq!(
        findings("crates/spatial/src/fixture_l4.rs", include_str!("../fixtures/l4_layering.rs")),
        vec![("L4-layering", 4)]
    );
    // The same import is legal one layer up.
    assert!(findings("crates/sql/src/fixture_l4.rs", include_str!("../fixtures/l4_layering.rs"))
        .is_empty());
}

#[test]
fn l5_fixture_flags_clock_sleep_and_env_on_counting_paths() {
    let counting = "crates/core/src/algorithms/fixture_l5.rs";
    assert_eq!(
        findings(counting, include_str!("../fixtures/l5_determinism.rs")),
        vec![
            ("L5-determinism", 4),  // use std::time::Instant
            ("L5-determinism", 7),  // Instant::now()
            ("L5-determinism", 8),  // thread::sleep
            ("L11-silent-drop", 9), // the fixture discards the env::var result
            ("L5-determinism", 9),  // std::env::var
        ]
    );
    // Off the counting paths (e.g. the stats module) L5 is silent, but the
    // workspace-wide L6 still catches the actual clock read (and L11 the
    // discarded env::var result).
    assert_eq!(
        findings("crates/core/src/stats.rs", include_str!("../fixtures/l5_determinism.rs")),
        vec![("L6-wallclock", 7), ("L11-silent-drop", 9)]
    );
}

#[test]
fn l6_fixture_flags_wallclock_reads_in_every_scanned_crate() {
    for path in ["crates/sql/src/fixture_l6.rs", "crates/obs/src/fixture_l6.rs"] {
        assert_eq!(
            findings(path, include_str!("../fixtures/l6_wallclock.rs")),
            vec![
                ("L6-wallclock", 8),  // Instant::now()
                ("L6-wallclock", 12), // SystemTime::now()
            ],
            "{path}: the import and the Instant-typed parameter must not be flagged"
        );
    }
    // On a counting path the stricter L5 owns the diagnosis instead.
    let counting = findings(
        "crates/core/src/algorithms/fixture_l6.rs",
        include_str!("../fixtures/l6_wallclock.rs"),
    );
    assert!(
        counting.iter().all(|(rule, _)| *rule == "L5-determinism") && !counting.is_empty(),
        "expected only L5 findings on a counting path, got {counting:?}"
    );
}

#[test]
fn l7_fixture_flags_every_unsafe_token() {
    assert_eq!(
        findings("crates/core/src/fixture_l7.rs", include_str!("../fixtures/l7_unsafe.rs")),
        vec![
            ("L7-unsafe", 7),  // unsafe { *p }
            ("L7-unsafe", 10), // pub unsafe fn
            ("L7-unsafe", 16), // unsafe impl Send
        ],
        "safe code must stay silent; every unsafe keyword must be flagged"
    );
    // The sanctioned SIMD module still surfaces the findings (they are
    // carried by line-pinned allowlist entries, not silenced by the rule).
    assert_eq!(
        findings("crates/core/src/simd.rs", include_str!("../fixtures/l7_unsafe.rs")).len(),
        3
    );
}

#[test]
fn l8_fixture_flags_every_atomic_ordering_site() {
    assert_eq!(
        findings("crates/core/src/fixture_l8.rs", include_str!("../fixtures/l8_atomics.rs")),
        vec![
            ("L8-atomics", 9),  // Ordering::Relaxed (forbidden outright here)
            ("L8-atomics", 13), // Ordering::Acquire
            ("L8-atomics", 17), // Ordering::Release
            ("L8-atomics", 21), // Ordering::AcqRel
            ("L8-atomics", 25), // Ordering::SeqCst
        ],
        "the use-import and cmp::Ordering::Less must not be flagged"
    );
}

#[test]
fn l8_relaxed_is_forbidden_outside_sanctioned_counter_modules() {
    let outside =
        rules::analyze("crates/core/src/fixture_l8.rs", include_str!("../fixtures/l8_atomics.rs"));
    let relaxed = outside.iter().find(|f| f.line == 9).unwrap();
    assert!(
        relaxed.message.contains("forbidden"),
        "Relaxed outside a sanctioned module must not invite allowlisting: {}",
        relaxed.message
    );
    // In a sanctioned counter module the same site is pinnable instead.
    let sanctioned =
        rules::analyze("crates/obs/src/metrics.rs", include_str!("../fixtures/l8_atomics.rs"));
    let relaxed = sanctioned.iter().find(|f| f.line == 9).unwrap();
    assert!(relaxed.message.contains("happens-before"), "unexpected: {}", relaxed.message);
}

#[test]
fn l9_fixture_flags_uncharged_compare_primitives_on_counting_paths() {
    let counting = "crates/core/src/algorithms/fixture_l9.rs";
    assert_eq!(
        findings(counting, include_str!("../fixtures/l9_budget.rs")),
        vec![
            ("L9-budget", 8),  // dominates(...) in a Stats-free function
            ("L9-budget", 16), // kernel.compare_bounded(...) likewise
        ],
        "functions referencing Stats/poll and primitive-free functions must not be flagged"
    );
    // Off the counting paths the rule does not apply.
    assert!(
        findings("crates/core/src/stats.rs", include_str!("../fixtures/l9_budget.rs")).is_empty()
    );
}

#[test]
fn l10_fixture_flags_unbalanced_spans_only() {
    assert_eq!(
        findings("crates/obs/src/fixture_l10.rs", include_str!("../fixtures/l10_spans.rs")),
        vec![("L10-spans", 6)],
        "balanced, *_span-delegated, and SpanGuard functions must not be flagged"
    );
}

#[test]
fn l11_fixture_flags_silent_drops_only() {
    assert_eq!(
        findings("crates/sql/src/fixture_l11.rs", include_str!("../fixtures/l11_silentdrop.rs")),
        vec![
            ("L11-silent-drop", 6),  // let _ = <call>;
            ("L11-silent-drop", 10), // statement .ok();
            ("L11-silent-drop", 19), // discarded #[must_use] result
        ],
        "bound, branched-on, and let-bound .ok() results must not be flagged"
    );
}

#[test]
fn clean_fixture_has_no_findings() {
    // Analyzed on a counting path, where the most rules apply.
    assert!(findings("crates/core/src/algorithms/clean.rs", include_str!("../fixtures/clean.rs"))
        .is_empty());
}

#[test]
fn allowlist_suppresses_pinned_and_file_wide_entries() {
    let found =
        rules::analyze("crates/core/src/fixture_l1.rs", include_str!("../fixtures/l1_panics.rs"));
    let entries = allowlist::parse(
        "L1-panic crates/core/src/fixture_l1.rs\n\
         L1-index crates/core/src/fixture_l1.rs:9\n\
         L2-floatord crates/core/src/never.rs # covers nothing -> stale\n",
    )
    .unwrap();
    let (active, suppressed, stale) = allowlist::apply(found, &entries);
    assert!(active.is_empty(), "all five seeded findings should be suppressed: {active:?}");
    assert_eq!(suppressed.len(), 5);
    assert_eq!(stale.len(), 1);
    assert_eq!(stale[0].path, "crates/core/src/never.rs");
}

#[test]
fn file_wide_l1_entries_are_rejected_outside_core() {
    for entry in [
        "L1-index crates/spatial/src/rtree.rs",
        "L1-panic crates/datagen/src/nba.rs",
        "* crates/sql/src/exec.rs",
    ] {
        let err = allowlist::parse(&format!("# justified\n{entry}\n")).unwrap_err();
        assert!(err.contains("allowlist line 2") && err.contains("crates/core/"), "{entry}: {err}");
    }
    let ok = allowlist::parse(
        "L1-index crates/core/src/kernel.rs\n\
         * crates/core/src/testdata.rs\n\
         L1-index crates/spatial/src/rtree.rs:236\n\
         L11-silent-drop crates/sql/src/dump.rs\n",
    )
    .unwrap();
    assert_eq!(ok.len(), 4, "core file-wide, pinned sites and other rules stay accepted");
    // The fixture corpus itself: an L1 fixture under another crate can be
    // suppressed only site by site.
    let found = rules::analyze(
        "crates/spatial/src/fixture_l1.rs",
        include_str!("../fixtures/l1_panics.rs"),
    );
    assert!(allowlist::parse("L1-panic crates/spatial/src/fixture_l1.rs").is_err());
    let pins: String =
        found.iter().map(|f| format!("{} {}:{}\n", f.rule, f.path, f.line)).collect();
    let (active, suppressed, stale) = allowlist::apply(found, &allowlist::parse(&pins).unwrap());
    assert!(active.is_empty() && stale.is_empty(), "{active:?} {stale:?}");
    assert_eq!(suppressed.len(), 5);
}

#[test]
fn workspace_is_clean_under_committed_allowlist() {
    let root = workspace_root();
    let allow =
        std::fs::read_to_string(root.join("lint-allowlist.txt")).expect("committed allowlist");
    let report = aggsky_lint::run(&root, &allow).expect("lint run succeeds");
    assert!(report.is_clean(), "active findings: {:#?}", report.active);
    assert!(report.stale.is_empty(), "stale allowlist entries: {:#?}", report.stale);
}

#[test]
fn workspace_without_allowlist_sees_the_suppressed_debt() {
    // Guards against the linter silently scanning nothing and reporting a
    // vacuous pass: with the allowlist disabled, the grandfathered sites
    // must surface as active findings.
    let report = aggsky_lint::run(&workspace_root(), "").expect("lint run succeeds");
    assert!(report.files > 40, "expected the four library crates, got {} files", report.files);
    assert!(!report.active.is_empty());
    assert!(report.suppressed.is_empty());
}

#[test]
fn cli_exits_nonzero_on_seeded_violations_and_zero_when_allowlisted() {
    // A minimal fake workspace: the scanned crate src dirs, one of which
    // contains the seeded L1 fixture.
    let dir = std::env::temp_dir().join(format!("aggsky-lint-fixture-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    for krate in aggsky_lint::SCANNED_CRATES {
        std::fs::create_dir_all(dir.join("crates").join(krate).join("src")).unwrap();
    }
    std::fs::write(dir.join("crates/core/src/bad.rs"), include_str!("../fixtures/l1_panics.rs"))
        .unwrap();

    let bin = env!("CARGO_BIN_EXE_aggsky-lint");
    let run = |args: &[&str]| {
        std::process::Command::new(bin)
            .arg("--root")
            .arg(&dir)
            .args(args)
            .output()
            .expect("spawn aggsky-lint")
    };

    let out = run(&["--quiet"]);
    assert_eq!(out.status.code(), Some(1), "seeded violations must fail the run");

    std::fs::write(dir.join("lint-allowlist.txt"), "* crates/core/src/bad.rs\n").unwrap();
    let out = run(&["--quiet"]);
    assert_eq!(out.status.code(), Some(0), "allowlisted violations must pass");

    let json_path = dir.join("report.json");
    let out = run(&["--quiet", "--json", json_path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0));
    let json = std::fs::read_to_string(&json_path).unwrap();
    assert!(json.contains("\"active_count\": 0"), "unexpected report: {json}");
    assert!(json.contains("\"suppressed_count\": 5"), "unexpected report: {json}");

    // The SARIF log is validated before writing and must carry the
    // suppressed findings as external suppressions.
    let sarif_path = dir.join("report.sarif");
    let out = run(&["--quiet", "--sarif", sarif_path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0));
    let sarif = std::fs::read_to_string(&sarif_path).unwrap();
    aggsky_lint::sarif::validate_sarif(&sarif).expect("CLI SARIF output is structurally valid");
    assert!(sarif.contains("\"kind\": \"external\""), "unexpected SARIF: {sarif}");

    // A stale allowlist entry is a hard failure, not a warning.
    std::fs::write(
        dir.join("lint-allowlist.txt"),
        "* crates/core/src/bad.rs\nL6-wallclock crates/core/src/gone.rs\n",
    )
    .unwrap();
    let out = run(&[]);
    assert_eq!(out.status.code(), Some(1), "stale allowlist entries must fail the run");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("stale allowlist entry"), "stderr: {stderr}");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn workspace_sarif_export_is_valid_and_carries_the_suppressed_debt() {
    let root = workspace_root();
    let allow =
        std::fs::read_to_string(root.join("lint-allowlist.txt")).expect("committed allowlist");
    let report = aggsky_lint::run(&root, &allow).expect("lint run succeeds");
    let sarif = aggsky_lint::sarif::to_sarif(&report);
    aggsky_lint::sarif::validate_sarif(&sarif).expect("workspace SARIF is structurally valid");
    // The grandfathered debt must be visible in the artifact: every
    // suppressed finding becomes a note-level result with a suppression.
    assert!(report.suppressed.len() > 100, "expected a substantial suppressed corpus");
    assert_eq!(sarif.matches("\"kind\": \"external\"").count(), report.suppressed.len());
    assert_eq!(sarif.matches("\"level\": \"error\"").count(), report.active.len());
}
