//! Implementation of the `aggsky` command-line tool.
//!
//! The binary in `src/bin/aggsky.rs` is a thin wrapper around
//! [`run_command`], which keeps the whole surface unit-testable.
//!
//! Subcommands:
//!
//! * `skyline --csv FILE --group COL [--gamma G] [--algorithm NL|TR|SI|IN|LO]
//!   [--min COL]... [--rank]` — aggregate skyline over a CSV file.
//! * `generate --dist anti|ind|corr --records N [--groups N] [--dim D]
//!   [--spread S] [--zipf EXP] [--seed S]` — emit a synthetic dataset as CSV.
//! * `sql FILE...` — execute semicolon-separated SQL statements from files
//!   (use `-` for stdin), printing each result table.

use crate::core::{
    parallel_skyline_ctx, ranked_skyline, render_profile_diff, resolve_threads, KernelConfig,
    ProfileSnapshot,
};
use crate::{AlgoOptions, Algorithm, Direction, Gamma, Outcome, RunContext};
use aggsky_datagen::{to_grouped_csv, Distribution, GroupSizes, GroupedCsv, SyntheticConfig};
use aggsky_obs::{export_chrome, export_prometheus, Counter, FlightRecorder, Hist, TraceRecorder};
use std::fmt::Write as _;
use std::sync::Arc;

/// A CLI failure: the message is printed to stderr with exit code 1.
pub type CliError = String;

/// Executes one subcommand, returning the text to print on stdout.
pub fn run_command(args: &[String]) -> Result<String, CliError> {
    match args.first().map(String::as_str) {
        Some("skyline") => skyline_command(&args[1..]),
        Some("generate") => generate_command(&args[1..]),
        Some("sql") => sql_command(&args[1..]),
        Some("profile") => profile_command(&args[1..]),
        Some("help") | Some("--help") | Some("-h") | None => Ok(usage()),
        Some(other) => Err(format!("unknown subcommand {other:?}\n\n{}", usage())),
    }
}

/// The usage string.
pub fn usage() -> String {
    "\
aggsky — aggregate skyline queries (EDBT 2013 reproduction)

USAGE:
  aggsky skyline --csv FILE --group COL [options]   compute an aggregate skyline
  aggsky generate --dist DIST --records N [options] emit a synthetic dataset as CSV
  aggsky sql [--querylog FILE] FILE...              run SQL statements (- = stdin)
  aggsky profile diff OLD NEW [--threshold PCT]     compare two profile snapshots

skyline options:
  --gamma G          dominance threshold in [0.5, 1] (default 0.5)
  --algorithm A      NL0 | NL | TR | SI | IN | LO (default IN)
  --min COL          treat COL as minimize (repeatable; default: maximize all)
  --exact            use provably-exact pruning and the columnar kernel
                     (default: paper pruning and the exhaustive kernel)
  --threads N        run the parallel extension with N workers (0 = all cores)
                     on the columnar kernel; overrides --algorithm
  --budget TICKS     stop after roughly TICKS record comparisons and print
                     the confirmed partial skyline (0 = unlimited); under
                     --exact, --threads and --checkpoint-dir only comparisons
                     inside straddling record blocks are ticks
  --checkpoint-dir D persist the run as durable crash-consistent frames under
                     directory D (uses the resumable anytime engine; combine
                     with --budget to checkpoint a bounded chunk per run)
  --resume           recover from the newest valid frame in --checkpoint-dir
                     instead of starting the directory over
  --rank             also print groups by minimum qualifying gamma
  --trace FILE       record a Chrome trace-event JSON of the run (load it in
                     Perfetto / chrome://tracing)
  --metrics FILE     write the run's counters and histograms in Prometheus
                     text exposition format
  --profile FILE     save a versioned profile snapshot (counters, span
                     totals, sketch quantiles) for later `profile diff`
  --flight DIR       attach the always-on flight recorder; interrupts and
                     faults auto-dump the recent-event ring as Chrome-trace
                     JSON under DIR (mutually exclusive with --trace/--metrics)

sql options:
  --querylog FILE    write the structured query log (one JSON record per
                     statement) as JSON Lines

profile diff options:
  --threshold PCT    flag counters/spans that grew more than PCT percent
                     (default 10)

generate options:
  --dist DIST        anti | ind | corr
  --records N        total records
  --groups N         number of groups (default records/100)
  --dim D            dimensions (default 5)
  --spread S         class spread fraction (default 0.2)
  --zipf EXP         Zipfian group sizes with this exponent (default uniform)
  --seed S           RNG seed (default 42)
"
    .to_string()
}

/// Parses `--key value` style flags; returns (flags, repeated --min values).
struct Flags {
    pairs: Vec<(String, String)>,
    bools: Vec<String>,
}

impl Flags {
    fn parse(args: &[String], bool_flags: &[&str]) -> Result<Flags, CliError> {
        let mut pairs = Vec::new();
        let mut bools = Vec::new();
        let mut i = 0;
        while i < args.len() {
            let a = &args[i];
            let Some(key) = a.strip_prefix("--") else {
                return Err(format!("unexpected argument {a:?}"));
            };
            if bool_flags.contains(&key) {
                bools.push(key.to_string());
                i += 1;
                continue;
            }
            let value = args.get(i + 1).ok_or_else(|| format!("--{key} expects a value"))?.clone();
            pairs.push((key.to_string(), value));
            i += 2;
        }
        Ok(Flags { pairs, bools })
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.pairs.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }

    fn get_all(&self, key: &str) -> Vec<&str> {
        self.pairs.iter().filter(|(k, _)| k == key).map(|(_, v)| v.as_str()).collect()
    }

    fn has(&self, key: &str) -> bool {
        self.bools.iter().any(|b| b == key)
    }

    fn require(&self, key: &str) -> Result<&str, CliError> {
        self.get(key).ok_or_else(|| format!("missing required flag --{key}"))
    }

    fn parse_num<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, CliError> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{key}: invalid value {v:?}")),
        }
    }
}

fn skyline_command(args: &[String]) -> Result<String, CliError> {
    let flags = Flags::parse(args, &["rank", "exact", "resume"])?;
    let path = flags.require("csv")?;
    let group_col = flags.require("group")?;
    let gamma = Gamma::new(flags.parse_num("gamma", 0.5)?).map_err(|e| e.to_string())?;
    let algorithm = match flags.get("algorithm").unwrap_or("IN") {
        "NL0" | "nl0" => Algorithm::Naive,
        "NL" | "nl" => Algorithm::NestedLoop,
        "TR" | "tr" => Algorithm::Transitive,
        "SI" | "si" => Algorithm::Sorted,
        "IN" | "in" => Algorithm::Indexed,
        "LO" | "lo" => Algorithm::IndexedBbox,
        other => return Err(format!("unknown algorithm {other:?}")),
    };
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;

    // Map --min column names onto dimensions via the CSV header.
    let csv = GroupedCsv::new(&text, group_col).map_err(|e| format!("{path}: {e}"))?;
    let value_cols = csv.value_columns();
    let mins = flags.get_all("min");
    for m in &mins {
        if !value_cols.iter().any(|c| c.eq_ignore_ascii_case(m)) {
            return Err(format!("--min {m:?}: no such value column (have {value_cols:?})"));
        }
    }
    let directions: Vec<Direction> = value_cols
        .iter()
        .map(|c| {
            if mins.iter().any(|m| m.eq_ignore_ascii_case(c)) {
                Direction::Min
            } else {
                Direction::Max
            }
        })
        .collect();

    let ds = csv.parse(Some(&directions)).map_err(|e| format!("{path}: {e}"))?;
    let opts =
        if flags.has("exact") { AlgoOptions::exact(gamma) } else { AlgoOptions::paper(gamma) };
    let threads: Option<usize> = match flags.get("threads") {
        None => None,
        Some(v) => Some(v.parse().map_err(|_| format!("--threads: invalid value {v:?}"))?),
    };
    let budget: u64 = flags.parse_num("budget", 0u64)?;
    let ctx = if budget == 0 { RunContext::unlimited() } else { RunContext::with_budget(budget) };
    let ckpt_dir = flags.get("checkpoint-dir").map(str::to_string);
    if flags.has("resume") && ckpt_dir.is_none() {
        return Err("--resume requires --checkpoint-dir".to_string());
    }
    if ckpt_dir.is_some() && threads.is_some() {
        return Err("--checkpoint-dir uses the resumable anytime engine; drop --threads".into());
    }
    let trace_path = flags.get("trace").map(str::to_string);
    let metrics_path = flags.get("metrics").map(str::to_string);
    let profile_path = flags.get("profile").map(str::to_string);
    let flight_dir = flags.get("flight").map(str::to_string);
    if flight_dir.is_some()
        && (trace_path.is_some() || metrics_path.is_some() || profile_path.is_some())
    {
        return Err(
            "--flight replaces the full trace recorder; drop --trace/--metrics/--profile".into()
        );
    }
    let recorder = (trace_path.is_some() || metrics_path.is_some() || profile_path.is_some())
        .then(|| Arc::new(TraceRecorder::new()));
    let flight = flight_dir.as_ref().map(|dir| {
        Arc::new(
            FlightRecorder::with_capacity(aggsky_obs::DEFAULT_FLIGHT_CAPACITY).with_dump_dir(dir),
        )
    });
    let ctx = if let Some(f) = &flight {
        ctx.with_recorder(Arc::clone(f) as Arc<dyn aggsky_obs::Recorder>)
    } else if let Some(rec) = &recorder {
        ctx.with_recorder(Arc::clone(rec) as Arc<dyn aggsky_obs::Recorder>)
    } else {
        ctx
    };
    let (outcome, algo_name) = if let Some(dir) = &ckpt_dir {
        let store = crate::core::CheckpointStore::open(std::path::Path::new(dir))
            .map_err(|e| e.to_string())?;
        if !flags.has("resume") {
            // A non-resuming run owns the directory: start it over so stale
            // frames from an earlier dataset cannot be mistaken for ours.
            store.clear().map_err(|e| e.to_string())?;
        }
        let step =
            crate::core::checkpoint_step(&ds, gamma, &ctx, &store).map_err(|e| e.to_string())?;
        let r = &step.result;
        let outcome = if step.is_complete() {
            Outcome::Complete(crate::core::SkylineResult {
                skyline: r.confirmed_in.clone(),
                stats: r.stats,
            })
        } else {
            Outcome::Interrupted {
                reason: step.interrupt.unwrap_or(crate::core::InterruptReason::BudgetExhausted),
                partial: r.clone(),
            }
        };
        let mut name = String::from("ANYTIME(durable");
        match step.resumed_seq {
            Some(seq) => write!(name, ", resumed frame {seq}").unwrap(),
            None => name.push_str(", cold start"),
        }
        if let Some(seq) = step.saved_seq {
            write!(name, ", saved frame {seq}").unwrap();
        }
        if step.frames_skipped > 0 {
            write!(name, ", {} frame(s) skipped", step.frames_skipped).unwrap();
        }
        name.push(')');
        (outcome, name)
    } else {
        match threads {
            Some(t) => (
                parallel_skyline_ctx(&ds, gamma, t, KernelConfig::columnar(), &ctx)
                    .map_err(|e| e.to_string())?,
                format!("PAR({} threads)", resolve_threads(t)),
            ),
            None => (
                algorithm.run_ctx(&ds, opts, &ctx).map_err(|e| e.to_string())?,
                algorithm.short_name().to_string(),
            ),
        }
    };

    let mut out = String::new();
    writeln!(
        out,
        "{} groups, {} records, {} dimensions; gamma = {}, algorithm = {}",
        ds.n_groups(),
        ds.n_records(),
        ds.dim(),
        gamma,
        algo_name
    )
    .unwrap();
    match &outcome {
        Outcome::Complete(result) => {
            writeln!(out, "aggregate skyline ({} groups):", result.skyline.len()).unwrap();
            for label in ds.sorted_labels(&result.skyline) {
                writeln!(out, "  {label}").unwrap();
            }
            writeln!(
                out,
                "({} group pairs compared, {} record pairs checked)",
                result.stats.group_pairs, result.stats.record_pairs
            )
            .unwrap();
        }
        Outcome::Interrupted { reason, partial } => {
            writeln!(
                out,
                "interrupted ({reason}) after {} record pairs",
                partial.stats.record_pairs
            )
            .unwrap();
            writeln!(out, "confirmed skyline members ({} groups):", partial.confirmed_in.len())
                .unwrap();
            for label in ds.sorted_labels(&partial.confirmed_in) {
                writeln!(out, "  {label}").unwrap();
            }
            writeln!(
                out,
                "({} groups confirmed out, {} undecided)",
                partial.confirmed_out.len(),
                partial.undecided.len()
            )
            .unwrap();
        }
    }
    let stats = outcome.stats();
    writeln!(
        out,
        "(blocks: {} full, {} skipped; workers: {} retries, {} quarantined)",
        stats.blocks_full, stats.blocks_skipped, stats.worker_retries, stats.workers_quarantined
    )
    .unwrap();
    if let Some(rec) = &recorder {
        let snapshot = rec.snapshot();
        // Surface the durable-checkpoint counters (core `Stats` has no
        // checkpoint fields — they live only in the metric registry).
        let saves = snapshot.metrics.counter(Counter::CheckpointSaves);
        let loads = snapshot.metrics.counter(Counter::CheckpointLoads);
        let torn = snapshot.metrics.counter(Counter::CheckpointFramesSkipped);
        if saves + loads + torn > 0 {
            let frames = snapshot.metrics.hist(Hist::CheckpointFrameBytes);
            writeln!(
                out,
                "(checkpoints: {saves} saved, {loads} loaded, {torn} torn skipped; frame bytes: \
                 count={} sum={})",
                frames.count, frames.sum
            )
            .unwrap();
        }
        if let Some(path) = &trace_path {
            std::fs::write(path, export_chrome(&snapshot)).map_err(|e| format!("{path}: {e}"))?;
            writeln!(out, "trace written to {path}").unwrap();
        }
        if let Some(path) = &metrics_path {
            std::fs::write(path, export_prometheus(&snapshot.metrics))
                .map_err(|e| format!("{path}: {e}"))?;
            writeln!(out, "metrics written to {path}").unwrap();
        }
        if let Some(path) = &profile_path {
            ProfileSnapshot::from_trace(&snapshot)
                .save(std::path::Path::new(path))
                .map_err(|e| e.to_string())?;
            writeln!(out, "profile written to {path}").unwrap();
        }
    }
    if let (Some(f), Some(dir)) = (&flight, &flight_dir) {
        writeln!(
            out,
            "flight recorder: {} entries retained, {} dump(s) under {dir}",
            f.ring_len(),
            f.dumps().len()
        )
        .unwrap();
    }
    if flags.has("rank") {
        writeln!(out, "\ngroups by minimum qualifying gamma:").unwrap();
        for rg in ranked_skyline(&ds) {
            writeln!(out, "  {:<24} gamma >= {:.3}", ds.label(rg.group), rg.min_gamma.max(0.5))
                .unwrap();
        }
    }
    Ok(out)
}

fn generate_command(args: &[String]) -> Result<String, CliError> {
    let flags = Flags::parse(args, &[])?;
    let dist = match flags.require("dist")? {
        "anti" => Distribution::AntiCorrelated,
        "ind" => Distribution::Independent,
        "corr" => Distribution::Correlated,
        other => return Err(format!("unknown distribution {other:?} (anti|ind|corr)")),
    };
    let records: usize =
        flags.require("records")?.parse().map_err(|_| "--records: invalid number".to_string())?;
    let groups = flags.parse_num("groups", (records / 100).max(1))?;
    let dim = flags.parse_num("dim", 5usize)?;
    let spread = flags.parse_num("spread", 0.2f64)?;
    let seed = flags.parse_num("seed", 42u64)?;
    let group_sizes = match flags.get("zipf") {
        None => GroupSizes::Uniform,
        Some(v) => GroupSizes::Zipf(v.parse().map_err(|_| "--zipf: invalid exponent".to_string())?),
    };
    let cfg = SyntheticConfig {
        n_records: records,
        n_groups: groups,
        dim,
        distribution: dist,
        spread,
        group_sizes,
        seed,
    };
    let ds = cfg.generate();
    let names: Vec<String> = (0..dim).map(|d| format!("d{d}")).collect();
    let name_refs: Vec<&str> = names.iter().map(String::as_str).collect();
    Ok(to_grouped_csv(&ds, "class", &name_refs))
}

fn sql_command(args: &[String]) -> Result<String, CliError> {
    // `--querylog FILE` may appear anywhere; everything else is a script
    // path (`-` = stdin).
    let mut querylog_path: Option<String> = None;
    let mut files: Vec<&String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        if args[i] == "--querylog" {
            let v = args.get(i + 1).ok_or_else(|| "--querylog expects a value".to_string())?;
            querylog_path = Some(v.clone());
            i += 2;
        } else {
            files.push(&args[i]);
            i += 1;
        }
    }
    if files.is_empty() {
        return Err("sql: expected at least one file (or - for stdin)".into());
    }
    let mut db = crate::Database::new();
    let mut out = String::new();
    for path in files {
        let text = if path == "-" {
            use std::io::Read;
            let mut buf = String::new();
            std::io::stdin().read_to_string(&mut buf).map_err(|e| format!("stdin: {e}"))?;
            buf
        } else {
            std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?
        };
        for stmt in aggsky_sql::split_script(&text) {
            let result = db.execute(&stmt).map_err(|e| format!("{e}\n  in: {stmt}"))?;
            out.push_str(&result.to_table());
            out.push('\n');
        }
    }
    if let Some(path) = &querylog_path {
        std::fs::write(path, db.journal().export_jsonl()).map_err(|e| format!("{path}: {e}"))?;
        writeln!(out, "query log ({} statement(s)) written to {path}", db.journal().len()).unwrap();
    }
    Ok(out)
}

/// `aggsky profile diff OLD NEW [--threshold PCT]`: load two persisted
/// profile snapshots and print per-counter / per-span deltas, flagging
/// relative regressions past the threshold.
fn profile_command(args: &[String]) -> Result<String, CliError> {
    match args.first().map(String::as_str) {
        Some("diff") => {
            let old_path = args
                .get(1)
                .filter(|a| !a.starts_with("--"))
                .ok_or_else(|| "profile diff: expected OLD snapshot path".to_string())?;
            let new_path = args
                .get(2)
                .filter(|a| !a.starts_with("--"))
                .ok_or_else(|| "profile diff: expected NEW snapshot path".to_string())?;
            let flags = Flags::parse(&args[3..], &[])?;
            let threshold: u64 = flags.parse_num("threshold", 10u64)?;
            let old =
                ProfileSnapshot::load(std::path::Path::new(old_path)).map_err(|e| e.to_string())?;
            let new =
                ProfileSnapshot::load(std::path::Path::new(new_path)).map_err(|e| e.to_string())?;
            let (text, _regressions) = render_profile_diff(&old, &new, threshold);
            Ok(text)
        }
        _ => Err(format!("profile: expected `diff OLD NEW [--threshold PCT]`\n\n{}", usage())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(args: &[&str]) -> Vec<String> {
        args.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn help_and_unknown_commands() {
        assert!(run_command(&[]).unwrap().contains("USAGE"));
        assert!(run_command(&s(&["help"])).unwrap().contains("USAGE"));
        let err = run_command(&s(&["frobnicate"])).unwrap_err();
        assert!(err.contains("unknown subcommand"));
    }

    #[test]
    fn generate_then_skyline_round_trip() {
        let csv = run_command(&s(&[
            "generate",
            "--dist",
            "ind",
            "--records",
            "300",
            "--groups",
            "6",
            "--dim",
            "3",
            "--seed",
            "7",
        ]))
        .unwrap();
        assert!(csv.starts_with("class,d0,d1,d2"));
        assert_eq!(csv.lines().count(), 301);

        let dir = std::env::temp_dir().join("aggsky_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("gen.csv");
        std::fs::write(&path, &csv).unwrap();
        let out = run_command(&s(&[
            "skyline",
            "--csv",
            path.to_str().unwrap(),
            "--group",
            "class",
            "--rank",
            "--algorithm",
            "LO",
        ]))
        .unwrap();
        assert!(out.contains("6 groups, 300 records, 3 dimensions"));
        assert!(out.contains("aggregate skyline"));
        assert!(out.contains("minimum qualifying gamma"));
    }

    #[test]
    fn skyline_respects_min_columns_and_gamma() {
        let dir = std::env::temp_dir().join("aggsky_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("shops.csv");
        // b is pricier than both of a's offers at no better rating: with
        // price minimized, every a-offer dominates it.
        std::fs::write(&path, "shop,price,rating\na,10,4\na,12,5\nb,30,3\nc,9,2\n").unwrap();
        let out = run_command(&s(&[
            "skyline",
            "--csv",
            path.to_str().unwrap(),
            "--group",
            "shop",
            "--min",
            "price",
            "--exact",
        ]))
        .unwrap();
        assert!(out.contains("  a\n"), "{out}");
        assert!(out.contains("  c\n"), "cheapest shop survives: {out}");
        assert!(!out.contains("  b\n"), "b is beaten on price: {out}");
        // Unknown --min column is rejected.
        let err = run_command(&s(&[
            "skyline",
            "--csv",
            path.to_str().unwrap(),
            "--group",
            "shop",
            "--min",
            "zzz",
        ]))
        .unwrap_err();
        assert!(err.contains("no such value column"));
        // Invalid gamma is rejected.
        let err = run_command(&s(&[
            "skyline",
            "--csv",
            path.to_str().unwrap(),
            "--group",
            "shop",
            "--gamma",
            "0.2",
        ]))
        .unwrap_err();
        assert!(err.contains("asymmetry"), "{err}");
    }

    #[test]
    fn threads_flag_runs_parallel_extension() {
        let dir = std::env::temp_dir().join("aggsky_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("par.csv");
        std::fs::write(&path, "shop,price,rating\na,10,4\na,12,5\nb,30,3\nc,9,2\n").unwrap();
        let base = run_command(&s(&[
            "skyline",
            "--csv",
            path.to_str().unwrap(),
            "--group",
            "shop",
            "--exact",
        ]))
        .unwrap();
        for threads in ["0", "1", "3"] {
            let out = run_command(&s(&[
                "skyline",
                "--csv",
                path.to_str().unwrap(),
                "--group",
                "shop",
                "--threads",
                threads,
            ]))
            .unwrap();
            assert!(out.contains("algorithm = PAR("), "{out}");
            // Same skyline lines as the sequential exact run.
            let members = |text: &str| -> Vec<String> {
                text.lines().filter(|l| l.starts_with("  ")).map(|l| l.trim().to_string()).collect()
            };
            assert_eq!(members(&out), members(&base), "threads={threads}");
        }
        let err = run_command(&s(&[
            "skyline",
            "--csv",
            path.to_str().unwrap(),
            "--group",
            "shop",
            "--threads",
            "x",
        ]))
        .unwrap_err();
        assert!(err.contains("--threads"), "{err}");
    }

    #[test]
    fn checkpoint_dir_persists_and_resume_recovers() {
        let dir = std::env::temp_dir().join("aggsky_cli_ckpt");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let csv = dir.join("data.csv");
        std::fs::write(&csv, "shop,price,rating\na,10,4\na,12,5\nb,30,3\nc,9,2\n").unwrap();
        let frames = dir.join("frames");
        let base = run_command(&s(&[
            "skyline",
            "--csv",
            csv.to_str().unwrap(),
            "--group",
            "shop",
            "--exact",
        ]))
        .unwrap();
        let members = |text: &str| -> Vec<String> {
            text.lines().filter(|l| l.starts_with("  ")).map(|l| l.trim().to_string()).collect()
        };
        let durable = run_command(&s(&[
            "skyline",
            "--csv",
            csv.to_str().unwrap(),
            "--group",
            "shop",
            "--checkpoint-dir",
            frames.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(durable.contains("ANYTIME(durable, cold start, saved frame"), "{durable}");
        assert_eq!(members(&durable), members(&base));
        // Resuming serves the completed partition from the durable frame.
        let resumed = run_command(&s(&[
            "skyline",
            "--csv",
            csv.to_str().unwrap(),
            "--group",
            "shop",
            "--checkpoint-dir",
            frames.to_str().unwrap(),
            "--resume",
        ]))
        .unwrap();
        assert!(resumed.contains("resumed frame"), "{resumed}");
        assert_eq!(members(&resumed), members(&base));
        // Budgeted chunks persist progress and converge across runs: the
        // first chunk starts the directory over, every later one resumes.
        let gen = run_command(&s(&[
            "generate",
            "--dist",
            "anti",
            "--records",
            "200",
            "--groups",
            "8",
            "--dim",
            "3",
            "--seed",
            "9",
        ]))
        .unwrap();
        let big = dir.join("big.csv");
        std::fs::write(&big, &gen).unwrap();
        let big_frames = dir.join("big-frames");
        let exact = run_command(&s(&[
            "skyline",
            "--csv",
            big.to_str().unwrap(),
            "--group",
            "class",
            "--exact",
        ]))
        .unwrap();
        let mut args = vec![
            "skyline",
            "--csv",
            big.to_str().unwrap(),
            "--group",
            "class",
            "--checkpoint-dir",
            big_frames.to_str().unwrap(),
            "--budget",
            "500",
        ];
        let first = run_command(&s(&args)).unwrap();
        assert!(first.contains("interrupted"), "500 ticks should not finish: {first}");
        args.push("--resume");
        let mut rounds = 0;
        let converged = loop {
            let out = run_command(&s(&args)).unwrap();
            if !out.contains("interrupted") {
                break out;
            }
            rounds += 1;
            assert!(rounds < 1000, "durable CLI chain did not converge");
        };
        assert_eq!(members(&converged), members(&exact), "durable chain diverged");
        // Flag validation.
        let err = run_command(&s(&[
            "skyline",
            "--csv",
            csv.to_str().unwrap(),
            "--group",
            "shop",
            "--resume",
        ]))
        .unwrap_err();
        assert!(err.contains("--resume requires --checkpoint-dir"), "{err}");
        let err = run_command(&s(&[
            "skyline",
            "--csv",
            csv.to_str().unwrap(),
            "--group",
            "shop",
            "--checkpoint-dir",
            frames.to_str().unwrap(),
            "--threads",
            "2",
        ]))
        .unwrap_err();
        assert!(err.contains("drop --threads"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn trace_and_metrics_flags_write_valid_exports() {
        let dir = std::env::temp_dir().join("aggsky_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let csv = dir.join("obs.csv");
        std::fs::write(&csv, "shop,price,rating\na,10,4\na,12,5\nb,30,3\nc,9,2\n").unwrap();
        let trace = dir.join("obs_trace.json");
        let prom = dir.join("obs_metrics.prom");
        let out = run_command(&s(&[
            "skyline",
            "--csv",
            csv.to_str().unwrap(),
            "--group",
            "shop",
            "--exact",
            "--trace",
            trace.to_str().unwrap(),
            "--metrics",
            prom.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("trace written to"), "{out}");
        assert!(out.contains("metrics written to"), "{out}");
        assert!(out.contains("blocks:"), "extended stats line missing: {out}");
        assert!(out.contains("workers:"), "extended stats line missing: {out}");
        let trace_text = std::fs::read_to_string(&trace).unwrap();
        assert!(trace_text.starts_with("[\n"), "not a JSON array: {trace_text}");
        assert!(trace_text.contains("\"ph\":\"X\""), "no complete events: {trace_text}");
        let prom_text = std::fs::read_to_string(&prom).unwrap();
        aggsky_obs::validate_prometheus(&prom_text).unwrap();
        assert!(prom_text.contains("aggsky_record_pairs_total"), "{prom_text}");
    }

    #[test]
    fn profile_flag_saves_snapshot_and_diff_flags_regressions() {
        let dir = std::env::temp_dir().join("aggsky_cli_profile");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let small = dir.join("small.csv");
        std::fs::write(&small, "shop,price,rating\na,10,4\na,12,5\nb,30,3\nc,9,2\n").unwrap();
        let gen = run_command(&s(&[
            "generate",
            "--dist",
            "anti",
            "--records",
            "400",
            "--groups",
            "10",
            "--dim",
            "3",
            "--seed",
            "11",
        ]))
        .unwrap();
        let big = dir.join("big.csv");
        std::fs::write(&big, &gen).unwrap();
        let prof_a = dir.join("a.prof");
        let prof_b = dir.join("b.prof");
        let out = run_command(&s(&[
            "skyline",
            "--csv",
            small.to_str().unwrap(),
            "--group",
            "shop",
            "--profile",
            prof_a.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("profile written to"), "{out}");
        run_command(&s(&[
            "skyline",
            "--csv",
            big.to_str().unwrap(),
            "--group",
            "class",
            "--profile",
            prof_b.to_str().unwrap(),
        ]))
        .unwrap();
        // Identical snapshots: zero regressions.
        let same = run_command(&s(&[
            "profile",
            "diff",
            prof_a.to_str().unwrap(),
            prof_a.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(same.contains("regressions: 0"), "{same}");
        // The 400-record anti-correlated run does strictly more pair work:
        // the diff must flag the growth.
        let diff = run_command(&s(&[
            "profile",
            "diff",
            prof_a.to_str().unwrap(),
            prof_b.to_str().unwrap(),
            "--threshold",
            "25",
        ]))
        .unwrap();
        assert!(diff.contains("aggsky_record_pairs_total"), "{diff}");
        assert!(diff.contains("REGRESSION"), "{diff}");
        assert!(!diff.contains("regressions: 0"), "{diff}");
        // Bad invocations.
        assert!(run_command(&s(&["profile"])).unwrap_err().contains("diff OLD NEW"));
        assert!(run_command(&s(&["profile", "diff", "only-one"]))
            .unwrap_err()
            .contains("expected NEW snapshot"));
        let err = run_command(&s(&[
            "profile",
            "diff",
            small.to_str().unwrap(),
            prof_a.to_str().unwrap(),
        ]))
        .unwrap_err();
        assert!(err.contains("corrupt"), "CSV is not a profile: {err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn flight_flag_dumps_on_budget_interrupt() {
        let dir = std::env::temp_dir().join("aggsky_cli_flight");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let gen = run_command(&s(&[
            "generate",
            "--dist",
            "anti",
            "--records",
            "300",
            "--groups",
            "8",
            "--dim",
            "3",
            "--seed",
            "13",
        ]))
        .unwrap();
        let csv = dir.join("data.csv");
        std::fs::write(&csv, &gen).unwrap();
        let dumps = dir.join("dumps");
        let out = run_command(&s(&[
            "skyline",
            "--csv",
            csv.to_str().unwrap(),
            "--group",
            "class",
            "--budget",
            "200",
            "--flight",
            dumps.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("interrupted (budget exhausted)"), "{out}");
        assert!(out.contains("flight recorder:"), "{out}");
        assert!(out.contains("1 dump(s)"), "{out}");
        let dump_path = dumps.join("flight-000-budget_exhausted.json");
        let json = std::fs::read_to_string(&dump_path).unwrap();
        assert!(json.starts_with("[\n"), "dump is a Chrome-trace array: {json}");
        assert!(json.contains("budget_exhausted") || json.contains("\"ph\""), "{json}");
        // --flight excludes the full-trace exports.
        let err = run_command(&s(&[
            "skyline",
            "--csv",
            csv.to_str().unwrap(),
            "--group",
            "class",
            "--flight",
            dumps.to_str().unwrap(),
            "--trace",
            dir.join("t.json").to_str().unwrap(),
        ]))
        .unwrap_err();
        assert!(err.contains("--flight"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sql_querylog_flag_writes_deterministic_jsonl() {
        let dir = std::env::temp_dir().join("aggsky_cli_querylog");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let script = dir.join("script.sql");
        // The blocks of `a` and `b` straddle in both directions: neither
        // corner test decides them, so the skyline compares records and
        // spends ticks (corner-decided block pairs are free).
        std::fs::write(
            &script,
            "CREATE TABLE m (d TEXT, p FLOAT, q FLOAT);\n\
             INSERT INTO m VALUES ('a', 1, 9), ('a', 6, 2), ('b', 5, 5), ('b', 2, 6), ('c', 0, 0);\n\
             SET SLOW_QUERY 1;\n\
             SELECT d FROM m GROUP BY d SKYLINE OF p MAX, q MAX;",
        )
        .unwrap();
        let log = dir.join("queries.jsonl");
        let run = || {
            let out = run_command(&s(&[
                "sql",
                "--querylog",
                log.to_str().unwrap(),
                script.to_str().unwrap(),
            ]))
            .unwrap();
            assert!(out.contains("query log (4 statement(s)) written to"), "{out}");
            std::fs::read_to_string(&log).unwrap()
        };
        let a = run();
        assert_eq!(a, run(), "same script, same query-log bytes");
        assert_eq!(a.lines().count(), 4);
        assert!(a.contains("\"kind\":\"select\""), "{a}");
        assert!(a.contains("\"slow\":true"), "skyline select crosses the 1-tick threshold: {a}");
        assert!(a.contains("skyline(d=2)"), "{a}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sql_script_execution() {
        let dir = std::env::temp_dir().join("aggsky_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("script.sql");
        std::fs::write(
            &path,
            "CREATE TABLE m (d TEXT, p FLOAT, q FLOAT);\n\
             INSERT INTO m VALUES ('x; not a separator', 1, 1), ('b', 5, 5);\n\
             SELECT d FROM m GROUP BY d SKYLINE OF p MAX, q MAX;",
        )
        .unwrap();
        let out = run_command(&s(&["sql", path.to_str().unwrap()])).unwrap();
        assert!(out.contains("| b"), "{out}");
        assert!(!out.contains("not a separator |"), "dominated group filtered: {out}");
    }

    #[test]
    fn flag_parser_errors() {
        assert!(run_command(&s(&["skyline", "positional"])).unwrap_err().contains("unexpected"));
        assert!(run_command(&s(&["skyline", "--csv"])).unwrap_err().contains("expects a value"));
        assert!(run_command(&s(&["skyline", "--csv", "x.csv"]))
            .unwrap_err()
            .contains("missing required flag --group"));
    }

    #[test]
    fn statement_splitting_respects_strings() {
        let stmts = aggsky_sql::split_script("a 'x;y'; b;; c");
        assert_eq!(stmts, vec!["a 'x;y'", "b", "c"]);
    }
}
