//! The two SQL workloads, both closed loops with one client:
//!
//! * `sql-anti-overlap` issues `SELECT g FROM tK GROUP BY g SKYLINE OF …
//!   GAMMA γ` over anticorrelated groups whose boxes overlap, so counting
//!   straddling record pairs dominates each statement;
//! * `sql-durable` runs the same statement under `SET CHECKPOINT` (a fresh
//!   directory per query) and a `SET TIMEOUT` of a few chunks' ticks, and
//!   re-issues it until it completes, resuming from its own frames.

use crate::calib::{normalise, Calibrator};
use crate::trace::Tracer;
use crate::util::{
    self, balanced_stream, derive_seed, gamma, index, ms, rebuild, reference_labels, sorted_labels,
};
use crate::{Cfg, Report, CAL_WINDOW, GAMMAS, GAMMA_MIX};
use aggsky::core::{
    anytime_resume_ctx, anytime_skyline_ctx, AlgoOptions, Algorithm, CheckpointStore, Fingerprint,
    GroupedDataset, RunContext, Snapshot, Stats,
};
use aggsky::datagen::{Distribution, GroupSizes, Rng64, SyntheticConfig};
use aggsky::sql::QueryResult;
use aggsky::Database;
use std::time::Instant;

#[derive(Clone, Copy, PartialEq)]
pub enum Kind {
    AntiOverlap,
    Durable,
}

/// Tables per run, each drawn from its own seed. Per-seed difficulty
/// varies most on the slowest (table, γ) pairs, which set p90, so a run
/// averages over eight.
const TABLES: usize = 8;
/// Loads timed per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;
/// Fewest timed statements per run, so the faster half of its blocks
/// holds over 100 and p90 has ten samples beyond it.
const MIN_SAMPLES: usize = 200;
const ROWS_PER_INSERT: usize = 250;
/// `sql-durable`: the `SET TIMEOUT` budget is a query's total ticks divided
/// by this, so every query takes about this many chunks.
const CHUNKS: u64 = 4;
/// A durable query still unfinished after this many re-issues has failed.
const MAX_CHUNKS: u64 = 1000;

/// One table per dataset seed, `t0`, `t1`, ….
fn datasets(kind: Kind, cfg: &Cfg) -> Vec<GroupedDataset> {
    let (n_records, n_groups, dim, distribution, spread) = match (kind, cfg.tiny) {
        (Kind::AntiOverlap, false) => (5_000, 50, 4, Distribution::AntiCorrelated, 0.4),
        (Kind::AntiOverlap, true) => (600, 6, 4, Distribution::AntiCorrelated, 0.4),
        (Kind::Durable, false) => (12_000, 400, 3, Distribution::Independent, 0.2),
        (Kind::Durable, true) => (900, 30, 3, Distribution::Independent, 0.2),
    };
    (0..TABLES)
        .map(|k| {
            SyntheticConfig {
                n_records,
                n_groups,
                dim,
                distribution,
                spread,
                group_sizes: GroupSizes::Uniform,
                seed: derive_seed(cfg.seed, 10 + k as u64),
            }
            .generate()
        })
        .collect()
}

/// `CREATE TABLE tK (g TEXT, d0 FLOAT, …)` plus the `INSERT` statements
/// that load table `tK` with the rows of `tables[K]`.
fn load_script(tables: &[GroupedDataset]) -> Vec<String> {
    let mut script = Vec::new();
    for (k, ds) in tables.iter().enumerate() {
        let cols: Vec<String> = (0..ds.dim()).map(|d| format!("d{d} FLOAT")).collect();
        script.push(format!("CREATE TABLE t{k} (g TEXT, {})", cols.join(", ")));
        let mut values = Vec::new();
        for g in ds.group_ids() {
            for rec in ds.records(g) {
                let nums: Vec<String> = rec.iter().map(|v| format!("{v:?}")).collect();
                values.push(format!("('{}', {})", ds.label(g), nums.join(", ")));
            }
        }
        for chunk in values.chunks(ROWS_PER_INSERT) {
            script.push(format!("INSERT INTO t{k} VALUES {}", chunk.join(", ")));
        }
    }
    script
}

fn load(script: &[String]) -> Result<Database, String> {
    let mut db = Database::new();
    for stmt in script {
        db.execute(stmt).map_err(|e| e.to_string())?;
    }
    Ok(db)
}

fn skyline_sql(table: usize, dim: usize, g: f64) -> String {
    let dims: Vec<String> = (0..dim).map(|d| format!("d{d} MAX")).collect();
    format!("SELECT g FROM t{table} GROUP BY g SKYLINE OF {} GAMMA {g}", dims.join(", "))
}

fn labels(r: &QueryResult) -> Vec<String> {
    let mut out: Vec<String> = r.rows.iter().map(|row| row[0].to_string()).collect();
    out.sort();
    out
}

/// The user path once: one statement, or one durable query re-issued until
/// it completes.
fn user_op(db: &mut Database, kind: Kind, sql: &str) -> Result<Vec<String>, String> {
    if kind == Kind::AntiOverlap {
        return db.execute(sql).map(|r| labels(&r)).map_err(|e| e.to_string());
    }
    for _ in 0..MAX_CHUNKS {
        let r = db.execute(sql).map_err(|e| e.to_string())?;
        if r.interrupted.is_none() {
            return Ok(labels(&r));
        }
    }
    Err(format!("unfinished after {MAX_CHUNKS} chunks"))
}

/// Makes a fresh checkpoint directory and points the database at it, with
/// the query's tick budget. Not timed.
fn prepare_durable(db: &mut Database, dir: &std::path::Path, ticks: u64) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let dir = dir.to_str().ok_or("checkpoint path is not UTF-8")?;
    db.execute(&format!("SET CHECKPOINT '{dir}'")).map_err(|e| e.to_string())?;
    db.execute(&format!("SET TIMEOUT {ticks}")).map_err(|e| e.to_string())?;
    Ok(())
}

/// Everything a run's operations index into by (table, γ).
struct Plan {
    kind: Kind,
    tables: Vec<GroupedDataset>,
    /// `sqls[table][γ]`.
    sqls: Vec<Vec<String>>,
    /// `sql-durable` tick budgets, `ticks[table][γ]`.
    ticks: Vec<Vec<u64>>,
    /// The operation stream: (table, γ index) pairs.
    stream: Vec<(usize, usize)>,
}

pub fn run(kind: Kind, cfg: &Cfg) -> Report {
    let tables = datasets(kind, cfg);
    let script = load_script(&tables);
    let mut report = Report::default();
    let calib = Calibrator::new();

    let (mut setup_cpu_s, mut setup_cal) = (Vec::new(), Vec::new());
    let mut loaded = Err(String::new());
    for _ in 0..SETUP_REPS {
        let c0 = util::process_cpu_ms();
        loaded = load(&script);
        setup_cpu_s.push((util::process_cpu_ms() - c0) / 1e3);
        setup_cal.push(calib.sample());
    }
    let setup_s = normalise(&setup_cpu_s, &setup_cal, SETUP_REPS);
    let mut db = match loaded {
        Ok(db) => db,
        Err(e) => {
            report.attempted = 1;
            report.failed = 1;
            report.invalid.push(format!("loading the tables failed: {e}"));
            return report;
        }
    };

    let sqls = (0..tables.len())
        .map(|k| GAMMAS.iter().map(|&g| skyline_sql(k, tables[k].dim(), g)).collect())
        .collect();
    // Durable budgets: a few chunks' worth of each query's total ticks,
    // measured here, outside every timed section.
    let ticks = match kind {
        Kind::AntiOverlap => Vec::new(),
        Kind::Durable => tables
            .iter()
            .map(|ds| {
                GAMMAS
                    .iter()
                    .map(|&g| {
                        let total =
                            anytime_skyline_ctx(ds, gamma(g), &RunContext::unlimited()).stats;
                        total.record_pairs / CHUNKS + 1
                    })
                    .collect()
            })
            .collect(),
    };
    let ops: Vec<(usize, usize)> =
        (0..tables.len()).flat_map(|k| GAMMA_MIX.iter().map(move |&gi| (k, gi))).collect();
    let stream = balanced_stream(&ops, 4096, &mut Rng64::new(derive_seed(cfg.seed, 2)));
    let plan = Plan { kind, tables, sqls, ticks, stream };

    // Untraced user path.
    let scratch = cfg.scratch();
    let mut latencies = Vec::new();
    let mut gaps = Vec::new();
    // Each operation's CPU time, and the calibration sample run after it.
    let (mut cpu, mut cal) = (Vec::new(), Vec::new());
    let mut answers: Vec<((usize, usize), Vec<String>)> = Vec::new();
    let start = Instant::now();
    let mut last_end = Instant::now();
    let mut i = 0;
    while crate::keep_going(start, cfg.measured_seconds(), latencies.len(), MIN_SAMPLES) {
        let (k, gi) = plan.stream[i % plan.stream.len()];
        let dir = scratch.join(format!("q{i}"));
        i += 1;
        report.attempted += 1;
        if kind == Kind::Durable {
            if let Err(e) = prepare_durable(&mut db, &dir, plan.ticks[k][gi]) {
                eprintln!("perfbench: {e}");
                report.failed += 1;
                continue;
            }
        }
        let t0 = Instant::now();
        let c0 = util::process_cpu_ms();
        gaps.push(ms(t0 - last_end));
        let result = user_op(&mut db, kind, &plan.sqls[k][gi]);
        let c1 = util::process_cpu_ms();
        let t1 = Instant::now();
        match result {
            Ok(answer) => {
                cpu.push(c1 - c0);
                cal.push(calib.sample());
                latencies.push(ms(t1 - t0));
                answers.push(((k, gi), answer));
            }
            Err(e) => {
                eprintln!("perfbench: {e}");
                report.failed += 1;
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
        last_end = Instant::now();
    }
    let wall = start.elapsed().as_secs_f64();
    report.set_query_e2e(&setup_s, &normalise(&cpu, &cal, CAL_WINDOW), crate::block(TABLES));
    report.host_slowdown(&cal);

    // Exact references, outside every timed section.
    let refs: Vec<Vec<Vec<String>>> = plan
        .tables
        .iter()
        .map(|ds| GAMMAS.iter().map(|&g| reference_labels(ds, gamma(g))).collect())
        .collect();
    for ((k, gi), answer) in &answers {
        report.check(*answer == refs[*k][*gi]);
    }
    let gis: Vec<usize> = answers.iter().map(|((_, gi), _)| *gi).collect();
    report.query_info(&latencies, &gis, wall);
    report.layers.insert("loadgen.lateness_p90_ms", util::quantile(&gaps, 0.9));
    report.layers.insert("sql.load_ms", util::median(&setup_cpu_s) * 1e3);

    if cfg.trace {
        let tr = Tracer::new();
        traced(&plan, cfg, &mut db, &refs, &tr, &mut report);
        let overhead = tr.median_ms("op") / util::median(&latencies);
        report.layers.insert("obs.trace_overhead_ratio", overhead);
        if let Err(e) = tr.write(&cfg.out, cfg.seed) {
            report.invalid.push(format!("writing the trace failed: {e}"));
        }
    }
    report
}

/// The traced replay: each statement decomposed into the public calls the
/// engine makes for it, each call inside its own span. Every decomposed
/// answer must equal the exact reference, as the user path's must.
fn traced(
    plan: &Plan,
    cfg: &Cfg,
    db: &mut Database,
    refs: &[Vec<Vec<String>>],
    tr: &Tracer,
    report: &mut Report,
) {
    let mut stats = Stats::default();
    let mut algo_ms = 0.0;
    let (mut ops, mut chunks, mut saves, mut frame_bytes, mut skipped, mut any_pairs) =
        (0u64, 0u64, 0u64, 0u64, 0u64, 0u64);
    let start = Instant::now();
    while crate::keep_going(start, cfg.measured_seconds(), ops as usize, 8) {
        let (k, gi) = plan.stream[ops as usize % plan.stream.len()];
        let g = gamma(GAMMAS[gi]);
        let dir = cfg.scratch().join(format!("traced{ops}"));
        ops += 1;
        report.attempted += 1;
        let answer = tr.span("op", || -> Result<Vec<String>, String> {
            tr.span("sql.plan", || db.explain(&plan.sqls[k][gi])).map_err(|e| e.to_string())?;
            let groupby = format!("SELECT g FROM t{k} GROUP BY g");
            tr.span("sql.groupby", || db.execute(&groupby)).map_err(|e| e.to_string())?;
            let built = tr.span("dataset.build", || rebuild(&plan.tables[k]))?;
            if plan.kind == Kind::AntiOverlap {
                tr.span("spatial.bulk_load", || index(&built));
                let t = Instant::now();
                let outcome = tr.span("algorithms.run", || {
                    Algorithm::Indexed.run_ctx(
                        &built,
                        AlgoOptions::exact(g),
                        &RunContext::unlimited(),
                    )
                });
                algo_ms += ms(t.elapsed());
                let result = outcome.map_err(|e| e.to_string())?.unwrap_or_partial();
                stats.merge(&result.stats);
                return Ok(sorted_labels(&built, &result.skyline));
            }
            // What each re-issue of a durable statement does: recover the
            // newest frame, advance the anytime engine one budgeted chunk,
            // save the cumulative partition.
            let store = CheckpointStore::open(&dir).map_err(|e| e.to_string())?;
            let fp = Fingerprint::of(&built, g);
            let ctx = RunContext::with_budget(plan.ticks[k][gi]);
            for _ in 0..MAX_CHUNKS {
                let recovery =
                    tr.span("persist.load", || store.load_for(&fp)).map_err(|e| e.to_string())?;
                skipped += recovery.skipped.len() as u64;
                let prev = recovery.snapshot.and_then(|(_, snap)| snap.partition);
                let mut part = tr
                    .span("anytime.step", || match &prev {
                        None => Ok(anytime_skyline_ctx(&built, g, &ctx)),
                        Some(p) => anytime_resume_ctx(&built, g, &ctx, p),
                    })
                    .map_err(|e| e.to_string())?;
                chunks += 1;
                if let Some(p) = &prev {
                    let mut cumulative = p.stats;
                    cumulative.merge(&part.stats);
                    part.stats = cumulative;
                }
                let snap =
                    Snapshot { fingerprint: fp, partition: Some(part.clone()), pairs: Vec::new() };
                let receipt =
                    tr.span("persist.save", || store.save(&snap)).map_err(|e| e.to_string())?;
                saves += 1;
                frame_bytes += receipt.bytes;
                if part.is_complete() {
                    any_pairs += part.stats.record_pairs;
                    return Ok(sorted_labels(&built, &part.confirmed_in));
                }
            }
            Err(format!("unfinished after {MAX_CHUNKS} chunks"))
        });
        let _ = std::fs::remove_dir_all(&dir);
        match answer {
            Ok(answer) => report.check(answer == refs[k][gi]),
            Err(e) => {
                eprintln!("perfbench: {e}");
                report.failed += 1;
            }
        }
    }
    let n = ops as f64;
    let l = &mut report.layers;
    l.insert("sql.plan_us", tr.median_ms("sql.plan") * 1e3);
    l.insert("sql.groupby_ms", tr.median_ms("sql.groupby"));
    l.insert("dataset.build_ms", tr.median_ms("dataset.build"));
    match plan.kind {
        Kind::AntiOverlap => {
            l.insert("spatial.bulk_load_ms", tr.median_ms("spatial.bulk_load"));
            l.insert("algorithms.run_ms", tr.median_ms("algorithms.run"));
            crate::insert_stats(l, &stats, n, algo_ms);
        }
        Kind::Durable => {
            l.insert("persist.load_ms", tr.median_ms("persist.load"));
            l.insert("persist.save_ms", tr.median_ms("persist.save"));
            l.insert("persist.frame_bytes", frame_bytes as f64 / saves.max(1) as f64);
            l.insert("persist.frames_skipped", skipped as f64);
            l.insert("anytime.step_ms", tr.median_ms("anytime.step"));
            l.insert("anytime.chunks_per_query", chunks as f64 / n);
            l.insert("anytime.record_pairs", any_pairs as f64 / n);
        }
    }
}
