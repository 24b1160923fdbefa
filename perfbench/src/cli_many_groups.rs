//! `cli-many-groups`: a closed loop of `aggsky skyline --csv F --group class
//! --gamma γ` commands with the default options, run through
//! `aggsky::cli::run_command`, over CSV files of many small correlated
//! groups. Reading the CSV, building the dataset and indexing the groups
//! weigh as much as counting here, so a kernel-only change should not show.

use crate::calib::{normalise, Calibrator};
use crate::trace::Tracer;
use crate::util::{
    self, balanced_stream, derive_seed, gamma, index, ms, rebuild, reference_labels, sorted_labels,
};
use crate::{Cfg, Report, CAL_WINDOW, DATASETS, GAMMAS, GAMMA_MIX};
use aggsky::core::{AlgoOptions, Algorithm, Direction, GroupedDataset, RunContext, Stats};
use aggsky::datagen::{
    csv_value_columns, parse_grouped_csv, to_grouped_csv, Distribution, GroupSizes, Rng64,
    SyntheticConfig,
};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Set-ups timed per run; `setup_s` is their median. Each takes only
/// ~25 ms, so many are cheap and steady the median.
const SETUP_REPS: usize = 25;
/// Fewest timed commands per run, so the faster half of its blocks holds
/// 100 and p90 has ten samples beyond it.
const MIN_SAMPLES: usize = 200;
const COLUMNS: [&str; 3] = ["d0", "d1", "d2"];

fn args(path: &Path, g: f64) -> Vec<String> {
    let path = path.to_string_lossy().into_owned();
    ["skyline", "--csv", &path, "--group", "class", "--gamma", &g.to_string()]
        .iter()
        .map(|s| s.to_string())
        .collect()
}

/// The skyline labels of a completed `aggsky skyline` run, sorted.
fn parse_answer(out: &str) -> Result<Vec<String>, String> {
    let mut lines = out.lines().skip_while(|l| !l.starts_with("aggregate skyline ("));
    if lines.next().is_none() {
        return Err(format!("no complete skyline in output: {out}"));
    }
    let mut labels: Vec<String> =
        lines.map_while(|l| l.strip_prefix("  ")).map(|l| l.trim().to_string()).collect();
    labels.sort();
    Ok(labels)
}

pub fn run(cfg: &Cfg) -> Report {
    let (n_records, n_groups) = if cfg.tiny { (300, 30) } else { (12_000, 1_200) };
    let datasets: Vec<GroupedDataset> = (0..DATASETS)
        .map(|k| {
            SyntheticConfig {
                n_records,
                n_groups,
                dim: COLUMNS.len(),
                distribution: Distribution::Correlated,
                spread: 0.2,
                group_sizes: GroupSizes::Uniform,
                seed: derive_seed(cfg.seed, 10 + k as u64),
            }
            .generate()
        })
        .collect();
    let paths: Vec<PathBuf> =
        (0..DATASETS).map(|k| cfg.scratch().join(format!("input{k}.csv"))).collect();
    let mut report = Report::default();
    let calib = Calibrator::new();

    // Set-up is rendering the generated datasets as CSV with the program's
    // own writer and storing the files where the command reads them.
    let (mut setup_cpu_s, mut setup_cal) = (Vec::new(), Vec::new());
    for _ in 0..SETUP_REPS {
        let c0 = util::process_cpu_ms();
        for (path, ds) in paths.iter().zip(&datasets) {
            if let Err(e) = std::fs::write(path, to_grouped_csv(ds, "class", &COLUMNS)) {
                report.attempted = 1;
                report.failed = 1;
                report.invalid.push(format!("writing {}: {e}", path.display()));
                return report;
            }
        }
        setup_cpu_s.push((util::process_cpu_ms() - c0) / 1e3);
        setup_cal.push(calib.sample());
    }
    let setup_s = normalise(&setup_cpu_s, &setup_cal, SETUP_REPS);

    let commands: Vec<Vec<Vec<String>>> =
        paths.iter().map(|p| GAMMAS.iter().map(|&g| args(p, g)).collect()).collect();
    let ops: Vec<(usize, usize)> =
        (0..DATASETS).flat_map(|k| GAMMA_MIX.iter().map(move |&gi| (k, gi))).collect();
    let stream = balanced_stream(&ops, 4096, &mut Rng64::new(derive_seed(cfg.seed, 2)));

    let mut latencies = Vec::new();
    let mut gaps = Vec::new();
    // Each command's CPU time, and the calibration sample run after it.
    let (mut cpu, mut cal) = (Vec::new(), Vec::new());
    let mut answers: Vec<((usize, usize), Vec<String>)> = Vec::new();
    let start = Instant::now();
    let mut last_end = Instant::now();
    let mut i = 0;
    while crate::keep_going(start, cfg.measured_seconds(), latencies.len(), MIN_SAMPLES) {
        let (k, gi) = stream[i % stream.len()];
        i += 1;
        report.attempted += 1;
        let t0 = Instant::now();
        let c0 = util::process_cpu_ms();
        gaps.push(ms(t0 - last_end));
        let out = aggsky::cli::run_command(&commands[k][gi]);
        let c1 = util::process_cpu_ms();
        let t1 = Instant::now();
        match out.and_then(|text| parse_answer(&text)) {
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
        last_end = Instant::now();
    }
    let wall = start.elapsed().as_secs_f64();
    report.set_query_e2e(&setup_s, &normalise(&cpu, &cal, CAL_WINDOW), crate::block(DATASETS));
    report.host_slowdown(&cal);

    let refs: Vec<Vec<Vec<String>>> = datasets
        .iter()
        .map(|ds| GAMMAS.iter().map(|&g| reference_labels(ds, gamma(g))).collect())
        .collect();
    for ((k, gi), answer) in &answers {
        report.check(*answer == refs[*k][*gi]);
    }
    let gis: Vec<usize> = answers.iter().map(|((_, gi), _)| *gi).collect();
    report.query_info(&latencies, &gis, wall);
    report.layers.insert("loadgen.lateness_p90_ms", util::quantile(&gaps, 0.9));

    if cfg.trace {
        let tr = Tracer::new();
        traced(cfg, &paths, &stream, &refs, &tr, &mut report);
        report
            .layers
            .insert("obs.trace_overhead_ratio", tr.median_ms("op") / util::median(&latencies));
        if let Err(e) = tr.write(&cfg.out, cfg.seed) {
            report.invalid.push(format!("writing the trace failed: {e}"));
        }
    }
    report
}

/// The traced replay of each command through the public calls it makes:
/// read the file, parse the CSV (which builds the dataset), index the
/// groups and run `IN` with the paper options.
fn traced(
    cfg: &Cfg,
    paths: &[PathBuf],
    stream: &[(usize, usize)],
    refs: &[Vec<Vec<String>>],
    tr: &Tracer,
    report: &mut Report,
) {
    let mut stats = Stats::default();
    let mut algo_ms = 0.0;
    let mut ops = 0usize;
    let start = Instant::now();
    while crate::keep_going(start, cfg.measured_seconds(), ops, 8) {
        let (k, gi) = stream[ops % stream.len()];
        ops += 1;
        report.attempted += 1;
        let answer = tr.span("op", || -> Result<Vec<String>, String> {
            let text = tr
                .span("cli.read", || std::fs::read_to_string(&paths[k]))
                .map_err(|e| e.to_string())?;
            let ds = tr
                .span("csv.parse", || {
                    let cols = csv_value_columns(&text, "class")?;
                    parse_grouped_csv(&text, "class", Some(&vec![Direction::Max; cols.len()]))
                })
                .map_err(|e| e.to_string())?;
            tr.span("dataset.build", || rebuild(&ds))?;
            tr.span("spatial.bulk_load", || index(&ds));
            let t = Instant::now();
            let opts = AlgoOptions::paper(gamma(GAMMAS[gi]));
            let outcome = tr.span("algorithms.run", || {
                Algorithm::Indexed.run_ctx(&ds, opts, &RunContext::unlimited())
            });
            algo_ms += ms(t.elapsed());
            let result = outcome.map_err(|e| e.to_string())?.unwrap_or_partial();
            stats.merge(&result.stats);
            Ok(sorted_labels(&ds, &result.skyline))
        });
        match answer {
            Ok(answer) => report.check(answer == refs[k][gi]),
            Err(e) => {
                eprintln!("perfbench: {e}");
                report.failed += 1;
            }
        }
    }
    let l = &mut report.layers;
    l.insert("csv.parse_ms", tr.median_ms("csv.parse"));
    l.insert("dataset.build_ms", tr.median_ms("dataset.build"));
    l.insert("spatial.bulk_load_ms", tr.median_ms("spatial.bulk_load"));
    l.insert("algorithms.run_ms", tr.median_ms("algorithms.run"));
    crate::insert_stats(l, &stats, ops as f64, algo_ms);
}
