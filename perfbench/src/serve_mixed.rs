//! `serve-mixed`: a `SkylineService` and two threads. The writer runs an
//! open loop, applying a seeded stream of batches at a fixed offered rate
//! and persisting once the stream is done; each batch's CPU time is
//! measured, and its wall time from its due time (printed), so a stall also
//! counts against the batches queued behind it. The reader runs a closed
//! loop of `current().query(γ')` at γ' ≠ the service γ. Inserts come from a
//! second dataset drawn with another seed, so the groups drift, Property-2
//! drift intervals cross γ and pairs flush.

use crate::calib::{self, normalise, Calibrator};
use crate::trace::Tracer;
use crate::util::{self, balanced_stream, derive_seed, gamma, ms};
use crate::{Cfg, Report};
use aggsky::core::{
    AlgoOptions, Algorithm, CheckpointStore, DynSkyline, DynamicAggregateSkyline, Epoch,
    Fingerprint, Gamma, GroupId, GroupedDataset, PairCache, PairEntry, PreparedDataset, RunContext,
    SkylineService, Snapshot, Stats, WriteBatch, WriteOp,
};
use aggsky::datagen::{Distribution, GroupSizes, Rng64, SyntheticConfig};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

const SERVICE_GAMMA: f64 = 0.5;
const READ_GAMMAS: [f64; 3] = [0.6, 0.75, 0.9];
/// Offered write rate, batches per second: about half of what the writer
/// sustains beside the reader (39–51 batches/s over its busy time on a
/// 2-vCPU x86-64 host). Each run prints the rate it measured
/// (`sustained_rate`, batches over the writer's busy time) and
/// `writer_utilization`.
pub const WRITE_RATE: f64 = 20.0;
/// The reader keeps every this-many-th read (its epoch and answer) for the
/// checks that run after its segment's timed section.
const CHECK_EVERY: usize = 48;
/// The writer's batches per block: one second of its schedule.
const BLOCK_BATCHES: usize = WRITE_RATE as usize;
/// Segments per run, each serving its own dataset and write stream. The
/// cost of applying a batch varies by dataset (how far the inserted
/// records move each group, so how many pairs flush), and a run averages
/// over eight.
const SEGMENTS: usize = 8;
/// Operations per batch in one block of the writer's stream: about a
/// quarter single operations, the rest spread evenly over 16–64. Far from
/// one half single, so the median falls among the batches, whose flush
/// counting dominates, and not on the ~1 ms single-operation applies.
/// Every block holds these sizes once, shuffled, so a block's apply time
/// depends on the host and the data, not on how many large batches it drew.
fn block_sizes() -> Vec<usize> {
    let singles = BLOCK_BATCHES / 4;
    let spread = BLOCK_BATCHES - singles - 1;
    (0..BLOCK_BATCHES)
        .map(|i| if i < singles { 1 } else { 16 + 48 * (i - singles) / spread })
        .collect()
}

/// Calibration samples taken just before and just after each segment's
/// timed section.
const QUIET_CAL: usize = 25;
/// The traced replay reads once per this many batches.
const TRACED_READ_EVERY: usize = 4;

/// Batches applied untimed at the start of each segment: one whole block,
/// so the timed batches start at a block boundary.
const WARMUP: usize = BLOCK_BATCHES;

fn generate(cfg: &Cfg, tag: u64) -> GroupedDataset {
    let (n_records, n_groups) = if cfg.tiny { (1_200, 12) } else { (12_000, 120) };
    SyntheticConfig {
        n_records,
        n_groups,
        dim: 3,
        distribution: Distribution::Independent,
        spread: 0.6,
        group_sizes: GroupSizes::Uniform,
        seed: derive_seed(cfg.seed, tag),
    }
    .generate()
}

/// The writer's batches, sized by [`block_sizes`]; three inserts (from
/// `pool`) to one delete (of a record live at that point of the stream).
fn write_stream(
    ds: &GroupedDataset,
    pool: &GroupedDataset,
    n: usize,
    rng: &mut Rng64,
) -> Vec<WriteBatch> {
    let mut live: Vec<Vec<Vec<f64>>> =
        ds.group_ids().map(|g| ds.records(g).map(<[f64]>::to_vec).collect()).collect();
    let mut next = vec![0usize; ds.n_groups()];
    balanced_stream(&block_sizes(), n, rng)
        .into_iter()
        .map(|size| {
            let mut batch = WriteBatch::new();
            for _ in 0..size {
                let g = rng.index(ds.n_groups());
                if rng.chance(0.25) && live[g].len() > 1 {
                    let at = rng.index(live[g].len());
                    let rec = live[g].swap_remove(at);
                    batch = batch.delete(ds.label(g), &rec);
                } else {
                    let rec = pool.record(g, next[g] % pool.group_len(g)).to_vec();
                    next[g] += 1;
                    batch = batch.insert(ds.label(g), &rec);
                    live[g].push(rec);
                }
            }
            batch
        })
        .collect()
}

/// Sleeps until shortly before `due`, then spins: waking a sleeping
/// thread can take longer than a single-operation apply, and that delay
/// would be charged to the batch.
fn wait_until(due: Instant) {
    const SPIN: Duration = Duration::from_millis(2);
    if let Some(wait) = due.checked_duration_since(Instant::now() + SPIN) {
        std::thread::sleep(wait);
    }
    while Instant::now() < due {
        std::hint::spin_loop();
    }
}

/// The exact skyline of an epoch at `gamma`, in service group ids.
fn reference_ids(epoch: &Epoch, gamma: Gamma) -> Vec<GroupId> {
    util::reference(epoch.dataset(), gamma).iter().map(|&si| epoch.service_id(si)).collect()
}

/// What the untraced segments measured, pooled over all of them.
#[derive(Default)]
struct Pooled {
    /// Each bootstrap's CPU seconds, and the calibration sample after it.
    setup_cpu_s: Vec<f64>,
    setup_cal: Vec<f64>,
    /// Each timed batch's wall latency from its due time, and the writer
    /// thread's CPU time in `apply` at its segment's reference speed.
    apply_ms: Vec<f64>,
    apply_cpu_ms: Vec<f64>,
    /// The calibration samples bracketing each timed section.
    cal: Vec<f64>,
    lateness_ms: Vec<f64>,
    persist_ms: Vec<f64>,
    /// Each read's wall latency, and the reader thread's CPU time in it at
    /// its segment's reference speed.
    read_ms: Vec<f64>,
    read_cpu_ms: Vec<f64>,
    wall_s: f64,
    /// Time the writer spent inside `apply`, over all timed batches.
    busy_s: f64,
    batches: u64,
    deferred: u64,
    flushed: u64,
    write_errors: u64,
    /// Outcomes of the answer checks: sampled reads, the service-γ skyline
    /// of each sampled read's epoch, and each segment's last epoch.
    checked_reads: Vec<bool>,
    checked_epochs: Vec<bool>,
}

/// The run is [`SEGMENTS`] equal segments, each serving its own dataset and
/// write stream, so the pooled numbers average over several datasets
/// instead of resting on one.
pub fn run(cfg: &Cfg) -> Report {
    let mut report = Report::default();
    let mut pooled = Pooled::default();
    let seconds = cfg.measured_seconds() / SEGMENTS as f64;
    let n_batches = ((WRITE_RATE * seconds) as usize).div_ceil(BLOCK_BATCHES) * BLOCK_BATCHES;
    let mut first = None;
    for k in 0..SEGMENTS as u64 {
        let ds = generate(cfg, 10 + 2 * k);
        let pool = generate(cfg, 11 + 2 * k);
        let batches = write_stream(
            &ds,
            &pool,
            WARMUP + n_batches,
            &mut Rng64::new(derive_seed(cfg.seed, 30 + k)),
        );
        let dir = cfg.scratch().join(format!("persist{k}"));
        if let Err(e) = segment(&ds, &batches, WARMUP, &dir, &mut pooled) {
            report.attempted += 1;
            report.failed += 1;
            report.invalid.push(e);
            return report;
        }
        first.get_or_insert((ds, batches));
    }
    let Pooled { apply_ms, lateness_ms, persist_ms, read_ms, wall_s, .. } = &pooled;
    // CPU times at reference speed (see `calib`): apply over the faster
    // half of the writer's one-second blocks (see `faster_blocks`), reads
    // over the whole run.
    let setup_s = normalise(&pooled.setup_cpu_s, &pooled.setup_cal, usize::MAX);
    let steady_apply = crate::steady_samples(&pooled.apply_cpu_ms, BLOCK_BATCHES);
    let reads = &pooled.read_cpu_ms;
    let reads_per_cpu_s = reads.len() as f64 / (reads.iter().sum::<f64>() / 1e3);
    report.set_e2e(&setup_s, &steady_apply, reads_per_cpu_s);
    report.host_slowdown(&pooled.cal);

    // Every batch and persist is checked for `Err`; reads are counted only
    // where their answers were checked.
    let (reads_ok, epochs_ok) = (&pooled.checked_reads, &pooled.checked_epochs);
    report.attempted =
        pooled.batches + (persist_ms.len() + reads_ok.len() + epochs_ok.len()) as u64;
    report.failed = pooled.write_errors;
    for &ok in reads_ok.iter().chain(epochs_ok) {
        report.check(ok);
    }
    if pooled.flushed == 0 {
        report.invalid.push("no pair flushed: the Property-2 recount path went untimed".into());
    }
    if persist_ms.is_empty() {
        report.invalid.push("no persist ran".into());
    }
    let lateness_p90 = util::quantile(lateness_ms, 0.9);
    if lateness_p90 > 1e3 / WRITE_RATE {
        println!("flag unsteady: the writer ran {lateness_p90:.1} ms behind its schedule at p90");
    }
    let info = &mut report.info;
    info.push(("batches", pooled.batches as f64, "count"));
    info.push(("reads", read_ms.len() as f64, "count"));
    info.push(("checked_reads", reads_ok.len() as f64, "count"));
    info.push(("checked_epochs", epochs_ok.len() as f64, "count"));
    info.push(("offered_rate", WRITE_RATE, "1/s"));
    let sustained = pooled.batches as f64 / pooled.busy_s;
    info.push(("sustained_rate", sustained, "1/s"));
    info.push(("writer_utilization", WRITE_RATE / sustained, "ratio"));
    info.push(("lateness_p50_ms", util::quantile(lateness_ms, 0.5), "ms"));
    info.push(("apply_p50_ms", util::quantile(apply_ms, 0.5), "ms"));
    info.push(("apply_p90_ms", util::quantile(apply_ms, 0.9), "ms"));
    info.push(("read_p50_ms", util::quantile(read_ms, 0.5), "ms"));
    info.push(("read_p90_ms", util::quantile(read_ms, 0.9), "ms"));
    info.push(("reads_per_s", read_ms.len() as f64 / wall_s, "1/s"));
    info.push(("persist_p50_ms", util::median(persist_ms), "ms"));
    info.push(("persists", persist_ms.len() as f64, "count"));
    info.push(("flushed_pairs", pooled.flushed as f64, "count"));
    info.push(("deferred_pairs", pooled.deferred as f64, "count"));
    let l = &mut report.layers;
    l.insert("loadgen.lateness_p90_ms", lateness_p90);
    l.insert("dynamic.deferred_pairs", pooled.deferred as f64);
    l.insert("dynamic.flushed_pairs", pooled.flushed as f64);
    l.insert(
        "dynamic.deferral_rate",
        pooled.deferred as f64 / (pooled.deferred + pooled.flushed).max(1) as f64,
    );
    drop(pooled);

    if let (true, Some((ds, batches))) = (cfg.trace, first) {
        let tr = Tracer::new();
        if let Err(e) = traced(cfg, &ds, &batches, &tr, &mut report) {
            eprintln!("perfbench: traced replay failed: {e}");
            report.failed += 1;
        }
        if let Err(e) = tr.write(&cfg.out, cfg.seed) {
            report.invalid.push(format!("writing the trace failed: {e}"));
        }
    }
    report
}

/// One segment: bootstrap a service from `ds` (timed as set-up; `setup_s`
/// is the median over the run's segments), apply the first `warmup`
/// batches back to back (untimed, so reads meet deferred pairs as they do
/// in steady serving rather than a freshly folded service), then run the
/// open-loop writer over the rest beside the closed-loop reader,
/// persisting once at the end.
fn segment(
    ds: &GroupedDataset,
    batches: &[WriteBatch],
    warmup: usize,
    dir: &std::path::Path,
    m: &mut Pooled,
) -> Result<(), String> {
    let calib = Calibrator::new();
    let c0 = util::thread_cpu_ms();
    let svc = SkylineService::from_dataset(ds, gamma(SERVICE_GAMMA))
        .map_err(|e| format!("bootstrapping the service failed: {e}"))?;
    m.setup_cpu_s.push((util::thread_cpu_ms() - c0) / 1e3);
    m.setup_cal.push(calib.sample());
    let store = CheckpointStore::open(dir)
        .map_err(|e| format!("opening the checkpoint store failed: {e}"))?;
    let (warm, batches) = batches.split_at(warmup);
    for batch in warm {
        svc.apply(batch).map_err(|e| format!("warm-up apply failed: {e}"))?;
    }
    // The segment's reference speed comes from calibration samples taken on
    // this thread while nothing else of the benchmark runs, just before and
    // just after the timed section. Taken beside the reader, they would
    // measure how hard the reader presses on the shared core more than the
    // host's load.
    let mut cal: Vec<f64> = (0..QUIET_CAL).map(|_| calib.sample()).collect();
    let stop = AtomicBool::new(false);
    let start = Instant::now();
    let mut apply_cpu = Vec::new();
    let (kept, read_cpu) = std::thread::scope(|s| {
        let reader = s.spawn(|| {
            let (mut wall, mut cpu) = (Vec::new(), Vec::new());
            let mut kept = Vec::new();
            let mut i = 0usize;
            while !stop.load(Ordering::Acquire) {
                let gi = i % READ_GAMMAS.len();
                let t0 = Instant::now();
                let c0 = util::thread_cpu_ms();
                let epoch = svc.current();
                let answer = epoch.query(gamma(READ_GAMMAS[gi]));
                cpu.push(util::thread_cpu_ms() - c0);
                wall.push(ms(t0.elapsed()));
                if i.is_multiple_of(CHECK_EVERY) {
                    kept.push((epoch, gi, answer));
                }
                i += 1;
            }
            (wall, cpu, kept)
        });
        for (i, batch) in batches.iter().enumerate() {
            let due = start + Duration::from_secs_f64(i as f64 / WRITE_RATE);
            wait_until(due);
            let begin = Instant::now();
            m.lateness_ms.push(ms(begin.saturating_duration_since(due)));
            let c0 = util::thread_cpu_ms();
            let result = svc.apply(batch);
            let c1 = util::thread_cpu_ms();
            let end = Instant::now();
            m.busy_s += (end - begin).as_secs_f64();
            m.apply_ms.push(ms(end.saturating_duration_since(due)));
            apply_cpu.push(c1 - c0);
            match result {
                Ok(receipt) => {
                    m.deferred += receipt.deferred_pairs;
                    m.flushed += receipt.flushed_pairs;
                }
                Err(e) => {
                    eprintln!("perfbench: apply failed: {e}");
                    m.write_errors += 1;
                }
            }
            // One persist per segment, after its last batch: a persist
            // halfway would leave a run's reads split between freshly
            // folded and deferred-heavy epochs, in a share that varies
            // from run to run.
            if i + 1 == batches.len() {
                let t0 = Instant::now();
                if let Err(e) = svc.persist(&store) {
                    eprintln!("perfbench: persist failed: {e}");
                    m.write_errors += 1;
                }
                m.persist_ms.push(ms(t0.elapsed()));
            }
        }
        stop.store(true, Ordering::Release);
        let (wall, cpu, kept) = reader.join().expect("the reader thread does not panic");
        m.read_ms.extend(wall);
        (kept, cpu)
    });
    m.wall_s += start.elapsed().as_secs_f64();
    cal.extend((0..QUIET_CAL).map(|_| calib.sample()));
    let f = calib::factor(&cal);
    m.apply_cpu_ms.extend(apply_cpu.iter().map(|v| v * f));
    m.read_cpu_ms.extend(read_cpu.iter().map(|v| v * f));
    m.cal.extend(cal);
    m.batches += batches.len() as u64;
    let service_gamma = gamma(SERVICE_GAMMA);
    for (epoch, gi, answer) in &kept {
        m.checked_reads.push(*answer == reference_ids(epoch, gamma(READ_GAMMAS[*gi])));
        m.checked_epochs.push(epoch.skyline() == reference_ids(epoch, service_gamma));
    }
    let last = svc.current();
    m.checked_epochs.push(last.skyline() == reference_ids(&last, service_gamma));
    Ok(())
}

/// The writer's state, replayed through the public calls `SkylineService`
/// makes when it bootstraps, applies a batch, publishes an epoch, answers a
/// read and persists.
struct Shadow {
    engine: DynamicAggregateSkyline,
    index: HashMap<String, GroupId>,
    dirty: Vec<bool>,
    /// The last published state; `None` only inside `bootstrap`.
    epoch: Option<ShadowEpoch>,
    skyline: Vec<GroupId>,
}

struct ShadowEpoch {
    snapshot: GroupedDataset,
    mapping: Vec<GroupId>,
    prep: PreparedDataset,
    cache: PairCache,
}

/// The part of `apply` the shadow replays, span by span.
const APPLY_PARTS: [&str; 6] = [
    "dynamic.ops",
    "dynamic.skyline",
    "dynamic.snapshot",
    "prepared.rebuild",
    "prepared.build",
    "paircache.ingest",
];

impl Shadow {
    fn bootstrap(
        ds: &GroupedDataset,
        g: Gamma,
        tr: &Tracer,
    ) -> Result<(Shadow, DynSkyline), String> {
        let engine = tr
            .span("dynamic.ops", || DynamicAggregateSkyline::from_dataset(ds))
            .map_err(|e| e.to_string())?;
        let index = (0..engine.n_groups()).map(|i| (engine.label(i).to_string(), i)).collect();
        let mut shadow = Shadow {
            dirty: vec![false; engine.n_groups()],
            engine,
            index,
            epoch: None,
            skyline: Vec::new(),
        };
        let outcome = shadow.publish(g, tr)?;
        Ok((shadow, outcome))
    }

    fn apply(&mut self, batch: &WriteBatch, tr: &Tracer) -> Result<(), String> {
        tr.span("dynamic.ops", || {
            for op in &batch.ops {
                let g = match op {
                    WriteOp::Insert { group, record } => {
                        let g = match self.index.get(group) {
                            Some(&g) => g,
                            None => {
                                let g = self.engine.add_group(group.as_str());
                                self.index.insert(group.clone(), g);
                                g
                            }
                        };
                        self.engine.insert(g, record).map_err(|e| e.to_string())?;
                        g
                    }
                    WriteOp::Delete { group, record } => {
                        let g = *self.index.get(group).ok_or("delete from an unknown group")?;
                        let idx = self
                            .engine
                            .find_record(g, record)
                            .ok_or("delete of a missing record")?;
                        self.engine.remove(g, idx).map_err(|e| e.to_string())?;
                        g
                    }
                };
                if g >= self.dirty.len() {
                    self.dirty.resize(g + 1, false);
                }
                self.dirty[g] = true;
            }
            Ok(())
        })
    }

    /// Certifies the skyline, snapshots, re-prepares and seeds the read
    /// cache: what publishing an epoch costs.
    fn publish(&mut self, g: Gamma, tr: &Tracer) -> Result<DynSkyline, String> {
        let ctx = RunContext::unlimited();
        let outcome = tr
            .span("dynamic.skyline", || self.engine.skyline_ctx(g, &ctx))
            .map_err(|e| e.to_string())?;
        let (snapshot, mapping) =
            tr.span("dynamic.snapshot", || self.engine.snapshot()).map_err(|e| e.to_string())?;
        let prep = match &self.epoch {
            Some(prev) if prev.mapping == mapping => {
                let dirty: Vec<bool> =
                    mapping.iter().map(|&s| self.dirty.get(s).copied().unwrap_or(true)).collect();
                tr.span("prepared.rebuild", || prev.prep.rebuild_dirty(&snapshot, &dirty))
            }
            _ => tr.span("prepared.build", || {
                PreparedDataset::build(&snapshot, PreparedDataset::DEFAULT_BLOCK_SIZE)
            }),
        }
        .map_err(|e| e.to_string())?;
        let mut cache = PairCache::new();
        tr.span("paircache.ingest", || cache.ingest(&prep, &exact_pairs(&self.engine, &mapping)))
            .map_err(|e| e.to_string())?;
        self.dirty.iter_mut().for_each(|d| *d = false);
        self.skyline = outcome.groups.clone();
        self.epoch = Some(ShadowEpoch { snapshot, mapping, prep, cache });
        Ok(outcome)
    }

    /// A read at `g`: a private copy of the seeded cache, then `IN` with the
    /// paper options over the shared preparation.
    fn query(&self, g: Gamma, tr: &Tracer) -> (Vec<GroupId>, Stats) {
        let e = self.epoch.as_ref().expect("bootstrap publishes the first epoch");
        let mut cache = tr.span("paircache.clone", || e.cache.clone());
        let result = tr.span("service.query", || {
            Algorithm::Indexed
                .run_cached_ctx(
                    &e.snapshot,
                    &e.prep,
                    AlgoOptions::paper(g),
                    &mut cache,
                    &RunContext::unlimited(),
                )
                .unwrap_or_partial()
        });
        (result.skyline.iter().map(|&si| e.mapping[si]).collect(), result.stats)
    }

    /// Folds every deferred delta and saves all exact tallies as one frame.
    fn persist(
        &mut self,
        g: Gamma,
        epoch: u64,
        store: &CheckpointStore,
        tr: &Tracer,
    ) -> Result<u64, String> {
        tr.span("dynamic.flush", || self.engine.flush_ctx(&RunContext::unlimited()))
            .map_err(|e| e.to_string())?;
        let (snapshot, mapping) =
            tr.span("dynamic.snapshot", || self.engine.snapshot()).map_err(|e| e.to_string())?;
        let pairs = exact_pairs(&self.engine, &mapping)
            .into_iter()
            .map(|((lo, hi), tally)| PairEntry { lo, hi, tally })
            .collect();
        let fingerprint = Fingerprint::of(&snapshot, g).with_seed(epoch);
        let receipt = tr
            .span("persist.save", || store.save(&Snapshot { fingerprint, partition: None, pairs }))
            .map_err(|e| e.to_string())?;
        Ok(receipt.bytes)
    }
}

/// The engine's complete tallies between fully folded live groups, in
/// snapshot ids: what an epoch's read cache is seeded with.
fn exact_pairs(
    engine: &DynamicAggregateSkyline,
    mapping: &[GroupId],
) -> Vec<((GroupId, GroupId), aggsky::core::CachedTally)> {
    let mut rev: Vec<Option<GroupId>> = vec![None; engine.n_groups()];
    for (si, &g) in mapping.iter().enumerate() {
        rev[g] = Some(si);
    }
    let mut out: Vec<_> = engine
        .export_tallies()
        .into_iter()
        .filter(|((lo, hi), t)| {
            t.complete()
                && engine.pending_edits(*lo) == (0, 0)
                && engine.pending_edits(*hi) == (0, 0)
        })
        .filter_map(|((lo, hi), t)| Some(((rev[lo]?, rev[hi]?), t)))
        .collect();
    out.sort_unstable_by_key(|&(key, _)| key);
    out
}

/// Replays the writer's stream on a fresh service, one batch at a time,
/// and after each `apply` replays the same batch on the shadow with a span
/// per public call; reads and persists likewise. Every shadow answer must
/// equal the service's.
fn traced(
    cfg: &Cfg,
    ds: &GroupedDataset,
    batches: &[WriteBatch],
    tr: &Tracer,
    report: &mut Report,
) -> Result<(), String> {
    let g = gamma(SERVICE_GAMMA);
    let svc = SkylineService::from_dataset(ds, g).map_err(|e| e.to_string())?;
    let (mut shadow, _) = Shadow::bootstrap(ds, g, tr)?;
    report.attempted += 1;
    report.check(shadow.skyline == svc.current().skyline());
    let user_store =
        CheckpointStore::open(cfg.scratch().join("traced-user")).map_err(|e| e.to_string())?;
    let shadow_store =
        CheckpointStore::open(cfg.scratch().join("traced-shadow")).map_err(|e| e.to_string())?;
    let parts_total = || APPLY_PARTS.iter().map(|p| tr.samples(p).iter().sum::<f64>()).sum::<f64>();
    let (mut self_ms, mut decomposed_ms) = (Vec::new(), Vec::new());
    let (mut frame_bytes, mut saves) = (0u64, 0u64);
    let mut read_stats = Stats::default();
    let mut reads = 0u64;
    let start = Instant::now();
    for (i, batch) in batches.iter().enumerate() {
        if start.elapsed().as_secs_f64() >= cfg.measured_seconds() && i >= 8 {
            break;
        }
        report.attempted += 1;
        let receipt = tr.span("service.apply", || svc.apply(batch)).map_err(|e| e.to_string())?;
        let user = *tr.samples("service.apply").last().unwrap_or(&0.0);
        let before = parts_total();
        let outcome = tr.span("shadow.apply", || -> Result<DynSkyline, String> {
            shadow.apply(batch, tr)?;
            shadow.publish(g, tr)
        })?;
        let parts = parts_total() - before;
        self_ms.push(user - parts);
        decomposed_ms.push(parts);
        report.check(
            shadow.skyline == svc.current().skyline()
                && outcome.deferred_pairs == receipt.deferred_pairs
                && outcome.flushed_pairs == receipt.flushed_pairs,
        );
        if i % TRACED_READ_EVERY == 0 {
            report.attempted += 1;
            reads += 1;
            let rg = gamma(READ_GAMMAS[(i / TRACED_READ_EVERY) % READ_GAMMAS.len()]);
            let user = tr.span("service.read", || svc.current().query(rg));
            let (answer, stats) = shadow.query(rg, tr);
            read_stats.merge(&stats);
            report.check(answer == user);
        }
        if i + 1 == batches.len() / 2 {
            report.attempted += 1;
            tr.span("service.persist", || svc.persist(&user_store)).map_err(|e| e.to_string())?;
            frame_bytes += shadow.persist(g, svc.current().id(), &shadow_store, tr)?;
            saves += 1;
        }
    }
    let n = reads.max(1) as f64;
    let l = &mut report.layers;
    l.insert("dynamic.ops_ms", tr.median_ms("dynamic.ops"));
    l.insert("dynamic.skyline_ms", tr.median_ms("dynamic.skyline"));
    l.insert("dynamic.snapshot_ms", tr.median_ms("dynamic.snapshot"));
    l.insert("prepared.build_ms", tr.median_ms("prepared.build"));
    l.insert("prepared.rebuild_ms", tr.median_ms("prepared.rebuild"));
    l.insert("paircache.ingest_ms", tr.median_ms("paircache.ingest"));
    l.insert("service.apply_self_ms", util::median(&self_ms));
    l.insert("paircache.clone_ms", tr.median_ms("paircache.clone"));
    let lookups = read_stats.cache_hits + read_stats.cache_misses;
    l.insert("paircache.hit_rate", read_stats.cache_hits as f64 / lookups.max(1) as f64);
    l.insert("service.query_ms", tr.median_ms("service.query"));
    let query_ms: f64 = tr.samples("service.query").iter().sum();
    crate::insert_stats(l, &read_stats, n, query_ms);
    l.insert("persist.save_ms", tr.median_ms("persist.save"));
    l.insert("persist.frame_bytes", frame_bytes as f64 / saves.max(1) as f64);
    l.insert(
        "obs.trace_overhead_ratio",
        util::median(&decomposed_ms) / tr.median_ms("service.apply"),
    );
    Ok(())
}
