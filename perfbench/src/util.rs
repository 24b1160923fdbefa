//! Small helpers shared by the workloads: quantiles, seeds, CPU clocks,
//! memory.

use aggsky::core::{
    AlgoOptions, Algorithm, Gamma, GroupId, GroupedDataset, GroupedDatasetBuilder, Mbb,
};
use aggsky::datagen::rng::splitmix64;
use aggsky::datagen::Rng64;
use aggsky::spatial::{Aabb, RTree};
use std::time::Duration;

/// Linear-interpolated quantile of `samples` (`q` in `[0, 1]`); 0 when empty.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// `struct timespec` of the Linux C library (`time_t` and `long` are both
/// the platform's `long` on Linux).
#[repr(C)]
struct Timespec {
    tv_sec: std::ffi::c_long,
    tv_nsec: std::ffi::c_long,
}

extern "C" {
    fn clock_gettime(clock: std::ffi::c_int, ts: *mut Timespec) -> std::ffi::c_int;
}

/// Linux `CLOCK_PROCESS_CPUTIME_ID` and `CLOCK_THREAD_CPUTIME_ID`.
const CLOCK_PROCESS_CPUTIME: i32 = 2;
const CLOCK_THREAD_CPUTIME: i32 = 3;

fn cpu_ms(clock: i32) -> f64 {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec and the clock id is one
    // Linux defines, so the call only writes into `ts`.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as f64 * 1e3 + ts.tv_nsec as f64 / 1e6
}

/// CPU time all threads of this process have run, in ms. Unlike wall time
/// it leaves out the time the process waited for a CPU, including the time
/// the hypervisor gave the vCPU to another guest (steal) where the kernel
/// accounts for it.
pub fn process_cpu_ms() -> f64 {
    cpu_ms(CLOCK_PROCESS_CPUTIME)
}

/// CPU time the calling thread has run, in ms; see [`process_cpu_ms`].
pub fn thread_cpu_ms() -> f64 {
    cpu_ms(CLOCK_THREAD_CPUTIME)
}

/// Jiffies the host has taken from this machine's vCPUs (the `steal`
/// column of `/proc/stat`), 0 where it is not reported.
pub fn steal_jiffies() -> u64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    stat.lines()
        .next()
        .and_then(|cpu| cpu.split_whitespace().nth(8))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// An independent stream seed for one purpose (`tag`) of a workload seed.
pub fn derive_seed(seed: u64, tag: u64) -> u64 {
    let mut state = seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    splitmix64(&mut state)
}

/// `n` picks from `items` in blocks that hold every item once, each block
/// shuffled: the mix is identical for every seed, only the order varies.
pub fn balanced_stream<T: Copy>(items: &[T], n: usize, rng: &mut Rng64) -> Vec<T> {
    let mut out = Vec::with_capacity(n + items.len());
    while out.len() < n {
        let mut block = items.to_vec();
        for i in (1..block.len()).rev() {
            block.swap(i, rng.index(i + 1));
        }
        out.extend(block);
    }
    out.truncate(n);
    out
}

/// The exact aggregate skyline, computed with the nested loop under exact
/// pruning (pinned to the naive oracle by the repository's differential
/// suites).
pub fn reference(ds: &GroupedDataset, gamma: Gamma) -> Vec<GroupId> {
    Algorithm::NestedLoop
        .run_with(ds, AlgoOptions::exact(gamma))
        .expect("the exhaustive kernel needs no configuration")
        .skyline
}

/// [`reference`] as sorted labels.
pub fn reference_labels(ds: &GroupedDataset, gamma: Gamma) -> Vec<String> {
    sorted_labels(ds, &reference(ds, gamma))
}

pub fn sorted_labels(ds: &GroupedDataset, groups: &[GroupId]) -> Vec<String> {
    ds.sorted_labels(groups).into_iter().map(str::to_string).collect()
}

/// Peak resident set size of this process (VmHWM), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn gamma(v: f64) -> Gamma {
    Gamma::new(v).expect("benchmark gammas lie in [0.5, 1]")
}

/// Rebuilds `ds` group by group through `GroupedDatasetBuilder`: the step the
/// SQL engine and the CSV reader both end with.
pub fn rebuild(ds: &GroupedDataset) -> Result<GroupedDataset, String> {
    let mut b = GroupedDatasetBuilder::new(ds.dim()).trusted_labels();
    for g in ds.group_ids() {
        let rows: Vec<&[f64]> = ds.records(g).collect();
        b.push_group(ds.label(g), &rows).map_err(|e| e.to_string())?;
    }
    b.build().map_err(|e| e.to_string())
}

/// The window-query index `IN` builds over group maximum corners.
pub fn index(ds: &GroupedDataset) -> RTree<usize> {
    let boxes = Mbb::of_all_groups(ds);
    RTree::bulk_load(
        ds.dim(),
        boxes.iter().enumerate().map(|(g, b)| (Aabb::point(&b.max), g)).collect(),
    )
}
