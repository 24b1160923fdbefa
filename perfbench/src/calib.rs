//! Host-speed calibration.
//!
//! The hosts this benchmark runs on share their physical cores with other
//! tenants. Their load lowers the clock and contends for the core's caches
//! for minutes at a time, which slows every instruction alike; CPU time
//! does not see that (it only drops the time the vCPU was not running). So
//! every workload interleaves a fixed piece of benchmark-owned work with
//! its operations, and quotes each operation's CPU time at reference
//! speed: scaled by how much slower than [`REFERENCE_MS`] that work ran
//! beside it. The work is the benchmark's own code, with its own inputs,
//! so a change to the program cannot speed it up or slow it down.

use crate::util;

/// CPU ms one [`Calibrator::sample`] takes at reference speed: its median
/// on a quiet 2-vCPU x86-64 KVM guest (Xeon, AVX2). Normalised metrics are
/// quoted at this speed.
pub const REFERENCE_MS: f64 = 1.4;

const DIM: usize = 4;
const LEFT: usize = 256;
const RIGHT: usize = 640;

/// A fixed dominance-counting job, shaped like the program's own kernel:
/// every point of one set against every point of another.
pub struct Calibrator {
    left: Vec<[f64; DIM]>,
    right: Vec<[f64; DIM]>,
}

impl Calibrator {
    /// Always the same inputs, whatever the workload seed.
    pub fn new() -> Calibrator {
        let mut state = 0x5EED_CA11_B4A7_E000u64;
        let mut point = || {
            let mut p = [0.0; DIM];
            for v in &mut p {
                // xorshift64*: fixed here, independent of the program's RNG.
                state ^= state >> 12;
                state ^= state << 25;
                state ^= state >> 27;
                let bits = state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11;
                *v = bits as f64 / (1u64 << 53) as f64;
            }
            p
        };
        let left = (0..LEFT).map(|_| point()).collect();
        let right = (0..RIGHT).map(|_| point()).collect();
        Calibrator { left, right }
    }

    /// Runs the job once on the calling thread; returns its CPU time in ms.
    pub fn sample(&self) -> f64 {
        let start = util::thread_cpu_ms();
        let mut count = 0u64;
        for p in std::hint::black_box(&self.left) {
            for q in std::hint::black_box(&self.right) {
                let ge = (0..DIM).all(|k| p[k] >= q[k]);
                let gt = (0..DIM).any(|k| p[k] > q[k]);
                count += u64::from(ge && gt);
            }
        }
        std::hint::black_box(count);
        util::thread_cpu_ms() - start
    }
}

/// `cpu` quoted at reference speed. `cal_ms[i]` is the calibration sample
/// taken right after `cpu[i]`. The samples are scaled in consecutive
/// windows of at least `window` (all of them when there are fewer), each
/// by [`REFERENCE_MS`] over the median of its calibration samples: outside
/// load on these hosts changes over tens of seconds, and a median over a
/// window is not moved by the odd sample that caught a burst on the
/// sibling core.
pub fn normalise(cpu: &[f64], cal_ms: &[f64], window: usize) -> Vec<f64> {
    assert_eq!(cpu.len(), cal_ms.len(), "one calibration sample per measured sample");
    let windows = (cpu.len() / window.max(1)).max(1);
    let bound = |w: usize| w * cpu.len() / windows;
    (0..windows)
        .flat_map(|w| {
            let (lo, hi) = (bound(w), bound(w + 1));
            let f = factor(&cal_ms[lo..hi]);
            cpu[lo..hi].iter().map(move |v| v * f)
        })
        .collect()
}

/// What CPU times measured beside the calibration samples `cal_ms` are
/// multiplied by to quote them at reference speed.
pub fn factor(cal_ms: &[f64]) -> f64 {
    REFERENCE_MS / util::median(cal_ms)
}
