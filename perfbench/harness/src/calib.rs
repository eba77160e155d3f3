//! Host-speed probe: a fixed kernel of the harness's own, independent of
//! the repository's code, timed on [`WORKERS`] threads at once between
//! operations. On a shared host the speed of a vCPU drifts with what
//! else runs on the machine: over minutes it moves between phases in
//! which the same fig5 sweep takes 6.5 s, 9 s or 11 s. Every CPU-bound
//! operation slows in such a phase, and so does the probe, so an
//! operation's time divided by the probe's, times the probe's nominal
//! time, is nearer its time at a fixed host speed.
//!
//! The kernel is branchy integer work on a 256 KiB table per thread: a
//! dispatch on unpredictable opcodes with reads, writes and swaps that
//! stay in the L1/L2 caches. It under-corrects: between phases the
//! simulator's time moved about 1.7 times as far as the probe's on a
//! log scale, so scaling takes out about half of that drift. Variants
//! with dependent loads over 1 or 4 MiB tables tracked the phases no
//! better, and with a busy process on one of the two vCPUs the 4 MiB
//! variant slowed by 80% where the simulator slowed by 37% to 52%.

use crate::common::WORKERS;
use std::time::Instant;

/// Table size in `u32`s (256 KiB).
const TABLE: usize = 1 << 16;
/// Kernel steps per thread per run.
const STEPS: u64 = 1_400_000;
/// Kernel runs per probe. A probe's time is their median, so one run
/// caught by a burst on the host does not move it.
const RUNS: usize = 3;
/// A probe's time at the nominal host speed: about its median on an
/// idle 2-vCPU Xeon host. Operation times are reported at this speed.
pub const NOMINAL_S: f64 = 0.018;
/// A probe is taken after every this many seconds of measured time.
const PROBE_EVERY_S: f64 = 1.0;

/// Measured intervals paired with the host speed around them: a probe
/// opens the first stretch, and after every [`PROBE_EVERY_S`] of
/// measured time another probe closes the stretch and opens the next.
/// A stretch's probe time is the mean of the probes at its two ends.
pub struct HostSpeed {
    probe: Probe,
    last_s: f64,
    pending_s: f64,
    probing_s: f64,
}

impl HostSpeed {
    pub fn new() -> HostSpeed {
        let mut speed = HostSpeed {
            probe: Probe::new(),
            last_s: 0.0,
            pending_s: 0.0,
            probing_s: 0.0,
        };
        speed.last_s = speed.measure();
        speed
    }

    /// Seconds spent probing so far.
    pub fn probing_s(&self) -> f64 {
        self.probing_s
    }

    /// Adds `secs` of measured time. When the stretch is long enough,
    /// probes and returns the closed stretch's probe time.
    pub fn tick(&mut self, secs: f64) -> Option<f64> {
        self.pending_s += secs;
        (self.pending_s >= PROBE_EVERY_S).then(|| self.close())
    }

    /// Closes the open stretch (if it holds any time) and returns its
    /// probe time.
    pub fn finish(&mut self) -> Option<f64> {
        (self.pending_s > 0.0).then(|| self.close())
    }

    fn close(&mut self) -> f64 {
        let now = self.measure();
        let around = (self.last_s + now) / 2.0;
        self.last_s = now;
        self.pending_s = 0.0;
        around
    }

    fn measure(&mut self) -> f64 {
        let t0 = Instant::now();
        let probe_s = self.probe.measure();
        self.probing_s += t0.elapsed().as_secs_f64();
        probe_s
    }
}

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

fn kernel(table: &mut [u32], steps: u64) -> u64 {
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut acc = 0u64;
    for _ in 0..steps {
        let r = xorshift(&mut x);
        let i = (r as usize >> 8) & (TABLE - 1);
        match r >> 61 {
            0..=2 => acc = acc.wrapping_add(u64::from(table[i])),
            3 => table[i] ^= acc as u32,
            4 => acc = acc.rotate_left(7).wrapping_mul(0x2545_f491_4f6c_dd1d),
            5 => {
                if acc & 1 == 0 {
                    acc = acc.wrapping_sub(u64::from(table[i]))
                } else {
                    acc >>= 1
                }
            }
            _ => {
                let j = (i + (acc as usize & 63)) & (TABLE - 1);
                table.swap(i, j);
            }
        }
    }
    acc
}

/// The probe's tables, one per thread, filled once from fixed seeds.
pub struct Probe {
    tables: Vec<Vec<u32>>,
}

impl Probe {
    pub fn new() -> Probe {
        let tables = (0..WORKERS as u64)
            .map(|t| {
                let mut x = (0x5eed + t) | 1;
                (0..TABLE).map(|_| xorshift(&mut x) as u32).collect()
            })
            .collect();
        Probe { tables }
    }

    /// Runs the kernel [`RUNS`] times on every thread at once; returns
    /// the median wall seconds until the last thread finished.
    pub fn measure(&mut self) -> f64 {
        let mut runs = [0.0; RUNS];
        for run in &mut runs {
            let t0 = Instant::now();
            std::thread::scope(|scope| {
                for table in &mut self.tables {
                    scope.spawn(move || std::hint::black_box(kernel(table, STEPS)));
                }
            });
            *run = t0.elapsed().as_secs_f64();
        }
        runs.sort_by(f64::total_cmp);
        runs[RUNS / 2]
    }
}
