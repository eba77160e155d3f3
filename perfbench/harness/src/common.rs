//! Shared pieces of every workload: run configuration, the timed loop,
//! output checks, process statistics and reference files.

use crate::calib::{self, HostSpeed};
use crate::sha256;
use crate::trace::Tracer;
use condspec_stats::SplitMix64;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Engine workers every workload uses (the load generator never
/// exceeds two workers and one client connection).
pub const WORKERS: usize = 2;

/// Each run sets up in two blocks, one before the timed phase and one
/// after it, each repeating the set-up at least this many times and for
/// at least [`SETUP_SECONDS`]; `setup_s` is the median of both blocks.
/// Set-ups take 10 to 150 ms, so a few samples would carry the host's
/// short bursts, and one block catches only the host-speed phase of its
/// second (see [`calib`]).
pub const SETUP_REPEATS: usize = 5;
pub const SETUP_SECONDS: f64 = 1.0;

pub struct RunConfig {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Work directory for run roots and stores; the span file goes beside it.
    pub work: PathBuf,
    /// Directory of committed reference outputs.
    pub refs: PathBuf,
}

/// Counts checked outputs and mismatches.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub first_failures: Vec<String>,
}

impl Tally {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.first_failures.len() < 8 {
                self.first_failures.push(what());
            }
        }
    }
}

/// One timed operation (or set-up).
#[derive(Debug, Clone, Copy)]
pub struct OpSample {
    pub secs: f64,
    pub jobs: u64,
    pub cpu_s: f64,
    /// The host-speed probe's time around this sample (see [`calib`]).
    pub probe_s: f64,
}

impl OpSample {
    /// The sample's time at the nominal host speed.
    pub fn nominal_s(&self) -> f64 {
        self.secs * calib::NOMINAL_S / self.probe_s
    }
}

/// Gives every sample from `*from` on the probe time `around`, when a
/// stretch was closed.
fn settle(samples: &mut [OpSample], from: &mut usize, around: Option<f64>) {
    if let Some(around) = around {
        for s in &mut samples[*from..] {
            s.probe_s = around;
        }
        *from = samples.len();
    }
}

/// What a workload run hands back for reporting.
pub struct Outcome {
    /// Untraced operations (the end-to-end figures).
    pub ops: Vec<OpSample>,
    /// Traced operations (trace mode only), paired with `ops`.
    pub traced_ops: Vec<OpSample>,
    pub setups: Vec<OpSample>,
    /// Whether the end-to-end operation times are scaled to the nominal
    /// host speed; false where an operation mostly waits on a timer (see
    /// [`calib`]).
    pub host_scaled: bool,
    pub tally: Tally,
    /// Workload-specific per-layer values not derived from spans.
    pub layers: BTreeMap<&'static str, f64>,
    /// Extra end-user figures printed in the summary line.
    pub notes: BTreeMap<&'static str, f64>,
    /// Most threads alive at once during the timed phase beside the
    /// fewest alive (see [`timed_loop`]).
    pub threads: u64,
    /// Most client connections open at once.
    pub clients: u64,
}

impl Outcome {
    /// An operation's end-to-end time: at the nominal host speed where
    /// the workload is host-scaled, otherwise as measured.
    pub fn op_s(&self, sample: &OpSample) -> f64 {
        if self.host_scaled {
            sample.nominal_s()
        } else {
            sample.secs
        }
    }
}

/// Runs `op` until `seconds` of measured and probing time would be
/// exceeded (at least once), the next operation's time estimated as the
/// median so far. About once a second the host-speed probe runs between
/// operations (see [`calib`]), and each sample records the probe time
/// around it. With tracing on, every operation runs twice — untraced, then
/// traced on the same input — and both samples are kept.
///
/// `op(index, traced)` returns the number of jobs the operation
/// completed and its outputs; `after(index, traced, outputs)` runs
/// untimed after every operation to check the outputs and reset state.
///
/// Returns the untraced and traced samples, and the most threads alive
/// at once beside the fewest alive, as a sampler thread reading the
/// process's thread count every 2 ms saw them. Engine pools spawn their
/// workers per call, so the figure is the pool size, plus for the
/// daemon its connection and submission threads, plus the workers of
/// the previous pool while they exit: a scope returns once its threads'
/// closures are done, and under CPU contention their teardown can take
/// milliseconds more.
pub fn timed_loop<T>(
    cfg: &RunConfig,
    op: impl FnMut(usize, bool) -> Result<(u64, T), String>,
    after: impl FnMut(usize, bool, T) -> Result<(), String>,
) -> Result<(Vec<OpSample>, Vec<OpSample>, u64), String> {
    let stop = AtomicBool::new(false);
    let (samples, (low, high)) = std::thread::scope(|scope| {
        let sampler = scope.spawn(|| {
            let (mut low, mut high) = (u64::MAX, 0);
            while !stop.load(Ordering::Relaxed) {
                let now = thread_count();
                low = low.min(now);
                high = high.max(now);
                std::thread::sleep(Duration::from_millis(2));
            }
            (low, high)
        });
        let samples = run_ops(cfg, op, after);
        stop.store(true, Ordering::Relaxed);
        let counts = sampler.join().expect("the thread sampler does not panic");
        (samples, counts)
    });
    let (plain, traced) = samples?;
    Ok((plain, traced, high.saturating_sub(low)))
}

fn run_ops<T>(
    cfg: &RunConfig,
    mut op: impl FnMut(usize, bool) -> Result<(u64, T), String>,
    mut after: impl FnMut(usize, bool, T) -> Result<(), String>,
) -> Result<(Vec<OpSample>, Vec<OpSample>), String> {
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    let (mut plain_from, mut traced_from) = (0, 0);
    let mut speed = HostSpeed::new();
    let mut spent = 0.0;
    let mut index = 0usize;
    loop {
        if index > 0 {
            let next = median(&plain.iter().map(|s: &OpSample| s.secs).collect::<Vec<_>>())
                * if cfg.trace { 2.0 } else { 1.0 };
            if spent + speed.probing_s() + next > cfg.seconds {
                break;
            }
        }
        for traced_pass in [false, true] {
            if traced_pass && !cfg.trace {
                continue;
            }
            let cpu0 = cpu_seconds();
            let t0 = Instant::now();
            let (jobs, outputs) = op(index, traced_pass)?;
            let secs = t0.elapsed().as_secs_f64();
            let sample = OpSample {
                secs,
                jobs,
                cpu_s: cpu_seconds() - cpu0,
                probe_s: 0.0,
            };
            spent += secs;
            after(index, traced_pass, outputs)?;
            if traced_pass {
                traced.push(sample);
            } else {
                plain.push(sample);
            }
        }
        index += 1;
        let around = speed.tick(plain[plain.len() - 1].secs);
        settle(&mut plain, &mut plain_from, around);
        settle(&mut traced, &mut traced_from, around);
    }
    let around = speed.finish();
    settle(&mut plain, &mut plain_from, around);
    settle(&mut traced, &mut traced_from, around);
    Ok((plain, traced))
}

/// Times one block of set-ups (see [`SETUP_REPEATS`]) and returns the samples, each
/// with the host-speed probe around it, plus the last set-up's state
/// (earlier states are dropped first). Each set-up starts from an empty
/// `work` directory; clearing the previous set-up's directory is not
/// timed, since a first run has nothing to clear.
pub fn repeat_setup<S>(
    work: &Path,
    mut setup: impl FnMut() -> Result<S, String>,
) -> Result<(Vec<OpSample>, S), String> {
    let mut samples: Vec<OpSample> = Vec::new();
    let mut from = 0;
    let mut speed = HostSpeed::new();
    let mut last = None;
    let mut total = 0.0;
    while samples.len() < SETUP_REPEATS || total < SETUP_SECONDS {
        drop(last.take());
        if work.exists() {
            std::fs::remove_dir_all(work)
                .map_err(|e| format!("clearing {}: {e}", work.display()))?;
        }
        let cpu0 = cpu_seconds();
        let t0 = Instant::now();
        std::fs::create_dir_all(work).map_err(|e| format!("creating {}: {e}", work.display()))?;
        let state = setup()?;
        let secs = t0.elapsed().as_secs_f64();
        total += secs;
        samples.push(OpSample {
            secs,
            jobs: 0,
            cpu_s: cpu_seconds() - cpu0,
            probe_s: 0.0,
        });
        last = Some(state);
        let around = speed.tick(secs);
        settle(&mut samples, &mut from, around);
    }
    let around = speed.finish();
    settle(&mut samples, &mut from, around);
    Ok((samples, last.expect("at least one set-up")))
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile (0 for an empty slice).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Figures of the untraced operations too noisy on a shared host to be
/// bounded end-to-end metrics: the 90th-percentile operation time (as
/// [`Outcome::op_s`] gives it; only meaningful with many operations per run), the
/// process CPU time per job (daemon threads included), and the peak
/// resident memory, which glibc's per-thread malloc arenas make jump by
/// whole arena heaps with the timing of thread exits. Also the raw wall
/// time of the median operation and the median host-speed probe, from
/// which the nominal figures are scaled.
pub fn host_figures(outcome: &Outcome) -> BTreeMap<&'static str, f64> {
    let ops = &outcome.ops;
    let nominal: Vec<f64> = ops.iter().map(|s| outcome.op_s(s) * 1e3).collect();
    let wall: Vec<f64> = ops.iter().map(|s| s.secs * 1e3).collect();
    let probes: Vec<f64> = ops.iter().map(|s| s.probe_s * 1e3).collect();
    let jobs: u64 = ops.iter().map(|s| s.jobs).sum();
    let cpu: f64 = ops.iter().map(|s| s.cpu_s).sum();
    BTreeMap::from([
        ("host.op_p90_ms", quantile(&nominal, 0.9)),
        ("host.cpu_ms_per_job", cpu * 1e3 / jobs.max(1) as f64),
        ("host.peak_rss_mb", peak_rss_mib()),
        ("host.wall_op_p50_ms", median(&wall)),
        ("host.probe_ms", median(&probes)),
    ])
}

/// The fields of `/proc/self/stat` after the parenthesised command
/// name, as numbers (a non-numeric field reads 0; empty without `/proc`).
fn self_stat() -> Vec<u64> {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return Vec::new();
    };
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    rest.split_whitespace()
        .map(|f| f.parse().unwrap_or(0))
        .collect()
}

/// User+system CPU seconds of this process, all threads included.
pub fn cpu_seconds() -> f64 {
    // utime and stime are fields 14 and 15 of the full line, in clock
    // ticks (100 Hz).
    let fields = self_stat();
    let ticks = |i: usize| fields.get(i).copied().unwrap_or(0);
    (ticks(11) + ticks(12)) as f64 / 100.0
}

/// Threads of this process (field 20 of the full line).
fn thread_count() -> u64 {
    self_stat().get(17).copied().unwrap_or(0)
}

/// Peak resident memory of this process in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Fisher–Yates shuffle driven by the workload seed.
pub fn shuffle<T>(items: &mut [T], rng: &mut SplitMix64) {
    for i in (1..items.len()).rev() {
        let j = rng.gen_usize(0, i + 1);
        items.swap(i, j);
    }
}

/// Removes and recreates `dir`.
pub fn fresh_dir(dir: &Path) -> Result<(), String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("clearing {}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))
}

/// Loads a `<name> <sha256>` reference list.
pub fn load_digests(path: &Path) -> Result<BTreeMap<String, String>, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    Ok(text
        .lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .filter_map(|l| {
            let (name, digest) = l.split_once(' ')?;
            Some((name.to_string(), digest.trim().to_string()))
        })
        .collect())
}

/// Digests of every `<hash>.json` job artifact in a sweep directory.
pub fn artifact_digests(dir: &Path) -> BTreeMap<String, String> {
    let mut out = BTreeMap::new();
    if let Ok(entries) = std::fs::read_dir(dir) {
        for entry in entries.flatten() {
            let name = entry.file_name().to_string_lossy().into_owned();
            if name.ends_with(".json") && name != "manifest.json" {
                if let Ok(bytes) = std::fs::read(entry.path()) {
                    out.insert(name, sha256::hex(&bytes));
                }
            }
        }
    }
    out
}

/// Checks one sweep directory against reference digests: one check per
/// reference artifact, plus one for any unexpected extra artifact.
pub fn check_digests(
    tally: &mut Tally,
    what: &str,
    got: &BTreeMap<String, String>,
    want: &BTreeMap<String, String>,
) {
    for (name, digest) in want {
        tally.check(got.get(name) == Some(digest), || {
            format!("{what}: artifact {name} missing or differs from the reference")
        });
    }
    let extra = got.keys().filter(|k| !want.contains_key(*k)).count();
    tally.check(extra == 0, || {
        format!("{what}: {extra} unexpected artifacts")
    });
}

/// Byte-compares every file of two directories (traced vs untraced).
pub fn check_same_files(tally: &mut Tally, what: &str, a: &Path, b: &Path) {
    let list = |d: &Path| -> BTreeMap<String, Vec<u8>> {
        std::fs::read_dir(d)
            .map(|it| {
                it.flatten()
                    .filter_map(|e| {
                        let name = e.file_name().to_string_lossy().into_owned();
                        std::fs::read(e.path()).ok().map(|bytes| (name, bytes))
                    })
                    .collect()
            })
            .unwrap_or_default()
    };
    let (fa, fb) = (list(a), list(b));
    tally.check(!fa.is_empty() && fa == fb, || {
        format!(
            "{what}: traced artifacts differ from untraced ({} vs {} files)",
            fa.len(),
            fb.len()
        )
    });
}

/// A tracer for this run; its id ties the span file to the run.
pub fn tracer(cfg: &RunConfig, workload: &str) -> Tracer {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos() as u64);
    Tracer::new(
        cfg.trace,
        format!(
            "{workload}-s{}-{:016x}",
            cfg.seed,
            condspec_stats::fnv1a64(format!("{nanos}-{}", std::process::id()).as_bytes())
        ),
    )
}
