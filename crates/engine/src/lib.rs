//! `condspec-engine` — the parallel sweep-execution subsystem of the
//! Conditional Speculation reproduction.
//!
//! The paper's evaluation is a few hundred independent simulations
//! (benchmark x defense x machine grids, attack matrices). This crate
//! turns each of them into a content-hashed [`JobSpec`], schedules the
//! jobs across a `std::thread` worker pool with per-job panic
//! isolation, and persists every result as a JSON artifact under
//! `target/condspec-runs/<sweep-id>/` so an interrupted sweep resumes
//! where it stopped.
//!
//! On top of the per-run artifact directory sits the *persistent result
//! store* (`condspec-store`): a content-addressed cache shared across
//! runs, sweeps, and processes. When [`SweepOptions::store`] is set,
//! workers consult the store before simulating and insert every fresh
//! success, so re-running a sweep against a warm store simulates zero
//! jobs — and still writes the full artifact directory, byte-identical
//! to a cold run. The two cache layers are independently observable:
//! the in-memory program cache reports `program-cache: ...` and the
//! persistent store `result-store: ...` at the end of a run.
//!
//! Determinism is the design center: artifacts contain only simulation
//! results (never wall-clock data), workers communicate results by job
//! index, and sweep ids derive from job content — so a sweep's on-disk
//! output is byte-identical whether it ran on one worker or sixteen,
//! fresh or resumed, simulated or served from the store.
//!
//! ```no_run
//! use condspec_engine::{run_sweep, Sweep, SweepOptions};
//!
//! let sweep = Sweep::by_name("fig5").expect("known sweep");
//! let outcome = run_sweep(&sweep, &SweepOptions::default()).expect("sweep runs");
//! println!("{}", sweep.render(&outcome.results));
//! ```

pub mod artifact;
pub mod cache;
pub mod hash;
pub mod job;
pub mod sampled;
pub mod scheduler;
pub mod sweep;
pub mod telemetry;

pub use artifact::{JobSource, JobStatus, ManifestInfo, SweepDir, DEFAULT_ROOT};
pub use cache::{ProgramCache, WorkerContext};
pub use condspec_store::ResultStore;
pub use job::{JobSpec, MachinePreset, Workload};
pub use sampled::{run_sampled_bench, SampledBenchOutcome, SampledBenchSpec};
pub use scheduler::{
    default_workers, run_jobs_claimed, run_jobs_stored, ClaimOptions, ClaimedJob, JobResult,
    JobTiming,
};
pub use sweep::{Sweep, SweepResults};
pub use telemetry::SweepTelemetry;

use condspec_stats::Json;
use scheduler::{run_pool, Claiming};
use std::io;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// How to run a sweep.
#[derive(Debug, Clone)]
pub struct SweepOptions {
    /// Worker threads (`--jobs`); 0 means [`default_workers`].
    pub workers: usize,
    /// Skip jobs whose artifacts already exist (`--resume`).
    pub resume: bool,
    /// Artifact root directory (default [`DEFAULT_ROOT`]).
    pub root: PathBuf,
    /// Persistent result-store root; `None` disables the store.
    pub store: Option<PathBuf>,
    /// Override the measured-run iteration count of every benchmark
    /// job (`--iters`). Changes job hashes and the sweep id: a scaled
    /// sweep is a different computation.
    pub bench_iterations: Option<u64>,
    /// Override the warm-up iteration count of every benchmark job
    /// (`--warmup`).
    pub bench_warmup: Option<u64>,
    /// Suppress stderr progress lines.
    pub quiet: bool,
    /// Render progress as a single live status line (overwritten in
    /// place) instead of one line per finished job.
    pub progress: bool,
    /// Write wall-clock execution telemetry to `telemetry.json` in the
    /// sweep directory. Off by default: the file is nondeterministic by
    /// nature and excluded from the byte-identical artifact guarantee.
    pub telemetry: bool,
    /// Drain jobs through the store's lease protocol
    /// ([`run_jobs_claimed`]) instead of the local cursor, so other
    /// worker processes sharing [`SweepOptions::store`] can shard the
    /// sweep. Requires `store`; ignored without one.
    pub claim: Option<ClaimOptions>,
}

impl Default for SweepOptions {
    fn default() -> Self {
        SweepOptions {
            workers: 0,
            resume: false,
            root: PathBuf::from(DEFAULT_ROOT),
            store: None,
            bench_iterations: None,
            bench_warmup: None,
            quiet: false,
            progress: false,
            telemetry: false,
            claim: None,
        }
    }
}

/// A live snapshot of a running sweep, handed to the
/// [`run_sweep_observed`] observer after every job completion.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SweepProgress {
    /// Jobs accounted for so far (including `--resume` skips).
    pub done: usize,
    /// Total jobs in the sweep.
    pub total: usize,
    /// Jobs actually simulated so far this run.
    pub simulated: usize,
    /// Jobs served from the persistent result store so far.
    pub store_hits: usize,
    /// Of those store hits, jobs completed by *other* shards while this
    /// run was draining (claim mode only). Always
    /// `done == simulated + store_hits + failed` and
    /// `remote <= store_hits`, whether jobs were dispatched locally or
    /// reported by remote shards.
    pub remote: usize,
    /// Jobs failed so far.
    pub failed: usize,
}

/// What a sweep run did.
#[derive(Debug)]
pub struct SweepOutcome {
    /// The sweep's artifact directory.
    pub dir: PathBuf,
    /// The content-derived sweep id.
    pub sweep_id: String,
    /// Jobs the worker pool actually ran this run — successful
    /// simulations plus failed attempts; store hits and resume skips
    /// excluded.
    pub executed: usize,
    /// Jobs served from the persistent result store.
    pub store_hits: usize,
    /// Of those store hits, jobs another shard completed while this run
    /// was draining (claim mode only).
    pub remote: usize,
    /// Jobs skipped because their artifact already existed.
    pub skipped: usize,
    /// Failed jobs as `(hash, label, error)`.
    pub failed: Vec<(String, String, String)>,
    /// Every available artifact (freshly computed, store-served, and
    /// resumed), keyed by job hash.
    pub results: SweepResults,
}

fn eta(done: usize, total: usize, started: Instant) -> String {
    if done == 0 {
        return "--:--".to_string();
    }
    let per_job = started.elapsed().as_secs_f64() / done as f64;
    let remaining = (per_job * (total - done) as f64).round() as u64;
    format!("{:02}:{:02}", remaining / 60, remaining % 60)
}

/// Runs every job of `sweep` (honoring `--resume` and the persistent
/// store), writes artifacts and the manifest, and returns the collected
/// results.
///
/// Progress and ETA go to stderr only; nothing timing-dependent reaches
/// the artifacts, so two runs of the same sweep produce byte-identical
/// job artifacts regardless of `opts.workers` or store warmth (the
/// manifest's per-job `source` field is the one run-dependent record).
///
/// # Errors
///
/// Returns any I/O error from creating the run directory or writing an
/// artifact or the manifest. Job panics are *not* errors: they mark the
/// job failed and the sweep continues.
pub fn run_sweep(sweep: &Sweep, opts: &SweepOptions) -> io::Result<SweepOutcome> {
    run_sweep_observed(sweep, opts, |_| {})
}

/// [`run_sweep`] plus a progress observer: `observer` receives a
/// [`SweepProgress`] snapshot after every job completion (on the
/// calling thread, in completion order). The serve daemon streams these
/// snapshots to HTTP clients; the CLI ignores them.
pub fn run_sweep_observed(
    sweep: &Sweep,
    opts: &SweepOptions,
    mut observer: impl FnMut(&SweepProgress),
) -> io::Result<SweepOutcome> {
    // Apply iteration scaling up front: everything downstream (hashes,
    // sweep id, store keys, the manifest) sees the scaled sweep.
    let sweep = sweep
        .clone()
        .scaled(opts.bench_iterations, opts.bench_warmup);
    let sweep_id = sweep.sweep_id();
    let dir = SweepDir::create(&opts.root, &sweep_id)?;
    let workers = if opts.workers == 0 {
        default_workers()
    } else {
        opts.workers
    };
    let store = opts.store.as_deref().map(ResultStore::open);

    // Partition into resumable (artifact exists and parses) and pending.
    let mut results = SweepResults::new();
    let mut sources: Vec<JobSource> = vec![JobSource::Resumed; sweep.jobs.len()];
    let mut pending: Vec<(usize, JobSpec)> = Vec::new();
    for (index, job) in sweep.jobs.iter().enumerate() {
        match opts
            .resume
            .then(|| dir.completed(&job.hash_hex()))
            .flatten()
        {
            Some(doc) => {
                results.insert(job.hash_hex(), doc);
            }
            None => pending.push((index, job.clone())),
        }
    }
    let skipped = sweep.jobs.len() - pending.len();
    if !opts.quiet && skipped > 0 {
        eprintln!(
            "resume: {skipped}/{} jobs already complete",
            sweep.jobs.len()
        );
    }

    // Run what remains; write each artifact as it lands.
    let specs: Vec<JobSpec> = pending.iter().map(|(_, j)| j.clone()).collect();
    let started = Instant::now();
    let total = specs.len();
    let mut progress = SweepProgress {
        done: skipped,
        total: sweep.jobs.len(),
        ..SweepProgress::default()
    };
    let mut write_error: Option<io::Error> = None;
    let mut telemetry = opts.telemetry.then(|| SweepTelemetry::new(workers));
    let programs = std::sync::Arc::new(ProgramCache::new());
    let claiming = match (&store, &opts.claim) {
        (Some(store), Some(claim)) => Claiming::Leases(store, claim),
        (store, _) => Claiming::Local(store.as_ref()),
    };
    // Every job — locally simulated, served from the store, or completed
    // by a remote shard — passes through here exactly once, so the
    // progress counters (and the NDJSON stream built on them) never
    // over- or under-count.
    let job_results = run_pool(&specs, workers, &programs, claiming, |slot, done| {
        progress.done += 1;
        match (done.outcome.is_ok(), done.source) {
            (true, JobSource::Store) => {
                progress.store_hits += 1;
                if done.remote {
                    progress.remote += 1;
                }
            }
            (true, _) => progress.simulated += 1,
            (false, _) => progress.failed += 1,
        }
        let job = &specs[slot];
        if let Ok(doc) = &done.outcome {
            if let Err(e) = dir.write(&job.hash_hex(), doc) {
                write_error.get_or_insert(e);
            }
        }
        if let Some(t) = telemetry.as_mut() {
            t.record(
                job.hash_hex(),
                job.label(),
                done.outcome.is_ok(),
                done.timing,
            );
        }
        if !opts.quiet {
            // `store` marks a persistent-store hit; `done` a fresh
            // simulation. (In-memory program-cache hits are not
            // per-job events; they show in the end-of-run summary.)
            // In claim mode a store hit carries its inserting shard:
            // `store@<owner>` is the per-shard provenance line.
            let state = match (done.outcome.is_ok(), done.source) {
                (true, JobSource::Store) => match &done.origin {
                    Some(owner) => format!("store@{owner}"),
                    None => "store".to_string(),
                },
                (true, _) => "done".to_string(),
                (false, _) => "FAILED".to_string(),
            };
            let done = progress.done - skipped;
            if opts.progress {
                // One status line, overwritten in place; padded so a
                // shorter label does not leave residue.
                eprint!(
                    "\r[{done}/{total} eta {}] {state} {:<40}",
                    eta(done, total, started),
                    job.label()
                );
            } else {
                eprintln!(
                    "[{done}/{total} eta {}] {state} {}",
                    eta(done, total, started),
                    job.label()
                );
            }
            let _ = io::stderr().flush();
        }
        observer(&progress);
    });
    if !opts.quiet && opts.progress && total > 0 {
        eprintln!();
    }
    if !opts.quiet && total > 0 {
        // Two independent cache layers, two summary lines:
        // `program-cache` is in-memory and per-run (a fig5 sweep builds
        // each distinct (benchmark, iterations) program once);
        // `result-store` is persistent and cross-run (a warm store
        // serves whole job results without simulating).
        eprintln!("{}", programs.summary());
        if let Some(s) = &store {
            eprintln!("{}", s.summary());
            if opts.claim.is_some() {
                // The claim-protocol line CI greps for its trailing
                // `0 duplicate simulations`.
                eprintln!("{}", s.claims_summary());
            }
        }
    }
    if let Some(e) = write_error {
        return Err(e);
    }
    if let Some(mut t) = telemetry {
        t.total_wall_ms = started.elapsed().as_millis() as u64;
        artifact::write_artifact(&dir.path().join("telemetry.json"), &t.to_json())?;
        if !opts.quiet {
            eprintln!("telemetry: {}", telemetry::summarize(&t));
        }
    }

    // Fold fresh results in and derive per-job statuses in sweep order.
    let mut failed = Vec::new();
    let mut origins: Vec<Option<String>> = vec![None; sweep.jobs.len()];
    for ((index, job), done) in pending.iter().zip(job_results) {
        sources[*index] = done.source;
        origins[*index] = done.origin;
        match done.outcome {
            Ok(doc) => {
                results.insert(job.hash_hex(), doc);
            }
            Err(message) => failed.push((job.hash_hex(), job.label(), message)),
        }
    }
    let statuses: Vec<JobStatus> = sweep
        .jobs
        .iter()
        .zip(sources.iter().zip(&origins))
        .map(|(job, (source, origin))| {
            let hash = job.hash_hex();
            let status = if results.contains_key(&hash) {
                "ok"
            } else {
                "failed"
            };
            JobStatus {
                hash,
                label: job.label(),
                status,
                source: *source,
                owner: origin.clone(),
            }
        })
        .collect();
    dir.write_manifest(
        &ManifestInfo {
            sweep_name: sweep.name,
            sweep_id: &sweep_id,
            bench_iterations: opts.bench_iterations,
            bench_warmup: opts.bench_warmup,
        },
        &statuses,
    )?;

    Ok(SweepOutcome {
        dir: dir.path().to_path_buf(),
        sweep_id,
        executed: progress.simulated + progress.failed,
        store_hits: progress.store_hits,
        remote: progress.remote,
        skipped,
        failed,
        results,
    })
}

/// A sweep reloaded from disk — everything `condspec report` needs to
/// re-render a finished (or partial) sweep without re-running any
/// simulation.
#[derive(Debug)]
pub struct SweepReport {
    /// The sweep definition the manifest names (iteration-scaled when
    /// the manifest records overrides).
    pub sweep: Sweep,
    /// The content-derived sweep id.
    pub sweep_id: String,
    /// Artifacts found (on disk or in the store), keyed by job hash.
    pub results: SweepResults,
    /// Jobs the manifest lists as failed, as `(hash, label)`.
    pub failed: Vec<(String, String)>,
    /// Jobs with no artifact anywhere (not yet run), as `(hash, label)`.
    pub missing: Vec<(String, String)>,
    /// The `telemetry.json` sidecar, when the sweep ran with
    /// [`SweepOptions::telemetry`].
    pub telemetry: Option<Json>,
}

/// Reloads `<root>/<sweep_id>/` written by [`run_sweep`].
///
/// # Errors
///
/// Returns a human-readable message when the directory or its manifest
/// is missing/malformed, or when the manifest names a sweep this binary
/// does not know.
pub fn load_sweep_report(root: &Path, sweep_id: &str) -> Result<SweepReport, String> {
    load_sweep_report_with_store(root, sweep_id, None)
}

/// [`load_sweep_report`] with the persistent result store as a second
/// artifact source: any job missing from the run directory is looked up
/// in `store` by [`JobSpec::store_key`]. When the run directory itself
/// is gone (or never existed), the sweep is reconstructed from the id's
/// `<name>-<hash>` form and resolved entirely through the store — so
/// `condspec report` works from a warm store alone. (Store-only
/// reconstruction covers unscaled sweeps; a scaled sweep's iteration
/// overrides live only in its manifest.)
pub fn load_sweep_report_with_store(
    root: &Path,
    sweep_id: &str,
    store: Option<&ResultStore>,
) -> Result<SweepReport, String> {
    let dir = root.join(sweep_id);
    if !dir.is_dir() {
        return match store {
            Some(store) => load_report_from_store(sweep_id, store)
                .map_err(|e| format!("no sweep directory at {} and {e}", dir.display())),
            None => Err(format!("no sweep directory at {}", dir.display())),
        };
    }
    let sweep_dir = SweepDir::create(root, sweep_id).map_err(|e| e.to_string())?;
    let manifest = sweep_dir
        .manifest()
        .ok_or_else(|| format!("{}/manifest.json missing or unparseable", dir.display()))?;
    let name = manifest
        .get("sweep")
        .and_then(Json::as_str)
        .ok_or("manifest has no sweep name")?;
    let sweep = Sweep::by_name(name)
        .ok_or_else(|| format!("manifest names unknown sweep `{name}`"))?
        .scaled(
            manifest.get("bench_iterations").and_then(Json::as_u64),
            manifest.get("bench_warmup").and_then(Json::as_u64),
        );

    let mut results = SweepResults::new();
    let mut failed = Vec::new();
    let mut missing = Vec::new();
    for job in &sweep.jobs {
        let hash = job.hash_hex();
        let found = sweep_dir
            .completed(&hash)
            .or_else(|| store.and_then(|s| s.load(&job.store_key())));
        match found {
            Some(doc) => {
                results.insert(hash, doc);
            }
            None => {
                let listed_failed = manifest
                    .get("jobs")
                    .and_then(Json::as_array)
                    .into_iter()
                    .flatten()
                    .any(|j| {
                        j.get("hash").and_then(Json::as_str) == Some(hash.as_str())
                            && j.get("status").and_then(Json::as_str) == Some("failed")
                    });
                if listed_failed {
                    failed.push((hash, job.label()));
                } else {
                    missing.push((hash, job.label()));
                }
            }
        }
    }
    let telemetry = artifact::load_artifact(&dir.join("telemetry.json"));
    Ok(SweepReport {
        sweep,
        sweep_id: sweep_id.to_string(),
        results,
        failed,
        missing,
        telemetry,
    })
}

/// Reconstructs a sweep report from the store alone: derive the sweep
/// name from the id, rebuild the job list, and resolve every job by
/// store key.
fn load_report_from_store(sweep_id: &str, store: &ResultStore) -> Result<SweepReport, String> {
    let (name, _) = sweep_id
        .rsplit_once('-')
        .ok_or_else(|| format!("`{sweep_id}` is not a <name>-<hash> sweep id"))?;
    let sweep =
        Sweep::by_name(name).ok_or_else(|| format!("`{sweep_id}` names unknown sweep `{name}`"))?;
    if sweep.sweep_id() != sweep_id {
        return Err(format!(
            "`{sweep_id}` does not match this binary's `{name}` sweep ({}); \
             the store cannot reconstruct scaled or older-generation sweeps \
             without their manifest",
            sweep.sweep_id()
        ));
    }
    let mut results = SweepResults::new();
    let mut missing = Vec::new();
    for job in &sweep.jobs {
        match store.load(&job.store_key()) {
            Some(doc) => {
                results.insert(job.hash_hex(), doc);
            }
            None => missing.push((job.hash_hex(), job.label())),
        }
    }
    Ok(SweepReport {
        sweep,
        sweep_id: sweep_id.to_string(),
        results,
        failed: Vec::new(),
        missing,
        telemetry: None,
    })
}
