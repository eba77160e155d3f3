//! Shared daemon state: the submission registry and the background
//! sweep runner.
//!
//! A submission is one accepted sweep request. It runs on its own
//! `std::thread`, which internally shards jobs across the engine's
//! panic-isolated worker pool ([`run_sweep_observed`]); the observer
//! publishes [`SweepProgress`] snapshots into the registry under a
//! mutex, where streaming handlers poll them. Results land in the
//! ordinary run directory and (when configured) the persistent result
//! store, so a daemon-run sweep is indistinguishable on disk from a CLI
//! run of the same sweep.

use condspec_engine::{
    default_workers, run_jobs_stored, run_sampled_bench, run_sweep_observed, JobSource, JobSpec,
    JobStatus, ManifestInfo, ProgramCache, ResultStore, SampledBenchSpec, Sweep, SweepDir,
    SweepOptions, SweepProgress, SweepResults,
};
use condspec_stats::Json;
use condspec_store::Claim;
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Where a submission is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmissionStatus {
    /// Accepted, thread not yet running the sweep.
    Queued,
    /// The sweep is executing.
    Running,
    /// Finished; all jobs accounted for (some may have failed).
    Done,
    /// The run itself errored (I/O), distinct from failed jobs.
    Error,
}

impl SubmissionStatus {
    /// Stable wire string.
    pub fn key(&self) -> &'static str {
        match self {
            SubmissionStatus::Queued => "queued",
            SubmissionStatus::Running => "running",
            SubmissionStatus::Done => "done",
            SubmissionStatus::Error => "error",
        }
    }
}

/// How a submission runs its benchmark jobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SubmitMode {
    /// Full detailed simulation of every job (the CLI default).
    #[default]
    Detailed,
    /// SimPoint-style sampling: each benchmark job runs as a functional
    /// count pass plus parallel detailed windows, stitched into a
    /// whole-program estimate. Attack and variant jobs (which have no
    /// sampled form) still run detailed.
    Sampled,
}

impl SubmitMode {
    /// Stable wire string.
    pub fn key(&self) -> &'static str {
        match self {
            SubmitMode::Detailed => "detailed",
            SubmitMode::Sampled => "sampled",
        }
    }

    /// Parses a wire string; the inverse of [`SubmitMode::key`].
    pub fn from_key(key: &str) -> Option<SubmitMode> {
        match key {
            "detailed" => Some(SubmitMode::Detailed),
            "sampled" => Some(SubmitMode::Sampled),
            _ => None,
        }
    }
}

/// One accepted sweep submission.
#[derive(Debug, Clone)]
pub struct Submission {
    /// Daemon-assigned id (monotonic per process).
    pub id: u64,
    /// The sweep's short name.
    pub sweep: String,
    /// The content-derived sweep id (of the scaled sweep).
    pub sweep_id: String,
    /// How the submission runs its benchmark jobs.
    pub mode: SubmitMode,
    /// Lifecycle state.
    pub status: SubmissionStatus,
    /// Latest progress snapshot.
    pub progress: SweepProgress,
    /// Run error message when `status == Error`.
    pub error: Option<String>,
    /// Rendered report text, available once `Done`.
    pub report: Option<String>,
    /// Per-shard provenance for distributed submissions: completed-job
    /// counts per worker owner id, in first-seen order. Empty for
    /// locally dispatched submissions.
    pub workers: Vec<(String, u64)>,
}

impl Submission {
    /// The submission as a wire JSON object (without the report body).
    /// The NDJSON progress stream emits exactly this object, so remote
    /// shard completions (`remote`, per-owner `workers` counts) are
    /// visible with the same done/simulated/store_hits accounting as a
    /// local run.
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("id", Json::from(self.id)),
            ("sweep", Json::from(self.sweep.as_str())),
            ("sweep_id", Json::from(self.sweep_id.as_str())),
            ("mode", Json::from(self.mode.key())),
            ("status", Json::from(self.status.key())),
            ("done", Json::from(self.progress.done as u64)),
            ("total", Json::from(self.progress.total as u64)),
            ("simulated", Json::from(self.progress.simulated as u64)),
            ("store_hits", Json::from(self.progress.store_hits as u64)),
            ("remote", Json::from(self.progress.remote as u64)),
            ("failed", Json::from(self.progress.failed as u64)),
            (
                "error",
                match &self.error {
                    Some(e) => Json::from(e.as_str()),
                    None => Json::Null,
                },
            ),
        ];
        if !self.workers.is_empty() {
            let per_worker = self
                .workers
                .iter()
                .map(|(owner, count)| {
                    Json::object(vec![
                        ("owner", Json::from(owner.as_str())),
                        ("simulated", Json::from(*count)),
                    ])
                })
                .collect::<Vec<_>>();
            fields.push(("workers", Json::Array(per_worker)));
        }
        Json::object(fields)
    }
}

/// State shared by every connection handler and submission thread.
pub struct ServerState {
    /// Worker threads per sweep (0 = engine default).
    pub workers: usize,
    /// Artifact root for daemon-run sweeps.
    pub runs_root: PathBuf,
    /// Persistent store root; `None` disables the store.
    pub store_root: Option<PathBuf>,
    /// The daemon's handle on that store. Distributed submissions take
    /// their leases through it on each remote worker's behalf.
    store: Option<ResultStore>,
    /// Accepted submissions, newest last.
    submissions: Mutex<Vec<Submission>>,
    next_id: AtomicU64,
    /// Total HTTP requests handled (for `/api/metrics`).
    pub requests: AtomicU64,
    /// Store hits across every finished submission (daemon lifetime).
    pub store_hits_total: AtomicU64,
    /// Store inserts (fresh simulations with the store on) across every
    /// finished submission.
    pub store_inserts_total: AtomicU64,
    /// Set by `POST /api/shutdown`; the accept loop exits on the next
    /// connection.
    pub shutdown: AtomicBool,
    /// When the state was created; `/healthz` reports uptime from here.
    pub started: std::time::Instant,
    /// Distributed submissions' work queues (pull-model work API).
    work: Mutex<Vec<DistributedRun>>,
    /// Every worker that has ever claimed or heartbeat, first-seen
    /// order.
    registry: Mutex<Vec<WorkerEntry>>,
}

/// One remote worker known to the daemon (`/healthz` reports these).
#[derive(Debug, Clone)]
pub struct WorkerEntry {
    /// The worker's self-chosen owner id.
    pub owner: String,
    /// Last claim/result/heartbeat time.
    pub last_seen: Instant,
    /// Jobs this worker has completed (daemon lifetime).
    pub completed: u64,
}

/// How one job of a distributed submission was resolved.
#[derive(Debug, Clone)]
struct Resolved {
    /// The owner that simulated it: the reporting worker, or for a store
    /// hit the inserting shard recorded in the entry.
    owner: Option<String>,
    /// [`JobSource::Store`] when found in the persistent store,
    /// [`JobSource::Simulated`] when reported over the work API.
    source: JobSource,
    failed: bool,
}

/// One distributed submission: the scaled sweep, each job's resolution
/// (`None` until resolved), and the artifacts collected so far. Who is
/// working on an unresolved job is not recorded here: that is the
/// store's lease on its key, which the daemon takes under the claiming
/// worker's owner id — so `condspec sweep --owner` shards on the same
/// root and `--attach` workers never run each other's jobs.
struct DistributedRun {
    submission: u64,
    sweep: Sweep,
    dir: SweepDir,
    iterations: Option<u64>,
    warmup: Option<u64>,
    /// The steal timeout of this run's leases (`claim_timeout_ms`): a
    /// lease not heartbeat within it is presumed orphaned and re-issued.
    steal_after: Duration,
    items: Vec<Option<Resolved>>,
    results: SweepResults,
}

impl DistributedRun {
    fn complete(&self) -> bool {
        self.items.iter().all(Option::is_some)
    }
}

impl ServerState {
    /// Fresh state with no submissions.
    pub fn new(workers: usize, runs_root: PathBuf, store_root: Option<PathBuf>) -> ServerState {
        ServerState {
            workers,
            runs_root,
            store: store_root.as_ref().map(ResultStore::open),
            store_root,
            submissions: Mutex::new(Vec::new()),
            next_id: AtomicU64::new(1),
            requests: AtomicU64::new(0),
            store_hits_total: AtomicU64::new(0),
            store_inserts_total: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            started: std::time::Instant::now(),
            work: Mutex::new(Vec::new()),
            registry: Mutex::new(Vec::new()),
        }
    }

    /// Submissions still queued or running (the `/healthz` "jobs in
    /// flight" figure).
    pub fn in_flight(&self) -> usize {
        self.submissions
            .lock()
            .expect("registry")
            .iter()
            .filter(|s| {
                matches!(
                    s.status,
                    SubmissionStatus::Queued | SubmissionStatus::Running
                )
            })
            .count()
    }

    /// The sweep options a daemon submission runs with. `resume` is
    /// deliberately off: repeat submissions must demonstrate their
    /// cache hits through the *store* (observable, counted), not
    /// through silent directory resume.
    pub fn sweep_options(&self, iterations: Option<u64>, warmup: Option<u64>) -> SweepOptions {
        SweepOptions {
            workers: self.workers,
            root: self.runs_root.clone(),
            store: self.store_root.clone(),
            bench_iterations: iterations,
            bench_warmup: warmup,
            quiet: true,
            ..SweepOptions::default()
        }
    }

    /// Registers a new submission and starts its sweep thread. Returns
    /// `(submission id, sweep id)`.
    pub fn submit(
        self: &Arc<Self>,
        sweep: Sweep,
        iterations: Option<u64>,
        warmup: Option<u64>,
        mode: SubmitMode,
    ) -> (u64, String) {
        let opts = self.sweep_options(iterations, warmup);
        let scaled_id = sweep.clone().scaled(iterations, warmup).sweep_id();
        let id = self.register(&sweep, &scaled_id, mode, SubmissionStatus::Queued);

        let state = Arc::clone(self);
        std::thread::spawn(move || {
            state.update(id, |s| s.status = SubmissionStatus::Running);
            match mode {
                SubmitMode::Detailed => {
                    let outcome = run_sweep_observed(&sweep, &opts, |progress| {
                        let progress = *progress;
                        state.update(id, move |s| s.progress = progress);
                    });
                    match outcome {
                        Ok(outcome) => {
                            if state.store_root.is_some() {
                                state
                                    .store_hits_total
                                    .fetch_add(outcome.store_hits as u64, Ordering::Relaxed);
                                state
                                    .store_inserts_total
                                    .fetch_add(outcome.executed as u64, Ordering::Relaxed);
                            }
                            let report =
                                render_report(&sweep, iterations, warmup, &outcome.results);
                            state.update(id, move |s| {
                                s.status = SubmissionStatus::Done;
                                s.report = Some(report);
                            });
                        }
                        Err(e) => state.fail(id, &e),
                    }
                }
                SubmitMode::Sampled => {
                    let scaled = sweep.clone().scaled(iterations, warmup);
                    let workers = if state.workers == 0 {
                        default_workers()
                    } else {
                        state.workers
                    };
                    let (results, hits, inserts) =
                        run_sampled_submission(&scaled, workers, state.store_root.clone(), |p| {
                            let p = *p;
                            state.update(id, move |s| s.progress = p);
                        });
                    if state.store_root.is_some() {
                        state.store_hits_total.fetch_add(hits, Ordering::Relaxed);
                        state
                            .store_inserts_total
                            .fetch_add(inserts, Ordering::Relaxed);
                    }
                    let report = scaled.render(&results);
                    state.update(id, move |s| {
                        s.status = SubmissionStatus::Done;
                        s.report = Some(report);
                    });
                }
            }
        });
        (id, scaled_id)
    }

    /// Adds a submission of `sweep` with no progress yet; returns its id.
    fn register(
        &self,
        sweep: &Sweep,
        sweep_id: &str,
        mode: SubmitMode,
        status: SubmissionStatus,
    ) -> u64 {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.submissions.lock().expect("registry").push(Submission {
            id,
            sweep: sweep.name.to_string(),
            sweep_id: sweep_id.to_string(),
            mode,
            status,
            progress: SweepProgress {
                total: sweep.jobs.len(),
                ..SweepProgress::default()
            },
            error: None,
            report: None,
            workers: Vec::new(),
        });
        id
    }

    /// Marks a submission errored.
    fn fail(&self, id: u64, error: &io::Error) {
        let message = error.to_string();
        self.update(id, move |s| {
            s.status = SubmissionStatus::Error;
            s.error = Some(message);
        });
    }

    /// Applies `f` to the submission with `id`, if it exists.
    fn update(&self, id: u64, f: impl FnOnce(&mut Submission)) {
        let mut registry = self.submissions.lock().expect("registry");
        if let Some(s) = registry.iter_mut().find(|s| s.id == id) {
            f(s);
        }
    }

    /// A snapshot of one submission. A distributed submission first
    /// resolves the jobs whose results reached the store since it was
    /// last read, so store-root shards finish it with no pull worker
    /// polling; any other submission is read without a store call.
    pub fn submission(&self, id: u64) -> Option<Submission> {
        if let Some(run) = self
            .work
            .lock()
            .expect("work queue")
            .iter_mut()
            .find(|run| run.submission == id && !run.complete())
        {
            if let Err(e) = self.resolve_stored(run) {
                self.fail(id, &e);
            }
        }
        self.submissions
            .lock()
            .expect("registry")
            .iter()
            .find(|s| s.id == id)
            .cloned()
    }

    /// Snapshots of every submission, oldest first.
    pub fn submissions(&self) -> Vec<Submission> {
        self.submissions.lock().expect("registry").clone()
    }

    /// The daemon's store handle; `None` when the store is disabled.
    pub fn store(&self) -> Option<&ResultStore> {
        self.store.as_ref()
    }

    /// Registers a distributed submission: jobs already in the store
    /// resolve immediately (with their recorded inserting shard as
    /// provenance); the rest are leased to remote workers over `POST
    /// /api/work/claim` and reported back over `/api/work/result`, or
    /// filed in the store by `condspec sweep --owner` shards, which the
    /// next claim or status read picks up. No local simulation happens
    /// at all. `claim_timeout` is the leases' steal timeout (default
    /// [`condspec_store::DEFAULT_STEAL_TIMEOUT`]). Returns
    /// `(submission id, sweep id)`.
    ///
    /// # Errors
    ///
    /// Any I/O error creating the run directory or writing an artifact
    /// or manifest, and an error when the store is disabled: the leases
    /// live in it.
    pub fn submit_distributed(
        &self,
        sweep: Sweep,
        iterations: Option<u64>,
        warmup: Option<u64>,
        claim_timeout: Option<Duration>,
    ) -> io::Result<(u64, String)> {
        if self.store.is_none() {
            return Err(io::Error::other("the store is disabled (--no-store)"));
        }
        let scaled = sweep.scaled(iterations, warmup);
        let sweep_id = scaled.sweep_id();
        let dir = SweepDir::create(&self.runs_root, &sweep_id)?;
        let id = self.register(
            &scaled,
            &sweep_id,
            SubmitMode::Detailed,
            SubmissionStatus::Running,
        );
        let mut run = DistributedRun {
            submission: id,
            dir,
            iterations,
            warmup,
            steal_after: claim_timeout.unwrap_or(condspec_store::DEFAULT_STEAL_TIMEOUT),
            items: vec![None; scaled.jobs.len()],
            results: SweepResults::new(),
            sweep: scaled,
        };
        if let Err(e) = self.resolve_stored(&mut run) {
            self.fail(id, &e);
            return Err(e);
        }
        self.work.lock().expect("work queue").push(run);
        Ok((id, sweep_id))
    }

    /// Resolves every unresolved job of `run` whose result the store
    /// holds, as a store hit with the inserting shard as its owner.
    fn resolve_stored(&self, run: &mut DistributedRun) -> io::Result<()> {
        let Some(store) = &self.store else {
            return Ok(());
        };
        for index in 0..run.items.len() {
            if run.items[index].is_some() {
                continue;
            }
            if let Some((doc, origin)) = store.load_with_origin(&run.sweep.jobs[index].store_key())
            {
                self.record(run, index, Ok(doc), origin, JobSource::Store)?;
            }
        }
        Ok(())
    }

    /// Records that `owner` is alive, adding `completed_delta` to its
    /// completed-job count.
    fn touch_worker(&self, owner: &str, completed_delta: u64) {
        let mut registry = self.registry.lock().expect("worker registry");
        match registry.iter_mut().find(|w| w.owner == owner) {
            Some(w) => {
                w.last_seen = Instant::now();
                w.completed += completed_delta;
            }
            None => registry.push(WorkerEntry {
                owner: owner.to_string(),
                last_seen: Instant::now(),
                completed: completed_delta,
            }),
        }
    }

    /// `POST /api/work/claim`: leases `owner` the first unresolved job of
    /// the oldest incomplete distributed submission that no live owner
    /// holds. Leases are the store's (DESIGN §13.1): a lease older than
    /// the run's claim timeout is stolen, so a disconnected worker's job
    /// is re-issued, and jobs another worker inserted meanwhile —
    /// including `condspec sweep --owner` shards on the store root —
    /// resolve as store hits. With nothing to hand out, responds
    /// `{"idle": true, "active": N}`.
    pub fn claim_work(&self, owner: &str) -> Json {
        self.touch_worker(owner, 0);
        let mut work = self.work.lock().expect("work queue");
        let mut active = 0usize;
        for run in work.iter_mut().filter(|run| !run.complete()) {
            let handed = self.lease_next(run, owner);
            if !run.complete() {
                active += 1;
            }
            let Some(index) = handed else { continue };
            let job = &run.sweep.jobs[index];
            let mut fields = vec![
                ("submission", Json::from(run.submission)),
                ("index", Json::from(index as u64)),
                ("sweep", Json::from(run.sweep.name)),
                ("key", Json::from(job.store_key())),
                ("label", Json::from(job.label())),
                (
                    "claim_timeout_ms",
                    Json::from(run.steal_after.as_millis() as u64),
                ),
            ];
            if let Some(iters) = run.iterations {
                fields.push(("iters", Json::from(iters)));
            }
            if let Some(warmup) = run.warmup {
                fields.push(("warmup", Json::from(warmup)));
            }
            return Json::object(fields);
        }
        Json::object(vec![
            ("idle", Json::from(true)),
            ("active", Json::from(active as u64)),
        ])
    }

    /// Walks `run`'s unresolved jobs in order: a stored result resolves
    /// the job, a live owner's lease skips it, and the first job whose
    /// lease `owner` takes is returned. A store root that refuses leases
    /// hands the job out unclaimed; first-result-wins keeps the run
    /// exact.
    fn lease_next(&self, run: &mut DistributedRun, owner: &str) -> Option<usize> {
        let store = self.store.as_ref()?;
        for index in 0..run.items.len() {
            if run.items[index].is_some() {
                continue;
            }
            let key = run.sweep.jobs[index].store_key();
            match store.claim_or_load(&key, owner, run.steal_after) {
                Ok(Claim::Stored(doc, origin)) => {
                    if let Err(e) = self.record(run, index, Ok(doc), origin, JobSource::Store) {
                        self.fail(run.submission, &e);
                    }
                }
                Ok(Claim::Busy) => {}
                Ok(Claim::Held) | Err(_) => return Some(index),
            }
        }
        None
    }

    /// `POST /api/work/result`: accepts `owner`'s result for one
    /// claimed job, filing a success in the store under `owner` (which
    /// also releases its lease). First result wins; a duplicate (e.g.
    /// from a worker whose lease was stolen and re-issued) is
    /// acknowledged without recounting. Finishing the last job
    /// finalizes the submission (manifest with per-shard provenance,
    /// rendered report).
    ///
    /// # Errors
    ///
    /// A client-error message for an unknown submission or
    /// out-of-range index.
    pub fn work_result(
        &self,
        owner: &str,
        submission: u64,
        index: usize,
        outcome: Result<Json, String>,
    ) -> Result<Json, String> {
        let mut work = self.work.lock().expect("work queue");
        let Some(run) = work.iter_mut().find(|r| r.submission == submission) else {
            return Err(format!("unknown submission {submission}"));
        };
        if index >= run.items.len() {
            return Err(format!(
                "index {index} out of range for submission {submission} ({} jobs)",
                run.items.len()
            ));
        }
        let job = &run.sweep.jobs[index];
        let key = job.store_key();
        if run.items[index].is_some() {
            // A late report: drop the reporter's lease if it still holds
            // one, and change nothing else.
            if let Some(store) = &self.store {
                let _ = store.release(&key, owner);
            }
            self.touch_worker(owner, 0);
            return Ok(Json::object(vec![
                ("ok", Json::from(true)),
                ("duplicate", Json::from(true)),
            ]));
        }
        if let Some(store) = &self.store {
            // Best-effort: the result is recorded in the run either way.
            let _ = match &outcome {
                Ok(doc) => store.insert_claimed(
                    &key,
                    &job.hash_hex(),
                    &job.label(),
                    condspec_engine::hash::code_fingerprint(),
                    doc,
                    owner,
                ),
                Err(_) => store.release(&key, owner).map(drop),
            };
        }
        self.touch_worker(owner, 1);
        self.record(
            run,
            index,
            outcome,
            Some(owner.to_string()),
            JobSource::Simulated,
        )
        .map_err(|e| format!("artifact write failed: {e}"))?;
        let remaining = run.items.iter().filter(|i| i.is_none()).count();
        Ok(Json::object(vec![
            ("ok", Json::from(true)),
            ("remaining", Json::from(remaining as u64)),
        ]))
    }

    /// Resolves job `index` of `run`: writes its artifact, republishes
    /// the submission's progress (recounted from the items, so
    /// done/simulated/store_hits/failed stay exact however results
    /// interleave), credits a reporting worker, and finalizes the run
    /// once every job is resolved.
    fn record(
        &self,
        run: &mut DistributedRun,
        index: usize,
        outcome: Result<Json, String>,
        owner: Option<String>,
        source: JobSource,
    ) -> io::Result<()> {
        let hash = run.sweep.jobs[index].hash_hex();
        let failed = match outcome {
            Ok(doc) => {
                run.dir.write(&hash, &doc)?;
                run.results.insert(hash, doc);
                false
            }
            Err(_) => true,
        };
        let credit = owner.clone().filter(|_| source == JobSource::Simulated);
        run.items[index] = Some(Resolved {
            owner,
            source,
            failed,
        });
        let resolved = || run.items.iter().flatten();
        let done = resolved().count();
        let store_hits = resolved().filter(|i| i.source == JobSource::Store).count();
        let failed = resolved().filter(|i| i.failed).count();
        let simulated = done - store_hits - failed;
        let progress = SweepProgress {
            done,
            total: run.items.len(),
            simulated,
            store_hits,
            // Every simulation of a distributed submission happens on a
            // remote shard.
            remote: simulated,
            failed,
        };
        self.update(run.submission, move |s| {
            s.progress = progress;
            if let Some(owner) = credit {
                match s.workers.iter_mut().find(|(o, _)| *o == owner) {
                    Some((_, count)) => *count += 1,
                    None => s.workers.push((owner, 1)),
                }
            }
        });
        if run.complete() {
            if let Err(e) = self.finalize_distributed(run) {
                self.fail(run.submission, &e);
            }
        }
        Ok(())
    }

    /// `POST /api/work/heartbeat`: renews `owner`'s liveness, and — when
    /// `(submission, index)` names a job whose lease `owner` holds — that
    /// lease, so a slow simulation is not stolen from a live worker.
    pub fn work_heartbeat(
        &self,
        owner: &str,
        submission: Option<u64>,
        index: Option<usize>,
    ) -> Json {
        self.touch_worker(owner, 0);
        let key = match (submission, index) {
            (Some(submission), Some(index)) => self
                .work
                .lock()
                .expect("work queue")
                .iter()
                .find(|r| r.submission == submission)
                .and_then(|run| run.sweep.jobs.get(index))
                .map(JobSpec::store_key),
            _ => None,
        };
        let held = match (key, &self.store) {
            (Some(key), Some(store)) => store.heartbeat(&key, owner).unwrap_or(false),
            _ => false,
        };
        Json::object(vec![("ok", Json::from(true)), ("held", Json::from(held))])
    }

    /// Writes the manifest (per-shard provenance included), renders the
    /// report, and marks the submission done.
    fn finalize_distributed(&self, run: &DistributedRun) -> io::Result<()> {
        let resolved = || run.items.iter().flatten();
        let provenance = resolved().map(|item| (item.source, item.owner.clone()));
        run.dir.write_manifest(
            &ManifestInfo {
                sweep_name: run.sweep.name,
                sweep_id: &run.sweep.sweep_id(),
                bench_iterations: run.iterations,
                bench_warmup: run.warmup,
            },
            &JobStatus::rows(&run.sweep.jobs, &run.results, provenance),
        )?;
        let hits = resolved().filter(|i| i.source == JobSource::Store).count() as u64;
        let simulated = resolved()
            .filter(|i| i.source == JobSource::Simulated && !i.failed)
            .count() as u64;
        self.store_hits_total.fetch_add(hits, Ordering::Relaxed);
        self.store_inserts_total
            .fetch_add(simulated, Ordering::Relaxed);
        let report = run.sweep.render(&run.results);
        self.update(run.submission, move |s| {
            s.status = SubmissionStatus::Done;
            s.report = Some(report);
        });
        Ok(())
    }

    /// Every known worker, first-seen order (for `/healthz`).
    pub fn workers_snapshot(&self) -> Vec<WorkerEntry> {
        self.registry.lock().expect("worker registry").clone()
    }
}

/// Runs a sampled-mode submission: every benchmark job becomes a
/// functional count pass plus parallel detailed windows
/// (`run_sampled_bench`), whose stitched whole-program report lands
/// under the job's hash so the sweep's ordinary renderer draws the
/// table; attack and variant jobs run detailed through the scheduler.
/// Returns the collected results plus the submission's window-level
/// store hit/insert counts (a sampled job fans into many window jobs,
/// each individually store-cached).
fn run_sampled_submission(
    sweep: &Sweep,
    workers: usize,
    store_root: Option<PathBuf>,
    mut on_progress: impl FnMut(&SweepProgress),
) -> (SweepResults, u64, u64) {
    let store = store_root.map(ResultStore::open);
    let programs = Arc::new(ProgramCache::new());
    let mut results = SweepResults::new();
    let (mut window_hits, mut window_inserts) = (0u64, 0u64);
    let mut progress = SweepProgress {
        total: sweep.jobs.len(),
        ..SweepProgress::default()
    };
    for job in &sweep.jobs {
        match SampledBenchSpec::from_bench_job(job) {
            Some(spec) => match run_sampled_bench(&spec, workers, store.as_ref()) {
                Ok(outcome) => {
                    window_hits += outcome.store_hits as u64;
                    window_inserts += outcome.executed as u64;
                    if outcome.executed == 0 && outcome.store_hits > 0 {
                        progress.store_hits += 1;
                    } else {
                        progress.simulated += 1;
                    }
                    results.insert(
                        job.hash_hex(),
                        Json::object(vec![
                            ("job", Json::from(job.hash_hex())),
                            ("key", Json::from(job.canonical_key())),
                            ("mode", Json::from("sampled")),
                            ("total_insts", Json::from(outcome.total_insts)),
                            ("report", outcome.report.to_json()),
                        ]),
                    );
                }
                Err(_) => progress.failed += 1,
            },
            None => {
                let mut run = run_jobs_stored(
                    std::slice::from_ref(job),
                    1,
                    &programs,
                    store.as_ref(),
                    |_, _, _, _| {},
                );
                let (outcome, _, source) = run.remove(0);
                match outcome {
                    Ok(doc) => {
                        match source {
                            JobSource::Store => progress.store_hits += 1,
                            _ => progress.simulated += 1,
                        }
                        results.insert(job.hash_hex(), doc);
                    }
                    Err(_) => progress.failed += 1,
                }
            }
        }
        progress.done += 1;
        on_progress(&progress);
    }
    (results, window_hits, window_inserts)
}

/// Renders a submission's report from its collected results. The scaled
/// sweep renders through the same `Sweep::render` as the CLI, so a
/// daemon report is byte-identical to `condspec report` on the same
/// artifacts.
fn render_report(
    sweep: &Sweep,
    iterations: Option<u64>,
    warmup: Option<u64>,
    results: &SweepResults,
) -> String {
    sweep.clone().scaled(iterations, warmup).render(results)
}
