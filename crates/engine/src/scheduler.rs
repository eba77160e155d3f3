//! The worker pool: deterministic-result parallel job execution on
//! `std::thread` with per-job panic isolation.
//!
//! Workers pull jobs from a shared cursor (cheap work stealing: whoever
//! is free claims the next index with one `fetch_add`, no lock, no
//! queue to build), run each inside `catch_unwind`, and stream
//! `(index, result)` pairs back over an `mpsc` channel. The caller
//! reassembles results *by index*, so the output order — and therefore
//! everything derived from it — is independent of how many workers ran
//! or how the OS interleaved them. Only scheduling varies with
//! `workers`; results never do.
//!
//! One pool loop serves both ways of deciding who runs a job:
//!
//! * **Local** ([`run_jobs_stored`]): the cursor alone decides. An
//!   optional persistent [`ResultStore`] is a cache: a valid entry under
//!   the job's store key is returned as-is (tagged [`JobSource::Store`]),
//!   and every freshly simulated success is inserted back — best-effort,
//!   since a read-only or full store must never fail a sweep.
//! * **Leases** ([`run_jobs_claimed`]): the store's `claims/` leases
//!   decide, so any number of pools — in other processes, or on other
//!   hosts sharing the store root — complete one job list exactly once.
//!   Jobs leased by a live owner are deferred and polled until their
//!   result appears or their lease goes stale and is stolen, and a
//!   heartbeat thread renews the leases this pool holds.
//!
//! Store entries hold exactly the artifact the job would have produced,
//! so a store hit is byte-identical to a simulation.

use crate::artifact::JobSource;
use crate::cache::{ProgramCache, WorkerContext};
use crate::hash::code_fingerprint;
use crate::job::JobSpec;
use condspec_stats::Json;
use condspec_store::{Claim, ResultStore};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The outcome of one job: its artifact document, or the panic message
/// of a failed run.
pub type JobResult = Result<Json, String>;

/// Wall-clock execution telemetry for one job. Never written into job
/// artifacts or the manifest (those must stay deterministic); the
/// engine's opt-in `telemetry.json` sidecar is its only persistent home.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobTiming {
    /// Index of the worker thread that ran the job.
    pub worker: usize,
    /// Milliseconds between pool start and this job being claimed — how
    /// long the job sat in the queue behind earlier claims.
    pub queue_wait_ms: u64,
    /// Milliseconds the job's simulation (including a panicking one)
    /// actually ran.
    pub wall_ms: u64,
}

/// The number of workers to use when the caller does not say:
/// `std::thread::available_parallelism`, or 1 if unknown.
pub fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "job panicked".to_string()
    }
}

/// How a claim-mode pool identifies itself and judges other owners.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClaimOptions {
    /// This process's owner id, recorded in every lease and insert it
    /// makes (per-shard provenance).
    pub owner: String,
    /// Time without a heartbeat after which another owner's lease is
    /// presumed orphaned and stolen. The pool heartbeats its own leases
    /// and re-polls jobs held by live owners at intervals derived from
    /// it.
    pub steal_after: Duration,
}

impl ClaimOptions {
    /// Options for `owner` with the default steal timeout.
    pub fn new(owner: impl Into<String>) -> ClaimOptions {
        ClaimOptions {
            owner: owner.into(),
            steal_after: condspec_store::DEFAULT_STEAL_TIMEOUT,
        }
    }

    /// The owner id used when the caller does not pick one:
    /// `shard-<pid>`, unique per process on one host.
    pub fn default_owner() -> String {
        format!("shard-{}", std::process::id())
    }

    /// How long to sleep between re-checks of jobs held by live owners
    /// (50 ms at the default steal timeout).
    fn poll(&self) -> Duration {
        (self.steal_after / 4).clamp(Duration::from_millis(10), Duration::from_millis(50))
    }
}

impl Default for ClaimOptions {
    fn default() -> ClaimOptions {
        ClaimOptions::new(ClaimOptions::default_owner())
    }
}

/// One job's outcome from the pool, with its provenance.
#[derive(Debug, Clone)]
pub struct ClaimedJob {
    /// The artifact document, or the failure message.
    pub outcome: JobResult,
    /// Wall-clock telemetry (for store-resolved jobs, the time spent
    /// waiting and loading, not simulating).
    pub timing: JobTiming,
    /// [`JobSource::Simulated`] when this pool ran the job,
    /// [`JobSource::Store`] when the result came from the store.
    pub source: JobSource,
    /// Under leases, the owner id that simulated the job: ours for local
    /// simulations, the inserting shard's for store hits (absent for
    /// entries written outside the claim protocol). Always absent for a
    /// local pool.
    pub origin: Option<String>,
    /// True when the store result was inserted by a different owner
    /// than this pool — another shard (or an earlier run under another
    /// owner id) did the simulating. Always false for local
    /// simulations.
    pub remote: bool,
}

/// Who may run a job, and where results are cached.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Claiming<'a> {
    /// The pool's own cursor hands out every job; the store, when
    /// given, is a cache consulted before and filled after simulating.
    Local(Option<&'a ResultStore>),
    /// The store's leases hand out jobs shared with other pools.
    Leases(&'a ResultStore, &'a ClaimOptions),
}

/// Runs `jobs` on `workers` threads and returns one result per job, in
/// input order. `on_done(index, result, timing, source)` fires on the
/// calling thread as each job finishes (completion order), for progress
/// reporting and incremental artifact writes.
///
/// A panicking job is caught, converted to `Err(message)`, and does not
/// disturb any other job: its worker discards its resident simulator and
/// moves on to the next queue entry. Every worker fetches benchmark
/// programs from the shared `programs` cache and keeps its simulator
/// between jobs (reset in place when the configuration matches); the
/// caller can read the cache's build/hit counters after the pool drains.
///
/// When `store` is given, each worker looks the job up by
/// [`JobSpec::store_key`] before simulating and inserts every fresh
/// success afterwards. The source is [`JobSource::Store`] for a store
/// hit and [`JobSource::Simulated`] otherwise (including failures, which
/// are never stored). Store I/O errors on insert are swallowed: the
/// simulation already succeeded, and a read-only store must not fail
/// the sweep.
pub fn run_jobs_stored(
    jobs: &[JobSpec],
    workers: usize,
    programs: &Arc<ProgramCache>,
    store: Option<&ResultStore>,
    mut on_done: impl FnMut(usize, &JobResult, &JobTiming, JobSource),
) -> Vec<(JobResult, JobTiming, JobSource)> {
    run_pool(
        jobs,
        workers,
        programs,
        Claiming::Local(store),
        |index, job| on_done(index, &job.outcome, &job.timing, job.source),
    )
    .into_iter()
    .map(|job| (job.outcome, job.timing, job.source))
    .collect()
}

/// [`run_jobs_stored`] under the store's lease protocol. Any number of
/// pools — in other processes or on other hosts sharing the store root
/// — run this over the same job list and cooperatively complete it
/// exactly once:
///
/// 1. a store hit resolves the job immediately;
/// 2. otherwise the worker claims the job's lease (stealing stale
///    ones), simulates, inserts with its owner id and releases;
/// 3. jobs leased by a live owner are deferred, then polled until
///    their result appears in the store (remote completion) or their
///    lease goes stale and is stolen (remote death).
///
/// A background thread heartbeats every lease this pool holds at a
/// quarter of `claim.steal_after`, so long simulations are never
/// mistaken for dead owners. Results are returned in input order and
/// are byte-identical to a solo [`run_jobs_stored`] run; only the
/// `timing`/`origin`/`remote` annotations vary with scheduling.
pub fn run_jobs_claimed(
    jobs: &[JobSpec],
    workers: usize,
    programs: &Arc<ProgramCache>,
    store: &ResultStore,
    claim: &ClaimOptions,
    on_done: impl FnMut(usize, &ClaimedJob),
) -> Vec<ClaimedJob> {
    run_pool(
        jobs,
        workers,
        programs,
        Claiming::Leases(store, claim),
        on_done,
    )
}

/// The pool loop behind [`run_jobs_stored`] and [`run_jobs_claimed`].
pub(crate) fn run_pool(
    jobs: &[JobSpec],
    workers: usize,
    programs: &Arc<ProgramCache>,
    claiming: Claiming<'_>,
    mut on_done: impl FnMut(usize, &ClaimedJob),
) -> Vec<ClaimedJob> {
    let workers = workers.max(1).min(jobs.len().max(1));
    let claim = match claiming {
        Claiming::Leases(_, claim) => Some(claim),
        Claiming::Local(_) => None,
    };
    let cursor = AtomicUsize::new(0);
    // Leases only: jobs a live owner held when the cursor reached them,
    // and the key each worker is simulating under its lease.
    let deferred: Mutex<VecDeque<usize>> = Mutex::new(VecDeque::new());
    let held: Vec<Mutex<Option<String>>> = match claim {
        Some(_) => (0..workers).map(|_| Mutex::new(None)).collect(),
        None => Vec::new(),
    };
    let stop = AtomicBool::new(false);
    let (tx, rx) = mpsc::channel::<(usize, ClaimedJob)>();
    let started = Instant::now();

    let mut results: Vec<Option<ClaimedJob>> = (0..jobs.len()).map(|_| None).collect();
    std::thread::scope(|scope| {
        if let Claiming::Leases(store, claim) = claiming {
            let (held, stop) = (&held, &stop);
            scope.spawn(move || heartbeat(store, claim, held, stop));
        }
        for worker in 0..workers {
            let tx = tx.clone();
            let (cursor, deferred, held) = (&cursor, &deferred, &held);
            let mut ctx = WorkerContext::new(Arc::clone(programs));
            scope.spawn(move || {
                let mut attempt = |index: usize| {
                    let queue_wait_ms = started.elapsed().as_millis() as u64;
                    let job_started = Instant::now();
                    let (outcome, source, origin) =
                        run_one(&jobs[index], claiming, held.get(worker), &mut ctx)?;
                    Some(ClaimedJob {
                        outcome,
                        timing: JobTiming {
                            worker,
                            queue_wait_ms,
                            wall_ms: job_started.elapsed().as_millis() as u64,
                        },
                        source,
                        remote: origin
                            .as_deref()
                            .zip(claim)
                            .is_some_and(|(o, c)| o != c.owner),
                        origin,
                    })
                };
                // The cursor first; then (leases only) the jobs a live
                // owner held, polled until each resolves: that owner
                // inserts (a store hit) or dies (its lease goes stale
                // and is stolen here).
                loop {
                    let next = cursor.fetch_add(1, Ordering::Relaxed);
                    let polling = next >= jobs.len();
                    let index = if polling {
                        let queued = deferred.lock().expect("deferred queue").pop_front();
                        let Some(index) = queued else { break };
                        index
                    } else {
                        next
                    };
                    match attempt(index) {
                        Some(done) => {
                            if tx.send((index, done)).is_err() {
                                return;
                            }
                        }
                        None => {
                            deferred.lock().expect("deferred queue").push_back(index);
                            if let Some(claim) = claim.filter(|_| polling) {
                                std::thread::sleep(claim.poll());
                            }
                        }
                    }
                }
            });
        }
        drop(tx);
        for (index, done) in rx {
            on_done(index, &done);
            results[index] = Some(done);
        }
        stop.store(true, Ordering::Relaxed);
    });
    results
        .into_iter()
        .map(|r| r.expect("every job reports exactly once"))
        .collect()
}

/// Runs one job: `None` when a live owner holds its lease (leases
/// only), otherwise its outcome, source and — under leases — the owner
/// that simulated it. `held` is the worker's heartbeat slot (leases
/// only).
fn run_one(
    spec: &JobSpec,
    claiming: Claiming<'_>,
    held: Option<&Mutex<Option<String>>>,
    ctx: &mut WorkerContext,
) -> Option<(JobResult, JobSource, Option<String>)> {
    let (store, claim) = match claiming {
        Claiming::Local(None) => return Some((simulate(spec, ctx), JobSource::Simulated, None)),
        Claiming::Local(Some(store)) => (store, None),
        Claiming::Leases(store, claim) => (store, Some(claim)),
    };
    let key = spec.store_key();
    match claim {
        None => {
            if let Some(doc) = store.load(&key) {
                return Some((Ok(doc), JobSource::Store, None));
            }
        }
        Some(claim) => match store.claim_or_load(&key, &claim.owner, claim.steal_after) {
            Ok(Claim::Stored(doc, origin)) => return Some((Ok(doc), JobSource::Store, origin)),
            Ok(Claim::Busy) => return None,
            // A store root we cannot even write leases to: simulate
            // unclaimed rather than wedge the sweep (inserts are
            // idempotent).
            Ok(Claim::Held) | Err(_) => {}
        },
    }
    if let Some(slot) = held {
        *slot.lock().expect("held slot") = Some(key.clone());
    }
    let outcome = simulate(spec, ctx);
    if let Some(slot) = held {
        *slot.lock().expect("held slot") = None;
    }
    // Best-effort: a store that cannot be written to (read-only, disk
    // full) must not fail the job it just ran.
    let (hash, label, fingerprint) = (spec.hash_hex(), spec.label(), code_fingerprint());
    match (&outcome, claim) {
        (Ok(doc), None) => {
            let _ = store.insert(&key, &hash, &label, fingerprint, doc);
        }
        (Ok(doc), Some(claim)) => {
            let _ = store.insert_claimed(&key, &hash, &label, fingerprint, doc, &claim.owner);
        }
        (Err(_), Some(claim)) => {
            let _ = store.release(&key, &claim.owner);
        }
        (Err(_), None) => {}
    }
    Some((
        outcome,
        JobSource::Simulated,
        claim.map(|c| c.owner.clone()),
    ))
}

/// Runs `spec` on the worker's context, catching a panic as the job's
/// failure message.
fn simulate(spec: &JobSpec, ctx: &mut WorkerContext) -> JobResult {
    let outcome = catch_unwind(AssertUnwindSafe(|| spec.execute_with(ctx))).map_err(panic_message);
    if outcome.is_err() {
        // The simulator may have unwound mid-cycle; never reuse it for
        // the next job.
        ctx.discard_simulator();
    }
    outcome
}

/// Renews every lease a worker holds at a quarter of the steal timeout,
/// so a long simulation is never stolen from a live pool.
fn heartbeat(
    store: &ResultStore,
    claim: &ClaimOptions,
    held: &[Mutex<Option<String>>],
    stop: &AtomicBool,
) {
    let beat = (claim.steal_after / 4).clamp(Duration::from_millis(10), Duration::from_secs(1));
    let tick = Duration::from_millis(10);
    let mut since_beat = Duration::ZERO;
    while !stop.load(Ordering::Relaxed) {
        std::thread::sleep(tick);
        since_beat += tick;
        if since_beat < beat {
            continue;
        }
        since_beat = Duration::ZERO;
        for slot in held {
            // Renew under the slot lock: a worker clears its slot before
            // it inserts and releases, so a renewal can never land after
            // the release and bring the lease back.
            let key = slot.lock().expect("heartbeat slot");
            if let Some(key) = key.as_deref() {
                let _ = store.heartbeat(key, &claim.owner);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::Workload;
    use condspec::DefenseConfig;

    fn tiny_job(benchmark: &'static str) -> JobSpec {
        let mut j = JobSpec::bench(benchmark, DefenseConfig::Origin);
        if let Workload::Bench {
            iterations, warmup, ..
        } = &mut j.workload
        {
            *iterations = 2;
            *warmup = 1;
        }
        j
    }

    /// A local pool without a store, reporting each finished job to
    /// `on_done`.
    fn run(
        jobs: &[JobSpec],
        workers: usize,
        mut on_done: impl FnMut(usize, &JobResult),
    ) -> Vec<JobResult> {
        let programs = Arc::new(ProgramCache::new());
        run_jobs_stored(jobs, workers, &programs, None, |index, outcome, _, _| {
            on_done(index, outcome)
        })
        .into_iter()
        .map(|(outcome, _, _)| outcome)
        .collect()
    }

    #[test]
    fn results_are_in_input_order_for_any_worker_count() {
        let jobs = vec![tiny_job("gcc"), tiny_job("mcf"), tiny_job("lbm")];
        let reference: Vec<String> = run(&jobs, 1, |_, _| {})
            .into_iter()
            .map(|r| r.expect("tiny jobs halt").render())
            .collect();
        for workers in [2, 8] {
            let got: Vec<String> = run(&jobs, workers, |_, _| {})
                .into_iter()
                .map(|r| r.expect("tiny jobs halt").render())
                .collect();
            assert_eq!(got, reference, "{workers} workers");
        }
    }

    #[test]
    fn a_panicking_job_is_isolated() {
        let mut bad = tiny_job("gcc");
        bad.budget = 10; // cannot halt in 10 cycles -> run_to_halt panics
        let jobs = vec![tiny_job("mcf"), bad, tiny_job("lbm")];
        let mut done = 0;
        let results = run(&jobs, 2, |_, _| done += 1);
        assert_eq!(done, 3);
        assert!(results[0].is_ok());
        assert!(results[1]
            .as_ref()
            .is_err_and(|e| e.contains("did not halt")));
        assert!(results[2].is_ok());
    }

    #[test]
    fn empty_job_list_is_fine() {
        assert!(run(&[], 4, |_, _| {}).is_empty());
    }

    #[test]
    fn shared_cache_builds_each_program_once_without_changing_results() {
        // Three jobs over one benchmark: two defense configs, with the
        // first repeated so a single worker exercises both simulator
        // reuse (reset in place) and rebuild (config change).
        let mut other = tiny_job("gcc");
        other.defense = DefenseConfig::Baseline;
        let jobs = vec![tiny_job("gcc"), other, tiny_job("gcc")];

        // Reference: each job executed in isolation (its own cache and
        // a fresh simulator).
        let solo: Vec<String> = jobs.iter().map(|j| j.execute().render()).collect();

        let programs = Arc::new(ProgramCache::new());
        let pooled: Vec<String> = run_jobs_stored(&jobs, 1, &programs, None, |_, _, _, _| {})
            .into_iter()
            .map(|(r, _, _)| r.expect("tiny jobs halt").render())
            .collect();
        assert_eq!(pooled, solo, "reuse must not change any artifact");

        // 3 jobs x 2 programs (warm-up + measured) = 6 requests over 2
        // distinct (benchmark, iterations) keys.
        assert_eq!(programs.builds(), 2);
        assert_eq!(programs.hits(), 4);
    }

    #[test]
    fn a_panic_does_not_poison_the_workers_next_job() {
        // One worker, so the job after the panic necessarily runs on
        // the same worker — its mid-unwind simulator must be discarded,
        // not reset and reused.
        let mut bad = tiny_job("gcc");
        bad.budget = 10;
        let jobs = vec![tiny_job("gcc"), bad, tiny_job("gcc")];
        let expected = jobs[2].execute().render();
        let results = run(&jobs, 1, |_, _| {});
        assert!(results[1].is_err());
        assert_eq!(
            results[2].as_ref().expect("job after panic halts").render(),
            expected
        );
    }

    #[test]
    fn warm_store_serves_identical_results_and_skips_failures() {
        let root =
            std::env::temp_dir().join(format!("condspec-scheduler-store-{}", std::process::id()));
        std::fs::remove_dir_all(&root).ok();
        let store = ResultStore::open(&root);
        let mut bad = tiny_job("gcc");
        bad.budget = 10; // panics; must not be inserted into the store
        let jobs = vec![tiny_job("gcc"), bad, tiny_job("mcf")];

        let programs = Arc::new(ProgramCache::new());
        let cold = run_jobs_stored(&jobs, 2, &programs, Some(&store), |_, _, _, source| {
            assert_eq!(source, JobSource::Simulated, "cold store simulates");
        });
        assert_eq!(store.hits(), 0);
        assert_eq!(store.inserts(), 2, "only successes are stored");

        let warm = run_jobs_stored(&jobs, 2, &programs, Some(&store), |_, _, _, _| {});
        assert_eq!(store.hits(), 2, "both successes hit on the second run");
        assert_eq!(warm[0].2, JobSource::Store);
        assert_eq!(warm[1].2, JobSource::Simulated, "the failure re-runs");
        assert_eq!(warm[2].2, JobSource::Store);
        for ((cold_result, _, _), (warm_result, _, _)) in cold.iter().zip(&warm) {
            assert_eq!(
                cold_result.as_ref().map(Json::render).ok(),
                warm_result.as_ref().map(Json::render).ok(),
                "a store hit is byte-identical to the simulation"
            );
        }
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn local_pools_take_no_leases_and_record_no_owner() {
        let root =
            std::env::temp_dir().join(format!("condspec-scheduler-local-{}", std::process::id()));
        std::fs::remove_dir_all(&root).ok();
        let store = ResultStore::open(&root);
        let jobs = vec![tiny_job("gcc"), tiny_job("mcf")];
        let programs = Arc::new(ProgramCache::new());
        for _ in 0..2 {
            let done = run_pool(
                &jobs,
                2,
                &programs,
                Claiming::Local(Some(&store)),
                |_, _| {},
            );
            assert!(done.iter().all(|job| job.origin.is_none() && !job.remote));
        }
        assert_eq!((store.inserts(), store.hits()), (2, 2));
        assert_eq!(store.claims(), 0);
        assert!(!root.join("claims").exists(), "no lease was written");
        assert_eq!(
            store
                .load_with_origin(&jobs[0].store_key())
                .map(|(_, owner)| owner),
            Some(None),
            "local inserts name no owner"
        );
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn timed_runs_report_plausible_telemetry() {
        let jobs = vec![tiny_job("gcc"), tiny_job("mcf"), tiny_job("lbm")];
        let programs = Arc::new(ProgramCache::new());
        let timed = run_jobs_stored(&jobs, 2, &programs, None, |_, outcome, timing, _| {
            assert!(outcome.is_ok());
            assert!(timing.worker < 2);
        });
        assert_eq!(timed.len(), 3);
        // Same results as running each job alone, in the same order.
        for ((timed_result, _, _), job) in timed.iter().zip(&jobs) {
            assert_eq!(
                timed_result.as_ref().map(Json::render),
                Ok(job.execute().render())
            );
        }
    }

    #[test]
    fn the_poll_interval_follows_the_steal_timeout() {
        let with = |ms| ClaimOptions {
            steal_after: Duration::from_millis(ms),
            ..ClaimOptions::new("o")
        };
        assert_eq!(ClaimOptions::new("o").poll(), Duration::from_millis(50));
        assert_eq!(with(50).poll(), Duration::from_micros(12_500));
        assert_eq!(with(1).poll(), Duration::from_millis(10));
    }
}
