//! Integration tests for the sweep engine's core guarantees:
//! worker-count-independent byte-identical artifacts, resume that skips
//! completed work, panic isolation that fails one job without aborting
//! the sweep, a persistent result store whose warm runs simulate
//! nothing yet reproduce every artifact byte for byte, and claim-based
//! sharding where concurrent pools split a sweep without duplicating or
//! losing a single job.

use condspec::DefenseConfig;
use condspec_engine::{
    load_sweep_report_with_store, run_sweep, run_sweep_observed, ClaimOptions, JobSpec,
    ResultStore, Sweep, SweepOptions, Workload,
};
use condspec_stats::Json;
use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::time::Duration;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("condspec-engine-{tag}-{}", std::process::id()));
    fs::remove_dir_all(&dir).ok();
    dir
}

fn tiny_job(benchmark: &'static str, defense: DefenseConfig) -> JobSpec {
    let mut job = JobSpec::bench(benchmark, defense);
    if let Workload::Bench {
        iterations, warmup, ..
    } = &mut job.workload
    {
        *iterations = 2;
        *warmup = 1;
    }
    job
}

/// A six-job sweep small enough to run repeatedly in tests.
fn mini_sweep() -> Sweep {
    let jobs = ["gcc", "mcf", "lbm"]
        .into_iter()
        .flat_map(|b| {
            [
                tiny_job(b, DefenseConfig::Origin),
                tiny_job(b, DefenseConfig::CacheHitTpbuf),
            ]
        })
        .collect();
    Sweep {
        name: "fig5",
        title: "mini",
        jobs,
    }
}

fn options(root: &Path, workers: usize) -> SweepOptions {
    SweepOptions {
        workers,
        root: root.to_path_buf(),
        quiet: true,
        ..SweepOptions::default()
    }
}

/// Each manifest row's `(source, owner)`, in sweep order.
fn manifest_rows(dir: &Path) -> Vec<(String, Option<String>)> {
    let text = fs::read_to_string(dir.join("manifest.json")).expect("manifest");
    let manifest = Json::parse(&text).expect("manifest JSON");
    let rows = manifest.get("jobs").and_then(Json::as_array).expect("rows");
    rows.iter()
        .map(|row| {
            let field = |key| row.get(key).and_then(Json::as_str).map(str::to_string);
            (field("source").expect("source"), field("owner"))
        })
        .collect()
}

/// Every file of the sweep directory, by name, as raw bytes.
fn dir_bytes(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    fs::read_dir(dir)
        .expect("sweep directory exists")
        .map(|entry| {
            let path = entry.expect("entry").path();
            let name = path
                .file_name()
                .expect("file name")
                .to_string_lossy()
                .into_owned();
            (name, fs::read(&path).expect("readable artifact"))
        })
        .collect()
}

#[test]
fn artifacts_are_byte_identical_across_worker_counts() {
    let sweep = mini_sweep();
    let roots: Vec<PathBuf> = [1usize, 2, 8]
        .iter()
        .map(|w| scratch(&format!("det{w}")))
        .collect();
    let mut dirs = Vec::new();
    for (root, workers) in roots.iter().zip([1usize, 2, 8]) {
        let outcome = run_sweep(&sweep, &options(root, workers)).expect("sweep runs");
        assert_eq!(outcome.executed, sweep.jobs.len());
        assert!(outcome.failed.is_empty());
        dirs.push(outcome.dir);
    }
    let reference = dir_bytes(&dirs[0]);
    assert_eq!(reference.len(), sweep.jobs.len() + 1, "jobs + manifest");
    for dir in &dirs[1..] {
        assert_eq!(
            dir_bytes(dir),
            reference,
            "artifacts differ across worker counts"
        );
    }
    for root in &roots {
        fs::remove_dir_all(root).ok();
    }
}

#[test]
fn resume_skips_every_completed_job() {
    let sweep = mini_sweep();
    let root = scratch("resume");

    let first = run_sweep(&sweep, &options(&root, 2)).expect("first run");
    assert_eq!(first.executed, sweep.jobs.len());
    assert_eq!(first.skipped, 0);

    let mut resume = options(&root, 2);
    resume.resume = true;
    let second = run_sweep(&sweep, &resume).expect("second run");
    assert_eq!(second.executed, 0, "resume must not re-simulate anything");
    assert_eq!(second.skipped, sweep.jobs.len());
    assert_eq!(second.results.len(), sweep.jobs.len());

    // Without --resume the artifacts are recomputed (and stay identical).
    let third = run_sweep(&sweep, &options(&root, 2)).expect("third run");
    assert_eq!(third.executed, sweep.jobs.len());
    fs::remove_dir_all(&root).ok();
}

#[test]
fn a_panicking_job_fails_alone_and_reruns_on_resume() {
    let mut sweep = mini_sweep();
    sweep.jobs[1].budget = 10; // cannot halt in 10 cycles -> panics
    let root = scratch("panic");

    let outcome = run_sweep(&sweep, &options(&root, 2)).expect("sweep survives the panic");
    assert_eq!(outcome.failed.len(), 1);
    let (failed_hash, _, message) = &outcome.failed[0];
    assert_eq!(failed_hash, &sweep.jobs[1].hash_hex());
    assert!(
        message.contains("did not halt"),
        "panic message is preserved: {message}"
    );
    assert_eq!(
        outcome.results.len(),
        sweep.jobs.len() - 1,
        "all other jobs completed"
    );

    // The manifest records the failure; the artifact file was never
    // written, so a resumed run retries exactly the failed job.
    let manifest = fs::read_to_string(outcome.dir.join("manifest.json")).expect("manifest");
    assert!(manifest.contains("\"failed\""));
    let mut resume = options(&root, 2);
    resume.resume = true;
    let retried = run_sweep(&sweep, &resume).expect("resume");
    assert_eq!(retried.executed, 1, "only the failed job re-runs");
    assert_eq!(retried.skipped, sweep.jobs.len() - 1);
    fs::remove_dir_all(&root).ok();
}

#[test]
fn a_warm_store_re_simulates_nothing_and_reproduces_every_artifact() {
    let sweep = mini_sweep();
    let cold_root = scratch("store-cold");
    let warm_root = scratch("store-warm");
    let store_root = scratch("store-db");
    let with_store = |root: &Path| SweepOptions {
        store: Some(store_root.clone()),
        ..options(root, 2)
    };

    let cold = run_sweep(&sweep, &with_store(&cold_root)).expect("cold run");
    assert_eq!(cold.executed, sweep.jobs.len());
    assert_eq!(cold.store_hits, 0);

    // Fresh run directory, warm store: zero simulations, and the
    // observer sees store hits accumulate to the full sweep.
    let mut last_progress = None;
    let warm = run_sweep_observed(&sweep, &with_store(&warm_root), |p| {
        last_progress = Some(*p);
    })
    .expect("warm run");
    assert_eq!(warm.executed, 0, "warm store re-simulates nothing");
    assert_eq!(warm.store_hits, sweep.jobs.len());
    let progress = last_progress.expect("observer fired");
    assert_eq!(progress.store_hits, sweep.jobs.len());
    assert_eq!(progress.simulated, 0);

    // Job artifacts are byte-identical between the cold and warm runs;
    // only the manifest's `source` column differs.
    let mut cold_files = dir_bytes(&cold.dir);
    let mut warm_files = dir_bytes(&warm.dir);
    assert!(cold_files.remove("manifest.json").is_some());
    assert!(warm_files.remove("manifest.json").is_some());
    assert_eq!(warm_files, cold_files, "store hits change no artifact");

    // Satellite: the report resolves through the store even after the
    // run directories are gone.
    fs::remove_dir_all(&cold_root).ok();
    fs::remove_dir_all(&warm_root).ok();
    let store = ResultStore::open(&store_root);
    let report = load_sweep_report_with_store(&cold_root, &cold.sweep_id, Some(&store));
    // mini_sweep is a hand-shrunk fig5, so its id does not match the
    // real fig5 — store-only reconstruction must refuse it honestly.
    assert!(report.is_err(), "mismatched id is rejected, not misread");
    fs::remove_dir_all(&store_root).ok();
}

#[test]
fn report_falls_back_to_the_store_for_deleted_artifacts() {
    // A real named sweep (scaled down), so `load_sweep_report` rebuilds
    // the same job list from the manifest.
    let sweep = Sweep::by_name("icache").expect("known sweep");
    let root = scratch("store-fallback");
    let store_root = scratch("store-fallback-db");
    let opts = SweepOptions {
        store: Some(store_root.clone()),
        bench_iterations: Some(2),
        bench_warmup: Some(1),
        ..options(&root, 2)
    };
    let outcome = run_sweep(&sweep, &opts).expect("run");

    // Delete one job artifact; the manifest stays.
    let victim = sweep.clone().scaled(Some(2), Some(1)).jobs[0].hash_hex();
    fs::remove_file(outcome.dir.join(format!("{victim}.json"))).expect("delete artifact");

    let without = condspec_engine::load_sweep_report(&root, &outcome.sweep_id).expect("report");
    assert_eq!(without.missing.len(), 1, "dir-only report misses the job");

    let store = ResultStore::open(&store_root);
    let with = load_sweep_report_with_store(&root, &outcome.sweep_id, Some(&store))
        .expect("store-backed report");
    assert!(with.missing.is_empty(), "the store fills the hole");
    assert_eq!(with.results.len(), sweep.jobs.len());
    assert_eq!(
        with.results.get(&victim),
        outcome.results.get(&victim),
        "store-resolved artifact matches the original"
    );
    fs::remove_dir_all(&root).ok();
    fs::remove_dir_all(&store_root).ok();
}

#[test]
fn two_pools_racing_one_store_split_the_work_without_duplicates() {
    let sweep = mini_sweep();
    let jobs = sweep.jobs.len();
    let store_root = scratch("claims-race");
    let solo_store = scratch("claims-race-solo-db");
    let roots = ["a", "b", "solo"].map(|tag| scratch(&format!("claims-race-{tag}")));
    let shard = |root: &Path, store: &Path, owner: &str| SweepOptions {
        store: Some(store.to_path_buf()),
        claim: Some(ClaimOptions::new(owner)),
        ..options(root, 1)
    };

    // Two claim-mode sweeps — separate store handles on one root,
    // distinct owners, a run root each — drain the same job list
    // concurrently, exactly as two `condspec sweep --owner` processes
    // would.
    let (a, b) = std::thread::scope(|scope| {
        let a = scope.spawn(|| run_sweep(&sweep, &shard(&roots[0], &store_root, "shard-a")));
        let b = scope.spawn(|| run_sweep(&sweep, &shard(&roots[1], &store_root, "shard-b")));
        (a.join().expect("pool a"), b.join().expect("pool b"))
    });
    let (a, b) = (a.expect("sweep a runs"), b.expect("sweep b runs"));
    assert!(a.failed.is_empty() && b.failed.is_empty());

    // Exactly one pool simulated, and so inserted, each job: the
    // executed counts split the sweep, and no job reads `simulated` in
    // both manifests, so no insert found its entry already filed.
    assert_eq!(
        a.executed + b.executed,
        jobs,
        "every job inserted exactly once across the two pools"
    );
    for (index, (row_a, row_b)) in manifest_rows(&a.dir)
        .iter()
        .zip(&manifest_rows(&b.dir))
        .enumerate()
    {
        let simulated = [row_a, row_b]
            .iter()
            .filter(|(source, _)| source == "simulated")
            .count();
        assert_eq!(simulated, 1, "job {index} simulated {simulated} times");
        // Provenance: whoever simulated it is recorded; the other pool
        // sees that owner through the store envelope.
        assert_eq!(row_a.1, row_b.1, "job {index} owners differ");
        assert!(matches!(row_a.1.as_deref(), Some("shard-a" | "shard-b")));
    }
    let stats = ResultStore::open(&store_root).stats().expect("store stats");
    assert_eq!(stats.entries, jobs as u64);
    // No leases survive a clean drain.
    assert_eq!(stats.leases, 0);

    // Both pools resolve the complete sweep, and their artifact
    // documents are identical to an uncontended solo run's.
    let solo = run_sweep(&sweep, &shard(&roots[2], &solo_store, "solo")).expect("solo run");
    let artifacts = |dir: &Path| {
        let mut files = dir_bytes(dir);
        files.remove("manifest.json").expect("manifest");
        files
    };
    let reference = artifacts(&solo.dir);
    assert_eq!(reference.len(), jobs);
    assert_eq!(artifacts(&a.dir), reference, "pool a's artifacts differ");
    assert_eq!(artifacts(&b.dir), reference, "pool b's artifacts differ");

    for dir in roots.iter().chain([&store_root, &solo_store]) {
        fs::remove_dir_all(dir).ok();
    }
}

#[test]
fn a_dead_owners_leases_are_stolen_and_the_sweep_completes() {
    let sweep = mini_sweep();
    let store_root = scratch("claims-steal");
    let root = scratch("claims-steal-runs");
    let store = ResultStore::open(&store_root);

    // A crashed worker left leases on two jobs: claimed, never
    // heartbeated, never released.
    for job in &sweep.jobs[..2] {
        let status = store
            .try_claim(&job.store_key(), "dead-worker", Duration::from_secs(3600))
            .expect("pre-claim");
        assert_eq!(status, condspec_store::ClaimStatus::Acquired);
    }

    // A live shard with a short steal timeout drains the sweep anyway.
    let opts = SweepOptions {
        store: Some(store_root.clone()),
        claim: Some(ClaimOptions {
            steal_after: Duration::from_millis(50),
            ..ClaimOptions::new("live-worker")
        }),
        ..options(&root, 2)
    };
    let outcome = run_sweep(&sweep, &opts).expect("live sweep");
    assert!(
        outcome.failed.is_empty(),
        "a job was lost to the dead worker's lease: {:?}",
        outcome.failed
    );
    assert_eq!(outcome.executed, sweep.jobs.len());
    assert_eq!(outcome.store_hits, 0);

    // The live shard simulated every job, the two dead-leased ones
    // included. It could only do so under a lease of its own, since it
    // releases only its own leases and none is left: the stale leases
    // were stolen, then released on insert.
    for (index, (source, owner)) in manifest_rows(&outcome.dir).iter().enumerate() {
        assert_eq!(
            (source.as_str(), owner.as_deref()),
            ("simulated", Some("live-worker")),
            "job {index}"
        );
    }
    let stats = store.stats().expect("store stats");
    assert_eq!(stats.entries, sweep.jobs.len() as u64);
    assert_eq!(stats.leases, 0, "stolen leases were released on insert");
    fs::remove_dir_all(&store_root).ok();
    fs::remove_dir_all(&root).ok();
}

#[test]
fn claim_mode_sweeps_account_every_job_once_in_the_manifest() {
    let sweep = mini_sweep();
    let root = scratch("claims-sweep");
    let warm_root = scratch("claims-sweep-warm");
    let store_root = scratch("claims-sweep-db");

    let mut opts = options(&root, 2);
    opts.store = Some(store_root.clone());
    opts.claim = Some(ClaimOptions::new("shard-cold"));
    let cold = run_sweep(&sweep, &opts).expect("cold claim-mode run");
    assert_eq!(cold.executed, sweep.jobs.len());
    assert_eq!(cold.store_hits, 0);
    assert_eq!(cold.remote, 0);

    // Every manifest row is accounted exactly once and carries the
    // simulating shard's owner id.
    let manifest = fs::read_to_string(cold.dir.join("manifest.json")).expect("manifest");
    assert_eq!(
        manifest.matches("\"owner\":\"shard-cold\"").count(),
        sweep.jobs.len(),
        "per-shard provenance on every row: {manifest}"
    );

    // A second claim-mode run under a different owner resolves fully
    // from the store and reports the original simulator as origin.
    let mut warm_opts = options(&warm_root, 2);
    warm_opts.store = Some(store_root.clone());
    warm_opts.claim = Some(ClaimOptions::new("shard-warm"));
    let mut last_progress = None;
    let warm = run_sweep_observed(&sweep, &warm_opts, |p| last_progress = Some(*p))
        .expect("warm claim-mode run");
    assert_eq!(warm.executed, 0);
    assert_eq!(warm.store_hits, sweep.jobs.len());
    let progress = last_progress.expect("observer fired");
    assert_eq!(
        progress.done,
        progress.simulated + progress.store_hits + progress.failed,
        "progress invariant holds in claim mode"
    );
    let warm_manifest = fs::read_to_string(warm.dir.join("manifest.json")).expect("manifest");
    assert_eq!(
        warm_manifest.matches("\"owner\":\"shard-cold\"").count(),
        sweep.jobs.len(),
        "store hits attribute the shard that simulated them: {warm_manifest}"
    );

    fs::remove_dir_all(&root).ok();
    fs::remove_dir_all(&warm_root).ok();
    fs::remove_dir_all(&store_root).ok();
}

#[test]
fn scaled_sweeps_round_trip_through_manifest_and_report() {
    let root = scratch("scaled");
    let sweep = Sweep::by_name("icache").expect("known sweep");
    let opts = SweepOptions {
        bench_iterations: Some(2),
        bench_warmup: Some(1),
        workers: 2,
        root: root.clone(),
        quiet: true,
        ..SweepOptions::default()
    };
    let outcome = run_sweep(&sweep, &opts).expect("scaled run");
    assert_eq!(
        outcome.sweep_id,
        sweep.clone().scaled(Some(2), Some(1)).sweep_id(),
        "the outcome id is the scaled sweep's id"
    );
    assert_ne!(outcome.sweep_id, sweep.sweep_id());

    // The manifest records the overrides, so the report rebuilds the
    // scaled job list and finds every artifact.
    let report =
        condspec_engine::load_sweep_report(&root, &outcome.sweep_id).expect("scaled report");
    assert!(report.missing.is_empty(), "every scaled job resolves");
    assert!(report.failed.is_empty());
    assert_eq!(report.results.len(), sweep.jobs.len());
    fs::remove_dir_all(&root).ok();
}
