//! The traced replay of the engine path.
//!
//! [`replay_sweep`] does what `condspec_engine::run_sweep_observed`
//! does for a local, store-consulting sweep — directory, worker pool,
//! store load/insert, artifact writes, manifest, render — but through
//! the layers' public functions, each call wrapped in a span.
//! [`exec_job`] likewise replays `JobSpec::execute_with` per workload
//! kind. The artifacts it writes must be byte-identical to the engine's
//! own; every workload checks that, so the replay cannot drift from the
//! path it measures.

use crate::common::WORKERS;
use crate::trace::Tracer;
use condspec::{leak_report_to_json, plan_one_window, run_window, SampledOptions};
use condspec_attacks::{leak_probe, run_variant};
use condspec_engine::hash::code_fingerprint;
use condspec_engine::{
    JobSource, JobSpec, JobStatus, ManifestInfo, ProgramCache, ResultStore, Sweep, SweepDir,
    SweepResults, WorkerContext, Workload,
};
use condspec_stats::Json;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};

pub type JobResult = Result<Json, String>;

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "job panicked".to_string()
    }
}

/// The worker pool of `run_jobs_stored`, traced: a shared cursor,
/// [`WORKERS`] threads, store lookup before and insert after each
/// simulation, results collected by index on the calling thread.
pub fn run_pool(
    tr: &Tracer,
    jobs: &[JobSpec],
    programs: &Arc<ProgramCache>,
    store: Option<&ResultStore>,
    mut on_done: impl FnMut(usize, &JobResult),
) -> Vec<(JobResult, JobSource)> {
    let workers = WORKERS.min(jobs.len().max(1));
    let mut results: Vec<Option<(JobResult, JobSource)>> = (0..jobs.len()).map(|_| None).collect();
    tr.span("engine.pool", || {
        let pool = tr.current();
        let pool_start = tr.now_ns();
        let cursor = AtomicUsize::new(0);
        let (tx, rx) = mpsc::channel::<(usize, JobResult, JobSource)>();
        std::thread::scope(|scope| {
            for _ in 0..workers {
                let tx = tx.clone();
                let cursor = &cursor;
                let mut ctx = WorkerContext::new(Arc::clone(programs));
                scope.spawn(move || {
                    tr.span_under(pool, "engine.worker", || loop {
                        let index = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(spec) = jobs.get(index) else { break };
                        tr.count(
                            "engine.queue_wait_s",
                            (tr.now_ns() - pool_start) as f64 / 1e9,
                        );
                        let (outcome, source) =
                            tr.span("engine.job", || run_one(tr, spec, store, &mut ctx));
                        if tx.send((index, outcome, source)).is_err() {
                            break;
                        }
                    });
                });
            }
            drop(tx);
            for (index, outcome, source) in rx {
                on_done(index, &outcome);
                results[index] = Some((outcome, source));
            }
        });
    });
    results
        .into_iter()
        .map(|r| r.expect("every job reports exactly once"))
        .collect()
}

fn run_one(
    tr: &Tracer,
    spec: &JobSpec,
    store: Option<&ResultStore>,
    ctx: &mut WorkerContext,
) -> (JobResult, JobSource) {
    if let Some(s) = store {
        if let Some(doc) = tr.span("store.load", || s.load(&spec.store_key())) {
            return (Ok(doc), JobSource::Store);
        }
    }
    let depth = tr.depth();
    let outcome = catch_unwind(AssertUnwindSafe(|| exec_job(tr, spec, ctx))).map_err(panic_message);
    tr.unwind_to(depth);
    match (&outcome, store) {
        (Ok(doc), Some(s)) => {
            let key = spec.store_key();
            let inserted = tr.span("store.insert", || {
                s.insert(
                    &key,
                    &spec.hash_hex(),
                    &spec.label(),
                    code_fingerprint(),
                    doc,
                )
            });
            if inserted.is_ok() && tr.on() {
                let bytes = std::fs::metadata(s.object_path(&key)).map_or(0, |m| m.len());
                tr.count("store.bytes_written", bytes as f64);
            }
        }
        (Err(_), _) => ctx.discard_simulator(),
        _ => {}
    }
    (outcome, JobSource::Simulated)
}

/// `JobSpec::execute_with`, replayed per workload kind with a span
/// around each layer call. Benchmark programs are fetched from the
/// cache first under `workloads.build`, so the engine's own fetches
/// inside `execute_with` are cache hits.
pub fn exec_job(tr: &Tracer, spec: &JobSpec, ctx: &mut WorkerContext) -> Json {
    match &spec.workload {
        Workload::Bench {
            benchmark,
            iterations,
            warmup,
        } => {
            tr.span("workloads.build", || {
                ctx.programs().get_or_build(benchmark, *warmup);
                ctx.programs().get_or_build(benchmark, *iterations);
            });
            tr.count("engine.prefetches", 2.0);
            tr.span("core.execute", || spec.execute_with(ctx))
        }
        Workload::BenchWindow {
            benchmark,
            iterations,
            checkpoints,
            window,
            window_warmup,
            window_index,
        } => {
            let program = tr.span("workloads.build", || {
                ctx.programs().get_or_build(benchmark, *iterations)
            });
            let sim = ctx.simulator(spec.sim_config());
            let opts = SampledOptions {
                checkpoints: *checkpoints,
                window: *window,
                warmup: *window_warmup,
                max_cycles: spec.budget,
                ..SampledOptions::default()
            };
            let (total_insts, plan) = tr
                .span("sampled.fast_forward", || {
                    plan_one_window(sim, &program, benchmark, &opts, *window_index)
                })
                .unwrap_or_else(|e| panic!("window planning failed: {e}"));
            tr.count(
                "sampled.fast_forward_insts",
                (total_insts + plan.start_inst) as f64,
            );
            let measured = tr
                .span("sampled.window", || run_window(sim, &plan, &program, &opts))
                .unwrap_or_else(|e| panic!("window run failed: {e}"));
            tr.count(
                "sampled.detailed_insts",
                (measured.report.committed + opts.warmup.min(plan.segment_len)) as f64,
            );
            Json::object(vec![
                ("job", Json::from(spec.hash_hex())),
                ("key", Json::from(spec.canonical_key())),
                ("report", measured.report.to_json()),
                ("total_insts", Json::from(total_insts)),
                ("start_inst", Json::from(plan.start_inst)),
                ("segment_len", Json::from(plan.segment_len)),
            ])
        }
        Workload::Attack { scenario } => {
            let outcome = tr.span("attacks.attack", || scenario.run(spec.defense));
            let defended = !outcome.leaked();
            let expected = scenario.expected_defended(spec.defense);
            Json::object(vec![
                ("job", Json::from(spec.hash_hex())),
                ("key", Json::from(spec.canonical_key())),
                ("leaked", Json::from(outcome.leaked())),
                ("defended", Json::from(defended)),
                ("expected_defended", Json::from(expected)),
                ("matches_paper", Json::from(defended == expected)),
            ])
        }
        Workload::Variant { kind } => {
            let outcome = tr.span("attacks.variant", || run_variant(*kind, spec.defense));
            Json::object(vec![
                ("job", Json::from(spec.hash_hex())),
                ("key", Json::from(spec.canonical_key())),
                ("leaked", Json::from(outcome.leaked())),
            ])
        }
        Workload::LeakProbe { kind } => {
            let outcome = tr.span("attacks.leak_probe", || leak_probe(*kind, spec.defense));
            Json::object(vec![
                ("job", Json::from(spec.hash_hex())),
                ("key", Json::from(spec.canonical_key())),
                ("cache_leaked", Json::from(outcome.cache_leaked())),
                ("leaks", leak_report_to_json(&outcome.leaks)),
                ("leak_events", Json::from(outcome.events.len() as u64)),
            ])
        }
    }
}

/// What a replayed sweep produced.
pub struct Replayed {
    pub dir: PathBuf,
    pub results: SweepResults,
    pub failed: usize,
    pub rendered: String,
}

/// `run_sweep_observed` (unscaled, no resume, no claims, quiet)
/// replayed, so the directory, the manifest and the artifacts match the
/// engine's byte for byte.
pub fn replay_sweep(
    tr: &Tracer,
    sweep: &Sweep,
    root: &Path,
    store: Option<&ResultStore>,
) -> Result<Replayed, String> {
    let sweep_id = sweep.sweep_id();
    let dir = tr
        .span("engine.sweep_dir", || SweepDir::create(root, &sweep_id))
        .map_err(|e| format!("creating the sweep directory: {e}"))?;
    let programs = Arc::new(ProgramCache::new());
    let mut write_error = None;
    let outcomes = run_pool(tr, &sweep.jobs, &programs, store, |index, outcome| {
        if let Ok(doc) = outcome {
            let hash = sweep.jobs[index].hash_hex();
            if let Err(e) = tr.span("engine.artifact_write", || dir.write(&hash, doc)) {
                write_error.get_or_insert(e);
            }
            if tr.on() {
                let bytes = std::fs::metadata(dir.artifact_path(&hash)).map_or(0, |m| m.len());
                tr.count("engine.artifact_bytes", bytes as f64);
            }
        }
    });
    if let Some(e) = write_error {
        return Err(format!("writing an artifact: {e}"));
    }
    tr.count("workloads.builds", programs.builds() as f64);
    tr.count("engine.cache_hits_raw", programs.hits() as f64);

    let mut results = SweepResults::new();
    let mut statuses = Vec::with_capacity(sweep.jobs.len());
    let mut failed = 0;
    for (job, (outcome, source)) in sweep.jobs.iter().zip(outcomes) {
        let hash = job.hash_hex();
        let status = match outcome {
            Ok(doc) => {
                results.insert(hash.clone(), doc);
                "ok"
            }
            Err(_) => {
                failed += 1;
                "failed"
            }
        };
        statuses.push(JobStatus {
            hash,
            label: job.label(),
            status,
            source,
            owner: None,
        });
    }
    tr.span("engine.manifest_write", || {
        dir.write_manifest(
            &ManifestInfo {
                sweep_name: sweep.name,
                sweep_id: &sweep_id,
                bench_iterations: None,
                bench_warmup: None,
            },
            &statuses,
        )
    })
    .map_err(|e| format!("writing the manifest: {e}"))?;
    let rendered = tr.span("engine.render", || sweep.render(&results));
    Ok(Replayed {
        dir: dir.path().to_path_buf(),
        results,
        failed,
        rendered,
    })
}
