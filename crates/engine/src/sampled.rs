//! Sampled-run orchestration on the worker pool: one functional count
//! pass, one functional capture pass, one independent
//! [`Workload::BenchWindow`] job per segment, and weighted stitching of
//! the window artifacts into a whole-program estimate.
//!
//! The orchestrator runs both functional passes itself, before the
//! pool starts (functional execution is tens of times faster than
//! detailed). The capture pass takes the checkpoint of every window the
//! store cannot serve and stops at the start of the last one; each plan
//! reaches its window job through the pool's [`ProgramCache`], so a
//! program is run functionally at most twice. A window job that finds
//! no plan there plans its own window, which is what a job run alone or
//! on a remote worker does. Window jobs are content-hashed like any
//! other job (`kind=bench-window`), so a warm [`ResultStore`] serves a
//! repeated sampled run without capturing or simulating a single
//! window.
//!
//! [`Workload::BenchWindow`]: crate::Workload::BenchWindow

use crate::cache::{ProgramCache, WindowKey};
use crate::job::{JobSpec, MachinePreset, Workload, DEFAULT_BUDGET, DEFAULT_ITERATIONS};
use crate::scheduler::run_jobs_stored;
use crate::JobSource;
use condspec::{
    capture_windows, count_insts, plan_segments, stitch_reports, DefenseConfig, LruPolicy, Report,
    SampledOptions, Simulator, WindowReport,
};
use condspec_stats::Json;
use condspec_store::ResultStore;
use condspec_workloads::spec::by_name;
use std::sync::Arc;

/// A sampled benchmark run, fully specified: the program, the defense
/// environment (including every machine/policy knob a detailed job
/// carries), and the sampling grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SampledBenchSpec {
    /// Benchmark name from the suite.
    pub benchmark: &'static str,
    /// Outer iterations of the program.
    pub iterations: u64,
    /// Defense environment every window runs under.
    pub defense: DefenseConfig,
    /// Machine preset every window runs on.
    pub machine: MachinePreset,
    /// Secure-LRU policy.
    pub lru: LruPolicy,
    /// §VI.C ablation: track only branch → memory dependences.
    pub branch_only: bool,
    /// §VII.B extension: ICache-hit filter on unsafe fetches.
    pub icache_filter: bool,
    /// Number of evenly spaced checkpoints / detailed windows.
    pub checkpoints: usize,
    /// Detailed instructions measured per window.
    pub window: u64,
    /// Detailed warm-up instructions before each window's stats reset.
    pub window_warmup: u64,
    /// Cycle budget per detailed window.
    pub budget: u64,
}

impl SampledBenchSpec {
    /// A sampled run of `benchmark` under `defense` on the paper-default
    /// machine with the default iteration count and sampling grid.
    pub fn new(benchmark: &'static str, defense: DefenseConfig) -> SampledBenchSpec {
        let defaults = SampledOptions::default();
        SampledBenchSpec {
            benchmark,
            iterations: DEFAULT_ITERATIONS,
            defense,
            machine: MachinePreset::PaperDefault,
            lru: LruPolicy::Update,
            branch_only: false,
            icache_filter: false,
            checkpoints: defaults.checkpoints,
            window: defaults.window,
            window_warmup: defaults.warmup,
            budget: DEFAULT_BUDGET,
        }
    }

    /// The sampled equivalent of a detailed [`Workload::Bench`] job:
    /// same benchmark, iterations, defense, machine, and policy knobs,
    /// default sampling grid. `None` for attack/variant/window jobs,
    /// which have no sampled form.
    pub fn from_bench_job(job: &JobSpec) -> Option<SampledBenchSpec> {
        let Workload::Bench {
            benchmark,
            iterations,
            ..
        } = &job.workload
        else {
            return None;
        };
        Some(SampledBenchSpec {
            iterations: *iterations,
            machine: job.machine,
            lru: job.lru,
            branch_only: job.branch_only,
            icache_filter: job.icache_filter,
            budget: job.budget,
            ..SampledBenchSpec::new(benchmark, job.defense)
        })
    }

    /// The window job measuring segment `index`.
    pub fn window_job(&self, index: usize) -> JobSpec {
        let mut job = JobSpec::bench_window(self.benchmark, self.defense, index);
        job.machine = self.machine;
        job.lru = self.lru;
        job.branch_only = self.branch_only;
        job.icache_filter = self.icache_filter;
        job.budget = self.budget;
        if let Workload::BenchWindow {
            iterations,
            checkpoints,
            window,
            window_warmup,
            ..
        } = &mut job.workload
        {
            *iterations = self.iterations;
            *checkpoints = self.checkpoints;
            *window = self.window;
            *window_warmup = self.window_warmup;
        }
        job
    }
}

/// What a sampled benchmark run produced.
#[derive(Debug, Clone)]
pub struct SampledBenchOutcome {
    /// Whole-program retired-instruction count from the count pass.
    pub total_insts: u64,
    /// The stitched whole-program estimate.
    pub report: Report,
    /// Per-window measurements, in segment order.
    pub windows: Vec<WindowReport>,
    /// Window jobs actually simulated this run.
    pub executed: usize,
    /// Window jobs served from the persistent result store.
    pub store_hits: usize,
}

/// The persistent-store key a checkpoint object is filed under.
/// Checkpoints are policy-agnostic (a quiesced boundary holds no
/// defense transient state), so the identity names only the workload,
/// the machine preset, the whole-program instruction count, and the
/// capture position — one stored checkpoint serves every defense. The
/// distinct `kind=checkpoint` prefix keeps checkpoint keys disjoint
/// from every job key, and the shared code fingerprint invalidates
/// them together with results when simulation semantics change.
pub fn checkpoint_store_key(
    workload: &str,
    machine: &str,
    total_insts: u64,
    inst_index: u64,
) -> String {
    crate::hash::store_key(&format!(
        "kind=checkpoint;workload={workload};machine={machine};\
         total={total_insts};inst={inst_index}"
    ))
}

fn window_field(doc: &Json, key: &str, index: usize) -> Result<u64, String> {
    doc.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("window {index} artifact has no `{key}` field"))
}

/// Runs a complete sampled simulation of `spec` on `workers` threads:
/// functional count pass, one functional capture pass over the windows
/// `store` (when given) lacks, one detailed window job per segment on
/// the scheduler, weighted stitch.
///
/// # Errors
///
/// Fails on an unknown benchmark, a zero-checkpoint grid, a functional
/// pass that does not halt, a failed window job, or a window artifact
/// that disagrees with the count pass (a stale store entry from a
/// different code generation would be caught here, not silently
/// stitched).
pub fn run_sampled_bench(
    spec: &SampledBenchSpec,
    workers: usize,
    store: Option<&ResultStore>,
) -> Result<SampledBenchOutcome, String> {
    if by_name(spec.benchmark).is_none() {
        return Err(format!("unknown benchmark `{}`", spec.benchmark));
    }
    let programs = Arc::new(ProgramCache::new());
    let program = programs.get_or_build(spec.benchmark, spec.iterations);
    let first = spec.window_job(0);
    let (key, opts) = first
        .window_setup()
        .expect("a window job has a window setup");
    let mut sim = Simulator::new(first.sim_config());
    let total_insts = count_insts(&mut sim, &program, &opts)?;
    let segments = plan_segments(total_insts, spec.checkpoints);
    let jobs: Vec<JobSpec> = (0..segments.len()).map(|i| spec.window_job(i)).collect();

    // A window the store holds is never simulated, so its checkpoint is
    // not captured. `is_file` leaves the store's hit counters to the
    // pool's own lookups.
    let missing = (0..jobs.len())
        .filter(|&i| store.is_none_or(|s| !s.object_path(&jobs[i].store_key()).is_file()));
    let plans = capture_windows(
        &mut sim,
        &program,
        spec.benchmark,
        total_insts,
        &opts,
        missing,
    )?;
    drop(sim);
    for plan in plans {
        let key = WindowKey {
            index: plan.index,
            ..key
        };
        programs.hand_over(key, total_insts, plan);
    }

    let results = run_jobs_stored(&jobs, workers, &programs, store, |_, _, _, _| {});

    let mut windows = Vec::with_capacity(results.len());
    let (mut executed, mut store_hits) = (0usize, 0usize);
    for (index, (outcome, _, source)) in results.into_iter().enumerate() {
        match source {
            JobSource::Store => store_hits += 1,
            _ => executed += 1,
        }
        let doc = outcome.map_err(|e| format!("window {index} failed: {e}"))?;
        let artifact_total = window_field(&doc, "total_insts", index)?;
        if artifact_total != total_insts {
            return Err(format!(
                "window {index} artifact counted {artifact_total} instructions, \
                 the count pass {total_insts}"
            ));
        }
        let start_inst = window_field(&doc, "start_inst", index)?;
        let segment_len = window_field(&doc, "segment_len", index)?;
        if (start_inst, segment_len) != segments[index] {
            return Err(format!(
                "window {index} artifact covers [{start_inst}, +{segment_len}), \
                 the plan says [{}, +{})",
                segments[index].0, segments[index].1
            ));
        }
        let report = doc
            .get("report")
            .and_then(Report::from_json)
            .ok_or_else(|| format!("window {index} artifact has no parseable report"))?;
        windows.push(WindowReport {
            index,
            start_inst,
            segment_len,
            report,
        });
    }
    let report = stitch_reports(total_insts, &windows);
    Ok(SampledBenchOutcome {
        total_insts,
        report,
        windows,
        executed,
        store_hits,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use condspec::{run_sampled, SimConfig};

    fn tiny_spec() -> SampledBenchSpec {
        SampledBenchSpec {
            iterations: 2,
            checkpoints: 3,
            window: 400,
            window_warmup: 50,
            ..SampledBenchSpec::new("gcc", DefenseConfig::CacheHit)
        }
    }

    #[test]
    fn pooled_sampled_run_matches_the_serial_driver() {
        let spec = tiny_spec();
        let pooled = run_sampled_bench(&spec, 2, None).expect("sampled run completes");

        let programs = ProgramCache::new();
        let program = programs.get_or_build(spec.benchmark, spec.iterations);
        let mut sim = Simulator::new(SimConfig::new(spec.defense));
        let opts = SampledOptions {
            checkpoints: spec.checkpoints,
            window: spec.window,
            warmup: spec.window_warmup,
            max_cycles: spec.budget,
            ..SampledOptions::default()
        };
        let serial = run_sampled(&mut sim, &program, spec.benchmark, &opts).expect("serial run");

        assert_eq!(pooled.total_insts, serial.total_insts);
        assert_eq!(pooled.windows, serial.windows);
        assert_eq!(pooled.report, serial.report);
        assert_eq!(pooled.executed, serial.windows.len());
        assert_eq!(pooled.store_hits, 0);
    }

    #[test]
    fn a_warm_store_serves_every_window() {
        let root =
            std::env::temp_dir().join(format!("condspec-sampled-store-{}", std::process::id()));
        std::fs::remove_dir_all(&root).ok();
        let store = ResultStore::open(&root);
        let spec = tiny_spec();
        let cold = run_sampled_bench(&spec, 2, Some(&store)).expect("cold run");
        assert_eq!(cold.store_hits, 0);
        let warm = run_sampled_bench(&spec, 2, Some(&store)).expect("warm run");
        assert_eq!(warm.executed, 0, "every window comes from the store");
        assert_eq!(warm.store_hits, cold.windows.len());
        assert_eq!(warm.report, cold.report);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn handed_over_checkpoints_give_the_same_artifacts_as_recomputed_ones() {
        let root =
            std::env::temp_dir().join(format!("condspec-sampled-handover-{}", std::process::id()));
        std::fs::remove_dir_all(&root).ok();
        let store = ResultStore::open(&root);
        let spec = tiny_spec();
        let cold = run_sampled_bench(&spec, 2, Some(&store)).expect("cold run");
        let n = cold.windows.len();
        for i in 0..n {
            let job = spec.window_job(i);
            // Run alone, the job has no orchestrator to hand it a
            // checkpoint and plans its own window.
            let recomputed = job.execute().render();
            let stored = store.load(&job.store_key()).expect("stored window");
            assert_eq!(stored.render(), recomputed, "window {i}");
        }

        let lost = spec.window_job(n / 2).store_key();
        std::fs::remove_file(store.object_path(&lost)).expect("delete one window");
        let rerun = run_sampled_bench(&spec, 2, Some(&store)).expect("rerun");
        assert_eq!(rerun.executed, 1, "only the deleted window runs again");
        assert_eq!(rerun.store_hits, n - 1);
        assert_eq!(rerun.report, cold.report);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn checkpoint_keys_are_position_sensitive_and_disjoint_from_jobs() {
        let a = checkpoint_store_key("gcc", "paper-default", 1000, 0);
        let b = checkpoint_store_key("gcc", "paper-default", 1000, 500);
        assert_ne!(a, b, "capture position changes the key");
        let job = JobSpec::bench_window("gcc", DefenseConfig::Origin, 0).store_key();
        assert_ne!(a, job, "checkpoints never alias window jobs");
    }

    #[test]
    fn bad_specs_are_rejected() {
        let mut zero = tiny_spec();
        zero.checkpoints = 0;
        assert!(run_sampled_bench(&zero, 1, None)
            .unwrap_err()
            .contains("at least one checkpoint"));
        let mut unknown = tiny_spec();
        unknown.benchmark = "vax";
        assert!(run_sampled_bench(&unknown, 1, None)
            .unwrap_err()
            .contains("unknown benchmark"));
    }
}
