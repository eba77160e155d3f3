//! Cross-job reuse inside a sweep: the decoded-program cache (with its
//! hand-off slots for sampled-run checkpoints) and the per-worker
//! simulator slot.
//!
//! A sweep like `fig5` runs five defense configurations per benchmark,
//! and every one of them executes the *same* two programs (the warm-up
//! and the measured run differ only in iteration count). Building those
//! programs per job is pure waste — the build is deterministic in
//! `(benchmark, iterations)`, exactly the [`JobSpec`] hash inputs that
//! name a benchmark workload. [`ProgramCache`] memoizes the build under
//! that key and hands out `Arc<Program>` clones, so a 110-job `fig5`
//! sweep performs 44 builds (22 benchmarks × two iteration counts)
//! instead of 220.
//!
//! A sampled run reuses the cache a second way. Its orchestrator
//! (`run_sampled_bench`) captures the checkpoint of every window the
//! store lacks in one functional pass before the pool starts, and files
//! each [`WindowPlan`] in the cache under a `WindowKey`; the window job
//! takes its plan from there, and only a job that finds none counts and
//! fast-forwards for itself.
//!
//! [`WorkerContext`] is the per-worker companion: each scheduler worker
//! owns one, holding a shared handle to the sweep's `ProgramCache` plus
//! the worker's resident [`Simulator`], on which every job kind runs.
//! Between jobs the simulator is reset in place
//! ([`Simulator::reset_in_place`]) into the next job's [`SimConfig`]
//! whenever that names the same machine, whatever its defense, LRU
//! policy or dependence kinds, and rebuilt only when the machine
//! changes. Simulator state (caches, predictor tables, the event wheel)
//! is allocated once per worker per machine, not once per job, and a
//! reset clears only the cache sets the previous job wrote. Reuse is
//! observationally invisible: a reset simulator produces byte-identical
//! artifacts to a fresh one, which the scheduler's differential tests
//! assert.
//!
//! [`JobSpec`]: crate::JobSpec

use crate::job::MachinePreset;
use condspec::{SimConfig, Simulator, WindowPlan};
use condspec_isa::Program;
use condspec_workloads::spec::{build_program, by_name};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Names one sampled-run window's checkpoint: everything that fixes
/// where the window starts and what the captured state holds. The
/// defense and the window's measurement knobs are left out, because a
/// checkpoint is policy-agnostic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct WindowKey {
    /// Benchmark name from the suite.
    pub benchmark: &'static str,
    /// Outer iterations of the sampled program.
    pub iterations: u64,
    /// Machine preset the checkpoint was captured on.
    pub machine: MachinePreset,
    /// Checkpoints the run's segment grid was planned with.
    pub checkpoints: usize,
    /// Which segment the window measures.
    pub index: usize,
}

/// Why the program map's lock is never poisoned: a benchmark name is
/// resolved before the lock is taken, and building a suite program
/// cannot fail.
const PROGRAMS_LOCK: &str = "no thread panics while holding the program map";

/// A sweep-wide memo of built benchmark programs, shared across the
/// worker pool behind an `Arc`.
///
/// Keyed by `(benchmark, iterations)` — the only [`JobSpec`] fields
/// that influence program content. `build_program` is deterministic,
/// so two jobs with equal keys would build identical programs;
/// the cache builds once and clones the `Arc`.
///
/// It also carries sampled-run window plans from the orchestrator
/// that captured them to the window jobs that measure them. Each plan
/// is handed over once: the job that takes it releases its checkpoint.
///
/// [`JobSpec`]: crate::JobSpec
#[derive(Debug, Default)]
pub struct ProgramCache {
    programs: Mutex<HashMap<(&'static str, u64), Arc<Program>>>,
    windows: Mutex<HashMap<WindowKey, (u64, WindowPlan)>>,
    builds: AtomicU64,
    hits: AtomicU64,
}

impl ProgramCache {
    /// An empty cache.
    pub fn new() -> ProgramCache {
        ProgramCache::default()
    }

    /// The program for `benchmark` unrolled to `iterations`, building
    /// it on first request.
    ///
    /// The map lock is held across the build on purpose: program
    /// generation is cheap relative to simulation, and serializing
    /// first-builds guarantees each distinct key is built exactly once
    /// — the invariant the sweep's `program-cache:` log line and CI
    /// assertion rely on. The name is resolved before the lock is
    /// taken, so a job naming an unknown benchmark panics without
    /// poisoning the cache for the rest of the pool.
    ///
    /// # Panics
    ///
    /// Panics on an unknown benchmark name (same contract as
    /// [`JobSpec::execute`](crate::JobSpec::execute)).
    pub fn get_or_build(&self, benchmark: &'static str, iterations: u64) -> Arc<Program> {
        let spec = by_name(benchmark).unwrap_or_else(|| panic!("unknown benchmark `{benchmark}`"));
        let mut map = self.programs.lock().expect(PROGRAMS_LOCK);
        if let Some(program) = map.get(&(benchmark, iterations)) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(program);
        }
        let program = Arc::new(build_program(&spec, iterations));
        map.insert((benchmark, iterations), Arc::clone(&program));
        self.builds.fetch_add(1, Ordering::Relaxed);
        program
    }

    /// Files the plan of the window `key` names, with its run's
    /// whole-program instruction count, for the window job to take.
    pub(crate) fn hand_over(&self, key: WindowKey, total_insts: u64, plan: WindowPlan) {
        self.windows
            .lock()
            .expect("no thread panics while holding the window memo")
            .insert(key, (total_insts, plan));
    }

    /// Takes the plan filed under `key`, if `run_sampled_bench`
    /// captured one.
    pub(crate) fn take_window(&self, key: &WindowKey) -> Option<(u64, WindowPlan)> {
        self.windows
            .lock()
            .expect("no thread panics while holding the window memo")
            .remove(key)
    }

    /// Programs built (one per distinct key requested).
    pub fn builds(&self) -> u64 {
        self.builds.load(Ordering::Relaxed)
    }

    /// Requests served from the cache without building.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Distinct programs currently held.
    pub fn len(&self) -> usize {
        self.programs.lock().expect(PROGRAMS_LOCK).len()
    }

    /// Whether the cache holds no programs.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `builds`/`hits` summary the sweep driver prints, e.g.
    /// `program-cache: 44 builds, 176 hits`.
    pub fn summary(&self) -> String {
        format!(
            "program-cache: {} builds, {} hits",
            self.builds(),
            self.hits()
        )
    }
}

/// One scheduler worker's reusable execution state: a handle to the
/// sweep-wide [`ProgramCache`] (programs and handed-over window plans)
/// and the worker's resident simulator.
#[derive(Debug)]
pub struct WorkerContext {
    programs: Arc<ProgramCache>,
    sim: Option<Simulator>,
}

impl WorkerContext {
    /// A context sharing `programs` with the rest of the pool.
    pub fn new(programs: Arc<ProgramCache>) -> WorkerContext {
        WorkerContext {
            programs,
            sim: None,
        }
    }

    /// A context with a private cache, for running a single job outside
    /// any worker pool (the [`JobSpec::execute`](crate::JobSpec::execute)
    /// compatibility path).
    pub fn solo() -> WorkerContext {
        WorkerContext::new(Arc::new(ProgramCache::new()))
    }

    /// The shared program cache.
    pub fn programs(&self) -> &ProgramCache {
        &self.programs
    }

    /// A cold simulator configured as `config`: the worker's resident
    /// simulator reset in place when it models the same machine (the
    /// defense, LRU policy and dependence kinds may differ), a new one
    /// otherwise.
    pub fn simulator(&mut self, config: SimConfig) -> &mut Simulator {
        match &mut self.sim {
            Some(sim) if sim.config().machine == config.machine => sim.reset_in_place(config),
            slot => *slot = Some(Simulator::new(config)),
        }
        self.sim.as_mut().expect("slot was just filled")
    }

    /// Discards the resident simulator. The scheduler calls this after
    /// a job panics: the simulator may have unwound mid-cycle, and its
    /// state is no longer trustworthy for reuse.
    pub fn discard_simulator(&mut self) {
        self.sim = None;
    }

    /// Whether a simulator is currently resident (test introspection).
    pub fn has_simulator(&self) -> bool {
        self.sim.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use condspec::{DefenseConfig, MachineConfig};

    #[test]
    fn cache_builds_each_key_once() {
        let cache = ProgramCache::new();
        let a = cache.get_or_build("gcc", 40);
        let b = cache.get_or_build("gcc", 40);
        let c = cache.get_or_build("gcc", 6);
        assert!(Arc::ptr_eq(&a, &b), "same key returns the same program");
        assert!(!Arc::ptr_eq(&a, &c), "iteration count is part of the key");
        assert_eq!(cache.builds(), 2);
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.summary(), "program-cache: 2 builds, 1 hits");
    }

    #[test]
    fn worker_context_reuses_matching_simulator() {
        let mut ctx = WorkerContext::solo();
        let baseline = SimConfig::new(DefenseConfig::Baseline);
        let origin = SimConfig::new(DefenseConfig::Origin);
        let a57 = SimConfig::on_machine(DefenseConfig::Origin, MachineConfig::a57_like());

        ctx.simulator(baseline).write_memory(0x9000, 77, 8);
        assert!(ctx.has_simulator());
        let swapped = ctx.simulator(origin);
        assert_eq!(*swapped.config(), origin, "same machine: reset into origin");
        assert_eq!(swapped.read_memory(0x9000, 8), 0, "the reset forgets");

        let rebuilt = ctx.simulator(a57);
        assert_eq!(*rebuilt.config(), a57, "machine change rebuilds");

        ctx.discard_simulator();
        assert!(!ctx.has_simulator());
    }
}
