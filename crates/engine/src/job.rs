//! The unit of sweep work: one fully-specified simulation with a stable
//! content hash.
//!
//! A [`JobSpec`] pins down everything that influences a measurement —
//! the workload, the defense environment, the machine preset, the
//! secure-LRU policy, the dependence-tracking ablation, the ICache
//! filter, and the cycle budget. Its [`JobSpec::canonical_key`] renders
//! those choices as a stable `field=value;...` string whose FNV-1a hash
//! ([`JobSpec::hash_hex`]) names the job's artifact file. Two jobs with
//! the same hash compute the same result, so a resumed sweep can skip
//! any job whose artifact already exists.

use crate::cache::{WindowKey, WorkerContext};
use crate::hash::{fnv1a64, hex16};
use condspec::{
    leak_report_to_json, plan_one_window, run_timeseries, run_window, DefenseConfig,
    DependenceKinds, ExitReason, LruPolicy, MachineConfig, SampledOptions, SimConfig, Simulator,
};
use condspec_attacks::{leak_probe_on, run_variant_on, AttackScenario};
use condspec_stats::Json;
use condspec_workloads::spec::{build_program, by_name};
use condspec_workloads::GadgetKind;

/// Default outer iterations per measured benchmark run (matches
/// `condspec-bench`'s `DEFAULT_OUTER_ITERATIONS`, which the `cargo
/// bench` studies use).
pub const DEFAULT_ITERATIONS: u64 = 40;

/// Default outer iterations of the warm-up run.
pub const DEFAULT_WARMUP: u64 = 6;

/// Default cycle budget per run; generously above any defense's worst
/// case.
pub const DEFAULT_BUDGET: u64 = 200_000_000;

/// A machine preset by stable name (hashable, unlike the full
/// [`MachineConfig`] parameter block).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MachinePreset {
    /// The paper's default 4-wide evaluation core.
    PaperDefault,
    /// Mobile-class core (Table VI).
    A57Like,
    /// Desktop-class core (Table VI).
    I7Like,
    /// Server-class core (Table VI).
    XeonLike,
}

impl MachinePreset {
    /// The three Table VI sensitivity presets, in table order.
    pub const SENSITIVITY: [MachinePreset; 3] = [
        MachinePreset::A57Like,
        MachinePreset::I7Like,
        MachinePreset::XeonLike,
    ];

    /// A stable machine-readable key. The inverse of
    /// [`MachinePreset::from_key`].
    pub fn key(&self) -> &'static str {
        match self {
            MachinePreset::PaperDefault => "paper-default",
            MachinePreset::A57Like => "a57",
            MachinePreset::I7Like => "i7",
            MachinePreset::XeonLike => "xeon",
        }
    }

    /// Parses a [`MachinePreset::key`] value.
    pub fn from_key(key: &str) -> Option<MachinePreset> {
        match key {
            "paper-default" | "paper" => Some(MachinePreset::PaperDefault),
            "a57" => Some(MachinePreset::A57Like),
            "i7" => Some(MachinePreset::I7Like),
            "xeon" => Some(MachinePreset::XeonLike),
            _ => None,
        }
    }

    /// The full parameter block for this preset.
    pub fn config(&self) -> MachineConfig {
        match self {
            MachinePreset::PaperDefault => MachineConfig::paper_default(),
            MachinePreset::A57Like => MachineConfig::a57_like(),
            MachinePreset::I7Like => MachineConfig::i7_like(),
            MachinePreset::XeonLike => MachineConfig::xeon_like(),
        }
    }
}

/// What a job runs.
#[derive(Debug, Clone, PartialEq)]
pub enum Workload {
    /// A calibrated suite benchmark measured to halt after a warm-up
    /// run (the Figure 5 / Table V / Table VI protocol).
    Bench {
        /// Benchmark name from the suite.
        benchmark: &'static str,
        /// Outer iterations of the measured run.
        iterations: u64,
        /// Outer iterations of the warm-up run.
        warmup: u64,
    },
    /// One detailed measurement window of a sampled benchmark run:
    /// restore the checkpoint at the window's segment start, detailed
    /// warm-up, statistics reset, detailed measurement. Window jobs are
    /// independent of each other, so a sampled run fans one job per
    /// segment across the worker pool and stitches the window reports
    /// afterwards (`run_sampled_bench`), which captures every
    /// checkpoint in one functional pass and hands each to its job
    /// through the [`ProgramCache`](crate::ProgramCache); a window job
    /// run without it (alone, or by a remote worker) counts the program
    /// and fast-forwards to its own segment start instead.
    BenchWindow {
        /// Benchmark name from the suite.
        benchmark: &'static str,
        /// Outer iterations of the sampled program. There is no
        /// separate warm-up program — each window warms up in detail
        /// from its checkpoint instead.
        iterations: u64,
        /// Number of evenly spaced segments the run is split into.
        checkpoints: usize,
        /// Detailed instructions measured per window.
        window: u64,
        /// Detailed warm-up instructions before the window's
        /// statistics reset.
        window_warmup: u64,
        /// Which segment this job measures, `0..checkpoints`.
        window_index: usize,
    },
    /// An end-to-end side-channel attack (one Table IV cell).
    Attack {
        /// The attack classification.
        scenario: AttackScenario,
    },
    /// An end-to-end Spectre variant run.
    Variant {
        /// The gadget kind.
        kind: GadgetKind,
    },
    /// A Spectre gadget round under the taint-tracking leak oracle: the
    /// verdict comes from watching secret-tainted values reach
    /// persistent microarchitectural state, not from reading the side
    /// channel back.
    LeakProbe {
        /// The gadget kind.
        kind: GadgetKind,
    },
}

/// One fully-specified simulation job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// What to run.
    pub workload: Workload,
    /// Defense environment.
    pub defense: DefenseConfig,
    /// Machine preset (benchmarks only; attacks run the paper default).
    pub machine: MachinePreset,
    /// Secure-LRU policy.
    pub lru: LruPolicy,
    /// §VI.C ablation: track only branch → memory dependences.
    pub branch_only: bool,
    /// §VII.B extension: ICache-hit filter on unsafe fetches.
    pub icache_filter: bool,
    /// Cycle budget per run (warm-up and measured runs each).
    pub budget: u64,
}

impl JobSpec {
    /// A benchmark job on the paper-default machine with default
    /// iteration counts and budget.
    pub fn bench(benchmark: &'static str, defense: DefenseConfig) -> JobSpec {
        JobSpec {
            workload: Workload::Bench {
                benchmark,
                iterations: DEFAULT_ITERATIONS,
                warmup: DEFAULT_WARMUP,
            },
            defense,
            machine: MachinePreset::PaperDefault,
            lru: LruPolicy::Update,
            branch_only: false,
            icache_filter: false,
            budget: DEFAULT_BUDGET,
        }
    }

    /// One window job of a sampled benchmark run on the paper-default
    /// machine, with the default sampling grid (`opts` of a sampled
    /// run's [`SampledOptions::default`] minus the budgets, which come
    /// from the job).
    pub fn bench_window(
        benchmark: &'static str,
        defense: DefenseConfig,
        window_index: usize,
    ) -> JobSpec {
        let defaults = SampledOptions::default();
        JobSpec {
            workload: Workload::BenchWindow {
                benchmark,
                iterations: DEFAULT_ITERATIONS,
                checkpoints: defaults.checkpoints,
                window: defaults.window,
                window_warmup: defaults.warmup,
                window_index,
            },
            defense,
            machine: MachinePreset::PaperDefault,
            lru: LruPolicy::Update,
            branch_only: false,
            icache_filter: false,
            budget: DEFAULT_BUDGET,
        }
    }

    /// An attack-scenario job.
    pub fn attack(scenario: AttackScenario, defense: DefenseConfig) -> JobSpec {
        JobSpec {
            workload: Workload::Attack { scenario },
            defense,
            machine: MachinePreset::PaperDefault,
            lru: LruPolicy::Update,
            branch_only: false,
            icache_filter: false,
            budget: DEFAULT_BUDGET,
        }
    }

    /// A Spectre-variant job.
    pub fn variant(kind: GadgetKind, defense: DefenseConfig) -> JobSpec {
        JobSpec {
            workload: Workload::Variant { kind },
            ..JobSpec::attack(AttackScenario::FlushReloadShared, defense)
        }
    }

    /// A taint-oracle leak-probe job.
    pub fn leak_probe(kind: GadgetKind, defense: DefenseConfig) -> JobSpec {
        JobSpec {
            workload: Workload::LeakProbe { kind },
            ..JobSpec::attack(AttackScenario::FlushReloadShared, defense)
        }
    }

    /// The canonical `field=value;...` identity string. Every field
    /// that influences the result appears here; fields that cannot
    /// influence a workload class (e.g. the machine preset of an
    /// attack, which always runs the paper default) are omitted, so
    /// equal computations hash equal.
    pub fn canonical_key(&self) -> String {
        match &self.workload {
            Workload::Bench {
                benchmark,
                iterations,
                warmup,
            } => format!(
                "kind=bench;benchmark={benchmark};iters={iterations};warmup={warmup};\
                 defense={};machine={};lru={};deps={};icache={};budget={}",
                self.defense.key(),
                self.machine.key(),
                self.lru.key(),
                if self.branch_only { "branch" } else { "all" },
                u8::from(self.icache_filter),
                self.budget,
            ),
            Workload::BenchWindow {
                benchmark,
                iterations,
                checkpoints,
                window,
                window_warmup,
                window_index,
            } => format!(
                "kind=bench-window;benchmark={benchmark};iters={iterations};\
                 checkpoints={checkpoints};window={window};wwarmup={window_warmup};\
                 index={window_index};defense={};machine={};lru={};deps={};icache={};budget={}",
                self.defense.key(),
                self.machine.key(),
                self.lru.key(),
                if self.branch_only { "branch" } else { "all" },
                u8::from(self.icache_filter),
                self.budget,
            ),
            Workload::Attack { scenario } => {
                format!(
                    "kind=attack;scenario={};defense={}",
                    scenario.key(),
                    self.defense.key()
                )
            }
            Workload::Variant { kind } => {
                format!(
                    "kind=variant;variant={};defense={}",
                    kind.key(),
                    self.defense.key()
                )
            }
            Workload::LeakProbe { kind } => {
                format!(
                    "kind=leak-probe;variant={};defense={}",
                    kind.key(),
                    self.defense.key()
                )
            }
        }
    }

    /// The job's content hash as a 16-hex-digit artifact-file stem.
    pub fn hash_hex(&self) -> String {
        hex16(fnv1a64(self.canonical_key().as_bytes()))
    }

    /// The job's persistent-store key: the content hash extended with
    /// the store schema version and code-generation fingerprint (see
    /// [`crate::hash::store_key`]). Distinct from [`JobSpec::hash_hex`]
    /// so run-directory artifact names stay stable across versions
    /// while store entries invalidate with the code that wrote them.
    pub fn store_key(&self) -> String {
        crate::hash::store_key(&self.canonical_key())
    }

    /// A short human label for progress lines.
    pub fn label(&self) -> String {
        let what = match &self.workload {
            Workload::Bench { benchmark, .. } => (*benchmark).to_string(),
            Workload::BenchWindow {
                benchmark,
                window_index,
                ..
            } => format!("{benchmark}#w{window_index}"),
            Workload::Attack { scenario } => scenario.key().to_string(),
            Workload::Variant { kind } => kind.key().to_string(),
            Workload::LeakProbe { kind } => format!("leaks:{}", kind.key()),
        };
        let mut label = format!("{what}/{}", self.defense.key());
        if self.machine != MachinePreset::PaperDefault {
            label.push_str(&format!("/{}", self.machine.key()));
        }
        if self.lru != LruPolicy::Update {
            label.push_str(&format!("/{}", self.lru.key()));
        }
        if self.branch_only {
            label.push_str("/branch-only");
        }
        if self.icache_filter {
            label.push_str("/icache");
        }
        label
    }

    /// For a [`Workload::BenchWindow`] job, the key its handed-over
    /// checkpoint is filed under and the options its functional passes
    /// and window run with; `None` for every other workload.
    pub(crate) fn window_setup(&self) -> Option<(WindowKey, SampledOptions)> {
        let Workload::BenchWindow {
            benchmark,
            iterations,
            checkpoints,
            window,
            window_warmup,
            window_index,
        } = self.workload
        else {
            return None;
        };
        let key = WindowKey {
            benchmark,
            iterations,
            machine: self.machine,
            checkpoints,
            index: window_index,
        };
        let opts = SampledOptions {
            checkpoints,
            window,
            warmup: window_warmup,
            max_cycles: self.budget,
            ..SampledOptions::default()
        };
        Some((key, opts))
    }

    /// The simulator configuration a benchmark job runs under.
    pub fn sim_config(&self) -> SimConfig {
        let mut config = SimConfig::on_machine(self.defense, self.machine.config());
        config.lru_policy = self.lru;
        if self.branch_only {
            config.dependence_kinds = DependenceKinds::branch_only();
        }
        config.machine.core.icache_filter = self.icache_filter;
        config
    }

    /// Runs the job to completion and returns its artifact document.
    ///
    /// Equivalent to [`JobSpec::execute_with`] on a private
    /// [`WorkerContext`] — no cross-job reuse, identical results.
    ///
    /// # Panics
    ///
    /// Panics if a benchmark fails to halt within the budget or names
    /// an unknown benchmark. The scheduler isolates the panic and marks
    /// the job failed without aborting the sweep.
    pub fn execute(&self) -> Json {
        self.execute_with(&mut WorkerContext::solo())
    }

    /// Runs the job to completion using `ctx`'s cached programs and
    /// resident simulator, and returns its artifact document.
    ///
    /// Every workload runs on [`WorkerContext::simulator`]: the
    /// worker's resident simulator reset in place into the job's
    /// configuration, or a new one when the machine differs. Benchmark
    /// workloads fetch their warm-up and measured programs from the
    /// shared [`ProgramCache`](crate::ProgramCache); window jobs also
    /// take their handed-over checkpoint from it when there is one.
    /// Attack, variant and leak-probe workloads run on the
    /// paper-default machine under the job's defense, as their
    /// canonical key says.
    /// Reuse never changes results: the document contains only
    /// deterministic simulation results — never wall-clock times or
    /// hostnames — so artifacts are byte-identical however the sweep
    /// was sharded across workers, and whether the simulator was fresh
    /// or reused.
    ///
    /// # Panics
    ///
    /// As [`JobSpec::execute`]. After a panic the caller must assume
    /// `ctx`'s simulator unwound mid-cycle and call
    /// [`WorkerContext::discard_simulator`] before the next job.
    pub fn execute_with(&self, ctx: &mut WorkerContext) -> Json {
        let mut doc = vec![
            ("job", Json::from(self.hash_hex())),
            ("key", Json::from(self.canonical_key())),
        ];
        match &self.workload {
            Workload::Bench {
                benchmark,
                iterations,
                warmup,
            } => {
                let warmup_program = ctx.programs().get_or_build(benchmark, *warmup);
                let measured = ctx.programs().get_or_build(benchmark, *iterations);
                let sim = ctx.simulator(self.sim_config());
                let report = sim.run_job(Some(&warmup_program), &measured, self.budget);
                doc.push(("report", report.to_json()));
                doc.push((
                    "icache_fetch_stalls",
                    Json::from(sim.core().stats().icache_fetch_stalls),
                ));
            }
            Workload::BenchWindow { .. } => {
                let (key, opts) = self
                    .window_setup()
                    .expect("a window job has a window setup");
                let program = ctx.programs().get_or_build(key.benchmark, key.iterations);
                let handed_over = ctx.programs().take_window(&key);
                let sim = ctx.simulator(self.sim_config());
                let (total_insts, plan) = handed_over.unwrap_or_else(|| {
                    plan_one_window(sim, &program, key.benchmark, &opts, key.index)
                        .unwrap_or_else(|e| panic!("window planning failed: {e}"))
                });
                let measured = run_window(sim, &plan, &program, &opts)
                    .unwrap_or_else(|e| panic!("window run failed: {e}"));
                doc.push(("report", measured.report.to_json()));
                doc.push(("total_insts", Json::from(total_insts)));
                doc.push(("start_inst", Json::from(plan.start_inst)));
                doc.push(("segment_len", Json::from(plan.segment_len)));
            }
            Workload::Attack { scenario } => {
                let outcome = scenario.run_on(ctx.simulator(SimConfig::new(self.defense)));
                let defended = !outcome.leaked();
                doc.push(("leaked", Json::from(outcome.leaked())));
                doc.push(("defended", Json::from(defended)));
                doc.push((
                    "expected_defended",
                    Json::from(scenario.expected_defended(self.defense)),
                ));
                doc.push((
                    "matches_paper",
                    Json::from(defended == scenario.expected_defended(self.defense)),
                ));
            }
            Workload::Variant { kind } => {
                let outcome = run_variant_on(*kind, ctx.simulator(SimConfig::new(self.defense)));
                doc.push(("leaked", Json::from(outcome.leaked())));
            }
            Workload::LeakProbe { kind } => {
                let outcome = leak_probe_on(*kind, ctx.simulator(SimConfig::new(self.defense)));
                doc.push(("cache_leaked", Json::from(outcome.cache_leaked())));
                doc.push(("leaks", leak_report_to_json(&outcome.leaks)));
                doc.push(("leak_events", Json::from(outcome.events.len() as u64)));
            }
        }
        Json::object(doc)
    }

    /// Runs a [`Workload::Bench`] job with its measured run driven by
    /// [`run_timeseries`], and returns the sampled series
    /// (`condspec-timeseries-v1`) alongside the job identity. The
    /// measurement protocol is identical to [`JobSpec::execute`] —
    /// warm-up, stats reset, measured run — so the series is
    /// deterministic: two calls with the same spec render byte-identical
    /// documents.
    ///
    /// `window` is the sample window in cycles; at most `max_rows`
    /// windows are kept (earliest first).
    ///
    /// # Panics
    ///
    /// Panics when the workload is not a benchmark, the benchmark name
    /// is unknown, or a run exceeds the budget (like `execute`).
    pub fn execute_timeseries(&self, window: u64, max_rows: usize) -> Json {
        let Workload::Bench {
            benchmark,
            iterations,
            warmup,
        } = &self.workload
        else {
            panic!("time-series sampling is only defined for benchmark workloads");
        };
        let spec = by_name(benchmark).unwrap_or_else(|| panic!("unknown benchmark `{benchmark}`"));
        let warmup_program = std::sync::Arc::new(build_program(&spec, *warmup));
        let measured = std::sync::Arc::new(build_program(&spec, *iterations));
        let mut sim = Simulator::new(self.sim_config());
        // `Simulator::run_job`'s protocol, with the measured run sampled
        // from window zero.
        sim.run_to_halt(&warmup_program, self.budget);
        sim.reset_stats();
        sim.load_program(measured);
        let (run, series) = run_timeseries(sim.core_mut(), window, max_rows, self.budget);
        assert_eq!(
            run.exit,
            ExitReason::Halted,
            "program did not halt within {} cycles under {}",
            self.budget,
            self.defense
        );
        Json::object(vec![
            ("job", Json::from(self.hash_hex())),
            ("key", Json::from(self.canonical_key())),
            ("report", sim.report().to_json()),
            ("timeseries", series.to_json()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_is_stable_and_sensitive() {
        let a = JobSpec::bench("gcc", DefenseConfig::Baseline);
        assert_eq!(a.hash_hex(), a.clone().hash_hex(), "same spec, same hash");
        let mut b = a.clone();
        b.defense = DefenseConfig::CacheHit;
        assert_ne!(a.hash_hex(), b.hash_hex(), "defense changes the hash");
        let mut c = a.clone();
        c.icache_filter = true;
        assert_ne!(a.hash_hex(), c.hash_hex(), "icache filter changes the hash");
        let mut d = a.clone();
        d.lru = LruPolicy::Delayed;
        assert_ne!(a.hash_hex(), d.hash_hex(), "lru policy changes the hash");
    }

    #[test]
    fn window_jobs_never_collide_with_detailed_jobs() {
        // The sampled-mode satellite: a window job's store entry must
        // never be mistaken for a detailed bench entry (or vice versa),
        // whatever the shared fields. The distinct `kind=` prefix
        // guarantees it.
        let detailed = JobSpec::bench("gcc", DefenseConfig::Origin);
        let window = JobSpec::bench_window("gcc", DefenseConfig::Origin, 0);
        assert_ne!(detailed.hash_hex(), window.hash_hex());
        assert_ne!(detailed.store_key(), window.store_key());
        assert!(window.canonical_key().starts_with("kind=bench-window;"));
    }

    #[test]
    fn every_window_parameter_changes_the_hash() {
        let base = JobSpec::bench_window("gcc", DefenseConfig::Origin, 0);
        let mutate = |f: &dyn Fn(&mut Workload)| {
            let mut j = base.clone();
            f(&mut j.workload);
            j
        };
        let variants = [
            mutate(&|w| {
                if let Workload::BenchWindow { window_index, .. } = w {
                    *window_index = 1;
                }
            }),
            mutate(&|w| {
                if let Workload::BenchWindow { checkpoints, .. } = w {
                    *checkpoints = 16;
                }
            }),
            mutate(&|w| {
                if let Workload::BenchWindow { window, .. } = w {
                    *window = 123;
                }
            }),
            mutate(&|w| {
                if let Workload::BenchWindow { window_warmup, .. } = w {
                    *window_warmup = 7;
                }
            }),
            mutate(&|w| {
                if let Workload::BenchWindow { iterations, .. } = w {
                    *iterations = 3;
                }
            }),
        ];
        for (i, v) in variants.iter().enumerate() {
            assert_ne!(base.hash_hex(), v.hash_hex(), "variant {i}");
        }
    }

    #[test]
    fn attack_key_ignores_bench_only_fields() {
        let a = JobSpec::attack(AttackScenario::FlushReloadShared, DefenseConfig::Origin);
        let mut b = a.clone();
        b.lru = LruPolicy::Delayed; // cannot influence an attack job
        assert_eq!(a.hash_hex(), b.hash_hex());
    }

    #[test]
    fn preset_keys_round_trip() {
        for p in [
            MachinePreset::PaperDefault,
            MachinePreset::A57Like,
            MachinePreset::I7Like,
            MachinePreset::XeonLike,
        ] {
            assert_eq!(MachinePreset::from_key(p.key()), Some(p));
        }
        assert!(MachinePreset::from_key("vax").is_none());
    }

    #[test]
    fn sim_config_reflects_every_knob() {
        let mut j = JobSpec::bench("gcc", DefenseConfig::CacheHitTpbuf);
        j.machine = MachinePreset::XeonLike;
        j.lru = LruPolicy::NoUpdate;
        j.branch_only = true;
        j.icache_filter = true;
        let c = j.sim_config();
        assert_eq!(c.defense, DefenseConfig::CacheHitTpbuf);
        assert_eq!(c.machine.name, "Xeon-like");
        assert_eq!(c.lru_policy, LruPolicy::NoUpdate);
        assert!(!c.dependence_kinds.memory);
        assert!(c.machine.core.icache_filter);
    }

    #[test]
    fn labels_are_compact() {
        assert_eq!(
            JobSpec::bench("gcc", DefenseConfig::Origin).label(),
            "gcc/origin"
        );
        let mut j = JobSpec::bench("mcf", DefenseConfig::Baseline);
        j.machine = MachinePreset::I7Like;
        j.branch_only = true;
        assert_eq!(j.label(), "mcf/baseline/i7/branch-only");
    }
}
