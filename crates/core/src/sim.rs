//! The top-level simulator facade: a configured core plus reporting.

use crate::checkpoint::Checkpoint;
use crate::config::{DefenseConfig, SimConfig};
use crate::defense::ConditionalSpeculation;
use condspec_frontend::FrontEnd;
use condspec_isa::{Program, Reg};
use condspec_mem::{CacheHierarchy, PageTable, Tlb};
use condspec_pipeline::{Core, ExitReason, FunctionalResult, LeakReport, NullPolicy, RunResult};
use condspec_stats::Json;
use std::sync::Arc;

/// Summary measurements of a simulation window — one row of the paper's
/// evaluation tables.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Report {
    /// Defense environment that produced this report.
    pub defense: DefenseConfig,
    /// Simulated cycles in the window.
    pub cycles: u64,
    /// Instructions committed in the window.
    pub committed: u64,
    /// Instructions per cycle.
    pub ipc: f64,
    /// Overall L1D demand hit rate (Table V column "L1 Hit Rate").
    pub l1d_hit_rate: f64,
    /// Fraction of correct-path loads blocked at least once (Table V
    /// "Blocked Rate").
    pub blocked_rate: f64,
    /// L1D hit rate of suspect speculative accesses (Table V "Cache Hit
    /// Rate of Speculative Memory Access").
    pub suspect_hit_rate: f64,
    /// Fraction of suspect misses that mismatched the S-Pattern (Table V
    /// "S-Pattern Mismatch Rate").
    pub s_pattern_mismatch_rate: f64,
    /// Conditional-branch prediction accuracy.
    pub branch_accuracy: f64,
    /// Mispredict squashes in the window.
    pub mispredict_squashes: u64,
    /// Every hazard-filter Block decision, including wrong-path loads
    /// and repeated blocks of one load.
    pub block_events: u64,
    /// Memory-order violation squashes in the window.
    pub violation_squashes: u64,
    /// Instructions removed by squashes in the window.
    pub squashed_insts: u64,
    /// Fetch cycles stalled by the ICache-hit filter.
    pub icache_fetch_stalls: u64,
    /// Mean reorder-buffer occupancy over the window.
    pub avg_rob_occupancy: f64,
    /// Mean issue-queue occupancy over the window.
    pub avg_iq_occupancy: f64,
    /// Taint-oracle leak totals; `None` unless the oracle was enabled
    /// (see [`Core::enable_taint`]).
    pub leaks: Option<LeakReport>,
}

impl Report {
    /// Serializes the report as a [`Json`] object with stable,
    /// insertion-ordered keys. The inverse of [`Report::from_json`].
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("defense", Json::from(self.defense.key())),
            ("cycles", Json::from(self.cycles)),
            ("committed", Json::from(self.committed)),
            ("ipc", Json::from(self.ipc)),
            ("l1d_hit_rate", Json::from(self.l1d_hit_rate)),
            ("blocked_rate", Json::from(self.blocked_rate)),
            ("suspect_hit_rate", Json::from(self.suspect_hit_rate)),
            (
                "s_pattern_mismatch_rate",
                Json::from(self.s_pattern_mismatch_rate),
            ),
            ("branch_accuracy", Json::from(self.branch_accuracy)),
            ("mispredict_squashes", Json::from(self.mispredict_squashes)),
            ("block_events", Json::from(self.block_events)),
            ("violation_squashes", Json::from(self.violation_squashes)),
            ("squashed_insts", Json::from(self.squashed_insts)),
            ("icache_fetch_stalls", Json::from(self.icache_fetch_stalls)),
            ("avg_rob_occupancy", Json::from(self.avg_rob_occupancy)),
            ("avg_iq_occupancy", Json::from(self.avg_iq_occupancy)),
        ];
        // Appended only when the oracle ran, so artifacts from plain
        // performance runs stay byte-identical to pre-oracle builds.
        if let Some(leaks) = &self.leaks {
            fields.push(("leaks", leak_report_to_json(leaks)));
        }
        Json::object(fields)
    }

    /// Reconstructs a report from [`Report::to_json`] output. Returns
    /// `None` when a field is missing or has the wrong type. The
    /// occupancy/squash-detail keys were added after the first sweep
    /// artifacts shipped and default to zero when absent, so older
    /// artifacts still parse.
    pub fn from_json(json: &Json) -> Option<Report> {
        let u64_or_zero = |key: &str| json.get(key).and_then(Json::as_u64).unwrap_or(0);
        let f64_or_zero = |key: &str| json.get(key).and_then(Json::as_f64).unwrap_or(0.0);
        Some(Report {
            defense: DefenseConfig::from_key(json.get("defense")?.as_str()?)?,
            cycles: json.get("cycles")?.as_u64()?,
            committed: json.get("committed")?.as_u64()?,
            ipc: json.get("ipc")?.as_f64()?,
            l1d_hit_rate: json.get("l1d_hit_rate")?.as_f64()?,
            blocked_rate: json.get("blocked_rate")?.as_f64()?,
            suspect_hit_rate: json.get("suspect_hit_rate")?.as_f64()?,
            s_pattern_mismatch_rate: json.get("s_pattern_mismatch_rate")?.as_f64()?,
            branch_accuracy: json.get("branch_accuracy")?.as_f64()?,
            mispredict_squashes: json.get("mispredict_squashes")?.as_u64()?,
            block_events: u64_or_zero("block_events"),
            violation_squashes: u64_or_zero("violation_squashes"),
            squashed_insts: u64_or_zero("squashed_insts"),
            icache_fetch_stalls: u64_or_zero("icache_fetch_stalls"),
            avg_rob_occupancy: f64_or_zero("avg_rob_occupancy"),
            avg_iq_occupancy: f64_or_zero("avg_iq_occupancy"),
            leaks: json.get("leaks").and_then(leak_report_from_json),
        })
    }
}

/// Serializes a [`LeakReport`] with stable, insertion-ordered keys. The
/// inverse of [`leak_report_from_json`].
pub fn leak_report_to_json(leaks: &LeakReport) -> Json {
    Json::object(vec![
        ("cache_fills", Json::from(leaks.cache_fills)),
        (
            "cache_fills_survived",
            Json::from(leaks.cache_fills_survived),
        ),
        ("cache_lru", Json::from(leaks.cache_lru)),
        ("cache_lru_survived", Json::from(leaks.cache_lru_survived)),
        ("tlb_fills", Json::from(leaks.tlb_fills)),
        ("tlb_fills_survived", Json::from(leaks.tlb_fills_survived)),
        ("tpbuf_inserts", Json::from(leaks.tpbuf_inserts)),
        (
            "tpbuf_inserts_survived",
            Json::from(leaks.tpbuf_inserts_survived),
        ),
    ])
}

/// Reconstructs a [`LeakReport`] from [`leak_report_to_json`] output.
/// Returns `None` when a field is missing or has the wrong type.
pub fn leak_report_from_json(json: &Json) -> Option<LeakReport> {
    let field = |key: &str| json.get(key).and_then(Json::as_u64);
    Some(LeakReport {
        cache_fills: field("cache_fills")?,
        cache_fills_survived: field("cache_fills_survived")?,
        cache_lru: field("cache_lru")?,
        cache_lru_survived: field("cache_lru_survived")?,
        tlb_fills: field("tlb_fills")?,
        tlb_fills_survived: field("tlb_fills_survived")?,
        tpbuf_inserts: field("tpbuf_inserts")?,
        tpbuf_inserts_survived: field("tpbuf_inserts_survived")?,
    })
}

/// A configured machine: the out-of-order core with the chosen defense
/// installed, ready to run programs.
///
/// # Examples
///
/// ```
/// use condspec::{Simulator, SimConfig, DefenseConfig};
/// use condspec_isa::{ProgramBuilder, Reg, AluOp};
///
/// # fn main() -> Result<(), condspec_isa::BuildError> {
/// let mut sim = Simulator::new(SimConfig::new(DefenseConfig::CacheHitTpbuf));
/// let mut b = ProgramBuilder::new(0x1000);
/// b.li(Reg::R1, 41);
/// b.alu_imm(AluOp::Add, Reg::R1, Reg::R1, 1);
/// b.halt();
/// sim.load_program(std::sync::Arc::new(b.build()?));
/// sim.run(10_000);
/// assert_eq!(sim.read_arch_reg(Reg::R1), 42);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Simulator {
    core: Core,
    config: SimConfig,
}

impl Simulator {
    /// Builds the machine described by `config`.
    pub fn new(config: SimConfig) -> Self {
        let m = &config.machine;
        let core = Core::new(
            m.core,
            FrontEnd::new(m.predictor),
            CacheHierarchy::new(m.hierarchy),
            Tlb::new(m.tlb),
            PageTable::new(),
            Self::build_policy(&config),
        );
        Simulator { core, config }
    }

    /// The security policy `config` calls for, freshly constructed.
    fn build_policy(config: &SimConfig) -> Box<dyn condspec_pipeline::SecurityPolicy> {
        let m = &config.machine;
        match config.defense.filter_mode() {
            None => Box::new(NullPolicy),
            Some(mode) => Box::new(ConditionalSpeculation::new(
                m.core.iq_entries,
                m.core.ldq_entries + m.core.stq_entries,
                mode,
                config.lru_policy,
                config.dependence_kinds,
            )),
        }
    }

    /// Returns the machine to the freshly-constructed state of `config`
    /// without reallocating simulator structures: cold caches and
    /// predictors, zeroed clock and statistics, empty memory (see
    /// [`Core::reset_cold`]). `config` may name another defense, LRU
    /// policy or dependence set than the last one: those live only in
    /// the security policy, which is rebuilt from `config` on every
    /// reset. Used by the sweep engine to run many independent jobs on
    /// one simulator; a reset machine must be observationally identical
    /// to a fresh [`Simulator::new`] with `config`.
    ///
    /// Each cache clears only the sets written since the last reset,
    /// so a short job's reset costs about what the job touched rather
    /// than a rewrite of every cache line.
    ///
    /// # Panics
    ///
    /// Panics if `config.machine` differs from this simulator's
    /// machine: structure sizes are fixed at construction.
    pub fn reset_in_place(&mut self, config: SimConfig) {
        assert_eq!(
            config.machine, self.config.machine,
            "reset_in_place keeps the machine; build a new simulator for another"
        );
        self.config = config;
        let policy = Self::build_policy(&self.config);
        self.core.reset_cold(policy);
    }

    /// The simulation configuration.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Loads a program (resets architectural state, keeps caches and
    /// predictors warm — see [`Core::load_program`]). Takes shared
    /// ownership: reloading the same program across attack rounds or
    /// sweep jobs is a reference-count bump, never a deep copy.
    pub fn load_program(&mut self, program: Arc<Program>) {
        self.core.load_program(program);
    }

    /// Runs for at most `max_cycles`.
    pub fn run(&mut self, max_cycles: u64) -> RunResult {
        self.core.run(max_cycles)
    }

    /// Loads and runs a program to completion.
    ///
    /// # Panics
    ///
    /// Panics if the program does not halt within `max_cycles` (programs
    /// in this workspace are expected to halt; a non-halting run is a
    /// harness bug).
    pub fn run_to_halt(&mut self, program: &Arc<Program>, max_cycles: u64) -> RunResult {
        self.core.load_program(Arc::clone(program));
        let result = self.core.run(max_cycles);
        assert_eq!(
            result.exit,
            ExitReason::Halted,
            "program did not halt within {max_cycles} cycles under {}",
            self.config.defense
        );
        result
    }

    /// Architectural register value.
    pub fn read_arch_reg(&self, reg: Reg) -> u64 {
        self.core.read_arch_reg(reg)
    }

    /// Reads simulated memory at a virtual address.
    pub fn read_memory(&self, vaddr: u64, size: u64) -> u64 {
        self.core.read_memory(vaddr, size)
    }

    /// Writes simulated memory at a virtual address.
    pub fn write_memory(&mut self, vaddr: u64, value: u64, size: u64) {
        self.core.write_memory(vaddr, value, size);
    }

    /// Resets all statistics after a warm-up window.
    pub fn reset_stats(&mut self) {
        self.core.reset_stats();
    }

    /// The underlying core (attack orchestration and tests).
    pub fn core(&self) -> &Core {
        &self.core
    }

    /// Mutable access to the underlying core.
    pub fn core_mut(&mut self) -> &mut Core {
        &mut self.core
    }

    /// The complete measurement protocol used by the sweep engine and
    /// the bench harnesses: optionally run `warmup` to prime caches and
    /// predictors, reset the statistics window, run `measured` to
    /// completion, and return the window's [`Report`].
    ///
    /// # Panics
    ///
    /// Panics if either program fails to halt within `max_cycles` (see
    /// [`Simulator::run_to_halt`]). The sweep engine relies on this:
    /// a panicking job is isolated and marked failed without aborting
    /// the rest of the sweep.
    pub fn run_job(
        &mut self,
        warmup: Option<&Arc<Program>>,
        measured: &Arc<Program>,
        max_cycles: u64,
    ) -> Report {
        if let Some(w) = warmup {
            self.run_to_halt(w, max_cycles);
        }
        self.reset_stats();
        self.run_to_halt(measured, max_cycles);
        self.report()
    }

    /// Quiesces the core at an instruction boundary and captures a
    /// restorable [`Checkpoint`] tagged with this machine's preset name.
    ///
    /// `workload` names the program the checkpoint belongs to and
    /// `inst_index` is its position on the whole-program instruction
    /// axis (instructions retired before the capture point).
    pub fn capture_checkpoint(&mut self, workload: &str, inst_index: u64) -> Checkpoint {
        self.core.quiesce();
        let snapshot = self
            .core
            .capture_snapshot()
            .expect("a quiesced core always snapshots");
        Checkpoint {
            machine: self.config.machine.name.to_string(),
            workload: workload.to_string(),
            inst_index,
            snapshot,
        }
    }

    /// Restores `checkpoint` into this machine: cold-resets everything,
    /// installs the captured state, and rebuilds the security policy
    /// from this simulator's configuration (checkpoints are
    /// policy-agnostic — a quiesced boundary has no policy transient
    /// state — so one functional checkpoint serves every defense).
    ///
    /// `program` must be the same program the checkpoint was captured
    /// from; it is re-attached for fetch, not re-loaded (restoring does
    /// not reset architectural state or re-copy data segments).
    ///
    /// # Errors
    ///
    /// Fails when the checkpoint was captured on a different machine
    /// preset: cache, TLB and predictor geometry must match.
    pub fn restore_checkpoint(
        &mut self,
        checkpoint: &Checkpoint,
        program: Arc<Program>,
    ) -> Result<(), String> {
        if checkpoint.machine != self.config.machine.name {
            return Err(format!(
                "checkpoint was captured on machine `{}`; this simulator is `{}`",
                checkpoint.machine, self.config.machine.name
            ));
        }
        let policy = Self::build_policy(&self.config);
        self.core
            .restore_snapshot(&checkpoint.snapshot, program, policy);
        Ok(())
    }

    /// Retires up to `max_insts` instructions architecturally with no
    /// pipeline, cache or predictor modelling — the sampled-run
    /// fast-forward mode (see [`Core::run_functional`]).
    ///
    /// # Errors
    ///
    /// Fails when the core has in-flight instructions or no program.
    pub fn run_functional(&mut self, max_insts: u64) -> Result<FunctionalResult, String> {
        self.core.run_functional(max_insts)
    }

    /// Runs the detailed model until `target` further instructions
    /// commit (the sampled-run measurement window; see
    /// [`Core::run_until_committed`]).
    pub fn run_until_committed(&mut self, target: u64, max_cycles: u64) -> RunResult {
        self.core.run_until_committed(target, max_cycles)
    }

    /// Produces the evaluation report for the current statistics window.
    pub fn report(&self) -> Report {
        let pstats = self.core.stats();
        let policy_stats = self.core.policy().stats();
        Report {
            defense: self.config.defense,
            cycles: pstats.cycles,
            committed: pstats.committed,
            ipc: pstats.ipc(),
            l1d_hit_rate: self.core.hierarchy().stats().l1d.rate(),
            blocked_rate: pstats.blocked_rate(),
            suspect_hit_rate: pstats.suspect_l1.rate(),
            s_pattern_mismatch_rate: policy_stats.s_pattern_mismatch_rate(),
            branch_accuracy: self.core.frontend().conditional_accuracy().rate(),
            mispredict_squashes: pstats.mispredict_squashes,
            block_events: pstats.block_events,
            violation_squashes: pstats.violation_squashes,
            squashed_insts: pstats.squashed_insts,
            icache_fetch_stalls: pstats.icache_fetch_stalls,
            avg_rob_occupancy: pstats.avg_rob_occupancy(),
            avg_iq_occupancy: pstats.avg_iq_occupancy(),
            leaks: self.core.leak_report(),
        }
    }

    /// Fills a [`MetricsRegistry`] with the full machine state: the
    /// core's `core.*`/`policy.*` metrics (see [`Core::fill_metrics`])
    /// plus memory-hierarchy and front-end gauges under `mem.*` and
    /// `frontend.*`.
    ///
    /// [`MetricsRegistry`]: condspec_stats::MetricsRegistry
    pub fn metrics(&self) -> condspec_stats::MetricsRegistry {
        let mut registry = condspec_stats::MetricsRegistry::new();
        self.core.fill_metrics(&mut registry);
        let h = self.core.hierarchy().stats();
        registry.set_gauge("mem.l1d_hit_rate", h.l1d.rate());
        registry.set_gauge("mem.l1i_hit_rate", h.l1i.rate());
        registry.set_gauge("mem.l2_data_hit_rate", h.l2_data.rate());
        registry.set_gauge("mem.l3_data_hit_rate", h.l3_data.rate());
        registry.set_counter("mem.prefetches", h.prefetches);
        registry.set_gauge(
            "frontend.branch_accuracy",
            self.core.frontend().conditional_accuracy().rate(),
        );
        registry
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MachineConfig;
    use condspec_isa::{AluOp, BranchCond, ProgramBuilder};

    fn counting_program(n: u64) -> Arc<Program> {
        let mut b = ProgramBuilder::new(0x1000);
        b.li(Reg::R1, 0);
        b.li(Reg::R2, n);
        b.label("loop").unwrap();
        b.alu_imm(AluOp::Add, Reg::R1, Reg::R1, 1);
        b.branch_to(BranchCond::LtU, Reg::R1, Reg::R2, "loop");
        b.halt();
        Arc::new(b.build().unwrap())
    }

    #[test]
    fn all_defenses_compute_identical_results() {
        let program = {
            let mut b = ProgramBuilder::new(0x1000);
            b.li(Reg::R1, 0x20000);
            b.li(Reg::R2, 0);
            b.li(Reg::R3, 0);
            b.label("loop").unwrap();
            b.load(Reg::R4, Reg::R1, 0);
            b.alu(AluOp::Add, Reg::R2, Reg::R2, Reg::R4);
            b.store(Reg::R2, Reg::R1, 8);
            b.alu_imm(AluOp::Add, Reg::R3, Reg::R3, 1);
            b.branch_to(BranchCond::LtU, Reg::R3, Reg::R5, "loop");
            b.halt();
            b.data_u64s(0x20000, &[7, 0]);
            Arc::new(b.build().unwrap())
        };
        let mut results = Vec::new();
        for defense in DefenseConfig::ALL {
            let mut sim = Simulator::new(SimConfig::new(defense));
            sim.core_mut().write_memory(0x20000, 7, 8);
            sim.run_to_halt(&program, 1_000_000);
            results.push((sim.read_arch_reg(Reg::R2), sim.read_memory(0x20008, 8)));
        }
        assert!(
            results.windows(2).all(|w| w[0] == w[1]),
            "defenses must not change architectural results: {results:?}"
        );
    }

    #[test]
    fn defenses_only_slow_down() {
        let program = counting_program(500);
        let mut cycles = Vec::new();
        for defense in DefenseConfig::ALL {
            let mut sim = Simulator::new(SimConfig::new(defense));
            let r = sim.run_to_halt(&program, 1_000_000);
            cycles.push(r.cycles);
        }
        // Origin is the fastest (or tied).
        assert!(cycles[0] <= cycles[1], "origin faster than baseline");
    }

    #[test]
    fn report_fields_are_sane() {
        let mut sim = Simulator::new(SimConfig::new(DefenseConfig::CacheHit));
        sim.run_to_halt(&counting_program(100), 1_000_000);
        let report = sim.report();
        assert!(report.cycles > 0);
        assert!(report.committed >= 202);
        assert!(report.ipc > 0.0);
        assert!(report.branch_accuracy >= 0.0 && report.branch_accuracy <= 1.0);
    }

    #[test]
    fn runs_on_all_machine_presets() {
        for machine in [
            MachineConfig::paper_default(),
            MachineConfig::a57_like(),
            MachineConfig::i7_like(),
            MachineConfig::xeon_like(),
        ] {
            let mut sim =
                Simulator::new(SimConfig::on_machine(DefenseConfig::CacheHitTpbuf, machine));
            let r = sim.run_to_halt(&counting_program(50), 1_000_000);
            assert_eq!(r.exit, ExitReason::Halted, "{} halted", machine.name);
            assert_eq!(sim.read_arch_reg(Reg::R1), 50);
        }
    }

    #[test]
    fn run_job_matches_manual_protocol() {
        let warmup = counting_program(20);
        let measured = counting_program(100);

        let mut manual = Simulator::new(SimConfig::new(DefenseConfig::CacheHit));
        manual.run_to_halt(&warmup, 1_000_000);
        manual.reset_stats();
        manual.run_to_halt(&measured, 1_000_000);
        let expected = manual.report();

        let mut sim = Simulator::new(SimConfig::new(DefenseConfig::CacheHit));
        let report = sim.run_job(Some(&warmup), &measured, 1_000_000);
        assert_eq!(report, expected);
    }

    #[test]
    fn report_json_round_trips() {
        let mut sim = Simulator::new(SimConfig::new(DefenseConfig::CacheHitTpbuf));
        let report = sim.run_job(None, &counting_program(100), 1_000_000);
        let rendered = report.to_json().render();
        let parsed = Report::from_json(&condspec_stats::Json::parse(&rendered).unwrap())
            .expect("well-formed report JSON");
        assert_eq!(parsed, report);
        assert!(Report::from_json(&condspec_stats::Json::Null).is_none());
        // A busy run fills the late-addition detail counters too.
        assert!(report.avg_rob_occupancy > 0.0);
        assert!(report.squashed_insts > 0 || report.mispredict_squashes == 0);
    }

    #[test]
    fn report_json_keeps_legacy_key_prefix_stable() {
        // The sweep artifacts' report keys are load-bearing: the first
        // ten keys (through mispredict_squashes) predate the detail
        // counters and must keep their exact names and order so old
        // artifacts and external scripts keep working.
        let mut sim = Simulator::new(SimConfig::new(DefenseConfig::Origin));
        let report = sim.run_job(None, &counting_program(10), 1_000_000);
        let rendered = report.to_json().render();
        for (earlier, later) in [
            ("\"defense\":", "\"cycles\":"),
            ("\"branch_accuracy\":", "\"mispredict_squashes\":"),
            ("\"mispredict_squashes\":", "\"block_events\":"),
            ("\"icache_fetch_stalls\":", "\"avg_rob_occupancy\":"),
        ] {
            let a = rendered
                .find(earlier)
                .unwrap_or_else(|| panic!("{earlier} missing"));
            let b = rendered
                .find(later)
                .unwrap_or_else(|| panic!("{later} missing"));
            assert!(a < b, "{earlier} must precede {later}");
        }
    }

    #[test]
    fn report_parses_legacy_artifacts_without_new_keys() {
        let mut sim = Simulator::new(SimConfig::new(DefenseConfig::CacheHit));
        let report = sim.run_job(None, &counting_program(50), 1_000_000);
        // Simulate a pre-detail-counter artifact by dropping the new keys.
        let condspec_stats::Json::Object(members) =
            condspec_stats::Json::parse(&report.to_json().render()).unwrap()
        else {
            panic!("report renders an object");
        };
        let legacy = condspec_stats::Json::Object(
            members
                .into_iter()
                .filter(|(k, _)| {
                    ![
                        "block_events",
                        "violation_squashes",
                        "squashed_insts",
                        "icache_fetch_stalls",
                        "avg_rob_occupancy",
                        "avg_iq_occupancy",
                    ]
                    .contains(&k.as_str())
                })
                .collect(),
        );
        let parsed = Report::from_json(&legacy).expect("legacy artifact must parse");
        assert_eq!(parsed.cycles, report.cycles);
        assert_eq!(parsed.block_events, 0, "missing keys default to zero");
        assert_eq!(parsed.avg_iq_occupancy, 0.0);
    }

    #[test]
    fn metrics_registry_covers_core_policy_and_memory() {
        let mut sim = Simulator::new(SimConfig::new(DefenseConfig::CacheHitTpbuf));
        sim.run_job(None, &counting_program(100), 1_000_000);
        let registry = sim.metrics();
        for key in [
            "core.cycles",
            "core.ipc",
            "core.blocked_rate",
            "policy.suspect_flags",
            "mem.l1d_hit_rate",
            "frontend.branch_accuracy",
        ] {
            assert!(registry.get(key).is_some(), "metric {key} missing");
        }
        // Deterministic, parseable export.
        let rendered = registry.to_json().render();
        assert_eq!(rendered, sim.metrics().to_json().render());
        condspec_stats::Json::parse(&rendered).expect("metrics JSON parses");
    }

    #[test]
    fn reset_in_place_matches_fresh_simulator() {
        // A memory- and branch-heavy job so the report is sensitive to
        // every piece of warm state a leaky reset could carry over:
        // cache lines, predictor counters, TLB entries, written memory.
        let job = || {
            let mut b = ProgramBuilder::new(0x1000);
            b.li(Reg::R1, 0x20000);
            b.li(Reg::R2, 0);
            b.li(Reg::R3, 0);
            b.li(Reg::R5, 400);
            b.label("loop").unwrap();
            b.load(Reg::R4, Reg::R1, 0);
            b.alu(AluOp::Add, Reg::R2, Reg::R2, Reg::R4);
            b.store(Reg::R2, Reg::R1, 8);
            b.alu_imm(AluOp::And, Reg::R6, Reg::R2, 1);
            b.branch_to(BranchCond::Ne, Reg::R6, Reg::R0, "skip");
            b.alu_imm(AluOp::Add, Reg::R2, Reg::R2, 3);
            b.label("skip").unwrap();
            b.alu_imm(AluOp::Add, Reg::R3, Reg::R3, 1);
            b.branch_to(BranchCond::LtU, Reg::R3, Reg::R5, "loop");
            b.halt();
            b.data_u64s(0x20000, &[7, 0]);
            Arc::new(b.build().unwrap())
        };
        // Every (dirtied under, reset into) pair of defenses: the sweep
        // engine keeps one simulator per machine across defenses.
        for defense in DefenseConfig::ALL {
            let config = SimConfig::new(defense);
            let mut fresh = Simulator::new(config);
            let expected = fresh.run_job(Some(&counting_program(20)), &job(), 1_000_000);

            for dirtied_under in DefenseConfig::ALL {
                let mut reused = Simulator::new(SimConfig::new(dirtied_under));
                // Dirty every structure with a different job, stray
                // writes and an oracle left switched on.
                reused
                    .core_mut()
                    .enable_taint(condspec_pipeline::TaintConfig::range(0x20000, 8));
                reused.core_mut().enable_trace(64);
                reused.run_job(Some(&job()), &counting_program(300), 1_000_000);
                reused.write_memory(0x9000, 77, 8);
                reused.reset_in_place(config);
                assert_eq!(*reused.config(), config);
                assert_eq!(reused.read_memory(0x9000, 8), 0, "memory must forget");
                let report = reused.run_job(Some(&counting_program(20)), &job(), 1_000_000);
                assert_eq!(
                    report, expected,
                    "dirtied under {dirtied_under}, reset into {defense}: must equal fresh"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "keeps the machine")]
    fn reset_in_place_refuses_another_machine() {
        let mut sim = Simulator::new(SimConfig::new(DefenseConfig::Origin));
        sim.reset_in_place(SimConfig::on_machine(
            DefenseConfig::Origin,
            MachineConfig::a57_like(),
        ));
    }

    #[test]
    fn reset_stats_clears_window() {
        let mut sim = Simulator::new(SimConfig::new(DefenseConfig::Origin));
        sim.run_to_halt(&counting_program(10), 100_000);
        assert!(sim.report().cycles > 0);
        sim.reset_stats();
        assert_eq!(sim.report().cycles, 0);
        assert_eq!(sim.report().committed, 0);
    }
}
