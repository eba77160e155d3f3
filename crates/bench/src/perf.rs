//! Simulator-throughput benchmark (`condspec perf`).
//!
//! Measures how fast the simulator runs over a fixed, deterministic set
//! of cells and writes them all into one report:
//!
//! * **detailed** cells — the cycle-accurate pipeline on three
//!   workloads, each under Origin, Cache-hit and Cache-hit + TPBuf:
//!   * **counting-loop** — a register-only countdown loop: peak
//!     fetch/dispatch/issue/commit pressure with no memory traffic.
//!   * **pointer-chase** — a permuted pointer ring larger than the L1:
//!     long-latency loads keep the IQ occupied, exercising the security
//!     dependence matrix and the blocked-wakeup path under the defenses.
//!   * **spectre-gadget** — the Figure 5 attack-round shape: repeated
//!     `load_program` + train/trigger runs of the V1 gadget, exercising
//!     the program-load/reset path, squashes, and the filters.
//! * **functional** cells — architectural-only execution (the
//!   sampled-run fast-forward engine) of the two halting workloads.
//! * **sampled** cells — the full SimPoint-style pipeline (functional
//!   fast-forward, detailed windows, weighted stitch) on the same two.
//! * **stage** cells — one pipeline structure driven directly, with no
//!   core around it (`stage.rs`).
//!
//! A cell's work is deterministic — simulated cycles and committed
//! instructions for a simulation cell, operations and a result checksum
//! for a stage cell — so it is identical on every host; only the
//! wall-clock fields vary. Every cell is timed several times and the
//! fastest wall time is reported — the minimum over repeats of a
//! deterministic computation estimates the code's speed, not the host
//! scheduler's mood. The report serializes as the `condspec-simspeed-v2`
//! JSON schema; [`compare`] checks a report against a committed one
//! (`ci/perf-quick-baseline.json`, `BENCH_simspeed.json`).

use crate::stage::STAGES;
use condspec::{run_sampled, DefenseConfig, MachineConfig, SampledOptions, SimConfig, Simulator};
use condspec_isa::{AluOp, BranchCond, Program, ProgramBuilder, Reg};
use condspec_stats::{Json, SplitMix64};
use condspec_workloads::gadgets::SpectreGadget;
use condspec_workloads::GadgetKind;
use std::time::Instant;

/// Schema identifier embedded in the JSON output.
pub const SCHEMA: &str = "condspec-simspeed-v2";

/// Defenses measured per workload (Baseline is covered transitively —
/// its hot path is a strict subset of Cache-hit).
pub const DEFENSES: [DefenseConfig; 3] = [
    DefenseConfig::Origin,
    DefenseConfig::CacheHit,
    DefenseConfig::CacheHitTpbuf,
];

/// Base address of the counting/pointer-chase code.
const CODE_BASE: u64 = 0x0040_0000;
/// Base of the pointer ring (page-aligned, far from gadget layouts).
const RING_BASE: u64 = 0x0800_0000;
/// Pointer-ring slots: 16 Ki × 8 B = 128 KiB, twice the 64 KiB L1D.
const RING_SLOTS: usize = 16 * 1024;
/// Cycle budget per gadget run (same as the attack harness).
const GADGET_RUN_BUDGET: u64 = 500_000;

/// The workload names of the simulation cells, in run order.
pub const WORKLOADS: [&str; 3] = ["counting-loop", "pointer-chase", "spectre-gadget"];

/// A `--only <workload>[:<defense>]` cell filter: restricts the run to
/// one workload, optionally to a single defense column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellFilter {
    /// The selected workload (one of [`WORKLOADS`]).
    pub workload: &'static str,
    /// The selected defense; `None` keeps all three columns.
    pub defense: Option<DefenseConfig>,
}

impl CellFilter {
    /// Parses `<workload>[:<defense>]`, validating both names.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let (workload_name, defense_key) = match spec.split_once(':') {
            Some((w, d)) => (w, Some(d)),
            None => (spec, None),
        };
        let workload = WORKLOADS
            .iter()
            .copied()
            .find(|w| *w == workload_name)
            .ok_or_else(|| {
                format!(
                    "unknown workload `{workload_name}` (expected one of: {})",
                    WORKLOADS.join(", ")
                )
            })?;
        let defense = defense_key
            .map(|key| {
                DEFENSES
                    .iter()
                    .copied()
                    .find(|d| d.key() == key)
                    .ok_or_else(|| {
                        let keys: Vec<_> = DEFENSES.iter().map(|d| d.key()).collect();
                        format!(
                            "unknown defense `{key}` (expected one of: {})",
                            keys.join(", ")
                        )
                    })
            })
            .transpose()?;
        Ok(CellFilter { workload, defense })
    }

    /// Whether the filter keeps the `(workload, defense)` cell.
    pub fn keeps(&self, workload: &str, defense: DefenseConfig) -> bool {
        self.workload == workload && self.defense.map(|d| d == defense).unwrap_or(true)
    }
}

/// Workload sizing for one `condspec perf` invocation.
#[derive(Debug, Clone, Copy)]
pub struct PerfOptions {
    /// Machine preset the simulation cells run on.
    pub machine: MachineConfig,
    /// Quick mode: ~50× less work per cell (CI smoke).
    pub quick: bool,
    /// Restricts the run to one workload (optionally one defense); a
    /// filtered run has no stage cells.
    pub only: Option<CellFilter>,
}

impl PerfOptions {
    /// Full-size run on the paper-default machine.
    pub fn paper_default() -> Self {
        PerfOptions {
            machine: MachineConfig::paper_default(),
            quick: false,
            only: None,
        }
    }

    fn counting_iterations(&self) -> u64 {
        if self.quick {
            6_000
        } else {
            300_000
        }
    }

    fn chase_iterations(&self) -> u64 {
        if self.quick {
            3_000
        } else {
            150_000
        }
    }

    fn gadget_rounds(&self) -> u32 {
        if self.quick {
            2
        } else {
            400
        }
    }

    fn sampled_checkpoints(&self) -> usize {
        if self.quick {
            4
        } else {
            8
        }
    }

    fn sampled_window(&self) -> u64 {
        if self.quick {
            2_000
        } else {
            20_000
        }
    }

    /// Detailed warmup before each measured window. The full-size
    /// pointer chase walks a 16K-slot ring, so a warmup that is a
    /// fraction of the window leaves the cache cold and the stitched
    /// estimate ~5× too slow; one ring pass (~50K instructions) fixes
    /// the bias. Quick-mode segments are shorter than this, and
    /// `run_window` clamps warmup into the segment, so the large value
    /// is safe in both modes.
    fn sampled_warmup(&self) -> u64 {
        if self.quick {
            self.sampled_window() / 10
        } else {
            50_000
        }
    }

    /// Rounds of a stage cell whose full-size run does `full`.
    pub(crate) fn stage_rounds(&self, full: u64) -> u64 {
        if self.quick {
            (full / 50).max(1)
        } else {
            full
        }
    }

    /// Timed repetitions per cell; the fastest wall time is reported.
    ///
    /// The work is deterministic, so repeats only re-measure the host:
    /// taking the minimum is the standard noise-robust estimator for
    /// "how fast can this code run", and it keeps the CI regression
    /// guard from tripping on scheduler jitter. The repeats double as a
    /// determinism check — every repeat must reproduce the cell's work
    /// exactly.
    fn cell_repeats(&self) -> u32 {
        3
    }
}

/// How a perf cell runs its workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellMode {
    /// Cycle-accurate out-of-order pipeline.
    Detailed,
    /// Architectural-only execution (no cycle model; `sim_cycles` is 0).
    Functional,
    /// Functional fast-forward + detailed windows + weighted stitch;
    /// `sim_cycles` is the stitched whole-program estimate and
    /// `committed_inst` the whole program the run represents.
    Sampled,
    /// One pipeline structure driven directly (`stage.rs`): no core, no
    /// defense.
    Stage,
}

impl CellMode {
    /// The cell's `mode` key.
    pub fn key(self) -> &'static str {
        match self {
            CellMode::Detailed => "detailed",
            CellMode::Functional => "functional",
            CellMode::Sampled => "sampled",
            CellMode::Stage => "stage",
        }
    }

    /// The mode named by `key`.
    pub(crate) fn from_key(key: &str) -> Option<Self> {
        [
            CellMode::Detailed,
            CellMode::Functional,
            CellMode::Sampled,
            CellMode::Stage,
        ]
        .into_iter()
        .find(|mode| mode.key() == key)
    }

    /// The report fields of the cell's two exact-work counts.
    pub fn work_fields(self) -> [&'static str; 2] {
        match self {
            CellMode::Stage => ["ops", "checksum"],
            _ => ["sim_cycles", "committed_inst"],
        }
    }

    /// The report field of the rate the throughput gate reads.
    pub fn rate_field(self) -> &'static str {
        match self {
            CellMode::Stage => "ops_per_sec",
            _ => "committed_inst_per_sec",
        }
    }

    /// Display unit of that rate, in millions per second.
    pub fn rate_unit(self) -> &'static str {
        match self {
            CellMode::Stage => "Mops/s",
            _ => "Minst/s",
        }
    }
}

/// `workload/defense/mode`, or `workload/mode` for a stage cell.
fn cell_label(workload: &str, defense: Option<&str>, mode: CellMode) -> String {
    match defense {
        Some(defense) => format!("{workload}/{defense}/{}", mode.key()),
        None => format!("{workload}/{}", mode.key()),
    }
}

/// One timed cell.
#[derive(Debug, Clone)]
pub struct PerfCell {
    /// Workload (one of [`WORKLOADS`]) or stage name.
    pub workload: &'static str,
    /// Defense environment; `None` for a stage cell.
    pub defense: Option<DefenseConfig>,
    /// How the cell runs.
    pub mode: CellMode,
    /// The deterministic work, in [`CellMode::work_fields`] order:
    /// `(sim_cycles, committed_inst)` or `(ops, checksum)`.
    pub work: (u64, u64),
    /// Wall-clock seconds of the fastest repeat (host-dependent).
    pub wall_seconds: f64,
}

impl PerfCell {
    /// The cell's [`cell_label`].
    pub(crate) fn label(&self) -> String {
        cell_label(self.workload, self.defense.map(|d| d.key()), self.mode)
    }

    /// The gated rate ([`CellMode::rate_field`]): committed instructions
    /// per wall-clock second, or stage operations per second.
    pub fn rate(&self) -> f64 {
        let count = match self.mode {
            CellMode::Stage => self.work.0,
            _ => self.work.1,
        };
        count as f64 / self.wall_seconds.max(1e-9)
    }

    /// Simulated cycles per wall-clock second (simulation cells).
    pub fn cycles_per_sec(&self) -> f64 {
        self.work.0 as f64 / self.wall_seconds.max(1e-9)
    }
}

/// A register-only countdown loop (no memory traffic).
fn counting_loop(iterations: u64) -> Program {
    let mut b = ProgramBuilder::new(CODE_BASE);
    b.li(Reg::R1, iterations);
    b.li(Reg::R2, 0x1234_5678);
    b.li(Reg::R3, 7);
    let top = b.here();
    // Eight-deep ALU body: enough ILP to keep the issue stage busy.
    b.alu(AluOp::Add, Reg::R4, Reg::R2, Reg::R3)
        .alu(AluOp::Xor, Reg::R5, Reg::R4, Reg::R2)
        .alu(AluOp::Shl, Reg::R6, Reg::R5, Reg::R3)
        .alu(AluOp::Add, Reg::R7, Reg::R6, Reg::R4)
        .alu(AluOp::Or, Reg::R8, Reg::R7, Reg::R5)
        .alu(AluOp::Sub, Reg::R9, Reg::R8, Reg::R6)
        .alu(AluOp::Xor, Reg::R2, Reg::R9, Reg::R7)
        .alu_imm(AluOp::Sub, Reg::R1, Reg::R1, 1)
        .branch(BranchCond::Ne, Reg::R1, Reg::R0, top);
    b.halt();
    b.build().expect("counting loop assembles")
}

/// A permuted pointer ring over a region larger than the L1D: each load
/// depends on the previous one, so the window fills with unissued work.
fn pointer_chase(iterations: u64) -> Program {
    // Deterministic single-cycle permutation (Sattolo's algorithm).
    let mut next: Vec<usize> = (0..RING_SLOTS).collect();
    let mut rng = SplitMix64::new(0x5eed_cafe_f00d_0001);
    let mut idx: Vec<usize> = (0..RING_SLOTS).collect();
    for i in (1..RING_SLOTS).rev() {
        let j = (rng.next_u64() % i as u64) as usize;
        idx.swap(i, j);
    }
    for w in 0..RING_SLOTS {
        next[idx[w]] = idx[(w + 1) % RING_SLOTS];
    }
    let words: Vec<u64> = next.iter().map(|&n| RING_BASE + 8 * n as u64).collect();

    let mut b = ProgramBuilder::new(CODE_BASE);
    b.li(Reg::R1, iterations);
    b.li(Reg::R2, RING_BASE + 8 * idx[0] as u64);
    let top = b.here();
    b.load(Reg::R2, Reg::R2, 0)
        .alu_imm(AluOp::Sub, Reg::R1, Reg::R1, 1)
        .branch(BranchCond::Ne, Reg::R1, Reg::R0, top);
    b.halt();
    b.data_u64s(RING_BASE, &words);
    b.build().expect("pointer chase assembles")
}

fn run_to_halt_cell(program: &std::sync::Arc<Program>, config: SimConfig) -> (u64, u64) {
    let mut sim = Simulator::new(config);
    let result = sim.run_to_halt(program, u64::MAX);
    (result.cycles, result.committed)
}

/// The attack-round shape: repeated program loads with train/trigger
/// runs, flushing the bounds word before each malicious run.
fn run_gadget_cell(gadget: &SpectreGadget, config: SimConfig, rounds: u32) -> (u64, u64) {
    let mut sim = Simulator::new(config);
    let (mut cycles, mut committed) = (0u64, 0u64);
    for _ in 0..rounds {
        for _ in 0..2 {
            sim.load_program(gadget.program.clone());
            sim.write_memory(gadget.input_addr, gadget.train_input, 8);
            let r = sim.run(GADGET_RUN_BUDGET);
            cycles += r.cycles;
            committed += r.committed;
        }
        sim.load_program(gadget.program.clone());
        sim.write_memory(gadget.input_addr, gadget.attack_input, 8);
        if let Some(len) = gadget.len_addr {
            let pa = sim.core().page_table().translate(len);
            sim.core_mut().hierarchy_mut().flush_line(pa);
        }
        let r = sim.run(GADGET_RUN_BUDGET);
        cycles += r.cycles;
        committed += r.committed;
    }
    (cycles, committed)
}

/// Architectural-only execution of `program` to its halt: no cycle
/// model exists, so the cell reports zero simulated cycles.
fn run_functional_cell(program: &std::sync::Arc<Program>, config: SimConfig) -> (u64, u64) {
    let mut sim = Simulator::new(config);
    sim.load_program(program.clone());
    let result = sim
        .run_functional(SampledOptions::default().max_insts)
        .expect("a fresh simulator runs functionally");
    assert_eq!(
        result.exit,
        condspec::FunctionalExit::Halted,
        "perf workloads halt"
    );
    (0, result.retired)
}

/// The full sampled pipeline end to end: functional count + capture
/// passes, a detailed window per checkpoint, weighted stitch. Reports
/// the stitched cycle estimate over the whole program's instructions,
/// so `committed_inst_per_sec` is the effective whole-program rate the
/// sampling buys.
fn run_sampled_cell(
    workload: &str,
    program: &std::sync::Arc<Program>,
    config: SimConfig,
    checkpoints: usize,
    window: u64,
    warmup: u64,
) -> (u64, u64) {
    let mut sim = Simulator::new(config);
    let opts = SampledOptions {
        checkpoints,
        window,
        warmup,
        ..SampledOptions::default()
    };
    let sampled = run_sampled(&mut sim, program, workload, &opts).expect("sampled run completes");
    (sampled.report.cycles, sampled.total_insts)
}

/// Times one cell: `repeats` runs of `runner`, fastest wall time kept,
/// identical work asserted across repeats.
fn measure_cell(
    workload: &'static str,
    defense: Option<DefenseConfig>,
    mode: CellMode,
    repeats: u32,
    runner: &dyn Fn() -> (u64, u64),
) -> PerfCell {
    let mut best: Option<PerfCell> = None;
    for _ in 0..repeats {
        let start = Instant::now();
        let work = runner();
        let wall_seconds = start.elapsed().as_secs_f64();
        match &mut best {
            None => {
                best = Some(PerfCell {
                    workload,
                    defense,
                    mode,
                    work,
                    wall_seconds,
                });
            }
            Some(cell) => {
                assert_eq!(
                    cell.work,
                    work,
                    "{}: work must be deterministic",
                    cell.label()
                );
                cell.wall_seconds = cell.wall_seconds.min(wall_seconds);
            }
        }
    }
    best.expect("at least one repeat")
}

/// Runs every cell the options keep, in a fixed order: the detailed
/// matrix (workloads outer, [`DEFENSES`] inner), then the functional,
/// sampled and stage rows.
pub fn run_matrix(opts: &PerfOptions) -> Vec<PerfCell> {
    let counting = std::sync::Arc::new(counting_loop(opts.counting_iterations()));
    let chase = std::sync::Arc::new(pointer_chase(opts.chase_iterations()));
    let gadget = SpectreGadget::build(GadgetKind::V1);
    let keeps = |workload: &str, defense: DefenseConfig| {
        opts.only
            .as_ref()
            .map(|f| f.keeps(workload, defense))
            .unwrap_or(true)
    };
    let mut cells = Vec::new();
    for (workload, runner) in [
        (
            "counting-loop",
            Box::new(|c: SimConfig| run_to_halt_cell(&counting, c))
                as Box<dyn Fn(SimConfig) -> (u64, u64)>,
        ),
        (
            "pointer-chase",
            Box::new(|c: SimConfig| run_to_halt_cell(&chase, c)),
        ),
        (
            "spectre-gadget",
            Box::new(|c: SimConfig| run_gadget_cell(&gadget, c, opts.gadget_rounds())),
        ),
    ] {
        for defense in DEFENSES {
            if !keeps(workload, defense) {
                continue;
            }
            let config = SimConfig::on_machine(defense, opts.machine);
            cells.push(measure_cell(
                workload,
                Some(defense),
                CellMode::Detailed,
                opts.cell_repeats(),
                &|| runner(config),
            ));
        }
    }

    // Functional rows: the fast-forward engine on the two halting
    // workloads. Execution is architectural-only, so the defense column
    // is nominal — Origin, the no-defense environment.
    for (workload, program) in [("counting-loop", &counting), ("pointer-chase", &chase)] {
        if !keeps(workload, DefenseConfig::Origin) {
            continue;
        }
        let config = SimConfig::on_machine(DefenseConfig::Origin, opts.machine);
        cells.push(measure_cell(
            workload,
            Some(DefenseConfig::Origin),
            CellMode::Functional,
            opts.cell_repeats(),
            &|| run_functional_cell(program, config),
        ));
    }

    // Sampled rows: the full sampled pipeline under the paper's
    // complete defense, where detailed simulation is slowest and
    // sampling buys the most.
    for (workload, program) in [("counting-loop", &counting), ("pointer-chase", &chase)] {
        if !keeps(workload, DefenseConfig::CacheHitTpbuf) {
            continue;
        }
        let config = SimConfig::on_machine(DefenseConfig::CacheHitTpbuf, opts.machine);
        cells.push(measure_cell(
            workload,
            Some(DefenseConfig::CacheHitTpbuf),
            CellMode::Sampled,
            opts.cell_repeats(),
            &|| {
                run_sampled_cell(
                    workload,
                    program,
                    config,
                    opts.sampled_checkpoints(),
                    opts.sampled_window(),
                    opts.sampled_warmup(),
                )
            },
        ));
    }

    // Stage rows: each pipeline structure on its own. `--only` names a
    // simulation workload, so a filtered run leaves them out.
    for (stage, runner, full_rounds) in STAGES {
        if opts.only.is_some() {
            break;
        }
        let rounds = opts.stage_rounds(full_rounds);
        cells.push(measure_cell(
            stage,
            None,
            CellMode::Stage,
            opts.cell_repeats(),
            &|| runner(rounds),
        ));
    }
    cells
}

/// The identity wall-clock throughput numbers belong to: machine tag,
/// compiler, and core count. Recorded in every report as the `host`
/// block; [`compare`] refuses the throughput check with a message
/// naming the mismatching field when any of them differ from the
/// baseline's.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HostInfo {
    /// Architecture + core-count tag, e.g. `x86_64-1cpu`.
    pub tag: String,
    /// `rustc -V` of the compiler that built this binary.
    pub rustc: String,
    /// Available parallelism when the report was produced.
    pub cpus: u64,
}

impl HostInfo {
    /// The identity of the running binary and machine.
    pub fn current() -> Self {
        let cpus = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        HostInfo {
            tag: format!("{}-{cpus}cpu", std::env::consts::ARCH),
            rustc: env!("CONDSPEC_RUSTC_VERSION").to_string(),
            cpus: cpus as u64,
        }
    }

    /// Serializes as the report `host` block.
    pub fn to_json(&self) -> Json {
        Json::object([
            ("tag", Json::Str(self.tag.clone())),
            ("rustc", Json::Str(self.rustc.clone())),
            ("cpus", Json::U64(self.cpus)),
        ])
    }

    /// Why throughput from `baseline_host` (the baseline's `host` block)
    /// is incomparable with this host, naming the first mismatching
    /// field — or `None` when the identities match.
    pub fn incompatibility(&self, baseline_host: &Json) -> Option<String> {
        let fields: [(&str, &str); 2] = [("tag", &self.tag), ("rustc", &self.rustc)];
        for (key, current) in fields {
            if let Some(base) = baseline_host.get(key).and_then(Json::as_str) {
                if base != current {
                    return Some(format!(
                        "host {key} mismatch: baseline `{base}` vs current `{current}`"
                    ));
                }
            }
        }
        if let Some(base) = baseline_host.get("cpus").and_then(Json::as_u64) {
            if base != self.cpus {
                return Some(format!(
                    "host cpus mismatch: baseline {base} vs current {}",
                    self.cpus
                ));
            }
        }
        None
    }
}

/// Serializes a run as the `condspec-simspeed-v2` document. Every cell
/// names its workload and mode; a simulation cell also names its
/// defense and carries `sim_cycles_per_sec` next to its gated rate.
pub fn to_json(opts: &PerfOptions, cells: &[PerfCell]) -> Json {
    let cells = cells
        .iter()
        .map(|c| {
            let [first, second] = c.mode.work_fields();
            let mut fields = vec![("workload", Json::Str(c.workload.to_string()))];
            if let Some(defense) = c.defense {
                fields.push(("defense", Json::Str(defense.key().to_string())));
            }
            fields.extend([
                ("mode", Json::Str(c.mode.key().to_string())),
                (first, Json::U64(c.work.0)),
                (second, Json::U64(c.work.1)),
                ("wall_seconds", Json::F64(c.wall_seconds)),
            ]);
            if c.mode != CellMode::Stage {
                fields.push(("sim_cycles_per_sec", Json::F64(c.cycles_per_sec())));
            }
            fields.push((c.mode.rate_field(), Json::F64(c.rate())));
            Json::object(fields)
        })
        .collect();
    Json::object([
        ("schema", Json::Str(SCHEMA.to_string())),
        ("machine", Json::Str(opts.machine.name.to_string())),
        (
            "mode",
            Json::Str(if opts.quick { "quick" } else { "full" }.to_string()),
        ),
        ("host", HostInfo::current().to_json()),
        ("cells", Json::Array(cells)),
    ])
}

/// One cell of a parsed report.
struct CellView<'a> {
    workload: &'a str,
    defense: Option<&'a str>,
    mode: CellMode,
    json: &'a Json,
}

impl CellView<'_> {
    fn label(&self) -> String {
        cell_label(self.workload, self.defense, self.mode)
    }

    fn u64_field(&self, key: &str) -> Result<u64, String> {
        self.json
            .get(key)
            .and_then(Json::as_u64)
            .ok_or(format!("cell {}: missing {key}", self.label()))
    }

    fn f64_field(&self, key: &str) -> Result<f64, String> {
        self.json
            .get(key)
            .and_then(Json::as_f64)
            .ok_or(format!("cell {}: missing {key}", self.label()))
    }

    fn work(&self) -> Result<(u64, u64), String> {
        let [first, second] = self.mode.work_fields();
        Ok((self.u64_field(first)?, self.u64_field(second)?))
    }
}

/// The cells of a report whose schema is [`SCHEMA`]. Every cell names
/// its workload and mode, and a defense exactly when it is not a stage
/// cell.
fn cells_of<'a>(which: &str, report: &'a Json) -> Result<Vec<CellView<'a>>, String> {
    match report.get("schema").and_then(Json::as_str) {
        Some(s) if s == SCHEMA => {}
        other => return Err(format!("{which} report has bad schema: {other:?}")),
    }
    report
        .get("cells")
        .and_then(Json::as_array)
        .ok_or(format!("{which} report has no cells array"))?
        .iter()
        .map(|json| {
            let workload = json
                .get("workload")
                .and_then(Json::as_str)
                .ok_or("cell missing workload")?;
            let key = json.get("mode").and_then(Json::as_str);
            let mode = key
                .and_then(CellMode::from_key)
                .ok_or(format!("cell {workload}: bad mode {key:?}"))?;
            let defense = json.get("defense").and_then(Json::as_str);
            if defense.is_some() == (mode == CellMode::Stage) {
                return Err(format!(
                    "cell {workload}: a stage cell has no defense and every other cell has one"
                ));
            }
            Ok(CellView {
                workload,
                defense,
                mode,
                json,
            })
        })
        .collect()
}

/// Validates a rendered report: schema tag, and every cell reporting
/// nonzero work and positive rates. Returns a human-readable error on
/// any violation (the CI smoke check).
pub fn validate(doc: &Json) -> Result<(), String> {
    let cells = cells_of("perf", doc)?;
    if cells.is_empty() {
        return Err("empty cells array".to_string());
    }
    for cell in &cells {
        let (first, second) = cell.work()?;
        let plausible = match cell.mode {
            CellMode::Detailed | CellMode::Sampled => first > 0 && second > 0,
            // No cycle model: sim_cycles is exactly 0.
            CellMode::Functional => first == 0 && second > 0,
            // A checksum may take any value.
            CellMode::Stage => first > 0,
        };
        if !plausible {
            let [a, b] = cell.mode.work_fields();
            return Err(format!(
                "cell {}: implausible work {a} = {first}, {b} = {second}",
                cell.label()
            ));
        }
        let mut rates = vec![cell.mode.rate_field()];
        if matches!(cell.mode, CellMode::Detailed | CellMode::Sampled) {
            rates.push("sim_cycles_per_sec");
        }
        for key in rates {
            let rate = cell.f64_field(key)?;
            if !(rate > 0.0 && rate.is_finite()) {
                return Err(format!(
                    "cell {}: {key} not positive ({rate})",
                    cell.label()
                ));
            }
        }
    }
    Ok(())
}

/// Largest tolerated throughput drop: a cell below this fraction of the
/// baseline's gated rate fails [`compare`] (when the host matches).
/// 0.70 keeps the guard robust to scheduler jitter while still catching
/// real hot-path regressions.
pub const MIN_THROUGHPUT_RATIO: f64 = 0.70;

/// One cell of a [`compare`] run: baseline vs current.
#[derive(Debug, Clone)]
pub struct CompareCell {
    /// Workload or stage name.
    pub workload: String,
    /// Defense key; `None` for a stage cell.
    pub defense: Option<String>,
    /// Cell mode.
    pub mode: CellMode,
    /// `(baseline, current)` of each exact-work field, in
    /// [`CellMode::work_fields`] order — must be equal.
    pub work: [(u64, u64); 2],
    /// `(baseline, current)` of the gated rate ([`CellMode::rate_field`]).
    pub rate: (f64, f64),
}

impl CompareCell {
    /// current / baseline gated rate.
    pub fn throughput_ratio(&self) -> f64 {
        self.rate.1 / self.rate.0.max(1e-9)
    }

    /// Whether the deterministic work fields match exactly.
    pub fn work_matches(&self) -> bool {
        self.work.iter().all(|(base, now)| base == now)
    }
}

/// The verdict of comparing a fresh report against a committed
/// baseline.
#[derive(Debug)]
pub struct Comparison {
    /// Per-cell deltas, in the current report's cell order.
    pub cells: Vec<CompareCell>,
    /// Human-readable regressions; empty means the comparison passed.
    pub failures: Vec<String>,
    /// Why throughput was or was not checked (one line for the log).
    pub throughput_note: String,
}

impl Comparison {
    /// Whether the report is acceptable (no exact-work mismatch, no
    /// over-threshold throughput regression).
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Resolves the throughput-check gate: `Ok(note)` when wall-clock rates
/// may be compared, `Err(note)` when they must not be (the note names
/// the reason — the skip is explicit, never silent).
fn throughput_gate(
    host: &HostInfo,
    base_host: Option<&Json>,
    skip: bool,
) -> Result<String, String> {
    if skip {
        return Err("throughput check skipped: CONDSPEC_SKIP_PERF_GUARD set".to_string());
    }
    match base_host {
        None => Err("throughput check skipped: baseline records no host identity".to_string()),
        Some(block) => match host.incompatibility(block) {
            Some(reason) => Err(format!(
                "throughput check refused: {reason} (simulated-work equality still verified)"
            )),
            None => Ok(format!(
                "throughput checked: host {} matches baseline, floor {MIN_THROUGHPUT_RATIO:.2}x",
                host.tag
            )),
        },
    }
}

/// Compares a fresh report against a committed baseline (the `condspec
/// perf --compare` core, and CI's regression guard).
///
/// Two classes of check, per cell:
///
/// * **Work** (`sim_cycles`/`committed_inst`, or a stage cell's
///   `ops`/`checksum`) — exact equality, on every host: the work is
///   deterministic, so any drift means the timing model or a structure
///   changed and the baseline must be regenerated deliberately
///   (`condspec perf --quick --out ci/perf-quick-baseline.json`).
/// * **Throughput** (the cell's [`CellMode::rate_field`]) —
///   `current/baseline ≥` [`MIN_THROUGHPUT_RATIO`], but only when the
///   current [`HostInfo`] matches the baseline's `host` block (rates from
///   different machines or compilers are incomparable — the refusal
///   names the mismatching field) and `skip_throughput` is unset
///   (`CONDSPEC_SKIP_PERF_GUARD=1` for loaded/throttled hosts).
///
/// A current report produced with `--only` carries a subset of the
/// baseline's cells; the subset is compared cell-for-cell. Cells
/// present in the current report but absent from the baseline are a
/// hard error (the matrix changed; regenerate the baseline).
///
/// # Errors
///
/// Returns a message (instead of a [`Comparison`]) when the documents
/// are structurally incomparable: unknown schema, mode/machine
/// mismatch, a malformed cell, or current cells the baseline does not
/// cover.
pub fn compare(
    current: &Json,
    baseline: &Json,
    host: &HostInfo,
    skip_throughput: bool,
) -> Result<Comparison, String> {
    let got_cells = cells_of("current", current)?;
    let base_cells = cells_of("baseline", baseline)?;
    for key in ["mode", "machine"] {
        let base = baseline.get(key).and_then(Json::as_str);
        let got = current.get(key).and_then(Json::as_str);
        if base != got {
            return Err(format!(
                "{key} mismatch: baseline {base:?} vs current {got:?}"
            ));
        }
    }
    if got_cells.is_empty() {
        return Err("current report has no cells".to_string());
    }

    let gate = throughput_gate(host, baseline.get("host"), skip_throughput);
    let check_throughput = gate.is_ok();
    let throughput_note = match gate {
        Ok(note) | Err(note) => note,
    };

    let mut cells = Vec::new();
    let mut failures = Vec::new();
    for got in &got_cells {
        let label = got.label();
        let Some(base) = base_cells
            .iter()
            .find(|b| (b.workload, b.defense, b.mode) == (got.workload, got.defense, got.mode))
        else {
            return Err(format!(
                "cell {label} is not in the baseline (matrix changed — regenerate the baseline)"
            ));
        };
        let (base_work, got_work) = (base.work()?, got.work()?);
        let rate_field = got.mode.rate_field();
        let cell = CompareCell {
            workload: got.workload.to_string(),
            defense: got.defense.map(str::to_string),
            mode: got.mode,
            work: [(base_work.0, got_work.0), (base_work.1, got_work.1)],
            rate: (base.f64_field(rate_field)?, got.f64_field(rate_field)?),
        };
        if !cell.work_matches() {
            let [first, second] = got.mode.work_fields();
            failures.push(format!(
                "{label}: simulated work changed — {first} {} -> {}, {second} {} -> {}; \
                 the run is no longer identical to the committed baseline (regenerate the \
                 baseline if the change is intentional)",
                base_work.0, got_work.0, base_work.1, got_work.1,
            ));
        }
        let ratio = cell.throughput_ratio();
        if check_throughput && ratio < MIN_THROUGHPUT_RATIO {
            failures.push(format!(
                "{label}: {rate_field} regressed {:.0} -> {:.0} ({ratio:.2}x, \
                 floor {MIN_THROUGHPUT_RATIO:.2}x)",
                cell.rate.0, cell.rate.1,
            ));
        }
        cells.push(cell);
    }
    Ok(Comparison {
        cells,
        failures,
        throughput_note,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_matrix_is_deterministic_and_valid() {
        let opts = PerfOptions {
            quick: true,
            ..PerfOptions::paper_default()
        };
        let a = run_matrix(&opts);
        let b = run_matrix(&opts);
        assert_eq!(
            a.len(),
            17,
            "9 detailed + 2 functional + 2 sampled + 4 stage"
        );
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.work, y.work, "{}", x.label());
            match x.mode {
                // Functional cells simulate no cycles at all, by design.
                CellMode::Functional => assert_eq!(x.work.0, 0),
                _ => assert!(x.work.0 > 0),
            }
            // A stage checksum may take any value.
            assert!(x.mode == CellMode::Stage || x.work.1 > 0);
        }
        let count = |mode| a.iter().filter(|c| c.mode == mode).count();
        assert_eq!(count(CellMode::Detailed), 9);
        assert_eq!(count(CellMode::Functional), 2);
        assert_eq!(count(CellMode::Sampled), 2);
        let stages: Vec<_> = a[13..].iter().map(|c| (c.workload, c.mode)).collect();
        assert_eq!(stages, STAGES.map(|(stage, ..)| (stage, CellMode::Stage)));
        let doc = Json::parse(&to_json(&opts, &a).render()).expect("round-trips");
        validate(&doc).expect("valid document");

        // Every cell does exactly the committed CI baseline's work. The
        // rates are not compared: a debug build on the baseline's host
        // would fall below the floor.
        let baseline = Json::parse(include_str!("../../../ci/perf-quick-baseline.json"))
            .expect("the CI baseline parses");
        validate(&baseline).expect("the CI baseline is a valid report");
        let cmp = compare(&doc, &baseline, &HostInfo::current(), true).expect("comparable");
        assert!(cmp.passed(), "{:#?}", cmp.failures);
        assert_eq!(cmp.cells.len(), 17);
    }

    fn report(cells: &[String]) -> Json {
        Json::parse(&format!(
            r#"{{"schema":"{SCHEMA}","machine":"paper-default","mode":"quick",
                 "host":{{"tag":"test-host","rustc":"rustc 1.0.0","cpus":1}},
                 "cells":[{}]}}"#,
            cells.join(",")
        ))
        .expect("test report parses")
    }

    fn sim_cell(defense: &str, committed: u64, per_sec: f64) -> String {
        format!(
            r#"{{"workload":"w","defense":"{defense}","mode":"detailed",
                 "sim_cycles":100,"committed_inst":{committed},
                 "wall_seconds":0.5,"sim_cycles_per_sec":200.0,
                 "committed_inst_per_sec":{per_sec}}}"#
        )
    }

    fn stage_cell(ops: u64, per_sec: f64) -> String {
        format!(
            r#"{{"workload":"dispatch","mode":"stage","ops":{ops},"checksum":7,
                 "wall_seconds":0.5,"ops_per_sec":{per_sec}}}"#
        )
    }

    /// A detailed cell and a stage cell, both doing `work` at `per_sec`.
    fn tiny_report(work: u64, per_sec: f64) -> Json {
        report(&[sim_cell("origin", work, per_sec), stage_cell(work, per_sec)])
    }

    fn host(tag: &str) -> HostInfo {
        HostInfo {
            tag: tag.to_string(),
            rustc: "rustc 1.0.0".to_string(),
            cpus: 1,
        }
    }

    #[test]
    fn validate_rejects_wrong_schema() {
        let doc = Json::parse("{\"schema\":\"nope\",\"cells\":[]}").unwrap();
        assert!(validate(&doc).is_err());
        validate(&tiny_report(50, 100.0)).expect("valid");
        // Every cell names its mode, and a stage cell does work.
        let modeless = sim_cell("origin", 50, 100.0).replace("\"mode\":\"detailed\",", "");
        assert!(validate(&report(&[modeless])).is_err());
        assert!(validate(&report(&[stage_cell(0, 100.0)])).is_err());
    }

    #[test]
    fn compare_accepts_identical_reports() {
        let report = tiny_report(50, 100.0);
        let cmp = compare(&report, &report, &host("test-host"), false).expect("comparable");
        assert!(cmp.passed(), "{:?}", cmp.failures);
        assert_eq!(cmp.cells.len(), 2);
        assert!(cmp.throughput_note.contains("throughput checked"));
    }

    #[test]
    fn compare_fails_on_simulated_work_drift_even_cross_host() {
        let base = tiny_report(50, 100.0);
        let cmp = compare(&tiny_report(51, 100.0), &base, &host("other-host"), false)
            .expect("comparable");
        assert!(!cmp.passed());
        assert_eq!(cmp.failures.len(), 2, "{:?}", cmp.failures);
        assert!(cmp.failures[0].starts_with("w/origin/detailed: simulated work changed"));
        assert!(cmp.failures[1].starts_with("dispatch/stage: simulated work changed"));
        assert!(cmp.throughput_note.contains("refused"));
        // A stage cell's checksum is work too.
        let checksum = stage_cell(50, 100.0).replace("\"checksum\":7", "\"checksum\":8");
        let cmp =
            compare(&report(&[checksum]), &base, &host("other-host"), false).expect("comparable");
        assert_eq!(cmp.failures.len(), 1);
        assert!(
            cmp.failures[0].contains("checksum 7 -> 8"),
            "{:?}",
            cmp.failures
        );
    }

    #[test]
    fn compare_gates_throughput_on_host_tag() {
        let slow = tiny_report(50, 100.0 * (MIN_THROUGHPUT_RATIO - 0.05));
        let base = tiny_report(50, 100.0);
        let matched = compare(&slow, &base, &host("test-host"), false).expect("comparable");
        assert_eq!(matched.failures.len(), 2, "{:?}", matched.failures);
        assert!(matched.failures[0].contains("committed_inst_per_sec regressed"));
        assert!(matched.failures[1].contains("ops_per_sec regressed"));
        let other = compare(&slow, &base, &host("other-host"), false).expect("comparable");
        assert!(other.passed(), "cross-host throughput is not comparable");
        assert!(other.throughput_note.contains("tag mismatch"));
        let skipped = compare(&slow, &base, &host("test-host"), true).expect("comparable");
        assert!(skipped.passed(), "env override skips the throughput gate");
        assert!(skipped.throughput_note.contains("CONDSPEC_SKIP_PERF_GUARD"));
    }

    #[test]
    fn compare_rejects_structural_mismatch() {
        let base = tiny_report(50, 100.0);
        let full_mode = Json::parse(&base.render().replace("\"quick\"", "\"full\"")).unwrap();
        assert!(compare(&base, &full_mode, &host("h"), false)
            .unwrap_err()
            .contains("mode mismatch"));
        for schema in [
            "nope",
            "condspec-simspeed-v1",
            "condspec-simspeed-quick-baseline-v1",
        ] {
            let other = Json::parse(&base.render().replace(SCHEMA, schema)).unwrap();
            assert!(compare(&base, &other, &host("h"), false)
                .unwrap_err()
                .contains("bad schema"));
        }
        let renamed =
            Json::parse(&base.render().replace("\"dispatch\"", "\"warp-drive\"")).unwrap();
        assert!(compare(&renamed, &base, &host("h"), false)
            .unwrap_err()
            .contains("warp-drive/stage is not in the baseline"));
        let as_detailed = base.render().replace("\"stage\"", "\"detailed\"");
        assert!(compare(
            &Json::parse(&as_detailed).unwrap(),
            &base,
            &host("h"),
            false
        )
        .is_err());
    }

    #[test]
    fn compare_names_the_mismatching_host_field() {
        let base = tiny_report(50, 100.0);
        let slow = tiny_report(50, 100.0 * (MIN_THROUGHPUT_RATIO - 0.05));
        let mut other = host("test-host");
        other.rustc = "rustc 2.0.0".to_string();
        let cmp = compare(&slow, &base, &other, false).expect("comparable");
        assert!(
            cmp.passed(),
            "mismatched toolchain must not fail throughput"
        );
        assert!(
            cmp.throughput_note.contains("rustc mismatch"),
            "note names the field: {}",
            cmp.throughput_note
        );
        let mut more_cpus = host("test-host");
        more_cpus.cpus = 8;
        let cmp = compare(&slow, &base, &more_cpus, false).expect("comparable");
        assert!(cmp.throughput_note.contains("cpus mismatch"));
    }

    #[test]
    fn compare_tolerates_an_only_subset_of_the_baseline() {
        let full = report(&[
            sim_cell("origin", 50, 100.0),
            sim_cell("cache-hit", 50, 100.0),
            stage_cell(50, 100.0),
        ]);
        let subset = report(&[sim_cell("origin", 50, 100.0)]);
        let cmp = compare(&subset, &full, &host("test-host"), false).expect("comparable");
        assert!(cmp.passed(), "{:?}", cmp.failures);
        assert_eq!(cmp.cells.len(), 1, "only the overlapping cell compares");
        // The reverse direction is a hard error: the baseline does not
        // cover the current matrix.
        assert!(compare(&full, &subset, &host("test-host"), false)
            .unwrap_err()
            .contains("not in the baseline"));
    }

    #[test]
    fn cell_filter_parses_and_rejects() {
        let f = CellFilter::parse("pointer-chase").expect("bare workload");
        assert_eq!(f.workload, "pointer-chase");
        assert_eq!(f.defense, None);
        let f = CellFilter::parse("pointer-chase:origin").expect("with defense");
        assert_eq!(f.defense, Some(DefenseConfig::Origin));
        assert!(f.keeps("pointer-chase", DefenseConfig::Origin));
        assert!(!f.keeps("pointer-chase", DefenseConfig::CacheHit));
        assert!(!f.keeps("counting-loop", DefenseConfig::Origin));
        assert!(CellFilter::parse("nope")
            .unwrap_err()
            .contains("unknown workload"));
        assert!(CellFilter::parse("pointer-chase:nope")
            .unwrap_err()
            .contains("unknown defense"));
    }

    #[test]
    fn only_filter_restricts_the_matrix() {
        let opts = PerfOptions {
            quick: true,
            only: Some(CellFilter::parse("counting-loop:origin").unwrap()),
            ..PerfOptions::paper_default()
        };
        let cells = run_matrix(&opts);
        // counting-loop:origin matches one detailed cell and the
        // functional cell (functional rows run under Origin); no stage
        // cell.
        assert_eq!(cells.len(), 2);
        for cell in &cells {
            assert_eq!(cell.workload, "counting-loop");
            assert_eq!(cell.defense, Some(DefenseConfig::Origin));
        }
        assert_eq!(cells[0].mode, CellMode::Detailed);
        assert_eq!(cells[1].mode, CellMode::Functional);
    }
}
