//! The out-of-order core: fetch → dispatch/rename → issue → execute →
//! writeback → commit, with full wrong-path execution and squash recovery.
//!
//! The design mirrors the paper's Figure 1 processor: a bit-matrix
//! scheduler Issue Queue (with the security dependence matrix attached via
//! [`SecurityPolicy`]), separate load/store queues with speculative store
//! bypass, checkpointed-by-walk-back register renaming, and an L1-first
//! memory pipeline where the Cache-hit and TPBuf filters intercept suspect
//! accesses before they can change cache state.
//!
//! Key modelling choices (see DESIGN.md for rationale):
//!
//! * Issue and execute are fused; multi-cycle results (loads, multiplies)
//!   complete through timed events.
//! * Wrong-path instructions genuinely execute: they read simulated
//!   memory, fill caches and pollute the TLB until squashed. Squash rolls
//!   back registers and queues but never cache contents — the Spectre
//!   attack surface.
//! * Stores write memory and cache at commit; speculative store data lives
//!   in the store queue and forwards to younger loads.
//! * Branches train the predictor at commit (clean history); mispredicts
//!   are detected and squashed at execute.

use crate::events::{Completion, EventWheel};
use crate::iq::{IqHot, IssueQueue};
use crate::lsq::Lsq;
use crate::policy::{
    BlockFilter, DispatchInfo, InstClass, MemAccessQuery, MemDecision, NullPolicy, SecurityPolicy,
};
use crate::regfile::{PhysReg, RegFile};
use crate::rob::{CommitClass, Rob, RobState};
use crate::stats::PipelineStats;
use crate::taint::{LeakReport, TaintConfig, TaintOracle};
use crate::trace::{LeakChannel, SquashCause, TraceBuffer, TraceEvent};
use condspec_frontend::FrontEnd;
use condspec_isa::{Inst, Program, Reg, INST_BYTES};
use condspec_mem::{page_number, CacheHierarchy, LruUpdate, MainMemory, PageTable, Tlb};
use condspec_stats::{Histogram, MetricsRegistry};
use std::collections::VecDeque;
use std::sync::Arc;

mod functional;
mod snapshot;

/// Core (pipeline) configuration. Cache and predictor configuration live
/// in their own crates; the `condspec` crate combines everything into
/// machine presets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreConfig {
    /// Instructions fetched per cycle.
    pub fetch_width: usize,
    /// Instructions renamed/dispatched per cycle.
    pub dispatch_width: usize,
    /// Instructions issued per cycle.
    pub issue_width: usize,
    /// Instructions committed per cycle.
    pub commit_width: usize,
    /// Reorder buffer entries.
    pub rob_entries: usize,
    /// Issue queue entries (the security dependence matrix is this²).
    pub iq_entries: usize,
    /// Load queue entries.
    pub ldq_entries: usize,
    /// Store queue entries.
    pub stq_entries: usize,
    /// Physical registers.
    pub phys_regs: usize,
    /// Fetch-to-dispatch latency in cycles (front-end depth).
    pub decode_latency: u64,
    /// Additional redirect penalty on a squash (back-end depth).
    pub redirect_penalty: u64,
    /// Whether loads may issue past older stores with unresolved
    /// addresses (speculative store bypass — required for Spectre V4).
    pub spec_store_bypass: bool,
    /// Loads that may access the data cache per cycle.
    pub cache_ports: usize,
    /// Fetch queue capacity.
    pub fetch_queue: usize,
    /// Extra execute latency for multiplies.
    pub mul_latency: u64,
    /// Cycles between a hazard filter cancelling an access and the
    /// instruction becoming eligible to re-issue, modelling the
    /// L1-to-Issue-Queue cancel signal and re-arbitration (§V.C's
    /// "re-issue logic").
    pub block_replay_penalty: u64,
    /// The §VII.B *ICache-hit filter* extension: while any conditional
    /// branch, indirect jump or return is unresolved anywhere in the
    /// pipeline, the next-PC is treated as unsafe and instruction fetch
    /// may proceed only if it hits L1I — a speculative fetch is never
    /// allowed to change instruction-cache contents.
    pub icache_filter: bool,
}

impl CoreConfig {
    /// The paper's Table III core: 4-wide, 15-stage, 192-entry ROB,
    /// 64-entry IQ, 32/24 LDQ/STQ.
    pub fn paper_default() -> Self {
        CoreConfig {
            fetch_width: 4,
            dispatch_width: 4,
            issue_width: 4,
            commit_width: 4,
            rob_entries: 192,
            iq_entries: 64,
            ldq_entries: 32,
            stq_entries: 24,
            phys_regs: 256,
            decode_latency: 5,
            redirect_penalty: 9,
            spec_store_bypass: true,
            cache_ports: 2,
            fetch_queue: 16,
            mul_latency: 3,
            block_replay_penalty: 12,
            icache_filter: false,
        }
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics if any width or size is zero, or `phys_regs` cannot cover
    /// the architectural registers plus the ROB.
    pub fn validate(&self) {
        assert!(
            self.fetch_width > 0
                && self.dispatch_width > 0
                && self.issue_width > 0
                && self.commit_width > 0,
            "pipeline widths must be nonzero"
        );
        assert!(
            self.rob_entries > 0
                && self.iq_entries > 0
                && self.ldq_entries > 0
                && self.stq_entries > 0
                && self.fetch_queue > 0,
            "queue sizes must be nonzero"
        );
        assert!(
            self.phys_regs > 32,
            "need more physical than architectural registers"
        );
        assert!(self.cache_ports > 0, "at least one cache port required");
    }
}

/// Why [`Core::run`] returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExitReason {
    /// A `halt` instruction committed.
    Halted,
    /// The cycle budget was exhausted.
    CycleLimit,
    /// No instruction committed for a long time (deadlock watchdog) —
    /// indicates a malformed program (e.g. running off the end of code).
    Stuck,
    /// The commit target of [`Core::run_until_committed`] was reached.
    CommitLimit,
}

/// Why [`Core::run_functional`] returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FunctionalExit {
    /// A `halt` instruction retired.
    Halted,
    /// The instruction budget was exhausted.
    InstLimit,
    /// The PC left every mapped code region — a malformed program (the
    /// detailed pipeline reports the same condition as
    /// [`ExitReason::Stuck`] after wedging fetch).
    FetchFault,
}

/// Result of a [`Core::run_functional`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FunctionalResult {
    /// Why functional execution ended.
    pub exit: FunctionalExit,
    /// Instructions retired by this call (the halt included).
    pub retired: u64,
}

/// Result of a [`Core::run`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunResult {
    /// Why the run ended.
    pub exit: ExitReason,
    /// Cycles simulated by this call.
    pub cycles: u64,
    /// Instructions committed by this call.
    pub committed: u64,
}

#[derive(Debug, Clone)]
struct FetchedInst {
    pc: u64,
    inst: Inst,
    predicted_next: u64,
    ras_snapshot: Option<Box<condspec_frontend::ras::RasSnapshot>>,
    ready_cycle: u64,
}

/// Why an IQ entry bounced back to the not-issued state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BlockReason {
    /// A hazard filter blocked it; wait for security dependences to clear.
    Security,
    /// An older store's address is unknown and store bypass is disabled.
    StoreAddr,
    /// An older overlapping store's data is not yet available.
    StoreData {
        /// The load's virtual address.
        vaddr: u64,
        /// The load's size in bytes.
        size: u64,
    },
}

/// The simulated out-of-order core plus its memory system and front end.
///
/// # Examples
///
/// ```
/// use condspec_pipeline::{Core, CoreConfig};
/// use condspec_isa::{ProgramBuilder, Reg, AluOp};
///
/// # fn main() -> Result<(), condspec_isa::BuildError> {
/// let mut core = Core::with_defaults();
/// let mut b = ProgramBuilder::new(0x1000);
/// b.li(Reg::R1, 20);
/// b.alu_imm(AluOp::Add, Reg::R2, Reg::R1, 22);
/// b.halt();
/// core.load_program(std::sync::Arc::new(b.build()?));
/// let result = core.run(10_000);
/// assert_eq!(core.read_arch_reg(Reg::R2), 42);
/// # Ok(())
/// # }
/// ```
pub struct Core {
    config: CoreConfig,
    frontend: FrontEnd,
    hierarchy: CacheHierarchy,
    tlb: Tlb,
    page_table: PageTable,
    memory: MainMemory,
    policy: Box<dyn SecurityPolicy>,

    regfile: RegFile,
    rob: Rob,
    iq: IssueQueue,
    lsq: Lsq,
    block_reasons: Vec<Option<BlockReason>>,
    /// Earliest re-issue cycle for blocked IQ entries (replay penalty).
    blocked_until: Vec<u64>,

    program: Option<Arc<Program>>,
    /// Additional resident code regions (shared libraries / other
    /// processes' executable pages). Unlike the main program these
    /// survive [`Core::load_program`], exactly like the shared predictor
    /// state: they model the shared mapped code pages of the threat
    /// model. Speculative (and architectural) fetch falls back to them
    /// when the PC is outside the main program. `Arc` (not `Rc`): the
    /// engine's cross-worker program cache hands the same decoded
    /// program to cores on different threads.
    shared_code: Vec<Arc<Program>>,
    fetch_pc: u64,
    fetch_stall_until: u64,
    fetch_wedged: bool,
    fetch_queue: VecDeque<FetchedInst>,

    /// Timed completion events, bucketed by due cycle. Never bulk-swept:
    /// squashes and program reloads leave stale events behind, and
    /// delivery drops them by dispatch-stamp mismatch (lazy invalidation).
    events: EventWheel,
    /// Stores whose address has resolved but whose data register is not
    /// yet ready: `(seq, data physical register)`.
    pending_store_data: Vec<(u64, crate::regfile::PhysReg)>,
    /// Unresolved branch-class instructions in the fetch queue.
    fq_unresolved_branches: usize,
    /// Unresolved branch-class instructions in the ROB.
    rob_unresolved_branches: usize,
    /// Sequence numbers of dispatched, not-yet-executed fences, oldest
    /// first. The front is the fence serialization barrier; fences
    /// provably execute in program order (a younger fence cannot issue
    /// past the barrier), so execute pops the front and squash trims the
    /// back.
    fence_seqs: VecDeque<u64>,
    cycle: u64,
    next_seq: u64,
    /// Monotone dispatch counter backing [`crate::rob::RobHot::stamp`].
    /// Never reset
    /// (not even by [`Core::load_program`]), so a stamp uniquely names one
    /// dispatched instruction for the lifetime of the core.
    next_stamp: u64,
    halted: bool,
    last_commit_cycle: u64,
    stats: PipelineStats,
    trace: Option<TraceBuffer>,
    /// Taint-tracking leak oracle, off (`None`) by default; boxed so the
    /// disabled case costs the hot loop one pointer-sized `Option` branch
    /// per hook and allocates nothing.
    taint: Option<Box<TaintOracle>>,

    // Per-cycle scratch buffers. Each is cleared and refilled where it is
    // used (via `mem::take` so `&mut self` stage methods can run while it
    // is held), and pre-sized at construction so the steady-state hot
    // loop never touches the heap.
    /// `issue_stage`'s ready-candidate list (`(seq, slot)`, oldest first).
    issue_scratch: Vec<(u64, usize)>,
    /// `deliver_completions`' due-event drain.
    due_scratch: Vec<Completion>,
    /// `capture_store_data`'s completed-store list.
    store_done_scratch: Vec<u64>,
    /// `squash_from`'s removed-LSQ-sequence buffer.
    lsq_squash_scratch: Vec<u64>,
    /// `deliver_completions`' woken-subscriber drain (IQ slots).
    woken_scratch: Vec<u16>,
    /// Recycled RAS-snapshot boxes. Snapshots are boxed to keep the ROB's
    /// cold records small, but boxing must not make fetch allocate per
    /// control instruction: dead snapshots (commit, squash, program
    /// reset) return here and fetch reuses them, so the steady-state hot
    /// loop stays heap-free. The pool stores the boxes themselves (not
    /// unboxed values) — recycling must preserve the allocation.
    #[allow(clippy::vec_box)]
    ras_box_pool: Vec<Box<condspec_frontend::ras::RasSnapshot>>,
}

impl std::fmt::Debug for Core {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Core")
            .field("cycle", &self.cycle)
            .field("committed", &self.stats.committed)
            .field("policy", &self.policy.name())
            .field("halted", &self.halted)
            .finish()
    }
}

/// Watchdog threshold: cycles without a commit before declaring the run
/// stuck.
const STUCK_THRESHOLD: u64 = 100_000;

fn operand_regs(inst: &Inst) -> [Option<Reg>; 2] {
    match *inst {
        Inst::Alu { rs1, rs2, .. } => [Some(rs1), Some(rs2)],
        Inst::AluImm { rs1, .. } => [Some(rs1), None],
        Inst::LoadImm { .. } => [None, None],
        Inst::Load { base, .. } => [Some(base), None],
        Inst::Store { base, src, .. } => [Some(base), Some(src)],
        Inst::Branch { rs1, rs2, .. } => [Some(rs1), Some(rs2)],
        Inst::Jump { .. } | Inst::Call { .. } => [None, None],
        Inst::JumpIndirect { base, .. } => [Some(base), None],
        Inst::Ret { link } => [Some(link), None],
        Inst::Flush { base, .. } => [Some(base), None],
        Inst::Fence | Inst::Nop | Inst::Halt => [None, None],
    }
}

fn classify(inst: &Inst) -> InstClass {
    if inst.is_mem() {
        InstClass::Memory
    } else if inst.is_branch() {
        InstClass::Branch
    } else {
        InstClass::Other
    }
}

impl Core {
    /// Creates a core from explicit parts.
    pub fn new(
        config: CoreConfig,
        frontend: FrontEnd,
        hierarchy: CacheHierarchy,
        tlb: Tlb,
        page_table: PageTable,
        policy: Box<dyn SecurityPolicy>,
    ) -> Self {
        config.validate();
        Core {
            regfile: RegFile::new(config.phys_regs),
            rob: Rob::new(config.rob_entries),
            iq: IssueQueue::new(config.iq_entries),
            lsq: Lsq::new(config.ldq_entries, config.stq_entries),
            block_reasons: vec![None; config.iq_entries],
            blocked_until: vec![0; config.iq_entries],
            frontend,
            hierarchy,
            tlb,
            page_table,
            memory: MainMemory::new(),
            policy,
            program: None,
            shared_code: Vec::new(),
            fetch_pc: 0,
            fetch_stall_until: 0,
            fetch_wedged: true,
            fetch_queue: VecDeque::with_capacity(config.fetch_queue),
            // Completions and pending store data are bounded by the number
            // of in-flight instructions; pre-sizing them (and the scratch
            // buffers below) keeps `step` heap-free in steady state. A
            // wheel bucket holds only events due at one cycle, scheduled
            // by at most `issue_width` executes per source cycle across
            // the machine's few distinct completion latencies.
            events: EventWheel::with_bucket_capacity(config.issue_width * 16),
            pending_store_data: Vec::with_capacity(config.stq_entries),
            issue_scratch: Vec::with_capacity(config.iq_entries),
            due_scratch: Vec::with_capacity(config.rob_entries),
            store_done_scratch: Vec::with_capacity(config.stq_entries),
            lsq_squash_scratch: Vec::with_capacity(config.ldq_entries + config.stq_entries),
            // At most two operand subscriptions per IQ entry exist at any
            // moment, so this bound keeps the wakeup drain heap-free.
            woken_scratch: Vec::with_capacity(config.iq_entries * 2),
            ras_box_pool: Vec::new(),
            config,
            fq_unresolved_branches: 0,
            rob_unresolved_branches: 0,
            fence_seqs: VecDeque::with_capacity(config.rob_entries),
            cycle: 0,
            next_seq: 0,
            next_stamp: 0,
            halted: false,
            last_commit_cycle: 0,
            stats: PipelineStats::default(),
            trace: None,
            taint: None,
        }
    }

    /// A paper-default core with an unprotected ([`NullPolicy`]) back end.
    pub fn with_defaults() -> Self {
        Core::new(
            CoreConfig::paper_default(),
            FrontEnd::new(condspec_frontend::PredictorConfig::paper_default()),
            CacheHierarchy::new(condspec_mem::HierarchyConfig::paper_default()),
            Tlb::new(condspec_mem::TlbConfig::paper_default()),
            PageTable::new(),
            Box::new(NullPolicy),
        )
    }

    /// Loads a program: resets all architectural and pipeline state,
    /// copies the program's data segments into memory, and points fetch at
    /// the entry. Microarchitectural state (caches, predictors, TLB,
    /// cycle counter, statistics) is deliberately *preserved* so that
    /// attacker and victim programs can be run back-to-back on warm state.
    /// Takes shared ownership: reloading the same `Arc` (the attack-round
    /// and sweep-engine pattern) is a pointer bump instead of a deep copy
    /// of the code and data segments.
    pub fn load_program(&mut self, program: Arc<Program>) {
        self.regfile.reset();
        // Drain (rather than clear) the ROB and fetch queue so in-flight
        // RAS-snapshot boxes return to the pool instead of being freed.
        self.rob.clear_recycle(&mut self.ras_box_pool);
        self.iq.reset();
        self.lsq.reset();
        self.block_reasons.iter_mut().for_each(|r| *r = None);
        self.blocked_until.iter_mut().for_each(|c| *c = 0);
        for fetched in self.fetch_queue.drain(..) {
            if let Some(snap) = fetched.ras_snapshot {
                self.ras_box_pool.push(snap);
            }
        }
        // `events` is deliberately NOT cleared: in-flight completions of
        // the previous program stay scheduled and are dropped at delivery
        // by their dispatch-stamp mismatch (`next_stamp` never resets).
        // This keeps reload O(live state) instead of O(wheel).
        self.pending_store_data.clear();
        self.fq_unresolved_branches = 0;
        self.rob_unresolved_branches = 0;
        self.fence_seqs.clear();
        self.halted = false;
        self.fetch_wedged = false;
        self.fetch_stall_until = self.cycle;
        self.fetch_pc = program.entry();
        self.next_seq = 0;
        self.last_commit_cycle = self.cycle;
        self.policy.reset_transient();
        // Pipeline taint state dies with the pipeline; leaks still pending
        // resolve as squash-surviving (their instructions never commit and
        // the microarchitectural state persists across the reload).
        if let Some(oracle) = self.taint.as_deref_mut() {
            oracle.on_program_load(self.trace.as_mut());
        }
        for seg in program.data() {
            let paddr = self.page_table.translate(seg.base);
            self.memory.write_bytes(paddr, &seg.bytes);
            if let Some(oracle) = self.taint.as_deref_mut() {
                oracle.clear_bytes(paddr, seg.bytes.len() as u64);
            }
        }
        if let Some(oracle) = self.taint.as_deref_mut() {
            oracle.mark_config_ranges();
        }
        self.program = Some(program);
    }

    /// Maps an additional resident code region (and loads its data
    /// segments). Shared mappings survive [`Core::load_program`]; use
    /// [`Core::clear_shared_code`] to drop them.
    pub fn map_shared_code(&mut self, program: Arc<Program>) {
        for seg in program.data() {
            let paddr = self.page_table.translate(seg.base);
            self.memory.write_bytes(paddr, &seg.bytes);
        }
        self.shared_code.push(program);
    }

    /// Removes all shared code mappings.
    pub fn clear_shared_code(&mut self) {
        self.shared_code.clear();
    }

    /// Returns the whole machine to the cold power-on state — caches,
    /// predictors, TLB, page table, memory, clock, statistics — without
    /// giving up any allocation. [`Core::load_program`] deliberately
    /// keeps microarchitectural state warm across loads; this is its
    /// complement, used by the sweep engine to reuse one core across
    /// *independent* jobs, where any carried-over state would break
    /// artifact determinism. The caller supplies a freshly built
    /// security policy (policies are rebuilt rather than deep-reset:
    /// they are small, and construction is the one reset path already
    /// proven correct).
    ///
    /// After this call the core is observationally identical to
    /// [`Core::new`] with the same configuration: the event wheel is
    /// empty, so `next_stamp` can rewind to zero without any stale
    /// completion surviving to alias a recycled stamp.
    pub fn reset_cold(&mut self, policy: Box<dyn SecurityPolicy>) {
        self.frontend.reset();
        self.hierarchy.reset();
        self.tlb.reset();
        self.page_table.clear();
        self.memory.reset();
        self.policy = policy;
        self.regfile.reset();
        self.rob.clear_recycle(&mut self.ras_box_pool);
        self.iq.reset();
        self.lsq.reset();
        self.block_reasons.iter_mut().for_each(|r| *r = None);
        self.blocked_until.iter_mut().for_each(|c| *c = 0);
        for fetched in self.fetch_queue.drain(..) {
            if let Some(snap) = fetched.ras_snapshot {
                self.ras_box_pool.push(snap);
            }
        }
        self.events.clear();
        self.pending_store_data.clear();
        self.fq_unresolved_branches = 0;
        self.rob_unresolved_branches = 0;
        self.fence_seqs.clear();
        self.cycle = 0;
        self.next_seq = 0;
        self.next_stamp = 0;
        self.halted = false;
        self.fetch_wedged = false;
        self.fetch_stall_until = 0;
        self.fetch_pc = 0;
        self.last_commit_cycle = 0;
        self.stats = PipelineStats::default();
        self.trace = None;
        self.taint = None;
        self.program = None;
        self.shared_code.clear();
    }

    fn fetch_inst_at(&self, pc: u64) -> Option<Inst> {
        if let Some(inst) = self.program.as_ref().and_then(|p| p.fetch(pc)) {
            return Some(inst);
        }
        self.shared_code.iter().find_map(|p| p.fetch(pc))
    }

    /// Runs until halt, the cycle budget, or a deadlock watchdog fires.
    ///
    /// Cycles on which the machine provably does nothing — every stage is
    /// waiting on a future time gate — are fast-forwarded in one jump
    /// instead of stepped one by one. The jump is exact: statistics
    /// (cycle and occupancy accounting included) and all architectural
    /// and microarchitectural state are identical to stepping through
    /// the idle window, so drivers that call [`Core::step`] directly see
    /// the same machine at every cycle.
    pub fn run(&mut self, max_cycles: u64) -> RunResult {
        self.run_until_committed(u64::MAX, max_cycles)
    }

    /// Runs until halt, the cycle budget, the watchdog, **or** until
    /// `target` more instructions have committed — the detailed-window
    /// primitive of sampled simulation, and [`Core::run`]'s loop (with an
    /// unreachable target). The commit count may overshoot the target by
    /// up to `commit_width - 1` (the check sits between full cycles),
    /// which the caller reads back from [`RunResult::committed`].
    pub fn run_until_committed(&mut self, target: u64, max_cycles: u64) -> RunResult {
        let start_cycle = self.cycle;
        let start_committed = self.stats.committed;
        let goal = start_committed.saturating_add(target);
        let limit = start_cycle.saturating_add(max_cycles);
        let mut exit = ExitReason::CycleLimit;
        // One signature computation per step: the post-step fingerprint
        // doubles as the next iteration's pre-step one, and
        // `fast_forward_idle` cannot invalidate it (a skip touches only
        // the clock and the per-cycle statistics, none of which are
        // fingerprinted).
        let mut before = self.activity_signature();
        while self.cycle < limit {
            if self.halted {
                exit = ExitReason::Halted;
                break;
            }
            if self.stats.committed >= goal {
                exit = ExitReason::CommitLimit;
                break;
            }
            if self.cycle - self.last_commit_cycle > STUCK_THRESHOLD {
                exit = ExitReason::Stuck;
                break;
            }
            self.step();
            let after = self.activity_signature();
            if after == before {
                self.fast_forward_idle(limit);
            } else {
                before = after;
            }
        }
        if self.halted {
            exit = ExitReason::Halted;
        } else if exit == ExitReason::CycleLimit && self.stats.committed >= goal {
            exit = ExitReason::CommitLimit;
        }
        RunResult {
            exit,
            cycles: self.cycle - start_cycle,
            committed: self.stats.committed - start_committed,
        }
    }

    /// A fingerprint that changes whenever a cycle does *any* work.
    ///
    /// Every state mutation a [`Core::step`] can make is witnessed by one
    /// of these fields: commits and issues (including filter bounces and
    /// squashes, which only start at an issue or an event delivery) bump
    /// monotone counters; dispatch grows the ROB (a simultaneous commit
    /// bumps `committed`); fetch grows the fetch queue, moves `fetch_pc`,
    /// wedges, stalls, or counts an I-cache-filter stall; completions and
    /// store-data captures shrink the event wheel / pending-store list.
    /// Policy, predictor, LSQ and cache state mutate only inside those
    /// same actions. If the fingerprint is unchanged across a step, the
    /// cycle was architecturally and statistically a no-op.
    #[allow(clippy::type_complexity)]
    fn activity_signature(
        &self,
    ) -> (
        u64,
        u64,
        u64,
        usize,
        usize,
        usize,
        usize,
        u64,
        u64,
        bool,
        bool,
    ) {
        (
            self.stats.committed,
            self.stats.issued,
            self.stats.icache_fetch_stalls,
            self.rob.len(),
            self.fetch_queue.len(),
            self.events.len(),
            self.pending_store_data.len(),
            self.fetch_pc,
            self.fetch_stall_until,
            self.fetch_wedged,
            self.halted,
        )
    }

    /// After a no-op cycle, jumps the clock to the next cycle at which
    /// anything *can* happen, clamped to `limit` (the run budget).
    ///
    /// The machine's only time-gated wake-ups are: a completion event
    /// coming due, a blocked IQ entry's replay timer expiring, the fetch
    /// stall ending, the fetch-queue front finishing decode, and the
    /// deadlock watchdog firing. Waking early is harmless (the next step
    /// is another no-op and skipping resumes); the gates above make
    /// waking late impossible. Skipped cycles accrue the exact per-cycle
    /// statistics an idle [`Core::step`] would have: the machine is
    /// unchanged, so occupancy integrals grow linearly.
    fn fast_forward_idle(&mut self, limit: u64) {
        // Serial dependence chains produce single idle cycles between an
        // issue and its completion: the completion is due on the very next
        // step and nothing can be skipped. Bail out on a one-bucket probe
        // before paying for the full gate scan below. (The probe is exact
        // here because the step that just ran drained the wheel at
        // `cycle - 1`, migrating any overflow event that came within a
        // lap.)
        if self.events.due_now(self.cycle) {
            return;
        }
        // Gates are compared with `>=`: the no-op step that got us here ran
        // at `cycle - 1`, so anything due at exactly `cycle` belongs to the
        // step that has NOT run yet and must clamp the skip to zero.
        let mut target = limit.min(self.last_commit_cycle + STUCK_THRESHOLD + 1);
        if !self.fetch_wedged && self.fetch_stall_until >= self.cycle {
            target = target.min(self.fetch_stall_until);
        }
        if let Some(front) = self.fetch_queue.front() {
            if front.ready_cycle >= self.cycle {
                target = target.min(front.ready_cycle);
            }
        }
        // Masked walk of the IQ's blocked bitmap word: only bounced
        // entries can gate the jump, so don't scan the whole queue.
        let blocked_until = &self.blocked_until;
        let cycle = self.cycle;
        let mut blocked_gate = target;
        self.iq.for_each_blocked(|slot| {
            let until = blocked_until[slot];
            if until >= cycle {
                blocked_gate = blocked_gate.min(until);
            }
        });
        target = blocked_gate;
        if let Some(at) = self.events.next_due(self.cycle, target) {
            target = target.min(at);
        }
        let skipped = target.saturating_sub(self.cycle);
        if skipped == 0 {
            return;
        }
        self.trace(TraceEvent::FastForward {
            cycle: self.cycle,
            skipped,
        });
        self.cycle = target;
        self.stats.cycles += skipped;
        self.stats.rob_occupancy_sum += skipped * self.rob.len() as u64;
        self.stats.iq_occupancy_sum += skipped * self.iq.occupancy() as u64;
    }

    /// Advances the machine by one cycle.
    pub fn step(&mut self) {
        self.commit_stage();
        self.deliver_completions();
        self.capture_store_data();
        self.issue_stage();
        self.dispatch_stage();
        self.fetch_stage();
        self.cycle += 1;
        self.stats.cycles += 1;
        self.stats.rob_occupancy_sum += self.rob.len() as u64;
        self.stats.iq_occupancy_sum += self.iq.occupancy() as u64;
    }

    // ------------------------------------------------------------------
    // Commit
    // ------------------------------------------------------------------

    fn commit_stage(&mut self) {
        for _ in 0..self.config.commit_width {
            // One bitmap bit test answers "may the head commit?".
            if !self.rob.head_completed() {
                break;
            }
            let entry = *self.rob.head_hot().expect("head exists");
            // The commit class (precomputed at dispatch) says whether the
            // cold record is needed; `Simple` — the common case — commits
            // off the hot record alone. Cold scalars are copied out here,
            // before the pop invalidates the head slot.
            let cold = match entry.class {
                CommitClass::Simple | CommitClass::Control | CommitClass::Halt => None,
                _ => {
                    let c = self.rob.head_cold().expect("head exists");
                    let store_size = match c.inst {
                        Inst::Store { size, .. } => size.bytes(),
                        _ => 0,
                    };
                    Some((
                        c.mem_paddr,
                        c.store_data,
                        store_size,
                        c.actual_next,
                        c.branch_taken,
                    ))
                }
            };
            self.rob.pop_head_recycle(&mut self.ras_box_pool);
            if self.trace.is_some() {
                self.trace(TraceEvent::Commit {
                    cycle: self.cycle,
                    seq: entry.seq,
                    pc: entry.pc,
                });
            }
            self.last_commit_cycle = self.cycle;
            self.stats.committed += 1;
            if let Some(oracle) = self.taint.as_deref_mut() {
                // Pending leaks of a committing instruction were
                // architectural flows: resolve with survived_squash=false.
                oracle.on_commit(entry.seq, self.trace.as_mut());
            }
            if let Some((_, _, old)) = entry.dest {
                self.regfile.release(old);
            }
            match entry.class {
                CommitClass::Simple => {}
                CommitClass::Control => {
                    self.stats.committed_branches += 1;
                }
                CommitClass::Load => {
                    let (mem_paddr, ..) = cold.expect("cold copied for loads");
                    self.stats.committed_loads += 1;
                    if entry.was_blocked {
                        self.stats.blocked_committed_loads += 1;
                    }
                    if entry.deferred_lru {
                        if let Some(paddr) = mem_paddr {
                            self.hierarchy.touch_l1d(paddr);
                        }
                    }
                    self.lsq.release_load(entry.seq);
                    self.policy.on_lsq_release(entry.seq);
                }
                CommitClass::Store => {
                    let (mem_paddr, store_data, store_size, ..) =
                        cold.expect("cold copied for stores");
                    self.stats.committed_stores += 1;
                    let paddr = mem_paddr.expect("committed store has an address");
                    let data = store_data.expect("committed store has data");
                    self.memory.write(paddr, data, store_size);
                    if let Some(oracle) = self.taint.as_deref_mut() {
                        // The store's data taint becomes the bytes' taint
                        // (a clean store scrubs previously tainted bytes).
                        oracle.on_store_commit(entry.seq, paddr, store_size);
                    }
                    // Committed stores are architectural: they may fill the
                    // cache (write-allocate) without any security filter.
                    self.hierarchy.access_data(paddr, LruUpdate::Normal);
                    self.lsq.release_store(entry.seq);
                    self.policy.on_lsq_release(entry.seq);
                }
                CommitClass::Flush => {
                    let (mem_paddr, ..) = cold.expect("cold copied for flushes");
                    if let Some(paddr) = mem_paddr {
                        self.hierarchy.flush_line(paddr);
                    }
                }
                CommitClass::Branch => {
                    let (.., actual_next, branch_taken) = cold.expect("cold copied for branches");
                    self.stats.committed_branches += 1;
                    let taken = branch_taken.unwrap_or(false);
                    let target = taken.then_some(actual_next.unwrap_or(0));
                    self.frontend.update_branch(entry.pc, taken, target);
                }
                CommitClass::JumpIndirect => {
                    let (.., actual_next, _) = cold.expect("cold copied for indirect jumps");
                    self.stats.committed_branches += 1;
                    if let Some(t) = actual_next {
                        self.frontend.update_indirect(entry.pc, t);
                    }
                }
                CommitClass::Halt => {
                    self.halted = true;
                    return;
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Writeback
    // ------------------------------------------------------------------

    fn deliver_completions(&mut self) {
        let now = self.cycle;
        // Drain this cycle's bucket into the owned scratch buffer (taken
        // so the delivery loop below can borrow `self` mutably).
        let mut due = std::mem::take(&mut self.due_scratch);
        self.events.drain_due(now, &mut due);
        let mut woken = std::mem::take(&mut self.woken_scratch);
        for event in due.iter().copied() {
            let Some(entry) = self.rob.hot_mut(event.seq) else {
                continue; // squashed while in flight
            };
            if entry.stamp != event.stamp {
                continue; // squashed and the seq was recycled
            }
            if entry.state() != RobState::Issued {
                continue;
            }
            let dest = entry.dest;
            let slot = entry.iq_slot.take();
            self.rob.mark_completed(event.seq);
            if let Some((_, preg, _)) = dest {
                self.regfile.write_and_wake(preg, event.value, &mut woken);
            }
            if self.trace.is_some() {
                self.trace(TraceEvent::Complete {
                    cycle: self.cycle,
                    seq: event.seq,
                });
            }
            if event.is_load {
                self.policy.on_mem_writeback(event.seq);
            }
            if let Some(slot) = slot {
                let slot = slot as usize;
                self.iq.free_slot(slot);
                self.policy.on_slot_freed(slot);
                self.block_reasons[slot] = None;
            }
        }
        // Wakeup: re-check each subscribed slot against its actual
        // operands. A stale subscription (the slot was squashed, possibly
        // reused by a different instruction) is re-checked harmlessly —
        // the ready bit is defined purely by the current entry's sources.
        for slot in woken.drain(..) {
            let slot = slot as usize;
            if let Some(entry) = self.iq.get(slot) {
                if entry
                    .srcs
                    .iter()
                    .flatten()
                    .all(|p| self.regfile.is_ready(*p))
                {
                    self.iq.set_ops_ready(slot);
                }
            }
        }
        self.woken_scratch = woken;
        self.due_scratch = due;
    }

    /// Completes stores whose data register has become ready: the data
    /// enters the store queue (enabling forwarding), the TPBuf W bit is
    /// set, and the store becomes eligible to commit.
    fn capture_store_data(&mut self) {
        if self.pending_store_data.is_empty() {
            return;
        }
        let mut completed = std::mem::take(&mut self.store_done_scratch);
        completed.clear();
        let regfile = &self.regfile;
        self.pending_store_data.retain(|(seq, preg)| {
            if regfile.is_ready(*preg) {
                completed.push(*seq);
                false
            } else {
                true
            }
        });
        for seq in completed.iter().copied() {
            let Some(entry) = self.rob.hot(seq) else {
                continue;
            };
            let data_preg = entry.src_pregs[1].expect("stores have a data operand");
            let data = self.regfile.read(data_preg);
            self.rob.cold_mut(seq).expect("in flight").store_data = Some(data);
            self.rob.mark_completed(seq);
            self.lsq.resolve_store_data(seq, data);
            self.policy.on_mem_writeback(seq);
            if let Some(oracle) = self.taint.as_deref_mut() {
                let tainted = oracle.reg(data_preg);
                oracle.on_store_data(seq, tainted);
            }
        }
        self.store_done_scratch = completed;
    }

    // ------------------------------------------------------------------
    // Issue + execute
    // ------------------------------------------------------------------

    fn issue_stage(&mut self) {
        // Fence serialization barrier: the oldest incomplete fence,
        // maintained incrementally as the front of `fence_seqs`.
        let fence_barrier = self.fence_seqs.front().copied();

        // Gather candidates with ready operands, oldest first, into the
        // owned scratch buffer (pre-sized to the IQ capacity, so this
        // never allocates). The candidate set comes straight from the
        // scoreboard masks (`unissued & ops_ready`); ready bits are set
        // by the writeback wakeups, so readiness cannot change inside
        // this stage — execution results are delivered through
        // next-cycle completion events.
        let mut candidates = std::mem::take(&mut self.issue_scratch);
        candidates.clear();
        self.iq.collect_ready(&mut candidates);
        candidates.sort_unstable();

        let mut issued = 0;
        let mut mem_issued = 0;
        for (seq, slot) in candidates.iter().copied() {
            if issued == self.config.issue_width {
                break;
            }
            // A squash earlier in this round may have freed the slot.
            let Some(entry) = self.iq.get(slot).copied() else {
                continue;
            };
            if entry.seq != seq {
                continue;
            }
            if let Some(barrier) = fence_barrier {
                if seq > barrier {
                    // Held by the serialization barrier. Only noted for
                    // memory candidates (the security-relevant case) and
                    // only at stepped cycles — fast-forward collapses
                    // repeated holds of an idle window into none.
                    if entry.is_mem {
                        self.trace(TraceEvent::FenceHold {
                            cycle: self.cycle,
                            seq,
                        });
                    }
                    continue; // younger than a pending fence
                }
            }
            if entry.is_fence && !self.rob.all_older_completed(seq) {
                continue;
            }
            if entry.blocked() {
                if self.cycle < self.blocked_until[slot] {
                    continue;
                }
                let awake = match self.block_reasons[slot] {
                    Some(BlockReason::Security) => {
                        let cleared = !self.policy.has_pending_dependence(slot);
                        if cleared {
                            // The security dependence matrix column went
                            // clear: the unsafe window closed and the
                            // blocked access may replay.
                            self.trace(TraceEvent::MatrixClear {
                                cycle: self.cycle,
                                seq,
                                slot,
                            });
                        }
                        cleared
                    }
                    Some(BlockReason::StoreAddr) => !self.lsq.older_store_unknown(seq),
                    Some(BlockReason::StoreData { vaddr, size }) => {
                        !self.lsq.older_store_data_unknown(seq, vaddr, size)
                    }
                    None => true,
                };
                if !awake {
                    continue;
                }
            }
            // Operands were ready at collection and a mid-loop squash
            // cannot clear ready bits (it only remaps and frees them).
            debug_assert!(
                entry
                    .srcs
                    .iter()
                    .flatten()
                    .all(|p| self.regfile.is_ready(*p)),
                "candidate lost operand readiness mid-stage"
            );
            if entry.is_mem && mem_issued == self.config.cache_ports {
                continue;
            }

            // Issue.
            let suspect = self.policy.suspect_on_issue(slot);
            self.iq.mark_issued(slot);
            self.block_reasons[slot] = None;
            self.rob.mark_issued(seq);
            self.rob.hot_mut(seq).expect("in flight").suspect = suspect;
            self.stats.issued += 1;
            if self.trace.is_some() {
                self.trace(TraceEvent::Issue {
                    cycle: self.cycle,
                    seq,
                    suspect,
                });
            }
            if entry.is_mem {
                mem_issued += 1;
            }
            issued += 1;

            let bounced = self.execute(seq, slot, suspect);
            if bounced {
                // The entry stays queue-resident, un-issued.
                self.rob.mark_dispatched(seq);
                continue;
            }
            // Successful issue: clear the security-matrix column and free
            // the slot unless the instruction still needs it (loads keep
            // their ROB linkage only; the IQ slot can go).
            self.policy.on_issue(slot);
            // Only loads completing through a timed event keep their
            // slot until writeback; stores (even with pending data) and
            // everything else release it now.
            let keeps_slot = matches!(
                self.rob.hot(seq).map(|e| (e.state(), e.is_load())),
                Some((RobState::Issued, true))
            );
            if keeps_slot {
                // In-flight load completing via an event: slot released at
                // writeback so a squash can find and free it precisely.
                continue;
            }
            self.rob.hot_mut(seq).expect("in flight").iq_slot = None;
            self.iq.free_slot(slot);
            self.policy.on_slot_freed(slot);
        }
        self.issue_scratch = candidates;
    }

    /// Executes a just-issued instruction. Returns `true` if the
    /// instruction bounced back to the IQ (filter block or store-address
    /// wait).
    fn execute(&mut self, seq: u64, slot: usize, suspect: bool) -> bool {
        let entry = self.rob.hot(seq).expect("in flight");
        let pc = entry.pc;
        let src_pregs = entry.src_pregs;
        let stamp = entry.stamp;
        let dest_preg = entry.dest.map(|(_, new, _)| new);
        // Execute is the dispatch/resolve path: the one place the hot
        // loop legitimately reads the cold record.
        let cold = self.rob.cold(seq).expect("in flight");
        let inst = cold.inst;
        let predicted_next = cold.predicted_next;
        let val =
            |idx: usize, rf: &RegFile| -> u64 { src_pregs[idx].map(|p| rf.read(p)).unwrap_or(0) };

        match inst {
            Inst::Alu { op, .. } => {
                let result = op.eval(val(0, &self.regfile), val(1, &self.regfile));
                if let Some(oracle) = self.taint.as_deref_mut() {
                    let tainted = oracle.srcs_tainted(&src_pregs);
                    oracle.set_dest(dest_preg, tainted);
                }
                if op == condspec_isa::AluOp::Mul && self.config.mul_latency > 1 {
                    self.events.schedule(
                        self.cycle,
                        Completion {
                            at: self.cycle + self.config.mul_latency,
                            seq,
                            stamp,
                            value: result,
                            is_load: false,
                        },
                    );
                } else {
                    self.complete_with_value(seq, stamp, result);
                }
                false
            }
            Inst::AluImm { op, imm, .. } => {
                let result = op.eval(val(0, &self.regfile), imm as u64);
                if let Some(oracle) = self.taint.as_deref_mut() {
                    let tainted = oracle.srcs_tainted(&src_pregs);
                    oracle.set_dest(dest_preg, tainted);
                }
                self.complete_with_value(seq, stamp, result);
                false
            }
            Inst::LoadImm { imm, .. } => {
                self.complete_with_value(seq, stamp, imm);
                false
            }
            Inst::Branch { cond, target, .. } => {
                let taken = cond.eval(val(0, &self.regfile), val(1, &self.regfile));
                let actual = if taken { target } else { pc + INST_BYTES };
                self.resolve_control(seq, actual, predicted_next, Some(taken));
                false
            }
            Inst::Jump { target } => {
                self.resolve_control(seq, target, predicted_next, None);
                false
            }
            Inst::Call { target, .. } => {
                let link_value = pc + INST_BYTES;
                self.complete_with_value(seq, stamp, link_value);
                self.resolve_control_after_value(seq, target, predicted_next);
                false
            }
            Inst::Ret { .. } => {
                let actual = val(0, &self.regfile);
                self.resolve_control(seq, actual, predicted_next, None);
                false
            }
            Inst::JumpIndirect { offset, .. } => {
                let actual = val(0, &self.regfile).wrapping_add(offset as u64);
                self.resolve_control(seq, actual, predicted_next, None);
                false
            }
            Inst::Fence => {
                // The issue gate (`seq <= fence_barrier`) means only the
                // barrier fence itself — the deque front — can get here.
                let front = self.fence_seqs.pop_front();
                debug_assert_eq!(front, Some(seq), "fences execute oldest-first");
                self.mark_completed(seq);
                false
            }
            Inst::Nop | Inst::Halt => {
                self.mark_completed(seq);
                false
            }
            Inst::Flush { offset, .. } => {
                let vaddr = val(0, &self.regfile).wrapping_add(offset as u64);
                let (paddr, _, addr_tainted) = self.translate_mem(seq, src_pregs[0], vaddr);
                if addr_tainted {
                    // A tainted-address flush evicts a secret-selected
                    // line; the eviction applies at commit, so a squash
                    // drops the record.
                    let cycle = self.cycle;
                    let oracle = self.taint.as_deref_mut().expect("tainted implies oracle");
                    oracle.record_leak(seq, cycle, LeakChannel::CacheFill, paddr, true);
                }
                let e = self.rob.cold_mut(seq).expect("in flight");
                e.mem_vaddr = Some(vaddr);
                e.mem_paddr = Some(paddr);
                self.mark_completed(seq);
                false
            }
            Inst::Store { size, offset, .. } => {
                // A store issues once its *address* operands are ready;
                // the data may arrive later (captured by
                // `capture_store_data`). This matches real LSQ behaviour
                // and the paper's dependence-clearance semantics: an
                // issued store no longer holds younger accesses
                // security-dependent.
                let vaddr = val(0, &self.regfile).wrapping_add(offset as u64);
                let (paddr, _, addr_tainted) = self.translate_mem(seq, src_pregs[0], vaddr);
                {
                    let e = self.rob.cold_mut(seq).expect("in flight");
                    e.mem_vaddr = Some(vaddr);
                    e.mem_paddr = Some(paddr);
                }
                self.lsq.resolve_store_addr(seq, vaddr);
                self.policy.on_mem_address(seq, page_number(paddr), suspect);
                if let Some(oracle) = self.taint.as_deref_mut() {
                    oracle.on_store_addr(seq, vaddr, size.bytes());
                }
                if addr_tainted && self.policy.records_page_addresses() {
                    let cycle = self.cycle;
                    let oracle = self.taint.as_deref_mut().expect("tainted implies oracle");
                    oracle.record_leak(seq, cycle, LeakChannel::TpbufInsert, paddr, false);
                }
                let data_preg = src_pregs[1].expect("stores have a data operand");
                if self.regfile.is_ready(data_preg) {
                    let data = self.regfile.read(data_preg);
                    self.rob.cold_mut(seq).expect("in flight").store_data = Some(data);
                    self.rob.mark_completed(seq);
                    self.lsq.resolve_store_data(seq, data);
                    self.policy.on_mem_writeback(seq);
                    if let Some(oracle) = self.taint.as_deref_mut() {
                        let tainted = oracle.reg(data_preg);
                        oracle.on_store_data(seq, tainted);
                    }
                } else {
                    self.pending_store_data.push((seq, data_preg));
                }
                // Memory-order violation check: younger loads that already
                // executed against this address must replay.
                if let Some(load_seq) = self.lsq.violation_on_store(seq, vaddr, size.bytes()) {
                    let redirect = self.rob.hot(load_seq).expect("violating load in flight").pc;
                    self.stats.violation_squashes += 1;
                    self.squash_from(load_seq.saturating_sub(1), redirect, SquashCause::MemOrder);
                }
                false
            }
            Inst::Load { size, offset, .. } => {
                let vaddr = val(0, &self.regfile).wrapping_add(offset as u64);
                let older_unknown = self.lsq.older_store_unknown(seq);
                if older_unknown && !self.config.spec_store_bypass {
                    // Conservative memory disambiguation: wait in the IQ.
                    // (Store-hazard bounces trace the *virtual* page —
                    // translation has not happened yet — and do not count
                    // as defense block events.)
                    self.trace(TraceEvent::Block {
                        cycle: self.cycle,
                        seq,
                        filter: BlockFilter::StoreAddr,
                        vaddr,
                        page: page_number(vaddr),
                    });
                    self.iq.bounce(slot);
                    self.block_reasons[slot] = Some(BlockReason::StoreAddr);
                    self.blocked_until[slot] = self.cycle + self.config.block_replay_penalty;
                    return true;
                }
                if self.lsq.older_store_data_unknown(seq, vaddr, size.bytes()) {
                    // An older store to these bytes has a known address
                    // but pending data: wait for it (forwarding stall).
                    self.trace(TraceEvent::Block {
                        cycle: self.cycle,
                        seq,
                        filter: BlockFilter::StoreData,
                        vaddr,
                        page: page_number(vaddr),
                    });
                    self.iq.bounce(slot);
                    self.block_reasons[slot] = Some(BlockReason::StoreData {
                        vaddr,
                        size: size.bytes(),
                    });
                    self.blocked_until[slot] = self.cycle + self.config.block_replay_penalty;
                    return true;
                }
                let (paddr, tlb_latency, addr_tainted) =
                    self.translate_mem(seq, src_pregs[0], vaddr);
                let l1_hit = self.hierarchy.probe_l1d(paddr);
                {
                    let e = self.rob.cold_mut(seq).expect("in flight");
                    e.mem_vaddr = Some(vaddr);
                    e.mem_paddr = Some(paddr);
                }
                self.policy.on_mem_address(seq, page_number(paddr), suspect);
                // Translation and TPBuf recording happen *before* the
                // security filters get to veto the access — exactly the
                // paper's blind spot: even a load the filter then blocks
                // has already planted a TLB entry (and, under the TPBuf
                // policy, an S-Pattern page).
                if addr_tainted && self.policy.records_page_addresses() {
                    let cycle = self.cycle;
                    let oracle = self.taint.as_deref_mut().expect("tainted implies oracle");
                    oracle.record_leak(seq, cycle, LeakChannel::TpbufInsert, paddr, false);
                }
                if suspect {
                    self.stats.suspect_l1.record(l1_hit);
                } else {
                    self.stats.clean_l1.record(l1_hit);
                }
                let query = MemAccessQuery {
                    seq,
                    slot,
                    suspect,
                    l1_hit,
                    ppn: page_number(paddr),
                };
                let decision = self.policy.check_mem_access(&query);
                // TPBuf probe reconstruction: a suspect L1D miss is
                // exactly the case the S-Pattern filter probes. The
                // outcome is inferred from the decision (an S-Pattern
                // block means the page matched a trained pattern), so the
                // event reflects the *installed* policy — a TPBuf-less
                // policy that lets a suspect miss proceed reads as a
                // non-matching probe.
                if self.trace.is_some() && suspect && !l1_hit {
                    let matched = matches!(
                        decision,
                        MemDecision::Block {
                            filter: BlockFilter::SPattern
                        }
                    );
                    self.trace(TraceEvent::TpbufProbe {
                        cycle: self.cycle,
                        seq,
                        page: page_number(paddr),
                        matched,
                    });
                }
                match decision {
                    MemDecision::Block { filter } => {
                        self.stats.block_events += 1;
                        self.trace(TraceEvent::Block {
                            cycle: self.cycle,
                            seq,
                            filter,
                            vaddr,
                            page: page_number(paddr),
                        });
                        let rob_entry = self.rob.hot_mut(seq).expect("in flight");
                        rob_entry.was_blocked = true;
                        self.iq.bounce(slot);
                        self.block_reasons[slot] = Some(BlockReason::Security);
                        self.blocked_until[slot] = self.cycle + self.config.block_replay_penalty;
                        true
                    }
                    MemDecision::Proceed { l1_update } => {
                        // Suspect accesses never trigger the prefetcher:
                        // a prefetch is a cache-content change the
                        // filters could not police.
                        let outcome = self
                            .hierarchy
                            .access_data_with_prefetch(paddr, l1_update, !suspect);
                        if l1_update == LruUpdate::Deferred && outcome.l1_hit() {
                            self.rob.hot_mut(seq).expect("in flight").deferred_lru = true;
                        }
                        let memory_value = self.memory.read(paddr, size.bytes());
                        let value = self.lsq.overlay(seq, vaddr, size.bytes(), memory_value);
                        self.lsq.resolve_load(seq, vaddr, older_unknown);
                        self.stats.load_accesses += 1;
                        if let Some(oracle) = self.taint.as_deref_mut() {
                            let cycle = self.cycle;
                            if addr_tainted {
                                if !outcome.l1_hit() {
                                    oracle.record_leak(
                                        seq,
                                        cycle,
                                        LeakChannel::CacheFill,
                                        paddr,
                                        false,
                                    );
                                } else {
                                    match l1_update {
                                        LruUpdate::Normal => oracle.record_leak(
                                            seq,
                                            cycle,
                                            LeakChannel::CacheLru,
                                            paddr,
                                            false,
                                        ),
                                        // The deferred touch only happens
                                        // at commit; a squash drops it.
                                        LruUpdate::Deferred => oracle.record_leak(
                                            seq,
                                            cycle,
                                            LeakChannel::CacheLru,
                                            paddr,
                                            true,
                                        ),
                                        LruUpdate::None => {}
                                    }
                                }
                            }
                            // Load-value taint: tainted address (the value
                            // was secret-selected), tainted memory bytes,
                            // or tainted forwarded store data.
                            let value_taint = addr_tainted
                                || oracle.load_value_taint(seq, vaddr, paddr, size.bytes());
                            oracle.set_dest(dest_preg, value_taint);
                        }
                        self.events.schedule(
                            self.cycle,
                            Completion {
                                at: self.cycle + tlb_latency + outcome.latency,
                                seq,
                                stamp,
                                value,
                                is_load: true,
                            },
                        );
                        false
                    }
                }
            }
        }
    }

    /// Translates a memory instruction's address through the TLB and
    /// returns `(paddr, latency, addr_tainted)`. The address is tainted
    /// when the oracle is on and the base register (operand 0 of every
    /// memory instruction) is; a tainted translation that walks the page
    /// table plants a TLB entry, recorded here as a leak.
    fn translate_mem(&mut self, seq: u64, base: Option<PhysReg>, vaddr: u64) -> (u64, u64, bool) {
        let addr_tainted = self
            .taint
            .as_deref()
            .is_some_and(|o| base.is_some_and(|p| o.reg(p)));
        let tlb_misses_before = addr_tainted.then(|| self.tlb.stats().misses());
        let (paddr, latency) = self.tlb.translate(vaddr, &self.page_table);
        if tlb_misses_before.is_some_and(|before| self.tlb.stats().misses() > before) {
            let cycle = self.cycle;
            let oracle = self.taint.as_deref_mut().expect("tainted implies oracle");
            oracle.record_leak(seq, cycle, LeakChannel::TlbFill, paddr, false);
        }
        (paddr, latency, addr_tainted)
    }

    /// Schedules a 1-cycle-latency result: the value becomes visible to
    /// consumers (and the instruction completes) at the next cycle, giving
    /// correct back-to-back timing for dependent single-cycle operations.
    fn complete_with_value(&mut self, seq: u64, stamp: u64, value: u64) {
        self.events.schedule(
            self.cycle,
            Completion {
                at: self.cycle + 1,
                seq,
                stamp,
                value,
                is_load: false,
            },
        );
    }

    fn mark_completed(&mut self, seq: u64) {
        self.rob.mark_completed(seq);
    }

    fn resolve_control(&mut self, seq: u64, actual: u64, predicted: u64, taken: Option<bool>) {
        {
            let cold = self.rob.cold_mut(seq).expect("in flight");
            cold.actual_next = Some(actual);
            cold.branch_taken = taken;
        }
        self.rob.mark_completed(seq);
        if self.rob.hot(seq).expect("in flight").is_branch {
            self.rob_unresolved_branches = self.rob_unresolved_branches.saturating_sub(1);
        }
        if actual != predicted {
            self.rob.hot_mut(seq).expect("in flight").mispredicted = true;
            self.stats.mispredict_squashes += 1;
            self.squash_from(seq, actual, SquashCause::Mispredict);
        }
    }

    /// Like [`resolve_control`] but for calls, whose link value was
    /// already written.
    fn resolve_control_after_value(&mut self, seq: u64, actual: u64, predicted: u64) {
        self.rob.cold_mut(seq).expect("in flight").actual_next = Some(actual);
        if actual != predicted {
            self.rob.hot_mut(seq).expect("in flight").mispredicted = true;
            self.stats.mispredict_squashes += 1;
            self.squash_from(seq, actual, SquashCause::Mispredict);
        }
    }

    // ------------------------------------------------------------------
    // Squash
    // ------------------------------------------------------------------

    /// Squashes every instruction younger than `keep_seq` and redirects
    /// fetch to `redirect_pc`.
    fn squash_from(&mut self, keep_seq: u64, redirect_pc: u64, cause: SquashCause) {
        self.trace(TraceEvent::Squash {
            cycle: self.cycle,
            keep_seq,
            redirect_pc,
            cause,
        });
        // Detach the ROB so its in-place squash walk can borrow the rest
        // of the core. A squash used to copy every removed entry into a
        // scratch buffer; the walk-back now happens directly on the ring,
        // youngest first, moving nothing.
        let mut rob = std::mem::take(&mut self.rob);
        // The RAS must be restored to the state at the *oldest* squashed
        // control instruction (its snapshot predates its own RAS effect).
        // Walking youngest-first, every snapshot seen supersedes the one
        // before it; the superseded boxes go straight back to the pool.
        let mut ras_restore: Option<Box<condspec_frontend::ras::RasSnapshot>> = None;
        let squashed = rob.squash_after_with(keep_seq, |entry, cold| {
            // Walk back renaming, youngest first.
            if let Some((arch, new, old)) = entry.dest {
                self.regfile.unrename(arch, new, old);
            }
            if let Some(slot) = entry.iq_slot {
                let slot = slot as usize;
                // Drop the entry's wakeup subscriptions so consumer lists
                // stay tight. (Any subscription already wiped by a
                // younger squashed entry's register release is a no-op.)
                if let Some(iq_entry) = self.iq.get(slot) {
                    let srcs = iq_entry.srcs;
                    for p in srcs.iter().flatten() {
                        if !self.regfile.is_ready(*p) {
                            self.regfile.unsubscribe(*p, slot);
                        }
                    }
                }
                self.iq.free_slot(slot);
                self.policy.on_slot_freed(slot);
                self.block_reasons[slot] = None;
            }
            if entry.is_branch && entry.state() != RobState::Completed {
                self.rob_unresolved_branches = self.rob_unresolved_branches.saturating_sub(1);
            }
            if let Some(snap) = cold.ras_snapshot.take() {
                if let Some(superseded) = ras_restore.replace(snap) {
                    self.ras_box_pool.push(superseded);
                }
            }
        });
        self.rob = rob;
        self.stats.squashed_insts += squashed;
        // Squashed fences are exactly the trailing deque entries younger
        // than the squash point (completed fences left at execute).
        while matches!(self.fence_seqs.back(), Some(&s) if s > keep_seq) {
            self.fence_seqs.pop_back();
        }
        let mut lsq_squashed = std::mem::take(&mut self.lsq_squash_scratch);
        self.lsq.squash_after_into(keep_seq, &mut lsq_squashed);
        for seq in lsq_squashed.iter().copied() {
            self.policy.on_lsq_release(seq);
        }
        self.lsq_squash_scratch = lsq_squashed;
        if let Some(oracle) = self.taint.as_deref_mut() {
            // Pending leaks of the squashed instructions resolve now:
            // cache fills and TLB entries survive the squash, TPBuf
            // entries were just released with their LSQ slots.
            oracle.on_squash(keep_seq, self.trace.as_mut());
        }
        // Squashed sequence numbers are recycled (the next dispatch reuses
        // them), keeping ROB sequence numbers contiguous. Completion
        // events still in flight for squashed instructions are NOT swept
        // here: they stay in the wheel and are dropped at delivery
        // because their dispatch stamp cannot match a reincarnation's.
        self.pending_store_data.retain(|(s, _)| *s <= keep_seq);
        self.next_seq = keep_seq + 1;
        // Restore the RAS: the oldest squashed control instruction's
        // snapshot (collected by the squash walk above), falling back to
        // the oldest snapshot still in the fetch queue.
        if let Some(snap) = ras_restore {
            self.frontend.restore_ras(&snap);
            self.ras_box_pool.push(snap);
        } else if let Some(snap) = self
            .fetch_queue
            .iter()
            .find_map(|f| f.ras_snapshot.as_deref())
        {
            // `snap` borrows `fetch_queue`, disjoint from `frontend`, so
            // no defensive clone is needed.
            self.frontend.restore_ras(snap);
        }
        // The flushed fetch queue's snapshots are dead now that the RAS
        // is restored; recycle their boxes.
        for fetched in self.fetch_queue.drain(..) {
            if let Some(snap) = fetched.ras_snapshot {
                self.ras_box_pool.push(snap);
            }
        }
        self.fq_unresolved_branches = 0;
        self.fetch_pc = redirect_pc;
        self.fetch_wedged = false;
        self.fetch_stall_until = self.cycle + self.config.redirect_penalty;
    }

    // ------------------------------------------------------------------
    // Dispatch (rename)
    // ------------------------------------------------------------------

    fn dispatch_stage(&mut self) {
        for _ in 0..self.config.dispatch_width {
            let Some(fetched) = self.fetch_queue.front() else {
                break;
            };
            if fetched.ready_cycle > self.cycle {
                break;
            }
            if self.rob.is_full() || self.iq.is_full() {
                break;
            }
            let inst = fetched.inst;
            if inst.is_load() && !self.lsq.load_has_space() {
                break;
            }
            if inst.is_store() && !self.lsq.store_has_space() {
                break;
            }
            if inst.dest().is_some() && self.regfile.free_count() == 0 {
                break;
            }
            let fetched = self.fetch_queue.pop_front().expect("checked front");
            if fetched.inst.is_branch() {
                self.fq_unresolved_branches = self.fq_unresolved_branches.saturating_sub(1);
                self.rob_unresolved_branches += 1;
            }
            let seq = self.next_seq;
            self.next_seq += 1;

            let stamp = self.next_stamp;
            self.next_stamp += 1;

            // Capture operand mappings before renaming the destination
            // (handles `add r1, r1, r1`).
            let ops = operand_regs(&inst);
            let src_pregs = [
                ops[0].map(|r| self.regfile.lookup(r)),
                ops[1].map(|r| self.regfile.lookup(r)),
            ];
            let dest = inst.dest().map(|arch| {
                let (new, old) = self
                    .regfile
                    .rename_dest(arch)
                    .expect("free_count checked above");
                (arch, new, old)
            });
            if let Some(oracle) = self.taint.as_deref_mut() {
                // A freshly renamed destination holds no value: clean
                // until its producer writes it.
                if let Some((_, new, _)) = dest {
                    oracle.on_rename(new);
                }
            }

            let class = classify(&inst);
            // Stores issue on their address operand alone; the data
            // operand is captured when it becomes ready.
            let iq_srcs = if inst.is_store() {
                [src_pregs[0], None]
            } else {
                src_pregs
            };
            let iq_entry = IqHot::new(seq, class, iq_srcs, inst.is_mem(), inst.is_fence());
            let slot = self.iq.allocate(iq_entry).expect("IQ space checked above");
            // Event-driven wakeup: subscribe to each not-yet-ready source
            // so the producing writeback sets this entry's ready bit; an
            // all-ready entry is an issue candidate immediately.
            let mut all_ready = true;
            for p in iq_srcs.iter().flatten() {
                if self.regfile.is_ready(*p) {
                    continue;
                }
                all_ready = false;
                self.regfile.subscribe(*p, slot);
            }
            if all_ready {
                self.iq.set_ops_ready(slot);
            }
            // Snapshot the occupied entries *excluding* the slot we just
            // filled — the same set the pre-allocate snapshot used to
            // carry — and only when the policy actually consumes it.
            if self.policy.wants_dispatch_views() {
                let views = self.iq.views_excluding(slot);
                self.policy
                    .on_dispatch(DispatchInfo { slot, seq, class }, views);
            } else {
                self.policy
                    .on_dispatch(DispatchInfo { slot, seq, class }, &[]);
            }
            // The dispatch hook is where the security dependence matrix
            // records unresolved-branch dependences for this entry.
            if self.trace.is_some() && self.policy.has_pending_dependence(slot) {
                self.trace(TraceEvent::MatrixSet {
                    cycle: self.cycle,
                    seq,
                    slot,
                });
            }

            if inst.is_load() {
                self.lsq
                    .allocate_load(seq, load_size(&inst))
                    .expect("LDQ space checked");
                self.policy.on_lsq_allocate(seq, true);
            } else if inst.is_store() {
                self.lsq
                    .allocate_store(seq, store_size(&inst))
                    .expect("STQ space checked");
                self.policy.on_lsq_allocate(seq, false);
            } else if inst.is_fence() {
                self.fence_seqs.push_back(seq);
            }
            self.trace(TraceEvent::Dispatch {
                cycle: self.cycle,
                seq,
                pc: fetched.pc,
            });
            let (hot, cold) = self.rob.push(seq, fetched.pc, inst, fetched.predicted_next);
            hot.stamp = stamp;
            hot.src_pregs = src_pregs;
            hot.dest = dest;
            hot.iq_slot = Some(slot as u16);
            cold.ras_snapshot = fetched.ras_snapshot;
        }
    }

    // ------------------------------------------------------------------
    // Fetch
    // ------------------------------------------------------------------

    /// Captures the current RAS state into a (recycled) box.
    fn capture_ras_snapshot(&mut self) -> Box<condspec_frontend::ras::RasSnapshot> {
        let mut snap = self.ras_box_pool.pop().unwrap_or_default();
        self.frontend.ras().snapshot_into(&mut snap);
        snap
    }

    fn fetch_stage(&mut self) {
        if self.fetch_wedged || self.cycle < self.fetch_stall_until {
            return;
        }
        if self.program.is_none() {
            return;
        }
        for _ in 0..self.config.fetch_width {
            if self.fetch_queue.len() >= self.config.fetch_queue {
                break;
            }
            let pc = self.fetch_pc;
            let Some(inst) = self.fetch_inst_at(pc) else {
                // Fetch ran off the code region (wrong path): wedge until
                // a squash redirects us.
                self.fetch_wedged = true;
                break;
            };
            let code_paddr = self.page_table.translate(pc);
            if self.config.icache_filter
                && self.fq_unresolved_branches + self.rob_unresolved_branches > 0
                && !self.hierarchy.probe_l1i(code_paddr)
            {
                // §VII.B ICache-hit filter: the next-PC is unsafe while a
                // branch is unresolved, and it would miss L1I — the fetch
                // is stalled so speculation cannot change I-cache state.
                self.stats.icache_fetch_stalls += 1;
                break;
            }
            let outcome = self.hierarchy.access_inst(code_paddr);
            let icache_miss = !outcome.l1_hit();
            if icache_miss {
                self.fetch_stall_until = self.cycle + outcome.latency;
            }

            let mut ras_snapshot = None;
            let next = match inst {
                Inst::Branch { .. } => {
                    ras_snapshot = Some(self.capture_ras_snapshot());
                    let p = self.frontend.predict_conditional(pc);
                    if p.taken {
                        p.target.unwrap_or(pc + INST_BYTES)
                    } else {
                        pc + INST_BYTES
                    }
                }
                Inst::Jump { target } => target,
                Inst::Call { target, .. } => {
                    ras_snapshot = Some(self.capture_ras_snapshot());
                    self.frontend.on_call(pc + INST_BYTES);
                    target
                }
                Inst::Ret { .. } => {
                    ras_snapshot = Some(self.capture_ras_snapshot());
                    self.frontend.predict_return().unwrap_or(pc + INST_BYTES)
                }
                Inst::JumpIndirect { .. } => {
                    ras_snapshot = Some(self.capture_ras_snapshot());
                    self.frontend
                        .predict_indirect(pc)
                        .unwrap_or(pc + INST_BYTES)
                }
                _ => pc + INST_BYTES,
            };
            if inst.is_branch() {
                self.fq_unresolved_branches += 1;
            }
            self.fetch_queue.push_back(FetchedInst {
                pc,
                inst,
                predicted_next: next,
                ras_snapshot,
                ready_cycle: self.cycle + self.config.decode_latency,
            });
            self.fetch_pc = next;
            if matches!(inst, Inst::Halt) {
                self.fetch_wedged = true;
                break;
            }
            if icache_miss {
                break;
            }
        }
    }

    #[inline]
    fn trace(&mut self, event: TraceEvent) {
        if let Some(buffer) = self.trace.as_mut() {
            buffer.push(event);
        }
    }

    /// Turns on pipeline event tracing with a bounded buffer of
    /// `capacity` events (oldest dropped on overflow). Re-enabling
    /// replaces the buffer.
    pub fn enable_trace(&mut self, capacity: usize) {
        self.trace = Some(TraceBuffer::new(capacity));
    }

    /// Turns tracing off and returns the buffer, if any.
    pub fn disable_trace(&mut self) -> Option<TraceBuffer> {
        self.trace.take()
    }

    /// The current trace buffer, if tracing is enabled.
    pub fn trace_buffer(&self) -> Option<&TraceBuffer> {
        self.trace.as_ref()
    }

    /// Turns on the taint-tracking leak oracle. `config` names the
    /// physical-address byte ranges that hold secrets; from then on the
    /// oracle tracks their flow through registers and memory and records
    /// a leak every time a tainted value reaches microarchitecturally
    /// persistent state (cache fill, LRU update, TLB fill, TPBuf
    /// insertion). Each leak is written into the trace buffer, when
    /// tracing is on, as a [`TraceEvent::Leak`] the moment its
    /// instruction commits or is squashed. Re-enabling replaces the
    /// oracle.
    pub fn enable_taint(&mut self, config: TaintConfig) {
        self.taint = Some(Box::new(TaintOracle::new(self.config.phys_regs, config)));
    }

    /// Turns the leak oracle off and returns it, if any. Leaks still
    /// pending (their instruction neither committed nor squashed) stay
    /// uncounted and never reach the trace.
    pub fn disable_taint(&mut self) -> Option<Box<TaintOracle>> {
        self.taint.take()
    }

    /// The current leak oracle, if taint tracking is enabled.
    pub fn taint_oracle(&self) -> Option<&TaintOracle> {
        self.taint.as_deref()
    }

    /// The leak totals accumulated so far, if taint tracking is enabled.
    pub fn leak_report(&self) -> Option<LeakReport> {
        self.taint.as_deref().map(|oracle| oracle.report())
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// The core configuration.
    pub fn config(&self) -> &CoreConfig {
        &self.config
    }

    /// Current cycle count (monotonic across program loads).
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Whether a halt instruction has committed.
    pub fn is_halted(&self) -> bool {
        self.halted
    }

    /// Pipeline statistics.
    pub fn stats(&self) -> &PipelineStats {
        &self.stats
    }

    /// Resets pipeline, hierarchy, TLB, predictor and policy statistics
    /// (after warm-up). Does not touch microarchitectural state.
    pub fn reset_stats(&mut self) {
        self.stats = PipelineStats::default();
        self.hierarchy.reset_stats();
        self.tlb.reset_stats();
        self.frontend.reset_stats();
        self.policy.reset_stats();
    }

    /// Fills `registry` with the core's named metrics: every
    /// [`PipelineStats`] counter under `core.*`, derived gauges (IPC,
    /// blocked rate, mean occupancies), the installed policy's counters
    /// under `policy.*`, and — when the leak oracle is on — its leak
    /// counts under `leak.*`. Existing entries with other names are
    /// preserved.
    pub fn fill_metrics(&self, registry: &mut MetricsRegistry) {
        let s = &self.stats;
        registry.set_counter("core.cycles", s.cycles);
        registry.set_counter("core.committed", s.committed);
        registry.set_counter("core.committed_loads", s.committed_loads);
        registry.set_counter("core.committed_stores", s.committed_stores);
        registry.set_counter("core.committed_branches", s.committed_branches);
        registry.set_counter("core.blocked_committed_loads", s.blocked_committed_loads);
        registry.set_counter("core.block_events", s.block_events);
        registry.set_counter("core.issued", s.issued);
        registry.set_counter("core.load_accesses", s.load_accesses);
        registry.set_counter("core.mispredict_squashes", s.mispredict_squashes);
        registry.set_counter("core.violation_squashes", s.violation_squashes);
        registry.set_counter("core.squashed_insts", s.squashed_insts);
        registry.set_counter("core.icache_fetch_stalls", s.icache_fetch_stalls);
        registry.set_counter("core.suspect_l1_hits", s.suspect_l1.hits());
        registry.set_counter("core.suspect_l1_accesses", s.suspect_l1.total());
        registry.set_gauge("core.ipc", s.ipc());
        registry.set_gauge("core.blocked_rate", s.blocked_rate());
        registry.set_gauge("core.suspect_l1_hit_rate", s.suspect_l1.rate());
        registry.set_gauge("core.avg_rob_occupancy", s.avg_rob_occupancy());
        registry.set_gauge("core.avg_iq_occupancy", s.avg_iq_occupancy());
        let p = self.policy.stats();
        registry.set_counter("policy.suspect_flags", p.suspect_flags);
        registry.set_counter("policy.blocks", p.blocks);
        registry.set_counter("policy.tpbuf_queries", p.tpbuf_queries);
        registry.set_counter("policy.tpbuf_mismatches", p.tpbuf_mismatches);
        registry.set_gauge(
            "policy.s_pattern_mismatch_rate",
            p.s_pattern_mismatch_rate(),
        );
        if let Some(oracle) = self.taint.as_deref() {
            let l = oracle.report();
            registry.set_counter("leak.cache_fills", l.cache_fills);
            registry.set_counter("leak.cache_fills_survived", l.cache_fills_survived);
            registry.set_counter("leak.cache_lru", l.cache_lru);
            registry.set_counter("leak.cache_lru_survived", l.cache_lru_survived);
            registry.set_counter("leak.tlb_fills", l.tlb_fills);
            registry.set_counter("leak.tlb_fills_survived", l.tlb_fills_survived);
            registry.set_counter("leak.tpbuf_inserts", l.tpbuf_inserts);
            registry.set_counter("leak.tpbuf_inserts_survived", l.tpbuf_inserts_survived);
            let mut by_channel = Histogram::new(1, LeakChannel::ALL.len());
            for (index, channel) in LeakChannel::ALL.iter().copied().enumerate() {
                let (_, survived) = l.channel(channel);
                for _ in 0..survived {
                    by_channel.record(index as u64);
                }
            }
            registry.set_histogram("leak.survived_by_channel", by_channel);
        }
    }

    /// The architectural value of `reg` (through the current rename map —
    /// call after [`run`](Core::run) returns `Halted` for committed
    /// state).
    pub fn read_arch_reg(&self, reg: Reg) -> u64 {
        self.regfile.read_arch(reg)
    }

    /// Reads simulated memory at a *virtual* address.
    pub fn read_memory(&self, vaddr: u64, size: u64) -> u64 {
        self.memory.read(self.page_table.translate(vaddr), size)
    }

    /// Writes simulated memory at a *virtual* address. An external write
    /// carries attacker-known data, so it scrubs the bytes' taint.
    pub fn write_memory(&mut self, vaddr: u64, value: u64, size: u64) {
        let paddr = self.page_table.translate(vaddr);
        self.memory.write(paddr, value, size);
        if let Some(oracle) = self.taint.as_deref_mut() {
            oracle.clear_bytes(paddr, size);
        }
    }

    /// The cache hierarchy (attack orchestration: flush/prime/probe).
    pub fn hierarchy(&self) -> &CacheHierarchy {
        &self.hierarchy
    }

    /// Mutable cache hierarchy access.
    pub fn hierarchy_mut(&mut self) -> &mut CacheHierarchy {
        &mut self.hierarchy
    }

    /// The page table (set up shared mappings before loading programs).
    pub fn page_table(&self) -> &PageTable {
        &self.page_table
    }

    /// Mutable page-table access.
    pub fn page_table_mut(&mut self) -> &mut PageTable {
        &mut self.page_table
    }

    /// The front end (predictor training / poisoning).
    pub fn frontend(&self) -> &FrontEnd {
        &self.frontend
    }

    /// Mutable front-end access.
    pub fn frontend_mut(&mut self) -> &mut FrontEnd {
        &mut self.frontend
    }

    /// The security policy driving this core.
    pub fn policy(&self) -> &dyn SecurityPolicy {
        self.policy.as_ref()
    }

    /// Mutable policy access.
    pub fn policy_mut(&mut self) -> &mut dyn SecurityPolicy {
        self.policy.as_mut()
    }

    /// Cross-structure consistency check, for tests and debugging. Holds
    /// between any two [`Core::step`] calls; squash recovery in
    /// particular must leave no residue for the squashed instructions.
    ///
    /// Verified invariants:
    ///
    /// * a free IQ slot has no block reason and no outstanding security
    ///   dependence (its matrix row was cleared);
    /// * an occupied IQ slot is owned by exactly the in-flight ROB entry
    ///   that records it, and that entry is not yet completed;
    /// * every stamp-matching completion event targets an instruction
    ///   still waiting for it (stale events awaiting lazy invalidation
    ///   are permitted), and every store-data capture refers to an
    ///   instruction still in the ROB;
    /// * the event-driven scheduler structures agree with the scan-based
    ///   reference model ([`Core::check_scheduler_coherence`]).
    pub fn check_invariants(&self) -> Result<(), String> {
        for slot in 0..self.iq.capacity() {
            match self.iq.get(slot) {
                None => {
                    if self.block_reasons[slot].is_some() {
                        return Err(format!("free IQ slot {slot} has a stale block reason"));
                    }
                    if self.policy.has_pending_dependence(slot) {
                        return Err(format!(
                            "free IQ slot {slot} still has a security dependence row"
                        ));
                    }
                }
                Some(entry) => {
                    let Some(rob_entry) = self.rob.hot(entry.seq) else {
                        return Err(format!(
                            "IQ slot {slot} holds seq {} which is not in the ROB",
                            entry.seq
                        ));
                    };
                    if rob_entry.iq_slot != Some(slot as u16) {
                        return Err(format!(
                            "IQ slot {slot} / ROB seq {} disagree on ownership ({:?})",
                            entry.seq, rob_entry.iq_slot
                        ));
                    }
                    if rob_entry.state() == RobState::Completed {
                        return Err(format!(
                            "completed seq {} still occupies IQ slot {slot}",
                            entry.seq
                        ));
                    }
                }
            }
        }
        // Re-derive the LSQ's per-state bitmap words from its records
        // (the IQ's are re-derived by the scheduler coherence check).
        self.lsq.check_bitmaps()?;
        for event in self.events.iter() {
            // Events are lazily invalidated: one whose stamp no longer
            // matches the resident entry (or whose seq left the ROB)
            // belongs to a squashed instruction or a previous program and
            // will be dropped at delivery. A stamp-matching event must
            // target an instruction still waiting for it.
            if let Some(entry) = self.rob.hot(event.seq) {
                if entry.stamp == event.stamp && entry.state() != RobState::Issued {
                    return Err(format!(
                        "pending completion event for seq {} in state {:?}",
                        event.seq,
                        entry.state()
                    ));
                }
            }
        }
        for (seq, _) in &self.pending_store_data {
            if !self.rob.contains(*seq) {
                return Err(format!(
                    "pending store-data capture for seq {seq} which is not in flight"
                ));
            }
        }
        // SoA coherence: the per-state bitmap words must agree with every
        // resident entry's state, and no stale bit may survive on a free
        // slot.
        self.rob.check_bitmaps()?;
        // Stamps are assigned from a monotone dispatch counter in seq
        // order, so among resident entries they must strictly increase
        // with seq (a squash + redispatch reuses seqs but never stamps).
        let mut prev: Option<(u64, u64)> = None;
        for hot in self.rob.iter_hot() {
            if let Some((pseq, pstamp)) = prev {
                if hot.seq != pseq + 1 {
                    return Err(format!("ROB seqs not contiguous: {pseq} then {}", hot.seq));
                }
                if hot.stamp <= pstamp {
                    return Err(format!(
                        "ROB stamps not monotone: seq {pseq} stamp {pstamp}, seq {} stamp {}",
                        hot.seq, hot.stamp
                    ));
                }
            }
            prev = Some((hot.seq, hot.stamp));
        }
        self.check_scheduler_coherence()
    }

    /// Differential check of the event-driven scheduler against the naive
    /// scan-based model it replaced. Holds between any two
    /// [`Core::step`] calls:
    ///
    /// * the scoreboard candidate set (`unissued & ops_ready`) equals a
    ///   full-queue scan testing every entry's operands in the register
    ///   file — i.e. no wakeup was missed and none fired early;
    /// * the cached fence barrier (front of the fence deque) equals the
    ///   oldest-incomplete-fence ROB scan;
    /// * the incrementally maintained dispatch views equal a fresh
    ///   full-capacity snapshot (as a set — the dense list is
    ///   insertion-ordered).
    ///
    /// Diagnostic (allocates); used by the scheduler property tests, not
    /// by the simulation loop.
    pub fn check_scheduler_coherence(&self) -> Result<(), String> {
        self.iq.check_bitmaps()?;
        // Candidate set: scoreboard vs operand scan.
        let mut fast = Vec::new();
        self.iq.collect_ready(&mut fast);
        fast.sort_unstable();
        let mut reference: Vec<(u64, usize)> = self
            .iq
            .iter()
            .filter(|(_, e)| {
                !e.issued() && e.srcs.iter().flatten().all(|p| self.regfile.is_ready(*p))
            })
            .map(|(slot, e)| (e.seq, slot))
            .collect();
        reference.sort_unstable();
        if fast != reference {
            return Err(format!(
                "scoreboard candidates {fast:?} != scanned candidates {reference:?}"
            ));
        }
        // Fence barrier: deque front vs ROB scan.
        let cached = self.fence_seqs.front().copied();
        let scanned = self
            .rob
            .iter_hot()
            .find(|e| e.is_fence() && e.state() != RobState::Completed)
            .map(|e| e.seq);
        if cached != scanned {
            return Err(format!(
                "cached fence barrier {cached:?} != scanned barrier {scanned:?}"
            ));
        }
        // Dispatch views: dense incremental list vs fresh slot scan.
        let mut dense: Vec<crate::policy::IqEntryView> = self.iq.views().to_vec();
        dense.sort_by_key(|v| v.slot);
        let scan: Vec<crate::policy::IqEntryView> = self
            .iq
            .iter()
            .map(|(slot, e)| crate::policy::IqEntryView {
                slot,
                seq: e.seq,
                class: e.class,
                issued: e.issued(),
            })
            .collect();
        if dense != scan {
            return Err("incremental dispatch views diverged from a fresh scan".to_string());
        }
        Ok(())
    }
}

fn load_size(inst: &Inst) -> u64 {
    match inst {
        Inst::Load { size, .. } => size.bytes(),
        _ => unreachable!("load_size on non-load"),
    }
}

fn store_size(inst: &Inst) -> u64 {
    match inst {
        Inst::Store { size, .. } => size.bytes(),
        _ => unreachable!("store_size on non-store"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use condspec_isa::{AluOp, BranchCond, ProgramBuilder};

    fn run_program(build: impl FnOnce(&mut ProgramBuilder)) -> Core {
        let mut core = Core::with_defaults();
        let mut b = ProgramBuilder::new(0x1000);
        build(&mut b);
        let program = b.build().expect("valid test program");
        core.load_program(Arc::new(program));
        let result = core.run(1_000_000);
        assert_eq!(result.exit, ExitReason::Halted, "program must halt");
        core
    }

    #[test]
    fn arithmetic_and_immediates() {
        let core = run_program(|b| {
            b.li(Reg::R1, 10);
            b.li(Reg::R2, 32);
            b.alu(AluOp::Add, Reg::R3, Reg::R1, Reg::R2);
            b.alu_imm(AluOp::Mul, Reg::R4, Reg::R3, 3);
            b.halt();
        });
        assert_eq!(core.read_arch_reg(Reg::R3), 42);
        assert_eq!(core.read_arch_reg(Reg::R4), 126);
    }

    #[test]
    fn loads_and_stores_roundtrip() {
        let core = run_program(|b| {
            b.li(Reg::R1, 0x20000);
            b.li(Reg::R2, 0xdead);
            b.store(Reg::R2, Reg::R1, 0);
            b.load(Reg::R3, Reg::R1, 0);
            b.halt();
            b.reserve(0x20000, 64);
        });
        assert_eq!(
            core.read_arch_reg(Reg::R3),
            0xdead,
            "store-to-load forwarding"
        );
        assert_eq!(core.read_memory(0x20000, 8), 0xdead, "committed to memory");
    }

    #[test]
    fn initialized_data_segment_is_loaded() {
        let core = run_program(|b| {
            b.li(Reg::R1, 0x30000);
            b.load(Reg::R2, Reg::R1, 8);
            b.halt();
            b.data_u64s(0x30000, &[111, 222]);
        });
        assert_eq!(core.read_arch_reg(Reg::R2), 222);
    }

    #[test]
    fn taken_loop_executes_correct_count() {
        let core = run_program(|b| {
            b.li(Reg::R1, 0);
            b.li(Reg::R2, 10);
            b.label("loop").unwrap();
            b.alu_imm(AluOp::Add, Reg::R1, Reg::R1, 1);
            b.branch_to(BranchCond::LtU, Reg::R1, Reg::R2, "loop");
            b.halt();
        });
        assert_eq!(core.read_arch_reg(Reg::R1), 10);
        assert!(
            core.stats().committed >= 22,
            "2 + 2*10 committed instructions"
        );
    }

    #[test]
    fn wrong_path_loads_fill_cache_on_origin() {
        // A branch that is architecturally not-taken but (after training
        // via loop iterations) predicted taken would be complex to set up;
        // instead exploit the cold not-taken prediction: branch IS taken,
        // mispredicted as not-taken, so the fall-through (wrong path)
        // executes speculatively and loads a line.
        let core = run_program(|b| {
            b.li(Reg::R1, 1);
            b.li(Reg::R9, 0x40000);
            // r2 = slow-to-resolve operand via a chain of multiplies.
            b.li(Reg::R2, 1);
            for _ in 0..8 {
                b.alu(AluOp::Mul, Reg::R2, Reg::R2, Reg::R1);
            }
            b.branch_to(BranchCond::Eq, Reg::R2, Reg::R1, "skip"); // taken; predicted NT when cold
                                                                   // Wrong path: load 0x40000.
            b.load(Reg::R3, Reg::R9, 0);
            b.nop();
            b.label("skip").unwrap();
            b.halt();
            b.reserve(0x40000, 64);
        });
        // The wrong-path load left its line in the cache (tag check via
        // peek latency = L1 hit latency).
        let lat = core.hierarchy().peek_latency(0x40000);
        assert_eq!(lat, 2, "wrong-path fill persisted after squash");
        assert_eq!(
            core.read_arch_reg(Reg::R3),
            0,
            "architecturally never loaded"
        );
        assert!(core.stats().mispredict_squashes >= 1);
    }

    #[test]
    fn store_bypass_violation_replays() {
        // Store to X with a slow address; younger load from X issues
        // first (speculative store bypass), reads stale 0, then replays
        // after the violation and sees 77.
        let core = run_program(|b| {
            b.li(Reg::R1, 0x50000);
            b.li(Reg::R2, 77);
            // Slow down the store's address with a multiply chain.
            b.li(Reg::R3, 1);
            for _ in 0..6 {
                b.alu(AluOp::Mul, Reg::R3, Reg::R3, Reg::R3);
            }
            b.alu(AluOp::Mul, Reg::R4, Reg::R1, Reg::R3); // r4 = 0x50000 * 1
            b.store(Reg::R2, Reg::R4, 0);
            b.load(Reg::R5, Reg::R1, 0);
            b.halt();
            b.reserve(0x50000, 64);
        });
        assert_eq!(
            core.read_arch_reg(Reg::R5),
            77,
            "violation replay fixed the value"
        );
        assert!(
            core.stats().violation_squashes >= 1,
            "the bypass was detected"
        );
    }

    #[test]
    fn fence_serializes_but_preserves_results() {
        let core = run_program(|b| {
            b.li(Reg::R1, 5);
            b.fence();
            b.alu_imm(AluOp::Add, Reg::R2, Reg::R1, 1);
            b.fence();
            b.halt();
        });
        assert_eq!(core.read_arch_reg(Reg::R2), 6);
    }

    #[test]
    fn call_and_ret() {
        let core = run_program(|b| {
            b.li(Reg::R1, 1);
            b.call_to("f", Reg::R31);
            b.alu_imm(AluOp::Add, Reg::R1, Reg::R1, 100);
            b.halt();
            b.label("f").unwrap();
            b.alu_imm(AluOp::Add, Reg::R1, Reg::R1, 10);
            b.ret(Reg::R31);
        });
        assert_eq!(core.read_arch_reg(Reg::R1), 111);
    }

    #[test]
    fn indirect_jump() {
        let core = run_program(|b| {
            b.li(Reg::R1, 0x1000 + 5 * 4); // address of the halt below
            b.jump_indirect(Reg::R1, 0);
            b.li(Reg::R2, 0xbad);
            b.li(Reg::R2, 0xbad);
            b.li(Reg::R2, 0xbad);
            b.halt();
        });
        assert_eq!(core.read_arch_reg(Reg::R2), 0);
    }

    #[test]
    fn flush_instruction_evicts_line() {
        let core = run_program(|b| {
            b.li(Reg::R1, 0x60000);
            b.load(Reg::R2, Reg::R1, 0); // bring the line in
            b.fence();
            b.flush(Reg::R1, 0);
            b.fence();
            b.halt();
            b.reserve(0x60000, 64);
        });
        assert!(core.hierarchy().peek_latency(0x60000) > 2, "line flushed");
    }

    #[test]
    fn stuck_program_detected() {
        let mut core = Core::with_defaults();
        let mut b = ProgramBuilder::new(0x1000);
        b.label("spin").unwrap();
        b.jump_to("spin"); // commits forever... actually commits jumps; use wedge instead
        let program = b.build().unwrap();
        core.load_program(Arc::new(program));
        // An infinite loop commits instructions forever — CycleLimit.
        let result = core.run(50_000);
        assert_eq!(result.exit, ExitReason::CycleLimit);

        // A program with no instructions at the entry wedges fetch: Stuck.
        let mut core = Core::with_defaults();
        let empty = ProgramBuilder::new(0x1000).build().unwrap();
        core.load_program(Arc::new(empty));
        let result = core.run(400_000);
        assert_eq!(result.exit, ExitReason::Stuck);
    }

    #[test]
    fn ipc_is_positive_and_bounded() {
        let core = run_program(|b| {
            b.li(Reg::R1, 0);
            b.li(Reg::R2, 200);
            b.label("loop").unwrap();
            b.alu_imm(AluOp::Add, Reg::R1, Reg::R1, 1);
            b.alu_imm(AluOp::Add, Reg::R3, Reg::R1, 7);
            b.alu(AluOp::Xor, Reg::R4, Reg::R3, Reg::R1);
            b.branch_to(BranchCond::LtU, Reg::R1, Reg::R2, "loop");
            b.halt();
        });
        let ipc = core.stats().ipc();
        assert!(
            ipc > 0.5,
            "simple loop should sustain decent IPC, got {ipc}"
        );
        assert!(ipc <= 4.0, "cannot exceed machine width");
    }

    #[test]
    fn functional_matches_detailed_architectural_state() {
        let build = |b: &mut ProgramBuilder| {
            b.li(Reg::R1, 0);
            b.li(Reg::R2, 50);
            b.li(Reg::R9, 0x20000);
            b.label("loop").unwrap();
            b.alu_imm(AluOp::Add, Reg::R1, Reg::R1, 1);
            b.alu(AluOp::Xor, Reg::R3, Reg::R1, Reg::R2);
            b.store(Reg::R3, Reg::R9, 0);
            b.load(Reg::R4, Reg::R9, 0);
            b.branch_to(BranchCond::LtU, Reg::R1, Reg::R2, "loop");
            b.halt();
            b.reserve(0x20000, 64);
        };
        let mut detailed = Core::with_defaults();
        let mut b = ProgramBuilder::new(0x1000);
        build(&mut b);
        let program = Arc::new(b.build().unwrap());
        detailed.load_program(Arc::clone(&program));
        let r = detailed.run(1_000_000);
        assert_eq!(r.exit, ExitReason::Halted);

        let mut functional = Core::with_defaults();
        functional.load_program(program);
        let f = functional.run_functional(1_000_000).unwrap();
        assert_eq!(f.exit, FunctionalExit::Halted);
        assert_eq!(f.retired, detailed.stats().committed);
        for reg in Reg::ALL {
            assert_eq!(
                functional.read_arch_reg(reg),
                detailed.read_arch_reg(reg),
                "{reg} diverged"
            );
        }
        assert_eq!(
            functional.read_memory(0x20000, 8),
            detailed.read_memory(0x20000, 8)
        );
    }

    #[test]
    fn quiesce_capture_restore_continues_identically() {
        let build = |b: &mut ProgramBuilder| {
            b.li(Reg::R1, 0);
            b.li(Reg::R2, 400);
            b.li(Reg::R9, 0x20000);
            b.label("loop").unwrap();
            b.alu_imm(AluOp::Add, Reg::R1, Reg::R1, 1);
            b.store(Reg::R1, Reg::R9, 0);
            b.load(Reg::R4, Reg::R9, 0);
            b.branch_to(BranchCond::LtU, Reg::R1, Reg::R2, "loop");
            b.halt();
            b.reserve(0x20000, 64);
        };
        let mut b = ProgramBuilder::new(0x1000);
        build(&mut b);
        let program = Arc::new(b.build().unwrap());

        // Run mid-loop, quiesce at an arbitrary point, capture.
        let mut original = Core::with_defaults();
        original.load_program(Arc::clone(&program));
        original.run(700);
        assert!(!original.is_halted(), "must stop mid-program");
        original.quiesce();
        let snap = original.capture_snapshot().expect("quiesced");

        // Restore into a fresh core and continue both to halt.
        let mut restored = Core::with_defaults();
        restored.restore_snapshot(&snap, Arc::clone(&program), Box::new(NullPolicy));
        assert_eq!(restored.capture_snapshot().expect("clean"), snap);
        original.reset_stats();
        restored.reset_stats();
        let ro = original.run(1_000_000);
        let rr = restored.run(1_000_000);
        assert_eq!(ro.exit, ExitReason::Halted);
        assert_eq!(rr.exit, ExitReason::Halted);
        assert_eq!(ro.cycles, rr.cycles, "identical window timing");
        assert_eq!(ro.committed, rr.committed);
        assert_eq!(original.cycle(), restored.cycle());
        for reg in Reg::ALL {
            assert_eq!(original.read_arch_reg(reg), restored.read_arch_reg(reg));
        }
    }

    #[test]
    fn run_until_committed_stops_at_target() {
        let mut core = Core::with_defaults();
        let mut b = ProgramBuilder::new(0x1000);
        b.li(Reg::R1, 0);
        b.li(Reg::R2, 10_000);
        b.label("loop").unwrap();
        b.alu_imm(AluOp::Add, Reg::R1, Reg::R1, 1);
        b.branch_to(BranchCond::LtU, Reg::R1, Reg::R2, "loop");
        b.halt();
        core.load_program(Arc::new(b.build().unwrap()));
        let r = core.run_until_committed(500, 1_000_000);
        assert_eq!(r.exit, ExitReason::CommitLimit);
        assert!(r.committed >= 500);
        assert!(
            r.committed < 500 + core.config().commit_width as u64,
            "overshoot bounded by commit width"
        );
    }

    #[test]
    fn functional_rejects_busy_pipeline() {
        let mut core = run_program(|b| {
            b.li(Reg::R1, 7);
            b.halt();
        });
        assert!(core.run_functional(10).is_ok(), "halted core is quiesced");
        let mut busy = Core::with_defaults();
        let mut b = ProgramBuilder::new(0x1000);
        b.li(Reg::R1, 0);
        b.li(Reg::R2, 1000);
        b.label("loop").unwrap();
        b.alu_imm(AluOp::Add, Reg::R1, Reg::R1, 1);
        b.branch_to(BranchCond::LtU, Reg::R1, Reg::R2, "loop");
        b.halt();
        busy.load_program(Arc::new(b.build().unwrap()));
        while busy.is_quiesced() {
            busy.step();
        }
        assert!(busy.run_functional(10).is_err());
        assert!(busy.capture_snapshot().is_err());
        busy.quiesce();
        assert!(busy.run_functional(10).is_ok());
    }

    #[test]
    fn architectural_state_identical_under_store_bypass_toggle() {
        let build = |b: &mut ProgramBuilder| {
            b.li(Reg::R1, 0x70000);
            b.li(Reg::R2, 3);
            b.li(Reg::R3, 1);
            for _ in 0..4 {
                b.alu(AluOp::Mul, Reg::R3, Reg::R3, Reg::R3);
            }
            b.alu(AluOp::Mul, Reg::R4, Reg::R1, Reg::R3);
            b.store(Reg::R2, Reg::R4, 8);
            b.load(Reg::R5, Reg::R1, 8);
            b.alu(AluOp::Add, Reg::R6, Reg::R5, Reg::R2);
            b.halt();
            b.reserve(0x70000, 64);
        };
        let mut with_bypass = Core::with_defaults();
        let mut config = CoreConfig::paper_default();
        config.spec_store_bypass = false;
        let mut without_bypass = Core::new(
            config,
            FrontEnd::new(condspec_frontend::PredictorConfig::paper_default()),
            CacheHierarchy::new(condspec_mem::HierarchyConfig::paper_default()),
            Tlb::new(condspec_mem::TlbConfig::paper_default()),
            PageTable::new(),
            Box::new(NullPolicy),
        );
        for core in [&mut with_bypass, &mut without_bypass] {
            let mut b = ProgramBuilder::new(0x1000);
            build(&mut b);
            core.load_program(Arc::new(b.build().unwrap()));
            assert_eq!(core.run(1_000_000).exit, ExitReason::Halted);
        }
        for r in [Reg::R5, Reg::R6] {
            assert_eq!(
                with_bypass.read_arch_reg(r),
                without_bypass.read_arch_reg(r),
                "bypass changes timing, never architecture"
            );
        }
        assert_eq!(with_bypass.read_arch_reg(Reg::R5), 3);
    }
}
