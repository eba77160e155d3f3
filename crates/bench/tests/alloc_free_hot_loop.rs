//! Proves the steady-state simulation loop is allocation-free.
//!
//! A counting `#[global_allocator]` wraps the system allocator; after a
//! warm-up that touches every memory page, predictor table and scratch
//! buffer the harness will ever need, a measured window of full
//! train/train/attack gadget rounds must perform **zero** new heap
//! allocations — reloads included, since `load_program` only
//! resets pre-sized structures. A second measured window runs a
//! mispredict-heavy branchy pointer chase, so the squash path (rename
//! walk-back, IQ squash, wakeup unsubscription, lazy event invalidation)
//! is proven heap-free too, not just the mostly-straight-line gadget.
//!
//! This test lives in its own integration binary because a global
//! allocator is per-binary, and it is the only `#[test]` here so no
//! concurrent test can perturb the counter.

use condspec::{DefenseConfig, ExitReason, SimConfig, Simulator};
use condspec_isa::{AluOp, BranchCond, Program, ProgramBuilder, Reg};
use condspec_stats::SplitMix64;
use condspec_workloads::gadgets::{GadgetKind, SpectreGadget};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

const RUN_BUDGET: u64 = 500_000;
const WARMUP_ROUNDS: u32 = 10;
const MEASURED_ROUNDS: u32 = 50;

/// Branchy-chase geometry: an 8 KiB pointer ring (L1-resident, so the
/// loop turns fast) walked by loads whose values feed branch conditions.
const CHASE_CODE_BASE: u64 = 0x0040_0000;
const CHASE_RING_BASE: u64 = 0x0800_0000;
const CHASE_RING_SLOTS: usize = 1024;
const CHASE_ITERATIONS: u64 = 400;

/// One train/train/attack cell round, identical in shape to the
/// `condspec perf` harness and the leakage experiments.
fn round(sim: &mut Simulator, gadget: &SpectreGadget) -> u64 {
    let mut cycles = 0;
    for _ in 0..2 {
        sim.load_program(gadget.program.clone());
        sim.write_memory(gadget.input_addr, gadget.train_input, 8);
        cycles += sim.run(RUN_BUDGET).cycles;
    }
    sim.load_program(gadget.program.clone());
    sim.write_memory(gadget.input_addr, gadget.attack_input, 8);
    if let Some(len) = gadget.len_addr {
        let pa = sim.core().page_table().translate(len);
        sim.core_mut().hierarchy_mut().flush_line(pa);
    }
    cycles += sim.run(RUN_BUDGET).cycles;
    cycles
}

/// A pointer chase whose loaded values drive data-dependent branches:
/// each ring word's low bits are effectively random, so the forward
/// branch is unpredictable and resolves only after the load returns —
/// deep wrong paths and constant mispredict squashes.
fn branchy_chase(iterations: u64) -> Program {
    // Single-cycle ring permutation (Sattolo's algorithm).
    let mut rng = SplitMix64::new(0x5eed_ba5e_0b1a_5e01);
    let mut idx: Vec<usize> = (0..CHASE_RING_SLOTS).collect();
    for i in (1..CHASE_RING_SLOTS).rev() {
        let j = (rng.next_u64() % i as u64) as usize;
        idx.swap(i, j);
    }
    let mut next = vec![0usize; CHASE_RING_SLOTS];
    for w in 0..CHASE_RING_SLOTS {
        next[idx[w]] = idx[(w + 1) % CHASE_RING_SLOTS];
    }
    let words: Vec<u64> = next
        .iter()
        .map(|&n| CHASE_RING_BASE + 8 * n as u64)
        .collect();

    let mut b = ProgramBuilder::new(CHASE_CODE_BASE);
    b.li(Reg::R1, iterations);
    b.li(Reg::R2, CHASE_RING_BASE + 8 * idx[0] as u64);
    b.li(Reg::R4, 0);
    let top = b.here();
    b.load(Reg::R2, Reg::R2, 0);
    // Bit 3 of the chased pointer is a permutation artifact — close to a
    // coin flip per step, and unknown until the load completes.
    b.alu_imm(AluOp::And, Reg::R3, Reg::R2, 8);
    b.branch_to(BranchCond::Ne, Reg::R3, Reg::R0, "skip");
    b.alu_imm(AluOp::Add, Reg::R4, Reg::R4, 1);
    b.alu(AluOp::Xor, Reg::R4, Reg::R4, Reg::R2);
    b.label("skip").expect("fresh label");
    b.alu_imm(AluOp::Sub, Reg::R1, Reg::R1, 1);
    b.branch(BranchCond::Ne, Reg::R1, Reg::R0, top);
    b.halt();
    b.data_u64s(CHASE_RING_BASE, &words);
    b.build().expect("branchy chase assembles")
}

fn chase_round(sim: &mut Simulator, program: &Arc<Program>) -> u64 {
    sim.load_program(program.clone());
    let result = sim.run(RUN_BUDGET);
    assert_eq!(result.exit, ExitReason::Halted, "chase must run to halt");
    result.cycles
}

#[test]
fn steady_state_rounds_do_not_allocate() {
    let gadget = SpectreGadget::build(GadgetKind::V1);
    let chase = Arc::new(branchy_chase(CHASE_ITERATIONS));
    for defense in [DefenseConfig::Origin, DefenseConfig::CacheHitTpbuf] {
        let mut sim = Simulator::new(SimConfig::new(defense));
        for _ in 0..WARMUP_ROUNDS {
            round(&mut sim, &gadget);
        }

        // Observability exercised and switched back off before the
        // measured window: with tracing and the taint oracle disabled
        // the hot loop must pay only an `Option` branch per event site,
        // never an allocation.
        sim.core_mut().enable_trace(256);
        let secret_pa = sim.core().page_table().translate(gadget.secret_addr);
        sim.core_mut()
            .enable_taint(condspec_pipeline::TaintConfig::range(secret_pa, 64));
        round(&mut sim, &gadget);
        sim.core_mut().disable_trace();
        sim.core_mut().disable_taint();

        let before = ALLOCATIONS.load(Ordering::SeqCst);
        let mut cycles = 0;
        for _ in 0..MEASURED_ROUNDS {
            cycles += round(&mut sim, &gadget);
        }
        let after = ALLOCATIONS.load(Ordering::SeqCst);

        assert!(cycles > 0, "measured window must simulate real work");
        assert_eq!(
            after - before,
            0,
            "{defense:?}: steady-state rounds allocated {} time(s) over \
             {MEASURED_ROUNDS} rounds ({cycles} cycles)",
            after - before,
        );

        // Second window: the mispredict-heavy chase on the same core, so
        // squash recovery runs hot inside the measured region.
        for _ in 0..WARMUP_ROUNDS {
            chase_round(&mut sim, &chase);
        }

        let squashes_before = sim.core().stats().mispredict_squashes;
        let before = ALLOCATIONS.load(Ordering::SeqCst);
        let mut cycles = 0;
        for _ in 0..MEASURED_ROUNDS {
            cycles += chase_round(&mut sim, &chase);
        }
        let after = ALLOCATIONS.load(Ordering::SeqCst);
        let squashes = sim.core().stats().mispredict_squashes - squashes_before;

        assert!(
            squashes > 0,
            "{defense:?}: branchy chase must exercise squash recovery"
        );
        assert_eq!(
            after - before,
            0,
            "{defense:?}: branchy-chase rounds allocated {} time(s) over \
             {MEASURED_ROUNDS} rounds ({cycles} cycles, {squashes} squashes)",
            after - before,
        );
    }
}
