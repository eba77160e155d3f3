//! Differential property test for the data-oriented (SoA) ROB hot path.
//!
//! The commit, issue-wakeup and squash walks all read the ROB through
//! per-state bitmap words and the hot/cold split arrays; the idle
//! fast-forward additionally skips cycles the bitmaps prove dead. This
//! test pins the whole arrangement against the two independent
//! execution paths that bypass parts of it:
//!
//! * **stepped vs fast-forwarded** — running a program one
//!   [`Core::step`] at a time (no idle skipping) must produce the same
//!   cycle count, commit stream totals and architectural memory as
//!   [`Simulator::run_to_halt`], which fast-forwards through
//!   bitmap-proven idle cycles.
//! * **fresh vs reused** — a simulator recycled between jobs with
//!   [`Simulator::reset_in_place`] (the sweep engine's per-worker
//!   reuse) must be observationally indistinguishable from a freshly
//!   constructed one.
//!
//! Programs are random Spectre-gadget-shaped kernels: bounds-checked
//! dependent loads behind mispredictable branches, with stores and ALU
//! filler — the shape that stresses suspect tracking, squash recovery
//! and the blocked-wakeup path under every defense.
//!
//! [`Core::step`]: condspec_pipeline::core::Core::step

mod gadgets;

use condspec::{DefenseConfig, SimConfig, Simulator};
use condspec_stats::SplitMix64;
use gadgets::{random_gadget_program, DATA_BASE, DATA_WORDS};

const TRIALS_PER_DEFENSE: usize = 8;
const BUDGET: u64 = 400_000;

/// Everything observable about one finished run.
#[derive(Debug, PartialEq, Eq)]
struct Observation {
    cycles: u64,
    committed: u64,
    committed_loads: u64,
    committed_stores: u64,
    committed_branches: u64,
    mispredict_squashes: u64,
    blocked_committed_loads: u64,
    data: Vec<u64>,
}

fn observe(sim: &Simulator) -> Observation {
    let stats = sim.core().stats();
    Observation {
        cycles: stats.cycles,
        committed: stats.committed,
        committed_loads: stats.committed_loads,
        committed_stores: stats.committed_stores,
        committed_branches: stats.committed_branches,
        mispredict_squashes: stats.mispredict_squashes,
        blocked_committed_loads: stats.blocked_committed_loads,
        data: (0..DATA_WORDS as u64)
            .map(|w| sim.read_memory(DATA_BASE + 8 * w, 8))
            .collect(),
    }
}

#[test]
fn stepped_reused_and_fast_forwarded_runs_are_identical() {
    let mut rng = SplitMix64::new(0x50a_d1ff_0000_0001);
    for defense in DefenseConfig::ALL {
        let config = SimConfig::new(defense);
        // The reused simulator survives across trials, reset in place
        // before each — exactly the sweep engine's per-worker lifecycle.
        let mut reused = Simulator::new(config);
        // Dirty it so the first reset actually has state to clear.
        reused.write_memory(DATA_BASE, 0xdead_beef, 8);
        for trial in 0..TRIALS_PER_DEFENSE {
            let program = random_gadget_program(&mut rng);
            let label = format!("{defense:?} trial {trial}");

            let mut fresh = Simulator::new(config);
            let result = fresh.run_to_halt(&program, BUDGET);
            let expected = observe(&fresh);
            assert_eq!(result.cycles, expected.cycles, "{label}: result/stats");
            assert!(expected.committed > 0, "{label}: program ran");

            // Stepped: single cycles only, no idle fast-forward.
            let mut stepped = Simulator::new(config);
            stepped.load_program(program.clone());
            let mut steps = 0u64;
            while !stepped.core().is_halted() {
                stepped.core_mut().step();
                steps += 1;
                assert!(steps <= BUDGET, "{label}: stepped run did not halt");
            }
            assert_eq!(observe(&stepped), expected, "{label}: stepped diverged");

            reused.reset_in_place(config);
            reused.run_to_halt(&program, BUDGET);
            assert_eq!(observe(&reused), expected, "{label}: reused diverged");
        }
    }
}
