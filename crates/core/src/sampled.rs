//! SimPoint-style sampled simulation: functional fast-forward, evenly
//! spaced checkpoints, detailed measurement windows, and weighted
//! stitching of the window reports into a whole-program [`Report`].
//!
//! # Protocol
//!
//! A sampled run of a program that retires `T` instructions with `N`
//! checkpoints and window size `M`:
//!
//! 1. **Plan** ([`SampledPlan::build`]): one functional pass
//!    ([`count_insts`]) counts `T`, a second ([`capture_windows`])
//!    captures a [`Checkpoint`] at the start of each segment. Segment
//!    `i` covers instructions `[⌊iT/N⌋, ⌊(i+1)T/N⌋)` — segment lengths
//!    differ by at most one instruction and sum exactly to `T`.
//! 2. **Measure** ([`run_window`]): each checkpoint restores into a
//!    detailed simulator, optionally runs a detailed warm-up of `W`
//!    instructions (functional fast-forward leaves caches and predictors
//!    cold — the classic sampled-simulation cold-start bias), resets
//!    statistics, then runs detailed until `min(M, segment)` further
//!    instructions commit. Windows are independent: they can run on any
//!    worker in any order.
//! 3. **Stitch** ([`stitch_reports`]): each window's measured rate is
//!    taken as representative of its whole segment. With window `i`
//!    measuring `m_i` committed instructions in `c_i` cycles over a
//!    segment of `s_i` instructions,
//!
//!    ```text
//!    estimated segment cycles  ĉ_i = c_i · s_i / m_i
//!    whole-program cycles      C   = Σ ĉ_i        (IPC = T / C)
//!    event counts (squashes …)     = Σ count_i · s_i / m_i
//!    rates (hit rate, accuracy …)  = Σ rate_i · s_i / T
//!    ```
//!
//!    All sums run in window order with `f64` accumulators, so a
//!    stitched report is deterministic for a given set of window
//!    reports.

use crate::checkpoint::Checkpoint;
use crate::sim::{Report, Simulator};
use condspec_isa::Program;
use condspec_pipeline::{ExitReason, FunctionalExit};
use std::sync::Arc;

/// Default number of checkpoints (detailed windows) in a sampled run.
pub const DEFAULT_CHECKPOINTS: usize = 8;

/// Default detailed-window length in instructions.
pub const DEFAULT_WINDOW: u64 = 1_000_000;

/// Knobs of a sampled run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SampledOptions {
    /// Number of evenly spaced checkpoints / detailed windows.
    pub checkpoints: usize,
    /// Detailed instructions measured per window (clamped to the
    /// segment length).
    pub window: u64,
    /// Detailed instructions run before each window's statistics reset,
    /// to warm caches and predictors out of the functional cold start.
    /// Warm-up instructions count against the segment: a window measures
    /// `min(window, segment - warmup)` instructions.
    pub warmup: u64,
    /// Cycle budget per detailed window (warm-up and measurement
    /// together).
    pub max_cycles: u64,
    /// Instruction budget for each functional pass (a functional pass
    /// that fails to halt within this budget is a harness bug).
    pub max_insts: u64,
}

impl Default for SampledOptions {
    fn default() -> Self {
        SampledOptions {
            checkpoints: DEFAULT_CHECKPOINTS,
            window: DEFAULT_WINDOW,
            warmup: DEFAULT_WINDOW / 10,
            max_cycles: 200_000_000,
            max_insts: 10_000_000_000,
        }
    }
}

/// One planned measurement window: where it sits on the instruction
/// axis and the checkpoint that starts it.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowPlan {
    /// Window number, `0..checkpoints`.
    pub index: usize,
    /// First instruction of the segment this window represents.
    pub start_inst: u64,
    /// Instructions in the segment (`⌊(i+1)T/N⌋ − ⌊iT/N⌋`).
    pub segment_len: u64,
    /// Captured state at `start_inst`.
    pub checkpoint: Checkpoint,
}

/// The full plan of a sampled run: the program's total instruction
/// count and every window's checkpoint.
#[derive(Debug, Clone, PartialEq)]
pub struct SampledPlan {
    /// Whole-program retired-instruction count `T`.
    pub total_insts: u64,
    /// Planned windows in segment order.
    pub windows: Vec<WindowPlan>,
}

impl SampledPlan {
    /// Builds the plan with two functional passes over `program` on
    /// `sim`: [`count_insts`] fixes the whole-program count, then
    /// [`capture_windows`] captures every segment's checkpoint. When the
    /// program retires fewer instructions than `opts.checkpoints`, the
    /// plan holds one window per instruction instead.
    ///
    /// # Errors
    ///
    /// Fails when `opts.checkpoints` is zero, the program retires no
    /// instructions, or a functional pass exits without halting
    /// (fetch fault or `opts.max_insts` exhausted).
    pub fn build(
        sim: &mut Simulator,
        program: &Arc<Program>,
        workload: &str,
        opts: &SampledOptions,
    ) -> Result<SampledPlan, String> {
        let total = count_insts(sim, program, opts)?;
        let count = plan_segments(total, opts.checkpoints).len();
        let windows = capture_windows(sim, program, workload, total, opts, 0..count)?;
        Ok(SampledPlan {
            total_insts: total,
            windows,
        })
    }

    /// Measures every planned window on `sim`, in index order, and
    /// stitches them into a whole-program estimate.
    ///
    /// # Errors
    ///
    /// Propagates the first window failure (see [`run_window`]).
    pub fn run(
        &self,
        sim: &mut Simulator,
        program: &Arc<Program>,
        opts: &SampledOptions,
    ) -> Result<SampledReport, String> {
        let windows = self
            .windows
            .iter()
            .map(|window| run_window(sim, window, program, opts))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(SampledReport {
            total_insts: self.total_insts,
            report: stitch_reports(self.total_insts, &windows),
            windows,
        })
    }
}

/// The count pass: cold-resets `sim`, runs `program` functionally to
/// its halt and returns the retired-instruction count `T` that fixes
/// the segment grid.
///
/// # Errors
///
/// Fails when `opts.checkpoints` is zero, the program retires no
/// instructions, or the pass exits without halting (fetch fault or
/// `opts.max_insts` exhausted).
pub fn count_insts(
    sim: &mut Simulator,
    program: &Arc<Program>,
    opts: &SampledOptions,
) -> Result<u64, String> {
    if opts.checkpoints == 0 {
        return Err("a sampled run needs at least one checkpoint".to_string());
    }
    sim.reset_in_place(*sim.config());
    sim.load_program(Arc::clone(program));
    let count = sim.run_functional(opts.max_insts)?;
    if count.exit != FunctionalExit::Halted {
        return Err(format!(
            "functional count pass exited {:?} after {} instructions",
            count.exit, count.retired
        ));
    }
    if count.retired == 0 {
        return Err("program retires no instructions".to_string());
    }
    Ok(count.retired)
}

/// The capture pass: cold-resets `sim` and runs `program` functionally
/// through the segment grid of a `total_insts`-instruction run,
/// capturing the checkpoint of each window in `indices` and stopping at
/// the start of the last one. `indices` must ascend.
///
/// # Errors
///
/// Fails when an index lies outside the grid (which can have fewer than
/// `opts.checkpoints` segments for very short programs) or behind the
/// previous one, or when the program halts before a window's start.
pub fn capture_windows(
    sim: &mut Simulator,
    program: &Arc<Program>,
    workload: &str,
    total_insts: u64,
    opts: &SampledOptions,
    indices: impl IntoIterator<Item = usize>,
) -> Result<Vec<WindowPlan>, String> {
    let segments = plan_segments(total_insts, opts.checkpoints);
    sim.reset_in_place(*sim.config());
    sim.load_program(Arc::clone(program));
    let mut windows = Vec::new();
    let mut position = 0u64;
    for index in indices {
        let &(start_inst, segment_len) = segments.get(index).ok_or_else(|| {
            format!(
                "window index {index} out of range: the run has {} segments",
                segments.len()
            )
        })?;
        let advance = start_inst
            .checked_sub(position)
            .ok_or_else(|| format!("window {index} lies behind the capture pass"))?;
        if advance > 0 {
            let step = sim.run_functional(advance)?;
            if step.retired != advance {
                return Err(format!(
                    "functional capture pass retired {} of {advance} instructions",
                    step.retired
                ));
            }
            position = start_inst;
        }
        windows.push(WindowPlan {
            index,
            start_inst,
            segment_len,
            checkpoint: sim.capture_checkpoint(workload, start_inst),
        });
    }
    Ok(windows)
}

/// Plans a single window of a sampled run without capturing the other
/// `count − 1` checkpoints: [`count_insts`], then a capture pass that
/// ends at the window's segment start. Returns the whole-program
/// instruction count alongside the plan. This is the path of a window
/// job run on its own, with no sampled-run orchestrator to hand it a
/// checkpoint.
///
/// # Errors
///
/// Fails for the same reasons as [`SampledPlan::build`], and when
/// `index` is outside the planned segment grid (which can have fewer
/// than `opts.checkpoints` segments for very short programs).
pub fn plan_one_window(
    sim: &mut Simulator,
    program: &Arc<Program>,
    workload: &str,
    opts: &SampledOptions,
    index: usize,
) -> Result<(u64, WindowPlan), String> {
    let total = count_insts(sim, program, opts)?;
    let mut windows = capture_windows(sim, program, workload, total, opts, [index])?;
    Ok((total, windows.pop().expect("one index captures one window")))
}

/// Splits `total` instructions into `count` contiguous `(start, len)`
/// segments with `start_i = ⌊i·total/count⌋`. Lengths sum exactly to
/// `total`; when `total < count` the segment count drops to `total` so
/// every segment is non-empty.
pub fn plan_segments(total: u64, count: usize) -> Vec<(u64, u64)> {
    let count = (count as u64).min(total).max(1);
    (0..count)
        .map(|i| {
            let start = i * total / count;
            let end = (i + 1) * total / count;
            (start, end - start)
        })
        .collect()
}

/// One measured window, ready for stitching.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowReport {
    /// Window number.
    pub index: usize,
    /// First instruction of the represented segment.
    pub start_inst: u64,
    /// Instructions in the represented segment.
    pub segment_len: u64,
    /// The window's detailed measurement (its `committed` field is the
    /// measured instruction count `m_i`).
    pub report: Report,
}

/// Runs one planned window on `sim`: restore the checkpoint, detailed
/// warm-up, statistics reset, detailed measurement of
/// `min(window, segment − warmup)` instructions.
///
/// # Errors
///
/// Fails on a machine-preset mismatch, when the window exhausts
/// `opts.max_cycles`, or when the detailed model deadlocks.
pub fn run_window(
    sim: &mut Simulator,
    plan: &WindowPlan,
    program: &Arc<Program>,
    opts: &SampledOptions,
) -> Result<WindowReport, String> {
    sim.restore_checkpoint(&plan.checkpoint, Arc::clone(program))?;
    let mut warmup = opts.warmup.min(plan.segment_len.saturating_sub(1));
    if warmup > 0 {
        let r = sim.run_until_committed(warmup, opts.max_cycles);
        if r.exit == ExitReason::Halted {
            // Commit happens a full width per cycle, so the warm-up can
            // overshoot its goal and swallow a tiny final segment whole,
            // halting with nothing left to measure. Measure the segment
            // from the checkpoint instead: a degenerate tail is better
            // sampled without warm-up than not at all.
            sim.restore_checkpoint(&plan.checkpoint, Arc::clone(program))?;
            warmup = 0;
        } else if r.exit != ExitReason::CommitLimit {
            return Err(format!("window {} warm-up exited {:?}", plan.index, r.exit));
        }
    }
    sim.reset_stats();
    let target = opts.window.min(plan.segment_len - warmup).max(1);
    let r = sim.run_until_committed(target, opts.max_cycles);
    if r.exit != ExitReason::CommitLimit && r.exit != ExitReason::Halted {
        return Err(format!("window {} exited {:?}", plan.index, r.exit));
    }
    let report = sim.report();
    if report.committed == 0 {
        return Err(format!("window {} measured no instructions", plan.index));
    }
    Ok(WindowReport {
        index: plan.index,
        start_inst: plan.start_inst,
        segment_len: plan.segment_len,
        report,
    })
}

/// Stitches per-window measurements into a whole-program [`Report`]
/// using the weighting documented in the module header. `windows` must
/// be non-empty with non-zero `committed` counts (guaranteed by
/// [`run_window`]); ordering does not change the estimate but does fix
/// the floating-point accumulation order, so callers pass windows in
/// index order for byte-stable artifacts.
pub fn stitch_reports(total_insts: u64, windows: &[WindowReport]) -> Report {
    assert!(!windows.is_empty(), "cannot stitch zero windows");
    let total = total_insts as f64;
    let mut cycles = 0.0f64;
    let scaled = |f: fn(&Report) -> u64| -> u64 {
        let sum: f64 = windows
            .iter()
            .map(|w| f(&w.report) as f64 * w.segment_len as f64 / w.report.committed as f64)
            .sum();
        sum.round() as u64
    };
    let weighted = |f: fn(&Report) -> f64| -> f64 {
        windows
            .iter()
            .map(|w| f(&w.report) * w.segment_len as f64 / total)
            .sum()
    };
    for w in windows {
        cycles += w.report.cycles as f64 * w.segment_len as f64 / w.report.committed as f64;
    }
    Report {
        defense: windows[0].report.defense,
        cycles: cycles.round() as u64,
        committed: total_insts,
        ipc: total / cycles,
        l1d_hit_rate: weighted(|r| r.l1d_hit_rate),
        blocked_rate: weighted(|r| r.blocked_rate),
        suspect_hit_rate: weighted(|r| r.suspect_hit_rate),
        s_pattern_mismatch_rate: weighted(|r| r.s_pattern_mismatch_rate),
        branch_accuracy: weighted(|r| r.branch_accuracy),
        mispredict_squashes: scaled(|r| r.mispredict_squashes),
        block_events: scaled(|r| r.block_events),
        violation_squashes: scaled(|r| r.violation_squashes),
        squashed_insts: scaled(|r| r.squashed_insts),
        icache_fetch_stalls: scaled(|r| r.icache_fetch_stalls),
        avg_rob_occupancy: weighted(|r| r.avg_rob_occupancy),
        avg_iq_occupancy: weighted(|r| r.avg_iq_occupancy),
        // Leak totals are event counts, not rates; extrapolating them
        // from sampled windows would be meaningless.
        leaks: None,
    }
}

/// The result of a serial sampled run.
#[derive(Debug, Clone, PartialEq)]
pub struct SampledReport {
    /// Whole-program retired-instruction count.
    pub total_insts: u64,
    /// The stitched whole-program estimate.
    pub report: Report,
    /// Per-window measurements, in index order.
    pub windows: Vec<WindowReport>,
}

/// Plans and runs a complete sampled simulation of `program` on `sim`,
/// serially (the sweep engine runs the same windows on its worker
/// pool instead). The simulator is cold-reset; its configuration
/// supplies the machine and defense.
///
/// # Errors
///
/// Propagates planning and window failures.
pub fn run_sampled(
    sim: &mut Simulator,
    program: &Arc<Program>,
    workload: &str,
    opts: &SampledOptions,
) -> Result<SampledReport, String> {
    SampledPlan::build(sim, program, workload, opts)?.run(sim, program, opts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{DefenseConfig, SimConfig};
    use condspec_isa::{AluOp, BranchCond, ProgramBuilder, Reg};

    fn counting_program(iters: u64) -> Arc<Program> {
        let mut b = ProgramBuilder::new(0x1000);
        b.li(Reg::R1, 0);
        b.li(Reg::R2, iters);
        b.label("loop").unwrap();
        b.alu_imm(AluOp::Add, Reg::R1, Reg::R1, 1);
        b.branch_to(BranchCond::LtU, Reg::R1, Reg::R2, "loop");
        b.halt();
        Arc::new(b.build().unwrap())
    }

    #[test]
    fn segments_cover_exactly() {
        for (total, count) in [(10u64, 3usize), (100, 8), (7, 7), (5, 16), (1, 4)] {
            let segs = plan_segments(total, count);
            assert_eq!(segs[0].0, 0);
            assert_eq!(segs.iter().map(|s| s.1).sum::<u64>(), total);
            let mut expect = 0;
            for &(start, len) in &segs {
                assert_eq!(start, expect, "contiguous");
                assert!(len > 0, "non-empty");
                expect = start + len;
            }
            assert_eq!(expect, total);
        }
    }

    #[test]
    fn plan_checkpoints_sit_on_segment_starts() {
        let mut sim = Simulator::new(SimConfig::new(DefenseConfig::Baseline));
        let program = counting_program(500);
        let opts = SampledOptions {
            checkpoints: 4,
            ..SampledOptions::default()
        };
        let plan = SampledPlan::build(&mut sim, &program, "counting", &opts).unwrap();
        assert_eq!(plan.total_insts, 3 + 500 * 2); // li,li,halt + 2/iter
        assert_eq!(plan.windows.len(), 4);
        for w in &plan.windows {
            assert_eq!(w.checkpoint.inst_index, w.start_inst);
            assert_eq!(w.checkpoint.workload, "counting");
        }
        assert_eq!(plan.windows[0].start_inst, 0);
    }

    #[test]
    fn plan_one_window_matches_the_full_plan() {
        let mut sim = Simulator::new(SimConfig::new(DefenseConfig::CacheHit));
        let program = counting_program(400);
        let opts = SampledOptions {
            checkpoints: 3,
            ..SampledOptions::default()
        };
        let full = SampledPlan::build(&mut sim, &program, "counting", &opts).unwrap();
        for index in 0..full.windows.len() {
            let (total, window) =
                plan_one_window(&mut sim, &program, "counting", &opts, index).unwrap();
            assert_eq!(total, full.total_insts);
            assert_eq!(window, full.windows[index]);
        }
        assert!(
            plan_one_window(&mut sim, &program, "counting", &opts, full.windows.len())
                .unwrap_err()
                .contains("out of range")
        );
    }

    #[test]
    fn capturing_some_windows_matches_the_full_plan() {
        let mut sim = Simulator::new(SimConfig::new(DefenseConfig::Origin));
        let program = counting_program(400);
        let opts = SampledOptions {
            checkpoints: 4,
            ..SampledOptions::default()
        };
        let full = SampledPlan::build(&mut sim, &program, "counting", &opts).unwrap();
        let total = full.total_insts;
        let some = capture_windows(&mut sim, &program, "counting", total, &opts, [1, 3]).unwrap();
        assert_eq!(some, [full.windows[1].clone(), full.windows[3].clone()]);
        assert!(
            capture_windows(&mut sim, &program, "counting", total, &opts, [2, 1])
                .unwrap_err()
                .contains("behind the capture pass")
        );
    }

    #[test]
    fn sampled_estimate_tracks_detailed_run() {
        let program = counting_program(4_000);
        let config = SimConfig::new(DefenseConfig::CacheHitTpbuf);

        let mut detailed = Simulator::new(config);
        detailed.load_program(Arc::clone(&program));
        detailed.run(10_000_000);
        let full = detailed.report();

        let mut sim = Simulator::new(config);
        let opts = SampledOptions {
            checkpoints: 4,
            window: 500,
            warmup: 100,
            ..SampledOptions::default()
        };
        let sampled = run_sampled(&mut sim, &program, "counting", &opts).unwrap();

        assert_eq!(sampled.total_insts, full.committed);
        assert_eq!(sampled.report.committed, full.committed);
        let err = (sampled.report.ipc - full.ipc).abs() / full.ipc;
        assert!(
            err < 0.15,
            "sampled IPC {:.3} vs detailed {:.3} (err {err:.3})",
            sampled.report.ipc,
            full.ipc
        );
    }

    #[test]
    fn sampled_runs_are_deterministic() {
        let program = counting_program(1_000);
        let opts = SampledOptions {
            checkpoints: 3,
            window: 300,
            warmup: 50,
            ..SampledOptions::default()
        };
        let config = SimConfig::new(DefenseConfig::CacheHit);
        let mut a = Simulator::new(config);
        let mut b = Simulator::new(config);
        let ra = run_sampled(&mut a, &program, "counting", &opts).unwrap();
        let rb = run_sampled(&mut b, &program, "counting", &opts).unwrap();
        assert_eq!(ra, rb);
    }

    #[test]
    fn stitching_a_single_full_window_is_exact() {
        // One window covering the whole program, no warm-up: the
        // stitched report's cycles/IPC must equal the window's own.
        let program = counting_program(200);
        let mut sim = Simulator::new(SimConfig::new(DefenseConfig::Baseline));
        let opts = SampledOptions {
            checkpoints: 1,
            window: u64::MAX,
            warmup: 0,
            ..SampledOptions::default()
        };
        let sampled = run_sampled(&mut sim, &program, "counting", &opts).unwrap();
        assert_eq!(sampled.windows.len(), 1);
        let w = &sampled.windows[0].report;
        assert_eq!(sampled.report.cycles, w.cycles);
        assert_eq!(w.committed, sampled.total_insts);
        assert!((sampled.report.ipc - w.ipc).abs() < 1e-12);
    }

    #[test]
    fn zero_checkpoints_is_rejected() {
        let mut sim = Simulator::new(SimConfig::new(DefenseConfig::Baseline));
        let opts = SampledOptions {
            checkpoints: 0,
            ..SampledOptions::default()
        };
        assert!(SampledPlan::build(&mut sim, &counting_program(10), "c", &opts).is_err());
    }
}
