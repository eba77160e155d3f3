#![warn(missing_docs)]

//! **Conditional Speculation** — a Rust reproduction of the HPCA 2019
//! hardware defense against Spectre attacks (Li, Zhao, Hou, Zhang, Meng).
//!
//! The paper's idea: introduce *security dependence* — a memory
//! instruction is security-dependent on an older, still-unresolved branch
//! or memory instruction, because executing it speculatively could leak
//! through the cache. Such instructions get a *suspect speculation* flag
//! from an N×N [`matrix::SecurityDependenceMatrix`] in the Issue Queue.
//! Suspect instructions still issue, but two filters decide whether their
//! execution is safe:
//!
//! * the **Cache-hit filter**: a suspect load that *hits* L1D changes no
//!   cache content — safe. A suspect miss is cancelled and waits for its
//!   dependences.
//! * the **TPBuf filter** ([`tpbuf::TpBuf`]): a suspect miss is safe
//!   unless it completes the *S-Pattern* — an older in-flight suspect
//!   access to a *different physical page* whose data is already
//!   available (the "read secret, then transmit through a shared page"
//!   shape every shared-memory Spectre gadget has).
//!
//! This crate implements the defense ([`defense::ConditionalSpeculation`])
//! as a [`condspec_pipeline::SecurityPolicy`] and provides the top-level
//! [`Simulator`] with the paper's machine presets.
//!
//! # Quick start
//!
//! ```
//! use condspec::{Simulator, SimConfig, DefenseConfig};
//! use condspec_isa::{ProgramBuilder, Reg, AluOp, BranchCond};
//!
//! # fn main() -> Result<(), condspec_isa::BuildError> {
//! // Build a machine with the full defense.
//! let mut sim = Simulator::new(SimConfig::new(DefenseConfig::CacheHitTpbuf));
//!
//! // Assemble and run a program.
//! let mut b = ProgramBuilder::new(0x1000);
//! b.li(Reg::R1, 0);
//! b.li(Reg::R2, 1000);
//! b.label("loop")?;
//! b.alu_imm(AluOp::Add, Reg::R1, Reg::R1, 1);
//! b.branch_to(BranchCond::LtU, Reg::R1, Reg::R2, "loop");
//! b.halt();
//! sim.run_to_halt(&std::sync::Arc::new(b.build()?), 1_000_000);
//!
//! let report = sim.report();
//! println!("{} IPC = {:.2}", report.defense, report.ipc);
//! # Ok(())
//! # }
//! ```

pub mod checkpoint;
pub mod config;
pub mod defense;
pub mod matrix;
pub mod sampled;
pub mod sim;
pub mod tpbuf;

pub use checkpoint::Checkpoint;
pub use config::{DefenseConfig, MachineConfig, SimConfig};
pub use defense::{ConditionalSpeculation, DependenceKinds, FilterMode, LruPolicy};
pub use matrix::SecurityDependenceMatrix;
pub use sampled::{
    capture_windows, count_insts, plan_one_window, plan_segments, run_sampled, run_window,
    stitch_reports, SampledOptions, SampledPlan, SampledReport, WindowPlan, WindowReport,
    DEFAULT_CHECKPOINTS, DEFAULT_WINDOW,
};
pub use sim::{leak_report_from_json, leak_report_to_json, Report, Simulator};
pub use tpbuf::TpBuf;

// Re-export the commonly paired pipeline types so downstream crates can
// depend on `condspec` alone for most uses.
pub use condspec_pipeline::{
    run_timeseries, ExitReason, FunctionalExit, FunctionalResult, RunResult,
};
