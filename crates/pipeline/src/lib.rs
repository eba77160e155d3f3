#![warn(missing_docs)]

//! A cycle-level out-of-order processor model with genuine wrong-path
//! execution — the substrate the Conditional Speculation defense (HPCA
//! 2019) plugs into.
//!
//! The crate provides:
//!
//! * [`Core`] — fetch/rename/issue/execute/commit engine with ROB, issue
//!   queue, load/store queues, register renaming and squash recovery;
//! * [`CoreConfig`] — pipeline geometry (Table III's core by default);
//! * [`policy::SecurityPolicy`] — the extension point where the
//!   `condspec` crate installs the security dependence matrix, Cache-hit
//!   filter and TPBuf;
//! * building blocks ([`iq`], [`lsq`], [`rob`], [`regfile`]) that are unit
//!   tested independently.
//!
//! # Examples
//!
//! ```
//! use condspec_pipeline::Core;
//! use condspec_isa::{ProgramBuilder, Reg, AluOp, BranchCond};
//!
//! # fn main() -> Result<(), condspec_isa::BuildError> {
//! let mut core = Core::with_defaults();
//! let mut b = ProgramBuilder::new(0x1000);
//! b.li(Reg::R1, 0);
//! b.li(Reg::R2, 100);
//! b.label("loop")?;
//! b.alu_imm(AluOp::Add, Reg::R1, Reg::R1, 1);
//! b.branch_to(BranchCond::LtU, Reg::R1, Reg::R2, "loop");
//! b.halt();
//! core.load_program(std::sync::Arc::new(b.build()?));
//! let result = core.run(100_000);
//! assert_eq!(core.read_arch_reg(Reg::R1), 100);
//! println!("IPC = {:.2}", core.stats().ipc());
//! # Ok(())
//! # }
//! ```

pub(crate) mod bits;
pub mod core;
pub mod events;
pub mod iq;
pub mod lsq;
pub mod perfetto;
pub mod policy;
pub mod regfile;
pub mod rob;
pub mod sampler;
pub mod snapshot;
pub mod stats;
pub mod taint;
pub mod trace;

pub use crate::core::{Core, CoreConfig, ExitReason, FunctionalExit, FunctionalResult, RunResult};
pub use policy::{
    BlockFilter, DispatchInfo, InstClass, IqEntryView, MemAccessQuery, MemDecision, NullPolicy,
    PolicyStats, SecurityPolicy,
};
pub use sampler::{run_timeseries, SampleRow, TimeSeriesSampler, TIMESERIES_SCHEMA};
pub use snapshot::CoreSnapshot;
pub use stats::PipelineStats;
pub use taint::{LeakReport, TaintConfig, TaintOracle};
pub use trace::{LeakChannel, SquashCause, TraceBuffer, TraceEvent};
