//! Simulation checkpoints.
//!
//! A [`Checkpoint`] wraps a quiesced-boundary
//! [`CoreSnapshot`](condspec_pipeline::CoreSnapshot) together with the
//! identity needed to restore it safely: the machine preset it was
//! captured on, the workload it belongs to, and the count of
//! instructions retired before the capture point.
//!
//! Checkpoints live in memory only. A sampled run captures them in one
//! functional pass and restores each into the detailed simulator that
//! measures its window, within one process; a window job that has no
//! checkpoint handed to it recomputes its own. Nothing persists or
//! parses them.

use condspec_pipeline::CoreSnapshot;

/// A restorable simulator checkpoint: capture identity plus the full
/// quiesced-core state.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Machine-preset name the snapshot was captured on (restore
    /// refuses a mismatch — cache/predictor geometry must agree).
    pub machine: String,
    /// Workload identity (benchmark name or program label).
    pub workload: String,
    /// Instructions retired before this capture point (the checkpoint's
    /// position on the whole-program instruction axis).
    pub inst_index: u64,
    /// The captured core state.
    pub snapshot: CoreSnapshot,
}
