#![warn(missing_docs)]

//! End-to-end Spectre attacks against the simulated machine, used for the
//! paper's security analysis (Table IV).
//!
//! An attack is: train the predictors, prepare the cache channel
//! (flush / evict / prime), trigger the victim with a malicious input,
//! and read the channel back. The verdict is whether the planted secret
//! byte was actually recovered — not a proxy metric.
//!
//! * [`channel`] — side-channel primitives (flush, evict, prime, probe,
//!   timed reload).
//! * [`spectre`] — the attack drivers: six channel scenarios (Table IV
//!   rows) and per-variant drivers (V1, V2, V4).
//!
//! # Examples
//!
//! ```
//! use condspec_attacks::{AttackScenario};
//! use condspec::DefenseConfig;
//!
//! // Flush+Reload on the unprotected core leaks the planted secret...
//! let outcome = AttackScenario::FlushReloadShared.run(DefenseConfig::Origin);
//! assert!(outcome.leaked());
//! // ...and the full defense stops it.
//! let outcome = AttackScenario::FlushReloadShared.run(DefenseConfig::CacheHitTpbuf);
//! assert!(!outcome.leaked());
//! ```

pub mod channel;
pub mod spectre;

pub use spectre::{
    leak_probe, leak_probe_on, run_variant, run_variant_on, traced_variant_round, AttackOutcome,
    AttackScenario, LeakProbeOutcome,
};
