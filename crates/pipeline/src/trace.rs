//! Optional pipeline event tracing.
//!
//! Tracing is off by default (zero cost beyond a branch per event site);
//! [`crate::Core::enable_trace`] turns it on with a bounded buffer, after
//! which every significant pipeline event is recorded and can be
//! inspected, printed, or exported to Chrome trace-event JSON (see
//! [`crate::perfetto`]). Intended for debugging gadgets, workloads and
//! the defense itself — e.g. watching exactly which speculative load gets
//! blocked, by which hazard filter, and when it replays.
//!
//! The buffer is the core's one event stream. With the taint oracle on
//! ([`crate::Core::enable_taint`]) it also carries the security verdict:
//! the oracle writes each [`TraceEvent::Leak`] into it when the leaking
//! instruction commits or is squashed, right after the `Commit` or
//! `Squash` event that resolved it (or when a program reload abandons
//! it). Leaks carry their execute cycle, so they are the one kind whose
//! `cycle` may precede the event before it.
//!
//! Every event carries the simulated cycle it happened on — never
//! wall-clock time — so traces of the same program are bit-identical
//! across runs and hosts.

use crate::policy::BlockFilter;
use std::collections::VecDeque;
use std::fmt;

/// Why a squash happened.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SquashCause {
    /// A branch (or return) resolved against its prediction.
    Mispredict,
    /// A memory-order violation: a store's address resolved under an
    /// already-executed younger load to the same bytes.
    MemOrder,
    /// A deliberate pipeline drain ([`Core::quiesce`]): all speculative
    /// work is discarded so the core reaches a checkpointable
    /// architectural boundary. The squashed instructions re-execute when
    /// the core resumes.
    ///
    /// [`Core::quiesce`]: crate::Core::quiesce
    Quiesce,
}

impl SquashCause {
    /// A stable machine-readable label (used by the trace exporters).
    pub fn label(&self) -> &'static str {
        match self {
            SquashCause::Mispredict => "mispredict",
            SquashCause::MemOrder => "mem-order",
            SquashCause::Quiesce => "quiesce",
        }
    }
}

impl fmt::Display for SquashCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Which persistent microarchitectural structure a tainted value
/// influenced (the taint oracle's channel taxonomy).
///
/// The cache channels are the paper's threat model; the TLB and TPBuf
/// channels are its admitted blind spots — structures the defenses
/// update before their block decision, so secret-dependent state can
/// persist even on a protected core.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LeakChannel {
    /// A line fill brought a secret-selected address into the cache
    /// hierarchy.
    CacheFill,
    /// A hit on a secret-selected address updated cache replacement
    /// (LRU) state.
    CacheLru,
    /// A translation of a secret-selected address installed a TLB entry.
    TlbFill,
    /// A secret-selected page number was recorded in the TPBuf.
    TpbufInsert,
}

impl LeakChannel {
    /// All channels, in report order (cache channels first).
    pub const ALL: [LeakChannel; 4] = [
        LeakChannel::CacheFill,
        LeakChannel::CacheLru,
        LeakChannel::TlbFill,
        LeakChannel::TpbufInsert,
    ];

    /// A stable machine-readable key (metrics names, JSON fields).
    pub fn key(&self) -> &'static str {
        match self {
            LeakChannel::CacheFill => "cache-fill",
            LeakChannel::CacheLru => "cache-lru",
            LeakChannel::TlbFill => "tlb-fill",
            LeakChannel::TpbufInsert => "tpbuf-insert",
        }
    }

    /// Whether this channel is part of the paper's cache-based threat
    /// model (as opposed to an admitted blind spot).
    pub fn is_cache(&self) -> bool {
        matches!(self, LeakChannel::CacheFill | LeakChannel::CacheLru)
    }
}

impl fmt::Display for LeakChannel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.key())
    }
}

/// One recorded pipeline event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// An instruction entered the ROB/IQ.
    Dispatch {
        /// Cycle of the event.
        cycle: u64,
        /// Global sequence number.
        seq: u64,
        /// The instruction's PC.
        pc: u64,
    },
    /// An instruction was selected for issue.
    Issue {
        /// Cycle of the event.
        cycle: u64,
        /// Global sequence number.
        seq: u64,
        /// Whether it carried the suspect speculation flag.
        suspect: bool,
    },
    /// A hazard filter blocked a memory access.
    Block {
        /// Cycle of the event.
        cycle: u64,
        /// Global sequence number.
        seq: u64,
        /// Which hazard mechanism made the decision.
        filter: BlockFilter,
        /// The load's effective (virtual) address.
        vaddr: u64,
        /// The page of the access: the *physical* page for security
        /// filters (post-translation), the *virtual* page for store
        /// hazards (translation has not happened yet).
        page: u64,
    },
    /// A suspect L1D miss was checked against the TPBuf S-Pattern.
    TpbufProbe {
        /// Cycle of the event.
        cycle: u64,
        /// Global sequence number of the probing load.
        seq: u64,
        /// Physical page number looked up.
        page: u64,
        /// Whether the page matched the S-Pattern (matched ⇒ blocked).
        matched: bool,
    },
    /// An instruction entered the Issue Queue with at least one security
    /// dependence: its row of the security dependence matrix is
    /// non-empty (paper §III).
    MatrixSet {
        /// Cycle of the event.
        cycle: u64,
        /// Global sequence number.
        seq: u64,
        /// IQ slot (matrix row index).
        slot: usize,
    },
    /// A blocked instruction's security dependences all cleared: its
    /// matrix row drained and it may re-issue.
    MatrixClear {
        /// Cycle of the event.
        cycle: u64,
        /// Global sequence number.
        seq: u64,
        /// IQ slot (matrix row index).
        slot: usize,
    },
    /// A memory instruction was held at issue by an older pending fence.
    FenceHold {
        /// Cycle of the event.
        cycle: u64,
        /// Global sequence number of the held instruction.
        seq: u64,
    },
    /// An instruction's result became available.
    Complete {
        /// Cycle of the event.
        cycle: u64,
        /// Global sequence number.
        seq: u64,
    },
    /// An instruction retired.
    Commit {
        /// Cycle of the event.
        cycle: u64,
        /// Global sequence number.
        seq: u64,
        /// The instruction's PC.
        pc: u64,
    },
    /// Speculation was squashed.
    Squash {
        /// Cycle of the event.
        cycle: u64,
        /// Youngest surviving sequence number.
        keep_seq: u64,
        /// Where fetch was redirected.
        redirect_pc: u64,
        /// Why the squash happened.
        cause: SquashCause,
    },
    /// The scheduler proved the next `skipped` cycles dead and jumped
    /// over them. `cycle` is the cycle the window *starts* at; the next
    /// event happens at `cycle + skipped` or later.
    FastForward {
        /// First skipped cycle.
        cycle: u64,
        /// Number of cycles skipped.
        skipped: u64,
    },
    /// The taint oracle observed a tainted value influencing persistent
    /// microarchitectural state. `cycle` is when the state changed (the
    /// fill/update cycle); `survived_squash` is resolved retroactively —
    /// the event is emitted once the leaking instruction either commits
    /// (`false`) or is squashed with the state change left behind
    /// (`true`, the Spectre signature).
    Leak {
        /// Cycle the persistent state changed.
        cycle: u64,
        /// Global sequence number of the leaking instruction.
        seq: u64,
        /// Which persistent structure was influenced.
        channel: LeakChannel,
        /// The tainted physical address (page-granular channels record
        /// the page base).
        addr: u64,
        /// Whether the leaking instruction was later squashed, leaving
        /// the state change behind as a wrong-path side effect.
        survived_squash: bool,
    },
}

impl TraceEvent {
    /// The cycle the event happened.
    pub fn cycle(&self) -> u64 {
        match self {
            TraceEvent::Dispatch { cycle, .. }
            | TraceEvent::Issue { cycle, .. }
            | TraceEvent::Block { cycle, .. }
            | TraceEvent::TpbufProbe { cycle, .. }
            | TraceEvent::MatrixSet { cycle, .. }
            | TraceEvent::MatrixClear { cycle, .. }
            | TraceEvent::FenceHold { cycle, .. }
            | TraceEvent::Complete { cycle, .. }
            | TraceEvent::Commit { cycle, .. }
            | TraceEvent::Squash { cycle, .. }
            | TraceEvent::FastForward { cycle, .. }
            | TraceEvent::Leak { cycle, .. } => *cycle,
        }
    }

    /// A stable category tag grouping related events (mirrors the
    /// exporter's track assignment and the paper's structure: `security`
    /// is §III's dependence matrix, `memory` is §IV's filters).
    pub fn category(&self) -> &'static str {
        match self {
            TraceEvent::Dispatch { .. }
            | TraceEvent::Issue { .. }
            | TraceEvent::Complete { .. }
            | TraceEvent::Commit { .. } => "pipeline",
            TraceEvent::Block { .. } | TraceEvent::TpbufProbe { .. } => "memory",
            TraceEvent::MatrixSet { .. }
            | TraceEvent::MatrixClear { .. }
            | TraceEvent::FenceHold { .. } => "security",
            TraceEvent::Squash { .. } => "control",
            TraceEvent::FastForward { .. } => "scheduler",
            TraceEvent::Leak { .. } => "leak",
        }
    }
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceEvent::Dispatch { cycle, seq, pc } => {
                write!(f, "[{cycle:>8}] dispatch seq={seq} pc={pc:#x}")
            }
            TraceEvent::Issue {
                cycle,
                seq,
                suspect,
            } => {
                let flag = if *suspect { " SUSPECT" } else { "" };
                write!(f, "[{cycle:>8}] issue    seq={seq}{flag}")
            }
            TraceEvent::Block {
                cycle,
                seq,
                filter,
                vaddr,
                page,
            } => {
                write!(
                    f,
                    "[{cycle:>8}] BLOCK    seq={seq} filter={filter} vaddr={vaddr:#x} page={page:#x}"
                )
            }
            TraceEvent::TpbufProbe {
                cycle,
                seq,
                page,
                matched,
            } => {
                let verdict = if *matched { "match" } else { "mismatch" };
                write!(
                    f,
                    "[{cycle:>8}] tpbuf    seq={seq} page={page:#x} {verdict}"
                )
            }
            TraceEvent::MatrixSet { cycle, seq, slot } => {
                write!(f, "[{cycle:>8}] matrix+  seq={seq} slot={slot}")
            }
            TraceEvent::MatrixClear { cycle, seq, slot } => {
                write!(f, "[{cycle:>8}] matrix-  seq={seq} slot={slot}")
            }
            TraceEvent::FenceHold { cycle, seq } => {
                write!(f, "[{cycle:>8}] fence    seq={seq} held")
            }
            TraceEvent::Complete { cycle, seq } => {
                write!(f, "[{cycle:>8}] complete seq={seq}")
            }
            TraceEvent::Commit { cycle, seq, pc } => {
                write!(f, "[{cycle:>8}] commit   seq={seq} pc={pc:#x}")
            }
            TraceEvent::Squash {
                cycle,
                keep_seq,
                redirect_pc,
                cause,
            } => {
                write!(
                    f,
                    "[{cycle:>8}] SQUASH   cause={cause} keep<={keep_seq} redirect={redirect_pc:#x}"
                )
            }
            TraceEvent::FastForward { cycle, skipped } => {
                write!(f, "[{cycle:>8}] fastfwd  skipped={skipped}")
            }
            TraceEvent::Leak {
                cycle,
                seq,
                channel,
                addr,
                survived_squash,
            } => {
                let fate = if *survived_squash {
                    " survived-squash"
                } else {
                    ""
                };
                write!(
                    f,
                    "[{cycle:>8}] LEAK     seq={seq} channel={channel} addr={addr:#x}{fate}"
                )
            }
        }
    }
}

/// A bounded event buffer: when full, the oldest events are dropped.
#[derive(Debug, Clone, Default)]
pub struct TraceBuffer {
    events: VecDeque<TraceEvent>,
    capacity: usize,
    dropped: u64,
}

impl TraceBuffer {
    /// Creates a buffer holding at most `capacity` events.
    pub fn new(capacity: usize) -> Self {
        TraceBuffer {
            events: VecDeque::with_capacity(capacity.min(4096)),
            capacity,
            dropped: 0,
        }
    }

    /// Records one event.
    pub fn push(&mut self, event: TraceEvent) {
        if self.capacity == 0 {
            self.dropped += 1;
            return;
        }
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(event);
    }

    /// The recorded events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter()
    }

    /// Number of currently buffered events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing has been recorded (or everything was dropped).
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events dropped because the buffer was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Clears the buffer (keeps the capacity).
    pub fn clear(&mut self) {
        self.events.clear();
        self.dropped = 0;
    }
}

impl fmt::Display for TraceBuffer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for e in &self.events {
            writeln!(f, "{e}")?;
        }
        if self.dropped > 0 {
            writeln!(f, "... ({} earlier events dropped)", self.dropped)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_iterate_in_order() {
        let mut t = TraceBuffer::new(4);
        for seq in 0..3 {
            t.push(TraceEvent::Complete { cycle: seq, seq });
        }
        let cycles: Vec<u64> = t.events().map(|e| e.cycle()).collect();
        assert_eq!(cycles, vec![0, 1, 2]);
        assert_eq!(t.len(), 3);
        assert!(!t.is_empty());
    }

    #[test]
    fn overflow_drops_oldest() {
        let mut t = TraceBuffer::new(2);
        for seq in 0..5 {
            t.push(TraceEvent::Commit {
                cycle: seq,
                seq,
                pc: 0,
            });
        }
        assert_eq!(t.len(), 2);
        assert_eq!(t.dropped(), 3);
        let seqs: Vec<u64> = t
            .events()
            .map(|e| match e {
                TraceEvent::Commit { seq, .. } => *seq,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(seqs, vec![3, 4]);
    }

    #[test]
    fn display_formats() {
        let e = TraceEvent::Issue {
            cycle: 7,
            seq: 3,
            suspect: true,
        };
        assert!(e.to_string().contains("SUSPECT"));
        let e = TraceEvent::Squash {
            cycle: 9,
            keep_seq: 2,
            redirect_pc: 0x40,
            cause: SquashCause::Mispredict,
        };
        assert!(e.to_string().contains("0x40"));
        assert!(e.to_string().contains("mispredict"));
        let mut t = TraceBuffer::new(1);
        t.push(e);
        t.push(e);
        assert!(t.to_string().contains("dropped"));
    }

    #[test]
    fn block_event_carries_decision_context() {
        let e = TraceEvent::Block {
            cycle: 12,
            seq: 4,
            filter: BlockFilter::SPattern,
            vaddr: 0x8000_0040,
            page: 0x8000,
        };
        let s = e.to_string();
        assert!(s.contains("s-pattern"), "filter label in {s}");
        assert!(s.contains("0x80000040"), "effective address in {s}");
        assert!(s.contains("0x8000"), "page in {s}");
        assert_eq!(e.category(), "memory");
    }

    #[test]
    fn new_event_kinds_format_and_categorize() {
        let probe = TraceEvent::TpbufProbe {
            cycle: 5,
            seq: 9,
            page: 0x42,
            matched: false,
        };
        assert!(probe.to_string().contains("mismatch"));
        assert_eq!(probe.category(), "memory");

        let set = TraceEvent::MatrixSet {
            cycle: 1,
            seq: 2,
            slot: 3,
        };
        let clear = TraceEvent::MatrixClear {
            cycle: 2,
            seq: 2,
            slot: 3,
        };
        assert!(set.to_string().contains("matrix+"));
        assert!(clear.to_string().contains("matrix-"));
        assert_eq!(set.category(), "security");
        assert_eq!(clear.category(), "security");

        let hold = TraceEvent::FenceHold { cycle: 3, seq: 7 };
        assert!(hold.to_string().contains("held"));
        assert_eq!(hold.category(), "security");

        let ff = TraceEvent::FastForward {
            cycle: 100,
            skipped: 40,
        };
        assert!(ff.to_string().contains("skipped=40"));
        assert_eq!(ff.category(), "scheduler");
        assert_eq!(ff.cycle(), 100);
    }

    #[test]
    fn leak_event_formats_and_categorizes() {
        let survived = TraceEvent::Leak {
            cycle: 77,
            seq: 12,
            channel: LeakChannel::CacheFill,
            addr: 0x102a000,
            survived_squash: true,
        };
        let s = survived.to_string();
        assert!(s.contains("LEAK"), "{s}");
        assert!(s.contains("cache-fill"), "{s}");
        assert!(s.contains("0x102a000"), "{s}");
        assert!(s.contains("survived-squash"), "{s}");
        assert_eq!(survived.category(), "leak");
        assert_eq!(survived.cycle(), 77);

        let committed = TraceEvent::Leak {
            cycle: 5,
            seq: 3,
            channel: LeakChannel::TlbFill,
            addr: 0x1000,
            survived_squash: false,
        };
        assert!(!committed.to_string().contains("survived-squash"));
        assert!(committed.to_string().contains("tlb-fill"));
    }

    #[test]
    fn leak_channel_keys_are_stable_and_unique() {
        let keys: std::collections::HashSet<&str> =
            LeakChannel::ALL.iter().map(|c| c.key()).collect();
        assert_eq!(keys.len(), 4);
        assert!(LeakChannel::CacheFill.is_cache());
        assert!(LeakChannel::CacheLru.is_cache());
        assert!(!LeakChannel::TlbFill.is_cache());
        assert!(!LeakChannel::TpbufInsert.is_cache());
    }

    #[test]
    fn clear_resets() {
        let mut t = TraceBuffer::new(2);
        t.push(TraceEvent::Complete { cycle: 1, seq: 1 });
        t.clear();
        assert!(t.is_empty());
        assert_eq!(t.dropped(), 0);
    }
}
