//! Dynamic taint tracking: the speculative information-flow leak oracle.
//!
//! The oracle shadows the detailed pipeline with explicit information-flow
//! state: a taint bit per physical register and a taint bit per physical
//! memory byte. Secret ranges are declared up front via [`TaintConfig`];
//! taint then propagates through ALU results, load values (including
//! store-to-load forwarding from in-flight speculative stores) and store
//! data — critically, *also* through wrong-path instructions that are
//! later squashed, because that is exactly the flow a Spectre gadget
//! exploits.
//!
//! A **leak** is recorded whenever a tainted value influences
//! microarchitecturally *persistent* state, i.e. state a squash does not
//! roll back:
//!
//! * [`LeakChannel::CacheFill`] — a load with a tainted address misses L1D
//!   and fills a line (or a flush with a tainted address evicts one);
//! * [`LeakChannel::CacheLru`] — a tainted-address L1D hit promotes the
//!   line in the replacement order;
//! * [`LeakChannel::TlbFill`] — translating a tainted address walks the
//!   page table and installs a TLB entry;
//! * [`LeakChannel::TpbufInsert`] — a tainted address's page number is
//!   recorded in the TPBuf (the defense's own training structure).
//!
//! Each leak stays *pending* until the leaking instruction either commits
//! (`survived_squash = false`: the flow was architectural) or is squashed.
//! On a squash the cache and TLB channels resolve with
//! `survived_squash = true` — the planted state outlives the wrong path —
//! while TPBuf insertions resolve with `false` because the squash releases
//! the entry. Pending deferred-LRU updates are dropped on squash: the
//! touch they would have applied at commit never happens.
//!
//! The core hands its trace buffer to the resolving hooks
//! ([`TaintOracle::on_commit`], [`TaintOracle::on_squash`],
//! [`TaintOracle::on_program_load`]), and each resolved leak is written
//! into it as a [`TraceEvent::Leak`] on the spot, so leaks sit in the same
//! event stream as the pipeline events that caused them.
//!
//! Soundness caveats (see DESIGN.md §12): taint is byte-granular in
//! memory but whole-register in the register file, and store-to-load
//! forwarding is *conservative* — a clean forwarded store overlapping
//! tainted memory bytes does not mask their taint — so the oracle may
//! over-taint (false positives) but never under-taints along the modelled
//! channels. Channels outside the model (port contention, DRAM row
//! state) are not observed.

use crate::regfile::PhysReg;
use crate::trace::{LeakChannel, TraceBuffer, TraceEvent};
use std::collections::HashSet;

/// Declares which physical byte ranges hold secrets.
///
/// Ranges are half-open `[start, end)` *physical* addresses. Marking
/// happens when the oracle is installed and again after every program
/// load (data segments overwrite memory, clearing the taint of the bytes
/// they write, then the configured ranges are re-marked).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TaintConfig {
    /// Half-open `[start, end)` physical secret byte ranges.
    pub ranges: Vec<(u64, u64)>,
}

impl TaintConfig {
    /// A config tainting the `len` bytes starting at `start`.
    pub fn range(start: u64, len: u64) -> Self {
        TaintConfig {
            ranges: vec![(start, start + len)],
        }
    }
}

/// Aggregate leak counts per channel, split by squash fate.
///
/// `*_survived` counts leaks whose instruction was squashed while the
/// planted state persisted — the Spectre-relevant subset. The cache
/// channels are the paper's threat model; the TLB and TPBuf channels are
/// its admitted blind spots and are reported separately.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LeakReport {
    /// Cache content changes (fills, flush evictions) by tainted addresses.
    pub cache_fills: u64,
    /// Cache fills whose instruction was squashed (state survived).
    pub cache_fills_survived: u64,
    /// LRU promotions by tainted-address L1D hits.
    pub cache_lru: u64,
    /// LRU promotions whose instruction was squashed.
    pub cache_lru_survived: u64,
    /// TLB entries installed while translating tainted addresses.
    pub tlb_fills: u64,
    /// TLB fills whose instruction was squashed (the entry survives).
    pub tlb_fills_survived: u64,
    /// Tainted page numbers recorded in the TPBuf.
    pub tpbuf_inserts: u64,
    /// Always zero: a squash releases the TPBuf entry, so an insertion
    /// never survives. Kept for a uniform per-channel schema.
    pub tpbuf_inserts_survived: u64,
}

impl LeakReport {
    /// Total leak events across every channel.
    pub fn total(&self) -> u64 {
        self.cache_fills + self.cache_lru + self.tlb_fills + self.tpbuf_inserts
    }

    /// Squash-surviving leaks on the *cache* channels — the paper's
    /// threat model, and what the leak matrix counts.
    pub fn cache_survived(&self) -> u64 {
        self.cache_fills_survived + self.cache_lru_survived
    }

    /// Squash-surviving leaks on the blind-spot channels (TLB, TPBuf).
    pub fn blind_spot_survived(&self) -> u64 {
        self.tlb_fills_survived + self.tpbuf_inserts_survived
    }

    /// Total and survived counts for one channel.
    pub fn channel(&self, channel: LeakChannel) -> (u64, u64) {
        match channel {
            LeakChannel::CacheFill => (self.cache_fills, self.cache_fills_survived),
            LeakChannel::CacheLru => (self.cache_lru, self.cache_lru_survived),
            LeakChannel::TlbFill => (self.tlb_fills, self.tlb_fills_survived),
            LeakChannel::TpbufInsert => (self.tpbuf_inserts, self.tpbuf_inserts_survived),
        }
    }

    fn count(&mut self, channel: LeakChannel, survived: bool) {
        let (total, surv) = match channel {
            LeakChannel::CacheFill => (&mut self.cache_fills, &mut self.cache_fills_survived),
            LeakChannel::CacheLru => (&mut self.cache_lru, &mut self.cache_lru_survived),
            LeakChannel::TlbFill => (&mut self.tlb_fills, &mut self.tlb_fills_survived),
            LeakChannel::TpbufInsert => (&mut self.tpbuf_inserts, &mut self.tpbuf_inserts_survived),
        };
        *total += 1;
        if survived {
            *surv += 1;
        }
    }
}

/// One in-flight store's taint record (address resolved at execute, data
/// possibly later).
#[derive(Debug, Clone, Copy)]
struct StoreRec {
    seq: u64,
    vaddr: u64,
    size: u64,
    data_taint: bool,
    data_known: bool,
}

/// A leak observed at execute, awaiting its instruction's fate.
#[derive(Debug, Clone, Copy)]
struct PendingLeak {
    seq: u64,
    cycle: u64,
    channel: LeakChannel,
    addr: u64,
    /// The state change only happens at commit (deferred LRU, flush):
    /// on a squash this record is dropped instead of resolved.
    applies_at_commit: bool,
}

/// The taint-tracking leak oracle. Owned (boxed, optional) by the core;
/// every hook is a no-op costing one `Option` branch when disabled.
#[derive(Debug)]
pub struct TaintOracle {
    config: TaintConfig,
    /// One taint bit per physical register, indexed by [`PhysReg`].
    reg_taint: Vec<bool>,
    /// Tainted physical byte addresses.
    mem_taint: HashSet<u64>,
    /// In-flight stores (address resolved, not yet committed/squashed).
    stores: Vec<StoreRec>,
    /// Leaks awaiting commit/squash resolution.
    pending: Vec<PendingLeak>,
    report: LeakReport,
}

impl TaintOracle {
    /// Creates an oracle for a core with `phys_regs` physical registers
    /// and marks the configured secret ranges.
    pub fn new(phys_regs: usize, config: TaintConfig) -> Self {
        let mut oracle = TaintOracle {
            reg_taint: vec![false; phys_regs],
            mem_taint: HashSet::new(),
            stores: Vec::new(),
            pending: Vec::new(),
            report: LeakReport::default(),
            config,
        };
        oracle.mark_config_ranges();
        oracle
    }

    /// The installed configuration.
    pub fn config(&self) -> &TaintConfig {
        &self.config
    }

    /// The leak counts accumulated so far (pending leaks not included).
    pub fn report(&self) -> LeakReport {
        self.report
    }

    /// (Re-)marks every configured secret range as tainted.
    pub fn mark_config_ranges(&mut self) {
        for &(start, end) in &self.config.ranges {
            for paddr in start..end {
                self.mem_taint.insert(paddr);
            }
        }
    }

    /// Clears the taint of `len` bytes at `paddr` (a data segment or an
    /// external write overwrote them with known-clean values).
    pub fn clear_bytes(&mut self, paddr: u64, len: u64) {
        for a in paddr..paddr.saturating_add(len) {
            self.mem_taint.remove(&a);
        }
    }

    /// Program (re)load: unresolved pending leaks are flushed into
    /// `trace` as squash-surviving (their instructions will never commit,
    /// and the planted microarchitectural state persists across the
    /// load), then register and in-flight-store taint is cleared. The
    /// caller clears the bytes each data segment rewrites and then calls
    /// [`TaintOracle::mark_config_ranges`].
    pub fn on_program_load(&mut self, mut trace: Option<&mut TraceBuffer>) {
        let pending = std::mem::take(&mut self.pending);
        for p in pending {
            if !p.applies_at_commit {
                self.resolve(p, true, trace.as_deref_mut());
            }
        }
        self.reg_taint.iter_mut().for_each(|t| *t = false);
        self.stores.clear();
    }

    /// A fresh physical register was allocated at rename: it holds no
    /// value yet, so it is clean.
    #[inline]
    pub fn on_rename(&mut self, preg: PhysReg) {
        self.reg_taint[preg as usize] = false;
    }

    /// Whether `preg` is tainted.
    #[inline]
    pub fn reg(&self, preg: PhysReg) -> bool {
        self.reg_taint[preg as usize]
    }

    /// OR of the operand taints (`None` lanes are clean).
    #[inline]
    pub fn srcs_tainted(&self, srcs: &[Option<PhysReg>; 2]) -> bool {
        srcs.iter().flatten().any(|p| self.reg_taint[*p as usize])
    }

    /// Sets the destination register's taint (no-op without a dest).
    #[inline]
    pub fn set_dest(&mut self, dest: Option<PhysReg>, tainted: bool) {
        if let Some(p) = dest {
            self.reg_taint[p as usize] = tainted;
        }
    }

    /// Whether any byte of `[paddr, paddr + size)` is tainted.
    pub fn mem_range_tainted(&self, paddr: u64, size: u64) -> bool {
        (paddr..paddr.saturating_add(size)).any(|a| self.mem_taint.contains(&a))
    }

    /// The value taint of a load: tainted memory bytes OR tainted data
    /// forwarded from an overlapping older in-flight store. Conservative:
    /// a clean forwarded store does not mask tainted memory bytes.
    pub fn load_value_taint(&self, seq: u64, vaddr: u64, paddr: u64, size: u64) -> bool {
        if self.mem_range_tainted(paddr, size) {
            return true;
        }
        self.stores.iter().any(|s| {
            s.seq < seq
                && s.data_known
                && s.data_taint
                && s.vaddr < vaddr.saturating_add(size)
                && vaddr < s.vaddr.saturating_add(s.size)
        })
    }

    /// A store's address resolved at execute.
    pub fn on_store_addr(&mut self, seq: u64, vaddr: u64, size: u64) {
        self.stores.push(StoreRec {
            seq,
            vaddr,
            size,
            data_taint: false,
            data_known: false,
        });
    }

    /// A store's data became available (at execute or via the later
    /// store-data capture).
    pub fn on_store_data(&mut self, seq: u64, tainted: bool) {
        if let Some(rec) = self.stores.iter_mut().find(|s| s.seq == seq) {
            rec.data_taint = tainted;
            rec.data_known = true;
        }
    }

    /// A store committed: its data taint becomes the memory bytes' taint
    /// (a clean store scrubs previously tainted bytes).
    pub fn on_store_commit(&mut self, seq: u64, paddr: u64, size: u64) {
        let Some(idx) = self.stores.iter().position(|s| s.seq == seq) else {
            return;
        };
        let rec = self.stores.swap_remove(idx);
        if rec.data_taint {
            for a in paddr..paddr + size {
                self.mem_taint.insert(a);
            }
        } else {
            for a in paddr..paddr + size {
                self.mem_taint.remove(&a);
            }
        }
    }

    /// Records a leak observed at execute; it resolves when `seq`
    /// commits or is squashed. `applies_at_commit` marks state changes
    /// (deferred LRU, flush) that only happen at commit and therefore
    /// vanish with a squash.
    pub fn record_leak(
        &mut self,
        seq: u64,
        cycle: u64,
        channel: LeakChannel,
        addr: u64,
        applies_at_commit: bool,
    ) {
        // A blocked load replays address resolution on every issue
        // attempt; count each (instruction, channel) leak once.
        if self
            .pending
            .iter()
            .any(|p| p.seq == seq && p.channel == channel)
        {
            return;
        }
        self.pending.push(PendingLeak {
            seq,
            cycle,
            channel,
            addr,
            applies_at_commit,
        });
    }

    /// `seq` committed: its pending leaks were architectural
    /// (`survived_squash = false`) and resolve into `trace`.
    pub fn on_commit(&mut self, seq: u64, mut trace: Option<&mut TraceBuffer>) {
        if self.pending.is_empty() {
            return;
        }
        let mut i = 0;
        while i < self.pending.len() {
            if self.pending[i].seq == seq {
                let p = self.pending.remove(i);
                self.resolve(p, false, trace.as_deref_mut());
            } else {
                i += 1;
            }
        }
    }

    /// Everything younger than `keep_seq` was squashed: cache and TLB
    /// leaks survive (the planted state outlives the wrong path), TPBuf
    /// insertions are rolled back with their entries, and commit-applied
    /// records are dropped (their state change never happened). The
    /// resolved leaks go into `trace`.
    pub fn on_squash(&mut self, keep_seq: u64, mut trace: Option<&mut TraceBuffer>) {
        if !self.pending.is_empty() {
            let mut i = 0;
            while i < self.pending.len() {
                if self.pending[i].seq > keep_seq {
                    let p = self.pending.remove(i);
                    if !p.applies_at_commit {
                        self.resolve(p, true, trace.as_deref_mut());
                    }
                } else {
                    i += 1;
                }
            }
        }
        self.stores.retain(|s| s.seq <= keep_seq);
    }

    fn resolve(&mut self, p: PendingLeak, squashed: bool, trace: Option<&mut TraceBuffer>) {
        // A squash releases TPBuf entries, so that channel's state never
        // survives; the cache and TLB channels are exactly what a squash
        // cannot roll back.
        let survived = squashed && p.channel != LeakChannel::TpbufInsert;
        self.report.count(p.channel, survived);
        if let Some(trace) = trace {
            trace.push(TraceEvent::Leak {
                cycle: p.cycle,
                seq: p.seq,
                channel: p.channel,
                addr: p.addr,
                survived_squash: survived,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn oracle() -> TaintOracle {
        TaintOracle::new(64, TaintConfig::range(0x1000, 4))
    }

    #[test]
    fn config_ranges_taint_memory_bytes() {
        let o = oracle();
        assert!(o.mem_range_tainted(0x1000, 1));
        assert!(o.mem_range_tainted(0x0fff, 2), "overlap counts");
        assert!(!o.mem_range_tainted(0x1004, 8));
    }

    #[test]
    fn register_taint_propagates_and_clears_on_rename() {
        let mut o = oracle();
        o.set_dest(Some(5), true);
        assert!(o.srcs_tainted(&[Some(5), None]));
        assert!(!o.srcs_tainted(&[Some(6), None]));
        o.on_rename(5);
        assert!(!o.reg(5));
    }

    #[test]
    fn store_commit_moves_taint_into_memory_and_scrubs() {
        let mut o = oracle();
        o.on_store_addr(7, 0x2000, 8);
        o.on_store_data(7, true);
        o.on_store_commit(7, 0x2000, 8);
        assert!(o.mem_range_tainted(0x2000, 8));
        // A clean store over the same bytes scrubs them.
        o.on_store_addr(9, 0x2000, 8);
        o.on_store_data(9, false);
        o.on_store_commit(9, 0x2000, 8);
        assert!(!o.mem_range_tainted(0x2000, 8));
    }

    #[test]
    fn forwarded_store_data_taints_younger_loads() {
        let mut o = oracle();
        o.on_store_addr(3, 0x3000, 8);
        o.on_store_data(3, true);
        assert!(o.load_value_taint(5, 0x3004, 0x3004, 4), "overlap");
        assert!(!o.load_value_taint(2, 0x3004, 0x3004, 4), "older load");
        assert!(!o.load_value_taint(5, 0x4000, 0x4000, 8), "disjoint");
    }

    #[test]
    fn commit_resolution_counts_architectural_leaks() {
        let mut o = oracle();
        let mut trace = TraceBuffer::new(8);
        o.record_leak(4, 100, LeakChannel::CacheFill, 0xabc0, false);
        o.on_commit(4, Some(&mut trace));
        let r = o.report();
        assert_eq!(r.cache_fills, 1);
        assert_eq!(r.cache_fills_survived, 0);
        let events: Vec<_> = trace.events().collect();
        assert!(matches!(
            events[..],
            [TraceEvent::Leak {
                survived_squash: false,
                ..
            }]
        ));
    }

    #[test]
    fn squash_resolution_marks_survivors_by_channel() {
        let mut o = oracle();
        o.record_leak(10, 5, LeakChannel::CacheFill, 0x10, false);
        o.record_leak(11, 6, LeakChannel::TlbFill, 0x20, false);
        o.record_leak(12, 7, LeakChannel::TpbufInsert, 0x30, false);
        o.record_leak(13, 8, LeakChannel::CacheLru, 0x40, true); // deferred
        o.on_squash(9, None);
        let r = o.report();
        assert_eq!(r.cache_fills_survived, 1);
        assert_eq!(r.tlb_fills_survived, 1);
        assert_eq!(r.tpbuf_inserts, 1, "insertion counted");
        assert_eq!(r.tpbuf_inserts_survived, 0, "but rolled back");
        assert_eq!(r.cache_lru, 0, "deferred update never applied");
        assert_eq!(r.total(), 3);
        assert_eq!(r.cache_survived(), 1);
        assert_eq!(r.blind_spot_survived(), 1);
    }

    #[test]
    fn squash_keeps_older_pending_leaks() {
        let mut o = oracle();
        o.record_leak(3, 1, LeakChannel::CacheFill, 0x10, false);
        o.on_squash(5, None);
        assert_eq!(o.report().total(), 0, "older leak still pending");
        o.on_commit(3, None);
        assert_eq!(o.report().cache_fills, 1);
    }

    #[test]
    fn program_load_flushes_pending_as_survived() {
        let mut o = oracle();
        o.record_leak(2, 9, LeakChannel::CacheFill, 0x99, false);
        o.set_dest(Some(8), true);
        o.on_program_load(None);
        assert_eq!(o.report().cache_fills_survived, 1);
        assert!(!o.reg(8), "register taint cleared");
        // Data segment overwrite scrubs, re-marking restores the secret.
        o.clear_bytes(0x1000, 4);
        assert!(!o.mem_range_tainted(0x1000, 4));
        o.mark_config_ranges();
        assert!(o.mem_range_tainted(0x1000, 4));
    }
}
