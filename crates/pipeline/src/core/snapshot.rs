//! Checkpointing a core: draining the pipeline to an architectural
//! instruction boundary, then capturing or restoring the whole machine
//! there as a [`CoreSnapshot`].

use super::Core;
use crate::policy::SecurityPolicy;
use crate::snapshot::CoreSnapshot;
use crate::trace::SquashCause;
use condspec_isa::{Program, Reg};
use std::sync::Arc;

impl Core {
    /// Whether the pipeline holds no in-flight work: empty ROB and fetch
    /// queue, no pending store data and no dispatched fences. At such a
    /// boundary the IQ, LSQ, security dependence matrix and TPBuf are
    /// empty too (each tracks a subset of the in-flight instructions),
    /// so the machine state collapses to a [`CoreSnapshot`].
    pub fn is_quiesced(&self) -> bool {
        self.rob.is_empty()
            && self.fetch_queue.is_empty()
            && self.pending_store_data.is_empty()
            && self.fence_seqs.is_empty()
    }

    /// Drains the pipeline to the nearest architectural instruction
    /// boundary: every uncommitted instruction is squashed and fetch is
    /// redirected to the next architectural PC. The discarded work simply
    /// re-executes when the core resumes, so quiescing never changes
    /// architectural results — only timing (and the squash statistics).
    ///
    /// Afterwards [`Core::is_quiesced`] holds and any pending fetch
    /// stall is cleared, making the state canonical for
    /// [`Core::capture_snapshot`].
    pub fn quiesce(&mut self) {
        // The squash walk expresses "discard everything younger than
        // keep_seq"; discarding the head itself needs keep = head-1,
        // which cannot be expressed when the head is seq 0. Step until
        // the head commits (it is the oldest instruction, so it always
        // makes progress), moving the head seq past 0.
        while matches!(self.rob.head_hot(), Some(h) if h.seq == 0) {
            self.step();
        }
        if let Some(head) = self.rob.head_hot().copied() {
            // The head has not committed: it is the next architectural
            // instruction. Squash it and everything younger.
            self.squash_from(head.seq - 1, head.pc, SquashCause::Quiesce);
        } else if let Some(front_pc) = self.fetch_queue.front().map(|f| f.pc) {
            // Nothing dispatched, but decode holds fetched instructions:
            // rewind fetch to the queue front and restore the RAS to the
            // oldest snapshot (which predates every speculative RAS
            // effect of the queued instructions).
            if let Some(snap) = self
                .fetch_queue
                .iter()
                .find_map(|f| f.ras_snapshot.as_deref())
            {
                self.frontend.restore_ras(snap);
            }
            for fetched in self.fetch_queue.drain(..) {
                if let Some(snap) = fetched.ras_snapshot {
                    self.ras_box_pool.push(snap);
                }
            }
            self.fq_unresolved_branches = 0;
            self.fetch_pc = front_pc;
            self.fetch_wedged = false;
        }
        self.fetch_stall_until = self.cycle;
        debug_assert!(self.is_quiesced(), "quiesce left in-flight state");
    }

    /// Captures the complete state of a quiesced core (see
    /// [`CoreSnapshot`] for the exact inventory). Call [`Core::quiesce`]
    /// first if the pipeline may hold in-flight work.
    ///
    /// # Errors
    ///
    /// Returns an error if the pipeline is not quiesced.
    pub fn capture_snapshot(&self) -> Result<CoreSnapshot, String> {
        if !self.is_quiesced() {
            return Err(format!(
                "cannot checkpoint a busy pipeline ({} ROB entries, {} fetched instructions); \
                 call quiesce() first",
                self.rob.len(),
                self.fetch_queue.len()
            ));
        }
        debug_assert_eq!(self.iq.occupancy(), 0, "IQ entry without a ROB entry");
        let (tlb_entries, tlb_tick) = self.tlb.snapshot_entries();
        Ok(CoreSnapshot {
            cycle: self.cycle,
            fetch_pc: self.fetch_pc,
            next_seq: self.next_seq,
            next_stamp: self.next_stamp,
            halted: self.halted,
            arch_regs: self.regfile.arch_values(),
            memory_pages: self
                .memory
                .snapshot_pages()
                .into_iter()
                .map(|(pn, bytes)| (pn, bytes.to_vec()))
                .collect(),
            page_table: self.page_table.snapshot_mappings(),
            tlb_entries,
            tlb_tick,
            hierarchy: self.hierarchy.snapshot(),
            frontend: self.frontend.snapshot(),
        })
    }

    /// Restores a captured snapshot into this core, which must have the
    /// same configuration as the capturing one. The caller supplies the
    /// program (snapshots store state, not code) and a freshly built
    /// security policy, exactly as [`Core::reset_cold`] does.
    ///
    /// The program's data segments are *not* re-copied into memory —
    /// the snapshot's pages already hold their current contents — which
    /// is why this must not go through [`Core::load_program`]. Shared
    /// code mappings are not part of a snapshot; map them again
    /// afterwards if the continuation needs them.
    ///
    /// After this call the core is observationally identical to the
    /// capturing core at the capture point: continuing either one in
    /// detailed mode produces identical statistics and state.
    pub fn restore_snapshot(
        &mut self,
        snap: &CoreSnapshot,
        program: Arc<Program>,
        policy: Box<dyn SecurityPolicy>,
    ) {
        self.reset_cold(policy);
        for (pn, bytes) in &snap.memory_pages {
            self.memory.restore_page(*pn, bytes);
        }
        for &(vpn, ppn) in &snap.page_table {
            self.page_table.map(vpn, ppn);
        }
        self.tlb.restore_entries(&snap.tlb_entries, snap.tlb_tick);
        self.hierarchy.restore(&snap.hierarchy);
        self.frontend.restore(&snap.frontend);
        for (i, &v) in snap.arch_regs.iter().enumerate().skip(1) {
            self.regfile
                .write_arch(Reg::from_index(i).expect("i < 32"), v);
        }
        self.cycle = snap.cycle;
        self.fetch_pc = snap.fetch_pc;
        self.next_seq = snap.next_seq;
        self.next_stamp = snap.next_stamp;
        self.halted = snap.halted;
        self.fetch_wedged = false;
        self.fetch_stall_until = snap.cycle;
        self.last_commit_cycle = snap.cycle;
        self.program = Some(program);
    }
}
