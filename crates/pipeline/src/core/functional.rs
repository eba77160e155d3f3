//! The functional interpreter: architectural-only execution with no
//! timing model, the fast-forward engine of sampled simulation.

use super::{Core, FunctionalExit, FunctionalResult};
use condspec_isa::{Inst, Reg, INST_BYTES};

impl Core {
    /// Retires up to `max_insts` instructions *functionally*: pure
    /// architectural interpretation with no pipeline, cache, TLB,
    /// predictor or statistics modelling — the fast-forward engine of
    /// sampled simulation (tens of Minst/s against the detailed model's
    /// hundreds of Kinst/s).
    ///
    /// Functional stepping touches exactly four pieces of state: the
    /// architectural registers, memory (stores apply immediately —
    /// retirement is in-order), the fetch PC and the halted flag.
    /// Everything else — the cycle clock, all statistics, caches, TLB
    /// and predictors — is left untouched, so a checkpoint captured
    /// after a functional fast-forward carries cold (or pre-existing)
    /// microarchitectural state by construction.
    ///
    /// `Flush` retires as a no-op (there is no cache model to flush);
    /// `Fence` and `Nop` likewise. Loads and stores translate through
    /// the page table directly (no TLB).
    ///
    /// # Errors
    ///
    /// Returns an error if the pipeline is not quiesced (functional and
    /// detailed execution cannot interleave mid-flight) or no program is
    /// loaded.
    pub fn run_functional(&mut self, max_insts: u64) -> Result<FunctionalResult, String> {
        self.functional_loop(max_insts, |_, _| {})
    }

    /// [`Core::run_functional`] with a per-retirement hook `(pc, inst)`,
    /// for differential testing against the detailed pipeline's commit
    /// stream. The hook makes this the *reference* architectural trace:
    /// functional execution has no wrong path.
    pub fn run_functional_traced(
        &mut self,
        max_insts: u64,
        on_retire: impl FnMut(u64, &Inst),
    ) -> Result<FunctionalResult, String> {
        self.functional_loop(max_insts, on_retire)
    }

    fn functional_loop(
        &mut self,
        max_insts: u64,
        mut on_retire: impl FnMut(u64, &Inst),
    ) -> Result<FunctionalResult, String> {
        if !self.is_quiesced() {
            return Err("cannot run functionally with in-flight detailed state; \
                 call quiesce() first"
                .to_string());
        }
        let Some(program) = self.program.clone() else {
            return Err("no program loaded".to_string());
        };
        if self.halted {
            return Ok(FunctionalResult {
                exit: FunctionalExit::Halted,
                retired: 0,
            });
        }
        // Interpret against a local register array; the rename fabric is
        // synced once at exit. Index 0 is never written (r0).
        let mut regs = self.regfile.arch_values();
        let mut pc = self.fetch_pc;
        let mut retired = 0u64;
        let mut exit = FunctionalExit::InstLimit;
        while retired < max_insts {
            let inst = match program.fetch(pc) {
                Some(inst) => inst,
                None => match self.shared_code.iter().find_map(|p| p.fetch(pc)) {
                    Some(inst) => inst,
                    None => {
                        exit = FunctionalExit::FetchFault;
                        break;
                    }
                },
            };
            let mut next = pc + INST_BYTES;
            match inst {
                Inst::Alu { op, rd, rs1, rs2 } => {
                    let v = op.eval(regs[rs1.index()], regs[rs2.index()]);
                    if !rd.is_zero() {
                        regs[rd.index()] = v;
                    }
                }
                Inst::AluImm { op, rd, rs1, imm } => {
                    let v = op.eval(regs[rs1.index()], imm as u64);
                    if !rd.is_zero() {
                        regs[rd.index()] = v;
                    }
                }
                Inst::LoadImm { rd, imm } => {
                    if !rd.is_zero() {
                        regs[rd.index()] = imm;
                    }
                }
                Inst::Load {
                    rd,
                    base,
                    offset,
                    size,
                } => {
                    let vaddr = regs[base.index()].wrapping_add(offset as u64);
                    let paddr = self.page_table.translate(vaddr);
                    let v = self.memory.read(paddr, size.bytes());
                    if !rd.is_zero() {
                        regs[rd.index()] = v;
                    }
                }
                Inst::Store {
                    src,
                    base,
                    offset,
                    size,
                } => {
                    let vaddr = regs[base.index()].wrapping_add(offset as u64);
                    let paddr = self.page_table.translate(vaddr);
                    self.memory.write(paddr, regs[src.index()], size.bytes());
                }
                Inst::Branch {
                    cond,
                    rs1,
                    rs2,
                    target,
                } => {
                    if cond.eval(regs[rs1.index()], regs[rs2.index()]) {
                        next = target;
                    }
                }
                Inst::Jump { target } => {
                    next = target;
                }
                Inst::Call { target, link } => {
                    if !link.is_zero() {
                        regs[link.index()] = pc + INST_BYTES;
                    }
                    next = target;
                }
                Inst::Ret { link } => {
                    next = regs[link.index()];
                }
                Inst::JumpIndirect { base, offset } => {
                    next = regs[base.index()].wrapping_add(offset as u64);
                }
                Inst::Flush { .. } | Inst::Fence | Inst::Nop => {}
                Inst::Halt => {
                    retired += 1;
                    on_retire(pc, &inst);
                    self.halted = true;
                    exit = FunctionalExit::Halted;
                    break;
                }
            }
            retired += 1;
            on_retire(pc, &inst);
            pc = next;
        }
        for (i, &v) in regs.iter().enumerate().skip(1) {
            self.regfile
                .write_arch(Reg::from_index(i).expect("i < 32"), v);
        }
        self.fetch_pc = pc;
        Ok(FunctionalResult { exit, retired })
    }
}
