//! Attack orchestration: the six Table IV channel scenarios and the
//! per-variant Spectre drivers.

use crate::channel;
use condspec::{DefenseConfig, SimConfig, Simulator};
use condspec_pipeline::{LeakReport, TaintConfig, TraceEvent};
use condspec_workloads::gadgets::{GadgetKind, SpectreGadget};
use std::collections::{HashMap, HashSet};

/// Cycle budget per victim invocation (gadgets finish in a few thousand
/// cycles; the budget only guards against harness bugs).
const RUN_BUDGET: u64 = 500_000;

/// Number of attack rounds; the first round doubles as a cache warmer
/// (real attacks run continuously).
const ROUNDS: usize = 2;

/// Result of one end-to-end attack.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttackOutcome {
    /// The secret value the channel readout singled out, if any.
    pub recovered: Option<u8>,
    /// The secret the gadget layout plants.
    pub planted: u8,
    /// All candidate values the readout produced (after excluding the
    /// victim's architecturally-touched lines).
    pub candidates: Vec<usize>,
}

impl AttackOutcome {
    /// Whether the attack actually extracted the planted secret.
    pub fn leaked(&self) -> bool {
        self.recovered == Some(self.planted)
    }
}

/// The six attack classifications of the paper's Table IV.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AttackScenario {
    /// Flush+Reload over shared memory (the classic Spectre V1 channel).
    FlushReloadShared,
    /// Flush+Flush over shared memory (flush-latency readout).
    FlushFlushShared,
    /// Evict+Reload over shared memory (no `clflush`; conflict
    /// evictions + timed reload).
    EvictReloadShared,
    /// Prime+Probe with a shared transmit array (the SpectrePrime-like
    /// scenario; set-granular readout).
    PrimeProbeShared,
    /// Prime+Probe with no shared memory: the transmit array lives in
    /// the secret's own page.
    PrimeProbeNoShare,
    /// Evict+Time with no shared memory: aggregate re-access timing.
    EvictTimeNoShare,
}

impl AttackScenario {
    /// All six scenarios in the paper's Table IV order.
    pub const ALL: [AttackScenario; 6] = [
        AttackScenario::FlushReloadShared,
        AttackScenario::FlushFlushShared,
        AttackScenario::EvictReloadShared,
        AttackScenario::PrimeProbeShared,
        AttackScenario::PrimeProbeNoShare,
        AttackScenario::EvictTimeNoShare,
    ];

    /// Table-row label.
    pub fn label(&self) -> &'static str {
        match self {
            AttackScenario::FlushReloadShared => "Flush+Reload, share data",
            AttackScenario::FlushFlushShared => "Flush+Flush, share data",
            AttackScenario::EvictReloadShared => "Evict+Reload, share data",
            AttackScenario::PrimeProbeShared => "Prime+Probe, share data",
            AttackScenario::PrimeProbeNoShare => "Prime+Probe, no shared data",
            AttackScenario::EvictTimeNoShare => "Evict+Time, no shared data",
        }
    }

    /// A stable machine-readable key (CLI values, job hashes). The
    /// inverse of [`AttackScenario::from_key`].
    pub fn key(&self) -> &'static str {
        match self {
            AttackScenario::FlushReloadShared => "flush-reload",
            AttackScenario::FlushFlushShared => "flush-flush",
            AttackScenario::EvictReloadShared => "evict-reload",
            AttackScenario::PrimeProbeShared => "prime-probe",
            AttackScenario::PrimeProbeNoShare => "prime-probe-noshare",
            AttackScenario::EvictTimeNoShare => "evict-time",
        }
    }

    /// Parses an [`AttackScenario::key`] value.
    pub fn from_key(key: &str) -> Option<AttackScenario> {
        AttackScenario::ALL.iter().copied().find(|s| s.key() == key)
    }

    /// Whether the channel relies on attacker/victim shared memory.
    pub fn shared_memory(&self) -> bool {
        matches!(
            self,
            AttackScenario::FlushReloadShared
                | AttackScenario::FlushFlushShared
                | AttackScenario::EvictReloadShared
                | AttackScenario::PrimeProbeShared
        )
    }

    /// The paper's Table IV ground truth: is `defense` expected to stop
    /// this scenario?
    pub fn expected_defended(&self, defense: DefenseConfig) -> bool {
        match defense {
            DefenseConfig::Origin => false,
            DefenseConfig::Baseline | DefenseConfig::CacheHit => true,
            // TPBuf's S-Pattern is defined for shared-memory,
            // page-granular channels; the non-shared rows evade it.
            DefenseConfig::CacheHitTpbuf => self.shared_memory(),
        }
    }

    /// Runs the scenario against a fresh machine with `defense`.
    pub fn run(&self, defense: DefenseConfig) -> AttackOutcome {
        self.run_on(&mut Simulator::new(SimConfig::new(defense)))
    }

    /// Runs the scenario on an existing machine. On a cold one (fresh,
    /// or reset in place) the outcome equals [`AttackScenario::run`]
    /// under that machine's defense.
    pub fn run_on(&self, sim: &mut Simulator) -> AttackOutcome {
        match self {
            AttackScenario::FlushReloadShared => {
                flush_style_attack(sim, GadgetKind::V1, Readout::Reload)
            }
            AttackScenario::FlushFlushShared => {
                flush_style_attack(sim, GadgetKind::V1, Readout::FlushTiming)
            }
            AttackScenario::EvictReloadShared => evict_reload_attack(sim),
            AttackScenario::PrimeProbeShared => {
                prime_style_attack(sim, GadgetKind::V1SetStride, Readout::ProbeCount)
            }
            AttackScenario::PrimeProbeNoShare => {
                prime_style_attack(sim, GadgetKind::V1SamePage, Readout::ProbeCount)
            }
            AttackScenario::EvictTimeNoShare => {
                prime_style_attack(sim, GadgetKind::V1SamePage, Readout::SetTiming)
            }
        }
    }
}

impl std::fmt::Display for AttackScenario {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// How the channel is read back after the victim runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Readout {
    /// Timed reload of each slot (Flush+Reload / Evict+Reload).
    Reload,
    /// Flush-latency of each slot (Flush+Flush).
    FlushTiming,
    /// Residency count of each primed set (Prime+Probe).
    ProbeCount,
    /// Aggregate re-access timing of each primed set (Evict+Time).
    SetTiming,
}

/// Runs the variant-specific attack (Flush+Reload channel for the three
/// page-stride variants, Prime+Probe for the set-stride one), as used by
/// the per-variant security analysis, on a fresh machine with `defense`.
pub fn run_variant(kind: GadgetKind, defense: DefenseConfig) -> AttackOutcome {
    run_variant_on(kind, &mut Simulator::new(SimConfig::new(defense)))
}

/// [`run_variant`] on an existing machine. On a cold one (fresh, or
/// reset in place) the outcome equals [`run_variant`] under that
/// machine's defense.
pub fn run_variant_on(kind: GadgetKind, sim: &mut Simulator) -> AttackOutcome {
    match kind {
        GadgetKind::V1 | GadgetKind::V2 | GadgetKind::V4 => {
            flush_style_attack(sim, kind, Readout::Reload)
        }
        GadgetKind::V1SetStride | GadgetKind::V1SamePage => {
            prime_style_attack(sim, kind, Readout::ProbeCount)
        }
        GadgetKind::Rsb => rsb_attack(sim),
    }
}

/// Warms and trains a Spectre gadget, then runs one malicious round
/// with pipeline tracing enabled and returns the trace (the last
/// `events` pipeline events of the round).
///
/// This is the shared setup behind `condspec trace` and the serve
/// daemon's trace endpoint: load the gadget, train with the in-bounds
/// input, reload with the attack input, flush the bounds/pointer lines
/// the variant needs cold, pre-poison the BTB for v2, and trace the
/// attack run.
pub fn traced_variant_round(
    kind: GadgetKind,
    defense: DefenseConfig,
    events: usize,
) -> condspec_pipeline::TraceBuffer {
    let gadget = SpectreGadget::build(kind);
    let mut sim = Simulator::new(SimConfig::new(defense));
    // Warm + train, then trace one malicious round.
    sim.load_program(gadget.program.clone());
    sim.write_memory(gadget.input_addr, gadget.train_input, 8);
    sim.run(RUN_BUDGET);
    sim.load_program(gadget.program.clone());
    sim.write_memory(gadget.input_addr, gadget.attack_input, 8);
    if let Some(len) = gadget.len_addr {
        let pa = sim.core().page_table().translate(len);
        sim.core_mut().hierarchy_mut().flush_line(pa);
    }
    if let Some(slot) = gadget.pointer_slot {
        let pa = sim.core().page_table().translate(slot);
        sim.core_mut().hierarchy_mut().flush_line(pa);
    }
    if kind == GadgetKind::V2 {
        let jr = gadget.indirect_pc.expect("v2 gadget");
        let target = gadget.gadget_entry.expect("v2 gadget");
        sim.core_mut().frontend_mut().btb_mut().update(jr, target);
    }
    sim.core_mut().enable_trace(events);
    sim.run(RUN_BUDGET);
    sim.core_mut().disable_trace().expect("tracing enabled")
}

/// Result of one taint-oracle leak probe (see [`leak_probe`]).
#[derive(Debug, Clone, PartialEq)]
pub struct LeakProbeOutcome {
    /// Per-channel leak totals of the malicious round.
    pub leaks: LeakReport,
    /// The round's [`TraceEvent::Leak`] records, in resolution order.
    pub events: Vec<TraceEvent>,
}

impl LeakProbeOutcome {
    /// Whether a cache-channel leak survived a squash — the oracle's
    /// verdict that the gadget transmitted through the paper's threat
    /// model. TLB and TPBuf survivors are reported but excluded: they
    /// are the paper's admitted blind spots, not its claim.
    pub fn cache_leaked(&self) -> bool {
        self.leaks.cache_survived() > 0
    }
}

/// Trace capacity for leak probes: comfortably above the pipeline event
/// count of one gadget round, so leak records are never pushed out of
/// the bounded buffer.
const LEAK_TRACE_EVENTS: usize = 1 << 17;

/// Runs one Spectre gadget round under the taint-tracking leak oracle
/// and reports every channel a secret-tainted value reached.
///
/// The harness mirrors the end-to-end attacks — train the predictors,
/// flush the channel, trigger the victim with the malicious input — but
/// the verdict comes from the oracle watching information flow inside
/// the pipeline, not from an attacker reading the channel back. The
/// planted secret's physical bytes are the taint source.
pub fn leak_probe(kind: GadgetKind, defense: DefenseConfig) -> LeakProbeOutcome {
    leak_probe_on(kind, &mut Simulator::new(SimConfig::new(defense)))
}

/// [`leak_probe`] on an existing machine. On a cold one (fresh, or reset
/// in place) the outcome equals [`leak_probe`] under that machine's
/// defense. The oracle and the trace are switched off again before
/// returning.
pub fn leak_probe_on(kind: GadgetKind, sim: &mut Simulator) -> LeakProbeOutcome {
    let gadget = SpectreGadget::build(kind);

    // Warm + train exactly like the end-to-end attacks.
    let pollution = (kind == GadgetKind::Rsb).then(|| {
        std::sync::Arc::new(condspec_workloads::gadgets::rsb_pollution_program(
            gadget.gadget_entry.expect("rsb gadget"),
        ))
    });
    match kind {
        GadgetKind::V1 | GadgetKind::V1SamePage | GadgetKind::V1SetStride => {
            train(sim, &gadget, 8);
        }
        GadgetKind::V2 | GadgetKind::V4 => {
            sim.load_program(gadget.program.clone());
            sim.run(RUN_BUDGET);
        }
        GadgetKind::Rsb => {
            let pollution = pollution.clone().expect("built above");
            sim.core_mut().map_shared_code(pollution);
            sim.load_program(gadget.program.clone());
            sim.run(RUN_BUDGET);
        }
    }

    // Taint the planted secret's physical bytes and watch the malicious
    // round.
    let secret_pa = sim.core().page_table().translate(gadget.secret_addr);
    let secret_len = gadget.planted_secret_bytes().len() as u64;
    sim.core_mut()
        .enable_taint(TaintConfig::range(secret_pa, secret_len));
    sim.core_mut().enable_trace(LEAK_TRACE_EVENTS);

    // Two malicious rounds, like the end-to-end attacks: the first warms
    // the victim's own lines (a cold secret line can stall the tainted
    // value past the branch resolution and close the window).
    for _ in 0..ROUNDS {
        if let Some(pollution) = &pollution {
            // Re-plant the dangling RAS entry before every trigger.
            sim.load_program(pollution.clone());
            sim.run(RUN_BUDGET);
            assert!(sim.core().is_halted(), "pollution run must complete");
        }
        sim.load_program(gadget.program.clone());
        sim.write_memory(gadget.input_addr, gadget.attack_input, 8);
        channel::flush_region(
            sim,
            gadget.probe_base,
            gadget.probe_stride,
            gadget.probe_slots,
        );
        if let Some(len) = gadget.len_addr {
            channel::flush_line(sim, len);
        }
        if let Some(slot) = gadget.pointer_slot {
            channel::flush_line(sim, slot);
        }
        if kind == GadgetKind::V2 {
            let jr = gadget.indirect_pc.expect("v2 has an indirect jump");
            let target = gadget.gadget_entry.expect("v2 has a gadget");
            sim.core_mut().frontend_mut().btb_mut().update(jr, target);
        }
        sim.run(RUN_BUDGET);
        assert!(sim.core().is_halted(), "leak probe run must complete");
    }

    let oracle = sim.core_mut().disable_taint().expect("taint enabled");
    let trace = sim.core_mut().disable_trace().expect("tracing enabled");
    let events = trace
        .events()
        .filter(|e| matches!(e, TraceEvent::Leak { .. }))
        .copied()
        .collect();
    LeakProbeOutcome {
        leaks: oracle.report(),
        events,
    }
}

/// The SpectreRSB attack: the attacker runs an unbalanced-call program
/// that leaves a stale entry on the shared return-address stack, pointing
/// at attacker code that jumps into the victim's disclosure gadget. The
/// victim's delinquent `ret` then speculatively returns through it.
/// Readout is Flush+Reload on the shared probe array.
pub fn rsb_attack(sim: &mut Simulator) -> AttackOutcome {
    use condspec_workloads::gadgets::rsb_pollution_program;
    let gadget = SpectreGadget::build(GadgetKind::Rsb);
    let pollution = std::sync::Arc::new(rsb_pollution_program(
        gadget.gadget_entry.expect("rsb gadget"),
    ));

    // The attacker's stub is an executable page mapped into the shared
    // address space (like a shared library); the victim's wrong path can
    // fetch through it.
    sim.core_mut().map_shared_code(pollution.clone());

    // Warm run: victim executes its legitimate path once.
    sim.load_program(gadget.program.clone());
    sim.run(RUN_BUDGET);

    let mut candidates = Vec::new();
    for round in 0..ROUNDS {
        // Pollute the RAS (the dangling entry survives program loads —
        // predictors are shared microarchitectural state).
        sim.load_program(pollution.clone());
        sim.run(RUN_BUDGET);
        assert!(sim.core().is_halted(), "pollution run must complete");

        trigger(sim, &gadget, |sim| {
            channel::flush_region(
                sim,
                gadget.probe_base,
                gadget.probe_stride,
                gadget.probe_slots,
            );
            if let Some(slot) = gadget.pointer_slot {
                channel::flush_line(sim, slot);
            }
        });
        if round + 1 < ROUNDS {
            continue;
        }
        candidates = (0..gadget.probe_slots)
            .filter(|v| channel::reload_hits(sim, gadget.probe_slot_addr(*v)))
            .collect();
    }
    AttackOutcome {
        recovered: single_candidate(&candidates),
        planted: gadget.planted_secret(),
        candidates,
    }
}

/// Extracts an entire multi-byte secret through repeated Flush+Reload
/// V1 attacks: one flush → trigger → reload pass per byte (two rounds
/// each, the first warming the machine), sweeping the malicious index
/// across the victim's memory.
///
/// Returns one entry per planted byte; `None` where the readout was
/// ambiguous.
///
/// # Examples
///
/// ```
/// use condspec::{DefenseConfig, SimConfig, Simulator};
/// use condspec_attacks::spectre::flush_reload_extract;
/// use condspec_workloads::gadgets::{GadgetKind, SpectreGadget};
///
/// let gadget = SpectreGadget::build_with_secret(GadgetKind::V1, b"HI");
/// let mut sim = Simulator::new(SimConfig::new(DefenseConfig::Origin));
/// let bytes = flush_reload_extract(&mut sim, &gadget);
/// assert_eq!(bytes, vec![Some(b'H'), Some(b'I')]);
/// ```
pub fn flush_reload_extract(sim: &mut Simulator, gadget: &SpectreGadget) -> Vec<Option<u8>> {
    let mut recovered = Vec::new();
    for i in 0..gadget.planted_secret_bytes().len() as u64 {
        let mut byte = None;
        // Each mis-speculated run trains the bounds check *taken*, and a
        // history-based predictor can even learn a perfectly periodic
        // train/attack rhythm — so the attacker varies the training
        // length and simply retries, exactly as real exploits do.
        for attempt in 0..6u64 {
            train(sim, gadget, 5 + ((i + attempt) % 5) as usize);
            sim.load_program(gadget.program.clone());
            sim.write_memory(gadget.input_addr, gadget.attack_input + i, 8);
            channel::flush_region(
                sim,
                gadget.probe_base,
                gadget.probe_stride,
                gadget.probe_slots,
            );
            if let Some(len) = gadget.len_addr {
                channel::flush_line(sim, len);
            }
            sim.run(RUN_BUDGET);
            assert!(sim.core().is_halted(), "extraction run must complete");
            let candidates: Vec<usize> = (0..gadget.probe_slots)
                .filter(|v| channel::reload_hits(sim, gadget.probe_slot_addr(*v)))
                .collect();
            if let Some(b) = single_candidate(&candidates) {
                byte = Some(b);
                break;
            }
        }
        recovered.push(byte);
    }
    recovered
}

/// Trains the V1-family branch predictor with in-bounds runs.
fn train(sim: &mut Simulator, gadget: &SpectreGadget, runs: usize) {
    for _ in 0..runs {
        sim.load_program(gadget.program.clone());
        sim.write_memory(gadget.input_addr, gadget.train_input, 8);
        sim.run(RUN_BUDGET);
        assert!(sim.core().is_halted(), "training run must complete");
    }
}

/// One victim invocation with the malicious input.
fn trigger(sim: &mut Simulator, gadget: &SpectreGadget, prepare: impl FnOnce(&mut Simulator)) {
    sim.load_program(gadget.program.clone());
    sim.write_memory(gadget.input_addr, gadget.attack_input, 8);
    prepare(sim);
    sim.run(RUN_BUDGET);
    assert!(sim.core().is_halted(), "attack run must complete");
}

fn single_candidate(candidates: &[usize]) -> Option<u8> {
    match candidates {
        [v] => u8::try_from(*v).ok(),
        _ => None,
    }
}

/// Flush-based attacks (shared memory): flush the probe array and the
/// window lines, run the victim, read slots back by reload or flush
/// timing.
fn flush_style_attack(sim: &mut Simulator, kind: GadgetKind, readout: Readout) -> AttackOutcome {
    let gadget = SpectreGadget::build(kind);
    if matches!(
        kind,
        GadgetKind::V1 | GadgetKind::V1SamePage | GadgetKind::V1SetStride
    ) {
        train(sim, &gadget, 8);
    } else {
        // V2/V4: one warm run (code, pointer slots).
        sim.load_program(gadget.program.clone());
        sim.run(RUN_BUDGET);
    }

    let mut candidates = Vec::new();
    for round in 0..ROUNDS {
        trigger(sim, &gadget, |sim| {
            channel::flush_region(
                sim,
                gadget.probe_base,
                gadget.probe_stride,
                gadget.probe_slots,
            );
            if let Some(len) = gadget.len_addr {
                channel::flush_line(sim, len);
            }
            if let Some(slot) = gadget.pointer_slot {
                channel::flush_line(sim, slot);
            }
            if kind == GadgetKind::V2 {
                // Poison the BTB entry of the victim's indirect jump.
                let jr = gadget.indirect_pc.expect("v2 has an indirect jump");
                let target = gadget.gadget_entry.expect("v2 has a gadget");
                sim.core_mut().frontend_mut().btb_mut().update(jr, target);
            }
        });
        if round + 1 < ROUNDS {
            continue; // earlier rounds only warm the machine
        }
        candidates = (0..gadget.probe_slots)
            .filter(|v| {
                let addr = gadget.probe_slot_addr(*v);
                match readout {
                    Readout::Reload => channel::reload_hits(sim, addr),
                    Readout::FlushTiming => channel::flush_was_slow(sim, addr),
                    _ => unreachable!("flush-style attacks use line-granular readouts"),
                }
            })
            // V4's architectural replay transmits through slot 0 (the
            // benign byte); every attacker discards it as ground noise.
            .filter(|v| kind != GadgetKind::V4 || *v != 0)
            .collect();
    }
    AttackOutcome {
        recovered: single_candidate(&candidates),
        planted: gadget.planted_secret(),
        candidates,
    }
}

/// Evict+Reload (shared memory, no `clflush`): evict the probe slots and
/// the bounds line with attacker-owned conflicts, read back by reload.
fn evict_reload_attack(sim: &mut Simulator) -> AttackOutcome {
    let gadget = SpectreGadget::build(GadgetKind::V1);
    train(sim, &gadget, 8);

    let mut candidates = Vec::new();
    for round in 0..ROUNDS {
        trigger(sim, &gadget, |sim| {
            for v in 0..gadget.probe_slots {
                channel::evict_line(sim, gadget.probe_slot_addr(v));
            }
            if let Some(len) = gadget.len_addr {
                channel::evict_line(sim, len);
            }
            // Eviction may have displaced the victim's input line; the
            // timing of x does not matter for the window (the chain on
            // `len` provides it), but re-warming models the attacker
            // invoking the victim's entry path repeatedly.
            let input_pa = sim.core().page_table().translate(gadget.input_addr);
            sim.core_mut()
                .hierarchy_mut()
                .access_data(input_pa, condspec_mem::LruUpdate::Normal);
        });
        if round + 1 < ROUNDS {
            continue;
        }
        candidates = (0..gadget.probe_slots)
            .filter(|v| channel::reload_hits(sim, gadget.probe_slot_addr(*v)))
            .collect();
    }
    AttackOutcome {
        recovered: single_candidate(&candidates),
        planted: gadget.planted_secret(),
        candidates,
    }
}

/// Prime-based attacks (set-granular, usable without shared memory):
/// prime every candidate slot's L1 set with attacker lines, run the
/// victim, find the set the victim displaced.
fn prime_style_attack(sim: &mut Simulator, kind: GadgetKind, readout: Readout) -> AttackOutcome {
    let gadget = SpectreGadget::build(kind);
    train(sim, &gadget, 8);

    // Build one eviction set per candidate value.
    let sets: HashMap<usize, Vec<u64>> = (0..gadget.probe_slots)
        .map(|v| (v, channel::l1_eviction_set(sim, gadget.probe_slot_addr(v))))
        .collect();
    let ways = sim.core().hierarchy().l1d().config().ways;
    let l1_hit = sim.core().hierarchy().l1d().config().hit_latency;

    // The attacker knows the victim's layout; sets its fixed accesses map
    // to are excluded from the verdict.
    let excluded: HashSet<usize> = victim_fixed_lines(&gadget)
        .into_iter()
        .map(|addr| channel::l1_set_of(sim, addr))
        .collect();

    let mut candidates = Vec::new();
    for round in 0..ROUNDS {
        trigger(sim, &gadget, |sim| {
            for v in 0..gadget.probe_slots {
                channel::prime_set(sim, &sets[&v]);
            }
            if let Some(len) = gadget.len_addr {
                channel::evict_line(sim, len);
            }
            let input_pa = sim.core().page_table().translate(gadget.input_addr);
            sim.core_mut()
                .hierarchy_mut()
                .access_data(input_pa, condspec_mem::LruUpdate::Normal);
        });
        if round + 1 < ROUNDS {
            continue;
        }
        candidates = (0..gadget.probe_slots)
            .filter(|v| !excluded.contains(&channel::l1_set_of(sim, gadget.probe_slot_addr(*v))))
            .filter(|v| match readout {
                Readout::ProbeCount => channel::probe_set_hits(sim, &sets[v]) < ways,
                Readout::SetTiming => channel::time_set(sim, &sets[v]) > ways as u64 * l1_hit,
                _ => unreachable!("prime-style attacks use set-granular readouts"),
            })
            .collect();
    }
    AttackOutcome {
        recovered: single_candidate(&candidates),
        planted: gadget.planted_secret(),
        candidates,
    }
}

/// The victim's architecturally-touched data lines (layout knowledge the
/// threat model grants the attacker).
fn victim_fixed_lines(gadget: &SpectreGadget) -> Vec<u64> {
    let mut lines = vec![gadget.input_addr, gadget.secret_addr];
    if let Some(len) = gadget.len_addr {
        lines.push(len);
    }
    lines.push(condspec_workloads::gadgets::layout::ARRAY1 + gadget.train_input);
    lines
}

#[cfg(test)]
mod tests {
    use super::*;

    // End-to-end attack/defense verdicts live in the repository-level
    // integration tests (tests/table4_security.rs); here we check the
    // orchestration plumbing on the cheapest scenario.

    #[test]
    fn flush_reload_leaks_on_origin() {
        let outcome = AttackScenario::FlushReloadShared.run(DefenseConfig::Origin);
        assert!(
            outcome.leaked(),
            "F+R must recover the planted secret on the unprotected core: {outcome:?}"
        );
        assert_eq!(outcome.recovered, Some(42));
    }

    #[test]
    fn flush_reload_blocked_by_baseline() {
        let outcome = AttackScenario::FlushReloadShared.run(DefenseConfig::Baseline);
        assert!(!outcome.leaked(), "baseline must block: {outcome:?}");
        assert!(outcome.candidates.is_empty(), "no probe line may fill");
    }

    #[test]
    fn expected_defense_matrix_matches_table_iv() {
        use AttackScenario::*;
        use DefenseConfig::*;
        for s in AttackScenario::ALL {
            assert!(!s.expected_defended(Origin));
            assert!(s.expected_defended(Baseline));
            assert!(s.expected_defended(CacheHit));
        }
        assert!(FlushReloadShared.expected_defended(CacheHitTpbuf));
        assert!(PrimeProbeShared.expected_defended(CacheHitTpbuf));
        assert!(!PrimeProbeNoShare.expected_defended(CacheHitTpbuf));
        assert!(!EvictTimeNoShare.expected_defended(CacheHitTpbuf));
    }

    #[test]
    fn scenario_labels_are_unique() {
        let labels: std::collections::HashSet<&str> =
            AttackScenario::ALL.iter().map(|s| s.label()).collect();
        assert_eq!(labels.len(), 6);
    }

    #[test]
    fn outcome_leak_requires_exact_recovery() {
        let o = AttackOutcome {
            recovered: Some(41),
            planted: 42,
            candidates: vec![41],
        };
        assert!(!o.leaked());
        let o = AttackOutcome {
            recovered: Some(42),
            planted: 42,
            candidates: vec![42],
        };
        assert!(o.leaked());
        let o = AttackOutcome {
            recovered: None,
            planted: 42,
            candidates: vec![1, 2],
        };
        assert!(!o.leaked());
    }
}
