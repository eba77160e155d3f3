//! The stage cells of `condspec perf`: pipeline structures driven
//! directly.
//!
//! A simulation cell measures the simulator end to end; when it
//! regresses it says nothing about *which* structure slowed down. A
//! stage cell drives the data structure one pipeline stage leans on
//! with no core around it:
//!
//! * **dispatch** — issue-queue allocate/free churn plus the
//!   `views_excluding` dense-view rebuild the security policies consume
//!   at dispatch.
//! * **wakeup-select** — operand wakeups (`set_ops_ready`), the masked
//!   `unissued & ops_ready` candidate scan (`collect_ready`), the
//!   oldest-first sort, and the bounce/replay path through the blocked
//!   bitmap.
//! * **lsq-search** — store-forwarding overlay, unknown-address /
//!   unknown-data dependence checks and the memory-order-violation
//!   scan over seq-bounded bitmap ranges, with ring wrap and squashes.
//! * **commit** — ROB push/complete/pop ring churn with the
//!   `head_completed` bitmap test and the `all_older_completed`
//!   fence-style range check.
//!
//! Every cell runs a fixed, seeded operation stream and returns
//! `(ops, checksum)`, both deterministic on every host — the checksum
//! both defeats dead-code elimination and pins the structures'
//! *results*, not just their speed. `perf::run_matrix` times them like
//! every other cell and reports them in the same document.

use condspec_isa::Inst;
use condspec_pipeline::iq::{IqHot, IssueQueue};
use condspec_pipeline::lsq::Lsq;
use condspec_pipeline::policy::InstClass;
use condspec_pipeline::regfile::PhysReg;
use condspec_pipeline::rob::Rob;
use condspec_stats::SplitMix64;

/// A stage cell's operation stream: rounds → `(ops, checksum)`.
type StageRunner = fn(u64) -> (u64, u64);

/// The stage cells in run order: name, runner and the rounds of a
/// full-size run. A quick run does a fiftieth of them, at least one.
pub(crate) const STAGES: [(&str, StageRunner, u64); 4] = [
    ("dispatch", dispatch_cell, 4_000),
    ("wakeup-select", wakeup_select_cell, 6_000),
    ("lsq-search", lsq_search_cell, 6_000),
    ("commit", commit_cell, 3_000),
];

/// Capacities mirror the paper-default machine: 64-entry IQ, 192-entry
/// ROB, 32+32-entry LSQ.
const IQ_CAPACITY: usize = 64;
const ROB_CAPACITY: usize = 192;
const LSQ_CAPACITY: usize = 32;

#[inline]
fn mix(sum: u64, x: u64) -> u64 {
    (sum.rotate_left(7) ^ x).wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// IQ allocate/free churn + the dispatch-path dense-view rebuild.
fn dispatch_cell(rounds: u64) -> (u64, u64) {
    let mut iq = IssueQueue::new(IQ_CAPACITY);
    let mut rng = SplitMix64::new(0x57a6_e5ee_d001);
    let mut resident: Vec<usize> = Vec::with_capacity(IQ_CAPACITY);
    let (mut seq, mut ops, mut sum) = (0u64, 0u64, 0u64);
    for _ in 0..rounds {
        while !iq.is_full() {
            let class = match seq % 3 {
                0 => InstClass::Memory,
                1 => InstClass::Branch,
                _ => InstClass::Other,
            };
            let srcs = [
                Some((seq % 96) as PhysReg),
                (seq % 2 == 0).then_some(((seq + 7) % 96) as PhysReg),
            ];
            let slot = iq
                .allocate(IqHot::new(
                    seq,
                    class,
                    srcs,
                    class == InstClass::Memory,
                    false,
                ))
                .expect("IQ has space");
            // The policies consume the pre-allocation view set on every
            // dispatch; rebuilding it is part of the stage's cost.
            let views = iq.views_excluding(slot);
            sum = mix(sum, views.len() as u64 ^ (slot as u64) << 8);
            iq.set_ops_ready(slot);
            resident.push(slot);
            seq += 1;
            ops += 1;
        }
        while !resident.is_empty() {
            let pick = (rng.next_u64() % resident.len() as u64) as usize;
            let slot = resident.swap_remove(pick);
            iq.mark_issued(slot);
            iq.free_slot(slot);
            sum = mix(sum, slot as u64);
            ops += 1;
        }
    }
    (ops, sum)
}

/// Wakeups, the masked candidate scan, select order, and bounce/replay.
fn wakeup_select_cell(rounds: u64) -> (u64, u64) {
    let mut iq = IssueQueue::new(IQ_CAPACITY);
    let mut rng = SplitMix64::new(0x57a6_e5ee_d002);
    let mut scratch: Vec<(u64, usize)> = Vec::with_capacity(IQ_CAPACITY);
    let mut pending: Vec<usize> = Vec::with_capacity(IQ_CAPACITY);
    let mut bounced_once = [false; IQ_CAPACITY];
    let (mut seq, mut ops, mut sum) = (0u64, 0u64, 0u64);
    for _ in 0..rounds {
        while !iq.is_full() {
            let slot = iq
                .allocate(IqHot::new(
                    seq,
                    InstClass::Memory,
                    [Some((seq % 96) as PhysReg), None],
                    true,
                    false,
                ))
                .expect("IQ has space");
            pending.push(slot);
            bounced_once[slot] = false;
            seq += 1;
        }
        // Wakeup: results arrive in pseudo-random order.
        while !pending.is_empty() {
            let pick = (rng.next_u64() % pending.len() as u64) as usize;
            let slot = pending.swap_remove(pick);
            iq.set_ops_ready(slot);
            ops += 1;
        }
        // Select: masked scan + oldest-first sort, 8-wide; every fourth
        // winner bounces once (hazard filter) and replays on a later
        // scan through the blocked bitmap.
        loop {
            scratch.clear();
            iq.collect_ready(&mut scratch);
            if scratch.is_empty() {
                break;
            }
            scratch.sort_unstable();
            let mut blocked_seen = 0u64;
            iq.for_each_blocked(|_| blocked_seen += 1);
            sum = mix(sum, scratch.len() as u64 ^ blocked_seen << 32);
            for (inst_seq, slot) in scratch.iter().copied().take(8) {
                iq.mark_issued(slot);
                if inst_seq % 4 == 3 && !bounced_once[slot] {
                    bounced_once[slot] = true;
                    iq.bounce(slot);
                } else {
                    iq.free_slot(slot);
                }
                sum = mix(sum, inst_seq ^ (slot as u64) << 16);
                ops += 1;
            }
        }
    }
    (ops, sum)
}

/// Store-forwarding, dependence checks and the violation scan over a
/// wrapping, squashed LSQ.
fn lsq_search_cell(rounds: u64) -> (u64, u64) {
    let mut lsq = Lsq::new(LSQ_CAPACITY, LSQ_CAPACITY);
    let mut rng = SplitMix64::new(0x57a6_e5ee_d003);
    let mut squash_scratch: Vec<u64> = Vec::with_capacity(2 * LSQ_CAPACITY);
    let mut loads: Vec<u64> = Vec::with_capacity(LSQ_CAPACITY);
    let mut stores: Vec<(u64, u64, u64)> = Vec::with_capacity(LSQ_CAPACITY);
    let (mut seq, mut ops, mut sum) = (0u64, 0u64, 0u64);
    for round in 0..rounds {
        loads.clear();
        stores.clear();
        // Dispatch an interleaved window over a 64-line address pool so
        // forwarding and violation hits actually occur.
        while lsq.load_has_space() && lsq.store_has_space() {
            let addr = 0x1000 + 8 * (rng.next_u64() % 64);
            let size = 1u64 << (rng.next_u64() % 4);
            if rng.next_u64().is_multiple_of(3) {
                lsq.allocate_store(seq, size).expect("STQ has space");
                stores.push((seq, addr, size));
            } else {
                lsq.allocate_load(seq, size).expect("LDQ has space");
                loads.push(seq);
                // Half the loads execute eagerly — before older stores
                // resolve — so violation_on_store scans find real hits.
                if rng.next_u64().is_multiple_of(2) {
                    sum = mix(sum, lsq.older_store_unknown(seq) as u64);
                    lsq.resolve_load(seq, addr, true);
                    ops += 1;
                }
            }
            seq += 1;
        }
        // Resolve store addresses then data, checking for violations
        // and re-running the dependence queries a waiting load would.
        for (store_seq, addr, size) in stores.iter().copied() {
            lsq.resolve_store_addr(store_seq, addr);
            if let Some(victim) = lsq.violation_on_store(store_seq, addr, size) {
                sum = mix(sum, victim);
            }
            ops += 1;
        }
        for (store_seq, addr, _) in stores.iter().copied() {
            lsq.resolve_store_data(store_seq, addr ^ 0xabcd);
            ops += 1;
        }
        for load_seq in loads.iter().copied() {
            let addr = 0x1000 + 8 * (load_seq % 64);
            sum = mix(sum, lsq.older_store_data_unknown(load_seq, addr, 8) as u64);
            sum = mix(sum, lsq.overlay(load_seq, addr, 8, 0x5555_5555_5555_5555));
            ops += 2;
        }
        // Alternate squash and in-order release so the rings wrap and
        // the word-wise clears run on both split shapes.
        if round % 4 == 3 {
            let cut = seq - (seq - loads[0].min(stores.first().map_or(seq, |s| s.0))) / 2;
            lsq.squash_after_into(cut, &mut squash_scratch);
            sum = mix(sum, squash_scratch.len() as u64);
            for &removed in &squash_scratch {
                sum = mix(sum, removed);
            }
            loads.retain(|&l| l <= cut);
            stores.retain(|&(s, _, _)| s <= cut);
            ops += 1;
        }
        for load_seq in loads.iter().copied() {
            lsq.release_load(load_seq);
            ops += 1;
        }
        for (store_seq, _, _) in stores.iter().copied() {
            lsq.release_store(store_seq);
            ops += 1;
        }
        assert_eq!(lsq.load_count(), 0, "all loads released");
        assert_eq!(lsq.store_count(), 0, "all stores released");
    }
    (ops, sum)
}

/// ROB ring churn: push, out-of-order completion, in-order pop.
fn commit_cell(rounds: u64) -> (u64, u64) {
    let mut rob = Rob::new(ROB_CAPACITY);
    let mut pool = Vec::new();
    let mut rng = SplitMix64::new(0x57a6_e5ee_d004);
    let mut window: Vec<u64> = Vec::with_capacity(ROB_CAPACITY);
    let (mut seq, mut ops, mut sum) = (0u64, 0u64, 0u64);
    for _ in 0..rounds {
        window.clear();
        while !rob.is_full() {
            rob.push(seq, 0x400_0000 + 4 * seq, Inst::Nop, 0x400_0004 + 4 * seq);
            window.push(seq);
            seq += 1;
            ops += 1;
        }
        // Complete the window in pseudo-random order; the fence-style
        // range check runs against the moving completion frontier.
        while !window.is_empty() {
            let pick = (rng.next_u64() % window.len() as u64) as usize;
            let done = window.swap_remove(pick);
            rob.mark_issued(done);
            rob.mark_completed(done);
            sum = mix(sum, rob.all_older_completed(done) as u64 ^ done << 1);
            ops += 1;
            // Drain whatever became committable.
            while rob.head_completed() {
                let hot = rob.pop_head_recycle(&mut pool).expect("head exists");
                sum = mix(sum, hot.seq);
                ops += 1;
            }
        }
        assert!(rob.is_empty(), "window fully committed");
    }
    (ops, sum)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::perf::{
        compare, to_json, validate, CellMode, HostInfo, PerfCell, PerfOptions,
        MIN_THROUGHPUT_RATIO, SCHEMA,
    };
    use condspec_stats::Json;

    #[test]
    fn quick_suite_is_deterministic_and_valid() {
        let opts = PerfOptions {
            quick: true,
            ..PerfOptions::paper_default()
        };
        let run = || -> Vec<PerfCell> {
            STAGES
                .iter()
                .map(|&(stage, runner, full_rounds)| PerfCell {
                    workload: stage,
                    defense: None,
                    mode: CellMode::Stage,
                    work: runner(opts.stage_rounds(full_rounds)),
                    wall_seconds: 0.001,
                })
                .collect()
        };
        let (a, b) = (run(), run());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.work, y.work, "{}", x.workload);
            assert!(x.work.0 > 0, "{} does no operations", x.workload);
        }
        let doc = to_json(&opts, &a);
        let parsed = Json::parse(&doc.render()).expect("round-trips");
        validate(&parsed).expect("valid document");
        let names: Vec<_> = parsed
            .get("cells")
            .and_then(Json::as_array)
            .expect("cells")
            .iter()
            .map(|c| c.get("workload").and_then(Json::as_str).expect("workload"))
            .collect();
        assert_eq!(names, STAGES.map(|(stage, ..)| stage));
    }

    /// A report of the four stage cells, each doing `ops` at `per_sec`.
    fn tiny_report(ops: u64, per_sec: f64) -> Json {
        let cells: Vec<String> = STAGES
            .iter()
            .map(|(stage, ..)| {
                format!(
                    r#"{{"workload":"{stage}","mode":"stage","ops":{ops},"checksum":7,
                        "wall_seconds":0.5,"ops_per_sec":{per_sec}}}"#
                )
            })
            .collect();
        Json::parse(&format!(
            r#"{{"schema":"{SCHEMA}","machine":"paper-default","mode":"quick",
                 "host":{{"tag":"test-host","rustc":"rustc 1.0.0","cpus":1}},
                 "cells":[{}]}}"#,
            cells.join(",")
        ))
        .expect("test report parses")
    }

    fn host(tag: &str) -> HostInfo {
        HostInfo {
            tag: tag.to_string(),
            rustc: "rustc 1.0.0".to_string(),
            cpus: 1,
        }
    }

    #[test]
    fn compare_checks_work_everywhere_and_gates_throughput() {
        let base = tiny_report(100, 1000.0);
        let same = compare(&base, &base, &host("test-host"), false).expect("comparable");
        assert!(same.passed(), "{:?}", same.failures);
        assert!(same.throughput_note.contains("throughput checked"));

        let drifted = compare(&tiny_report(101, 1000.0), &base, &host("other-host"), false)
            .expect("comparable");
        assert!(!drifted.passed());
        assert!(drifted.failures[0].contains("simulated work changed"));

        let slow = tiny_report(100, 1000.0 * (MIN_THROUGHPUT_RATIO - 0.05));
        let gated = compare(&slow, &base, &host("test-host"), false).expect("comparable");
        assert!(!gated.passed());
        assert!(gated.failures[0].contains("ops_per_sec regressed"));
        let cross = compare(&slow, &base, &host("other-host"), false).expect("comparable");
        assert!(cross.passed(), "cross-host throughput is not comparable");
        assert!(cross.throughput_note.contains("tag mismatch"));
        let skipped = compare(&slow, &base, &host("test-host"), true).expect("comparable");
        assert!(skipped.passed());
    }

    #[test]
    fn compare_rejects_unknown_stage_and_mode_mismatch() {
        let base = tiny_report(100, 1000.0);
        let renamed = base.render().replace("\"dispatch\"", "\"warp-drive\"");
        let renamed = Json::parse(&renamed).expect("parses");
        assert!(compare(&renamed, &base, &host("h"), false)
            .unwrap_err()
            .contains("not in the baseline"));
        let full_mode =
            Json::parse(&base.render().replace("\"quick\"", "\"full\"")).expect("parses");
        assert!(compare(&base, &full_mode, &host("h"), false)
            .unwrap_err()
            .contains("mode mismatch"));
    }
}
