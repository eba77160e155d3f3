//! The observability layer's end-to-end guarantees: time-series
//! sampling is deterministic (same job, byte-identical series — even
//! though window boundaries cut across idle fast-forward jumps), the
//! Perfetto exporter produces a well-formed Chrome trace of a real
//! Spectre-gadget round, and the trace's event counts reconcile with the
//! core's statistics.

use condspec::{DefenseConfig, SimConfig, Simulator};
use condspec_engine::{JobSpec, Workload};
use condspec_pipeline::perfetto::{to_chrome_trace, TRACE_SCHEMA};
use condspec_pipeline::{
    BlockFilter, SquashCause, TaintConfig, TraceBuffer, TraceEvent, TIMESERIES_SCHEMA,
};
use condspec_stats::Json;
use condspec_workloads::gadgets::SpectreGadget;
use condspec_workloads::spec::{build_program, by_name};
use condspec_workloads::GadgetKind;
use std::collections::BTreeMap;
use std::sync::Arc;

fn tiny_bench(benchmark: &'static str, defense: DefenseConfig) -> JobSpec {
    let mut job = JobSpec::bench(benchmark, defense);
    if let Workload::Bench {
        iterations, warmup, ..
    } = &mut job.workload
    {
        *iterations = 3;
        *warmup = 1;
    }
    job
}

#[test]
fn sampled_series_is_byte_identical_across_runs() {
    for defense in [DefenseConfig::Origin, DefenseConfig::CacheHitTpbuf] {
        let job = tiny_bench("gcc", defense);
        let a = job.execute_timeseries(5_000, 1 << 14).render();
        let b = job.execute_timeseries(5_000, 1 << 14).render();
        assert_eq!(a, b, "series for {defense:?} differs between runs");

        let doc = Json::parse(&a).expect("valid JSON");
        let series = doc.get("timeseries").expect("timeseries member");
        assert_eq!(
            series.get("schema").and_then(Json::as_str),
            Some(TIMESERIES_SCHEMA)
        );
        let rows = series.get("rows").and_then(Json::as_array).expect("rows");
        assert!(!rows.is_empty(), "a real run samples at least one window");
        // Full interior windows are exactly `window` cycles; starts tile
        // the run without gaps, whether the cycles were stepped or
        // fast-forwarded over.
        let mut expected_start = 0;
        for row in rows {
            assert_eq!(
                row.get("start").and_then(Json::as_u64),
                Some(expected_start)
            );
            let cycles = row.get("cycles").and_then(Json::as_u64).expect("cycles");
            assert!(cycles <= 5_000, "window never exceeds the configured size");
            expected_start += cycles;
        }
        let report_cycles = doc
            .get("report")
            .and_then(|r| r.get("cycles"))
            .and_then(Json::as_u64)
            .expect("report cycles");
        assert_eq!(
            expected_start, report_cycles,
            "windows tile the measured run exactly"
        );
    }
}

/// One traced malicious round of the Spectre-v1 gadget under the
/// Cache-hit filter (which blocks every suspect miss, so the round is
/// guaranteed to contain Block events), as `condspec trace` runs it.
fn traced_gadget_round() -> condspec_pipeline::TraceBuffer {
    let gadget = SpectreGadget::build(GadgetKind::V1);
    let mut sim = Simulator::new(SimConfig::new(DefenseConfig::CacheHit));
    sim.load_program(gadget.program.clone());
    sim.write_memory(gadget.input_addr, gadget.train_input, 8);
    sim.run(500_000);
    sim.load_program(gadget.program.clone());
    sim.write_memory(gadget.input_addr, gadget.attack_input, 8);
    if let Some(len) = gadget.len_addr {
        let pa = sim.core().page_table().translate(len);
        sim.core_mut().hierarchy_mut().flush_line(pa);
    }
    sim.core_mut().enable_trace(1 << 15);
    sim.run(500_000);
    sim.core_mut().disable_trace().expect("tracing enabled")
}

#[test]
fn perfetto_export_of_a_gadget_round_is_valid_and_monotonic() {
    let trace = traced_gadget_round();
    assert!(!trace.is_empty());
    assert_eq!(trace.dropped(), 0, "the buffer is large enough");

    let doc = to_chrome_trace(&trace);
    let reparsed = Json::parse(&doc.render()).expect("exporter emits valid JSON");
    assert_eq!(
        reparsed
            .get("otherData")
            .and_then(|o| o.get("schema"))
            .and_then(Json::as_str),
        Some(TRACE_SCHEMA)
    );
    let events = reparsed
        .get("traceEvents")
        .and_then(Json::as_array)
        .expect("traceEvents array");

    let mut last_ts = 0;
    let mut slices = 0;
    let mut blocks = 0;
    for event in events {
        let ph = event.get("ph").and_then(Json::as_str).expect("phase");
        if ph == "M" {
            continue; // metadata carries no timestamp
        }
        let ts = event.get("ts").and_then(Json::as_u64).expect("timestamp");
        assert!(ts >= last_ts, "timestamps regress: {ts} after {last_ts}");
        last_ts = ts;
        if ph == "X" {
            slices += 1;
            if event.get("name").and_then(Json::as_str) == Some("block") {
                blocks += 1;
                let args = event.get("args").expect("block args");
                assert!(args.get("filter").and_then(Json::as_str).is_some());
                assert!(args.get("vaddr").and_then(Json::as_str).is_some());
            }
        }
    }
    assert!(slices > 0, "the round produces slice events");
    assert!(
        blocks > 0,
        "the defended gadget round must contain blocked accesses"
    );

    // The export is itself deterministic.
    assert_eq!(doc.render(), to_chrome_trace(&trace).render());
}

/// The statistics a trace narrates, as `(name, events counted in the
/// trace, statistic)` pairs: each event kind against the counter its
/// emission site bumps.
fn reconciliation(sim: &Simulator, trace: &TraceBuffer) -> Vec<(&'static str, u64, u64)> {
    let count = |pred: fn(&TraceEvent) -> bool| trace.events().filter(|e| pred(e)).count() as u64;
    let stats = sim.core().stats();
    let mut pairs = vec![
        (
            "Commit = committed",
            count(|e| matches!(e, TraceEvent::Commit { .. })),
            stats.committed,
        ),
        (
            "Issue = issued",
            count(|e| matches!(e, TraceEvent::Issue { .. })),
            stats.issued,
        ),
        (
            "security Block = block_events",
            count(|e| {
                matches!(
                    e,
                    TraceEvent::Block {
                        filter: BlockFilter::Baseline
                            | BlockFilter::CacheMiss
                            | BlockFilter::SPattern,
                        ..
                    }
                )
            }),
            stats.block_events,
        ),
        (
            "Squash(mispredict) = mispredict_squashes",
            count(|e| {
                matches!(
                    e,
                    TraceEvent::Squash {
                        cause: SquashCause::Mispredict,
                        ..
                    }
                )
            }),
            stats.mispredict_squashes,
        ),
        (
            "Squash(mem-order) = violation_squashes",
            count(|e| {
                matches!(
                    e,
                    TraceEvent::Squash {
                        cause: SquashCause::MemOrder,
                        ..
                    }
                )
            }),
            stats.violation_squashes,
        ),
    ];
    if let Some(leaks) = sim.core().leak_report() {
        pairs.push((
            "Leak = leak_report().total()",
            count(|e| matches!(e, TraceEvent::Leak { .. })),
            leaks.total(),
        ));
    }
    pairs
}

/// A squash-heavy SPEC-calibrated program traced from a statistics reset
/// to its halt.
fn traced_benchmark(name: &str, defense: DefenseConfig) -> (Simulator, TraceBuffer) {
    let spec = by_name(name).expect("known benchmark");
    let program = Arc::new(build_program(&spec, 1));
    let mut sim = Simulator::new(SimConfig::new(defense));
    sim.core_mut().enable_trace(1 << 20);
    sim.run_to_halt(&program, 50_000_000);
    let trace = sim.core_mut().disable_trace().expect("tracing enabled");
    (sim, trace)
}

/// Two malicious gadget rounds after training runs (the leak probe's
/// protocol: the first round warms the victim's own lines), traced with
/// the taint oracle on from a statistics reset to the last halt.
fn traced_leak_rounds(kind: GadgetKind, defense: DefenseConfig) -> (Simulator, TraceBuffer) {
    let gadget = SpectreGadget::build(kind);
    let mut sim = Simulator::new(SimConfig::new(defense));
    for _ in 0..8 {
        sim.load_program(gadget.program.clone());
        sim.write_memory(gadget.input_addr, gadget.train_input, 8);
        sim.run(500_000);
    }
    let secret_pa = sim.core().page_table().translate(gadget.secret_addr);
    let secret_len = gadget.planted_secret_bytes().len() as u64;
    sim.core_mut()
        .enable_taint(TaintConfig::range(secret_pa, secret_len));
    sim.core_mut().enable_trace(1 << 17);
    sim.reset_stats();
    for _ in 0..2 {
        sim.load_program(gadget.program.clone());
        sim.write_memory(gadget.input_addr, gadget.attack_input, 8);
        if let Some(len) = gadget.len_addr {
            let pa = sim.core().page_table().translate(len);
            sim.core_mut().hierarchy_mut().flush_line(pa);
        }
        sim.run(500_000);
        assert!(sim.core().is_halted(), "{kind:?} round must complete");
    }
    let trace = sim.core_mut().disable_trace().expect("tracing enabled");
    (sim, trace)
}

#[test]
fn trace_event_counts_reconcile_with_pipeline_stats() {
    let mut runs = Vec::new();
    for defense in [DefenseConfig::Origin, DefenseConfig::CacheHitTpbuf] {
        runs.push((
            format!("mcf under {defense}"),
            traced_benchmark("mcf", defense),
        ));
    }
    for kind in [GadgetKind::V1, GadgetKind::V4] {
        for defense in [DefenseConfig::Origin, DefenseConfig::CacheHit] {
            runs.push((
                format!("{kind:?} rounds under {defense}"),
                traced_leak_rounds(kind, defense),
            ));
        }
    }
    // Every identity must be exercised by a nonzero count somewhere, or
    // the equalities below prove nothing.
    let mut exercised = BTreeMap::new();
    for (label, (sim, trace)) in &runs {
        assert_eq!(trace.dropped(), 0, "{label}: the ring dropped events");
        for (identity, events, stat) in reconciliation(sim, trace) {
            assert_eq!(events, stat, "{label}: {identity}");
            *exercised.entry(identity).or_insert(0) += stat;
        }
    }
    assert_eq!(exercised.len(), 6, "every identity was checked");
    for (identity, total) in exercised {
        assert!(total > 0, "no run exercised {identity}");
    }
}
