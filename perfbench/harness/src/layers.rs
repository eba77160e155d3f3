//! Per-layer metrics from the traced operations' spans and counters.
//!
//! Layer names are the crate names. A span's layer is the part of its
//! name before the first `.`; the harness's own root spans (`op`,
//! `replay`) are the unattributed remainder. Every figure is per traced
//! operation.

use crate::common::{host_figures, median, Outcome, WORKERS};
use crate::trace::{self, Span, Tracer};
use std::collections::BTreeMap;

/// Every per-layer metric the traced run prints, with its unit. Each
/// workload prints all of them; a layer a workload does not exercise
/// reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("workloads.build_s", "s"),
    ("workloads.builds", "count"),
    ("workloads.self_s", "s"),
    ("core.sim_s", "s"),
    ("core.ns_per_cycle", "ns"),
    ("core.ns_per_inst", "ns"),
    ("core.minst_per_s", "Minst/s"),
    ("core.sim_cycles", "count"),
    ("core.committed", "count"),
    ("core.self_s", "s"),
    ("pipeline.squashed_insts", "count"),
    ("pipeline.mispredict_squashes", "count"),
    ("policy.block_events", "count"),
    ("mem.l1d_hit_rate", "ratio"),
    ("sampled.count_pass_s", "s"),
    ("sampled.fast_forward_s", "s"),
    ("sampled.functional_minst_per_s", "Minst/s"),
    ("sampled.windows_s", "s"),
    ("sampled.fast_forward_insts", "count"),
    ("sampled.detailed_insts", "count"),
    ("sampled.window_imbalance", "ratio"),
    ("sampled.stitch_s", "s"),
    ("sampled.total_insts", "count"),
    ("sampled.cycle_err_pct", "%"),
    ("sampled.self_s", "s"),
    ("engine.pool_wall_s", "s"),
    ("engine.jobs", "count"),
    ("engine.job_s", "s"),
    ("engine.queue_wait_s", "s"),
    ("engine.worker_busy_frac", "ratio"),
    ("engine.tail_s", "s"),
    ("engine.per_job_overhead_ms", "ms"),
    ("engine.program_cache_hits", "count"),
    ("engine.artifact_write_s", "s"),
    ("engine.artifact_bytes", "bytes"),
    ("engine.manifest_write_s", "s"),
    ("engine.render_s", "s"),
    ("engine.max_concurrent_jobs", "count"),
    ("engine.self_s", "s"),
    ("store.load_s", "s"),
    ("store.loads", "count"),
    ("store.hits", "count"),
    ("store.misses", "count"),
    ("store.corrupt", "count"),
    ("store.insert_s", "s"),
    ("store.inserts", "count"),
    ("store.bytes_written", "bytes"),
    ("store.self_s", "s"),
    ("serve.submit_ms", "ms"),
    ("serve.first_line_ms", "ms"),
    ("serve.stream_ms", "ms"),
    ("serve.report_ms", "ms"),
    ("serve.stream_lines", "count"),
    ("serve.http_errors", "count"),
    ("serve.submit_p50_ms", "ms"),
    ("serve.submit_p90_ms", "ms"),
    ("serve.max_connections", "count"),
    ("serve.self_s", "s"),
    ("attacks.attack_s", "s"),
    ("attacks.variant_s", "s"),
    ("attacks.leak_probe_s", "s"),
    ("attacks.verdicts_matched", "count"),
    ("attacks.self_s", "s"),
    ("host.op_p90_ms", "ms"),
    ("host.cpu_ms_per_job", "ms"),
    ("host.peak_rss_mb", "MiB"),
    ("host.wall_op_p50_ms", "ms"),
    ("host.probe_ms", "ms"),
    ("trace.overhead_s", "s"),
    ("trace.unattributed_s", "s"),
    ("trace.thread_s", "s"),
    ("trace.spans", "count"),
];

const LAYERS: [&str; 7] = [
    "workloads",
    "core",
    "sampled",
    "engine",
    "store",
    "serve",
    "attacks",
];

fn layer_of(name: &str) -> Option<&'static str> {
    let prefix = name.split('.').next().unwrap_or("");
    LAYERS.iter().copied().find(|l| *l == prefix)
}

/// Per-pool tail (pool end minus the first worker to run dry) and
/// worker imbalance (busiest worker's job time over the mean).
fn pool_shape(spans: &[Span]) -> (f64, f64) {
    let mut tail = 0.0;
    let mut imbalance = Vec::new();
    for pool in spans.iter().filter(|s| s.name == "engine.pool") {
        let workers: Vec<&Span> = spans
            .iter()
            .filter(|s| s.name == "engine.worker" && s.parent == pool.id)
            .collect();
        if let Some(first_idle) = workers.iter().map(|w| w.end_ns).min() {
            tail += pool.end_ns.saturating_sub(first_idle) as f64 / 1e9;
        }
        let busy: Vec<f64> = workers
            .iter()
            .map(|w| {
                spans
                    .iter()
                    .filter(|s| s.name == "engine.job" && s.parent == w.id)
                    .map(Span::secs)
                    .sum()
            })
            .collect();
        let mean = busy.iter().sum::<f64>() / busy.len().max(1) as f64;
        if mean > 0.0 {
            imbalance.push(busy.iter().copied().fold(0.0, f64::max) / mean);
        }
    }
    let imbalance = if imbalance.is_empty() {
        0.0
    } else {
        imbalance.iter().sum::<f64>() / imbalance.len() as f64
    };
    (tail, imbalance)
}

/// Checks the spans against the timed loop's own clock and against each
/// other, so a missing or mis-parented span counts as a failure: the
/// root `op` spans must add up to the traced operations' measured time
/// (outside them the timer sees only loop bookkeeping), every other
/// root must be the harness's `replay`, and every span must lie inside
/// its parent.
fn check_fidelity(spans: &[Span], outcome: &mut Outcome) {
    let timed: f64 = outcome.traced_ops.iter().map(|s| s.secs).sum();
    let op_s: f64 = spans
        .iter()
        .filter(|s| s.parent == 0 && s.name == "op")
        .map(Span::secs)
        .sum();
    let slack = 0.01 * timed + 0.002 * outcome.traced_ops.len() as f64;
    outcome.tally.check((timed - op_s).abs() <= slack, || {
        format!("root op spans cover {op_s:.6} s of {timed:.6} s of traced operations")
    });
    let stray = spans
        .iter()
        .filter(|s| s.parent == 0 && s.name != "op" && s.name != "replay")
        .count();
    outcome
        .tally
        .check(stray == 0, || format!("{stray} spans have no parent"));
    let by_id: BTreeMap<u64, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    let outside = spans
        .iter()
        .filter(|s| {
            s.parent != 0
                && !by_id
                    .get(&s.parent)
                    .is_some_and(|p| p.start_ns <= s.start_ns && s.end_ns <= p.end_ns)
        })
        .count();
    outcome.tally.check(outside == 0, || {
        format!("{outside} spans lie outside their parent")
    });
}

/// Builds the per-layer map, and adds the span fidelity checks (see
/// [`check_fidelity`]) to the outcome.
pub fn per_layer(tr: &Tracer, outcome: &mut Outcome) -> BTreeMap<String, f64> {
    let spans = tr.spans();
    let counters = tr.counters();
    let ops = outcome.traced_ops.len().max(1) as f64;
    let (self_by_name, thread_s) = trace::self_times(&spans);
    let totals = trace::totals(&spans);
    let total = |n: &str| totals.get(n).map_or(0.0, |t| t.0);
    let count = |n: &str| totals.get(n).map_or(0, |t| t.1) as f64;
    let counter = |n: &str| counters.get(n).copied().unwrap_or(0.0);

    let mut m: BTreeMap<String, f64> = PER_LAYER
        .iter()
        .map(|(n, _)| (n.to_string(), 0.0))
        .collect();
    let mut set = |k: &str, v: f64| {
        m.insert(k.to_string(), v);
    };

    // Self time per layer, and the harness's unattributed remainder. The
    // pool span's own time is the collecting thread blocked on its
    // workers (whose spans carry the work), so it is neither a layer's
    // nor the harness's: it is subtracted from the traced thread time,
    // leaving Σ layer self + unattributed = busy time by definition.
    let mut layer_self: BTreeMap<&str, f64> = BTreeMap::new();
    let mut unattributed = 0.0;
    let mut blocked = 0.0;
    for (name, secs) in &self_by_name {
        match layer_of(name) {
            _ if *name == "engine.pool" => blocked += secs,
            Some(layer) => *layer_self.entry(layer).or_insert(0.0) += secs,
            None => unattributed += secs,
        }
    }
    let busy_s = thread_s - blocked;
    check_fidelity(&spans, outcome);
    for layer in LAYERS {
        set(
            &format!("{layer}.self_s"),
            layer_self.get(layer).copied().unwrap_or(0.0) / ops,
        );
    }

    set("workloads.build_s", total("workloads.build") / ops);
    set("workloads.builds", counter("workloads.builds") / ops);

    let sim_s = total("core.execute");
    set("core.sim_s", sim_s / ops);
    let cycles = outcome
        .layers
        .get("core.sim_cycles")
        .copied()
        .unwrap_or(0.0);
    let committed = outcome.layers.get("core.committed").copied().unwrap_or(0.0);
    if sim_s > 0.0 && cycles > 0.0 {
        set("core.ns_per_cycle", sim_s * 1e9 / (cycles * ops));
        set("core.ns_per_inst", sim_s * 1e9 / (committed * ops));
        set("core.minst_per_s", committed * ops / sim_s / 1e6);
    }

    let count_s = total("sampled.count_pass");
    let ff_s = total("sampled.fast_forward");
    set("sampled.count_pass_s", count_s / ops);
    set("sampled.fast_forward_s", ff_s / ops);
    set("sampled.windows_s", total("sampled.window") / ops);
    set("sampled.stitch_s", total("sampled.stitch") / ops);
    let functional_insts = counter("sampled.count_insts") + counter("sampled.fast_forward_insts");
    if count_s + ff_s > 0.0 {
        set(
            "sampled.functional_minst_per_s",
            functional_insts / (count_s + ff_s) / 1e6,
        );
    }
    set(
        "sampled.fast_forward_insts",
        counter("sampled.fast_forward_insts") / ops,
    );
    set(
        "sampled.detailed_insts",
        counter("sampled.detailed_insts") / ops,
    );

    let pool_s = total("engine.pool");
    let job_s = total("engine.job");
    let jobs = count("engine.job");
    let (tail, imbalance) = pool_shape(&spans);
    set("engine.pool_wall_s", pool_s / ops);
    set("engine.jobs", jobs / ops);
    set("engine.job_s", job_s / ops);
    if jobs > 0.0 {
        set("engine.queue_wait_s", counter("engine.queue_wait_s") / jobs);
    }
    if pool_s > 0.0 {
        set("engine.worker_busy_frac", job_s / (pool_s * WORKERS as f64));
    }
    set("engine.tail_s", tail / ops);
    set(
        "sampled.window_imbalance",
        if outcome.layers.contains_key("sampled.total_insts") {
            imbalance
        } else {
            0.0
        },
    );
    if jobs > 0.0 {
        set(
            "engine.per_job_overhead_ms",
            self_by_name.get("engine.job").copied().unwrap_or(0.0) * 1e3 / jobs,
        );
    }
    set(
        "engine.program_cache_hits",
        (counter("engine.cache_hits_raw") - counter("engine.prefetches")).max(0.0) / ops,
    );
    set(
        "engine.artifact_write_s",
        total("engine.artifact_write") / ops,
    );
    set(
        "engine.artifact_bytes",
        counter("engine.artifact_bytes") / ops,
    );
    set(
        "engine.manifest_write_s",
        total("engine.manifest_write") / ops,
    );
    set("engine.render_s", total("engine.render") / ops);
    set(
        "engine.max_concurrent_jobs",
        trace::max_concurrent(&spans, "engine.job") as f64,
    );

    set("store.load_s", total("store.load") / ops);
    set("store.loads", count("store.load") / ops);
    set("store.hits", counter("store.hits") / ops);
    set("store.misses", counter("store.misses") / ops);
    set("store.corrupt", counter("store.corrupt") / ops);
    set("store.insert_s", total("store.insert") / ops);
    set("store.inserts", count("store.insert") / ops);
    set("store.bytes_written", counter("store.bytes_written") / ops);

    set("serve.submit_ms", total("serve.submit") * 1e3 / ops);
    set("serve.stream_ms", total("serve.stream") * 1e3 / ops);
    set("serve.report_ms", total("serve.report") * 1e3 / ops);
    set(
        "serve.first_line_ms",
        counter("serve.first_line_s") * 1e3 / ops,
    );
    set("serve.stream_lines", counter("serve.stream_lines") / ops);
    set("serve.http_errors", counter("serve.http_errors") / ops);

    set("attacks.attack_s", total("attacks.attack") / ops);
    set("attacks.variant_s", total("attacks.variant") / ops);
    set("attacks.leak_probe_s", total("attacks.leak_probe") / ops);

    let plain: Vec<f64> = outcome.ops.iter().map(|s| s.secs).collect();
    let traced: Vec<f64> = outcome.traced_ops.iter().map(|s| s.secs).collect();
    set("trace.overhead_s", median(&traced) - median(&plain));
    set("trace.unattributed_s", unattributed / ops);
    set("trace.thread_s", busy_s / ops);
    set("trace.spans", spans.len() as f64 / ops);

    for (k, v) in host_figures(outcome) {
        set(k, v);
    }

    // Workload-provided figures (artifact counts, verdicts, latencies).
    for (k, v) in &outcome.layers {
        if m.contains_key(*k) {
            m.insert(k.to_string(), *v);
        }
    }
    m
}
