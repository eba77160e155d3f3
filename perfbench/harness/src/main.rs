//! `condspec-perfbench`: the repository benchmark's measuring program.
//!
//! ```text
//! condspec-perfbench run --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!                        --work <work dir> --refs <reference dir>
//! condspec-perfbench references --work <work dir> --refs <reference dir>
//! ```
//!
//! `run` sets the workload up (in two blocks of at least five set-ups
//! and one second, before and after the timed phase; `setup_s` is the
//! median), repeats its operation for about `--seconds`, checks every
//! output and
//! prints one JSON line: `correct`, `attempted`, `failed` and the
//! metrics — the end-to-end set untraced, the per-layer set with
//! `--trace 1`. `references` regenerates the committed reference
//! outputs. `perfbench/run.py` builds this program and drives it.

mod calib;
mod common;
mod fig5;
mod layers;
mod replay;
mod sampled;
mod security;
mod serve;
mod sha256;
mod trace;

use common::{artifact_digests, fresh_dir, median, Outcome, RunConfig, WORKERS};
use condspec_engine::{run_sweep, Sweep, SweepOptions};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

pub const WORKLOADS: [&str; 4] = ["fig5-cold", "warm-serve", "sampled-long", "security-matrix"];

/// End-to-end metrics with their units, in print order. Times are at
/// the nominal host speed (see [`calib`]).
const END_TO_END: [(&str, &str); 3] = [
    ("op_p50_ms", "ms"),
    ("jobs_per_s", "jobs/s"),
    ("setup_s", "s"),
];

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn required(args: &[String], name: &str) -> Result<String, String> {
    flag(args, name)
        .map(str::to_string)
        .ok_or(format!("missing {name}"))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => run(&args),
        Some("references") => references(&args),
        _ => Err("usage: condspec-perfbench run|references [flags]".to_string()),
    };
    if let Err(e) = result {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let workload = required(args, "--workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (known: {})",
            WORKLOADS.join(", ")
        ));
    }
    let cfg = RunConfig {
        seed: required(args, "--seed")?
            .parse()
            .map_err(|_| "--seed takes a whole number")?,
        seconds: required(args, "--seconds")?
            .parse()
            .map_err(|_| "--seconds takes a number")?,
        trace: match required(args, "--trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace takes 0 or 1, not {other}")),
        },
        work: PathBuf::from(required(args, "--work")?),
        refs: PathBuf::from(required(args, "--refs")?),
    };
    let tr = common::tracer(&cfg, &workload);
    let mut outcome = match workload.as_str() {
        "fig5-cold" => fig5::run(&cfg, &tr),
        "warm-serve" => serve::run(&cfg, &tr),
        "sampled-long" => sampled::run(&cfg, &tr),
        _ => security::run(&cfg, &tr),
    }?;

    let mut metrics: Vec<(String, f64, &str)> = Vec::new();
    if cfg.trace {
        let spans_file = cfg
            .work
            .with_file_name(format!("spans-{workload}-seed{}.jsonl", cfg.seed));
        tr.write_jsonl(&spans_file)
            .map_err(|e| format!("writing {}: {e}", spans_file.display()))?;
        let per_layer = layers::per_layer(&tr, &mut outcome);
        for (name, unit) in layers::PER_LAYER {
            metrics.push((name.to_string(), per_layer[*name], unit));
        }
        eprintln!(
            "spans: {} written to {}",
            tr.spans().len(),
            spans_file.display()
        );
    } else {
        let e2e = end_to_end(&outcome);
        for (name, unit) in END_TO_END {
            metrics.push((name.to_string(), e2e[name], unit));
        }
    }
    let _ = std::fs::remove_dir_all(&cfg.work);

    let tally = &outcome.tally;
    for failure in &tally.first_failures {
        eprintln!("check failed: {failure}");
    }
    let notes: Vec<String> = outcome
        .notes
        .iter()
        .map(|(k, v)| format!("{k}={v:.4}"))
        .collect();
    let total_jobs: u64 = outcome.ops.iter().map(|s| s.jobs).sum();
    let timed: f64 = outcome.ops.iter().map(|s| s.secs).sum();
    let host = common::host_figures(&outcome);
    println!(
        "{workload} seed={} ops={} traced_ops={} jobs={total_jobs} timed_s={timed:.3} \
         wall_op_p50_ms={:.3} probe_ms={:.3} op_p90_ms={:.3} cpu_ms_per_job={:.4} \
         peak_rss_mb={:.3} wall_setup_s={:.5} setup_probe_ms={:.3} workers={WORKERS} threads={} \
         clients={} {}",
        cfg.seed,
        outcome.ops.len(),
        outcome.traced_ops.len(),
        host["host.wall_op_p50_ms"],
        host["host.probe_ms"],
        host["host.op_p90_ms"],
        host["host.cpu_ms_per_job"],
        host["host.peak_rss_mb"],
        median(&outcome.setups.iter().map(|s| s.secs).collect::<Vec<_>>()),
        median(
            &outcome
                .setups
                .iter()
                .map(|s| s.probe_s * 1e3)
                .collect::<Vec<_>>()
        ),
        outcome.threads,
        outcome.clients,
        notes.join(" ")
    );
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                number(*value)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0,
        tally.attempted.max(1),
        tally.failed,
        body.join(", ")
    );
    Ok(())
}

/// A finite JSON number with all its digits.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

fn end_to_end(outcome: &Outcome) -> BTreeMap<&'static str, f64> {
    let ops = &outcome.ops;
    let latencies: Vec<f64> = ops.iter().map(|s| outcome.op_s(s) * 1e3).collect();
    let jobs: u64 = ops.iter().map(|s| s.jobs).sum();
    let secs: f64 = ops.iter().map(|s| outcome.op_s(s)).sum();
    let setups: Vec<f64> = outcome.setups.iter().map(|s| s.nominal_s()).collect();
    BTreeMap::from([
        ("op_p50_ms", median(&latencies)),
        ("jobs_per_s", jobs as f64 / secs),
        ("setup_s", median(&setups)),
    ])
}

/// Regenerates every committed reference: the fig5 and security-matrix
/// artifact digests and the sampled-long reference cycles.
fn references(args: &[String]) -> Result<(), String> {
    let work = PathBuf::from(required(args, "--work")?);
    let refs = PathBuf::from(required(args, "--refs")?);
    std::fs::create_dir_all(&refs).map_err(|e| e.to_string())?;
    let digests = |names: &[&str], file: &str| -> Result<(), String> {
        fresh_dir(&work)?;
        let mut lines = String::new();
        for name in names {
            let sweep = Sweep::by_name(name).ok_or(format!("no {name} sweep"))?;
            let outcome = run_sweep(
                &sweep,
                &SweepOptions {
                    workers: WORKERS,
                    root: work.join("runs"),
                    store: Some(work.join("store")),
                    quiet: true,
                    ..SweepOptions::default()
                },
            )
            .map_err(|e| format!("{name}: {e}"))?;
            if !outcome.failed.is_empty() {
                return Err(format!("{name}: {} jobs failed", outcome.failed.len()));
            }
            for (artifact, digest) in artifact_digests(&outcome.dir) {
                lines.push_str(&format!("{artifact} {digest}\n"));
            }
        }
        write_reference(&refs.join(file), names, &lines)
    };
    digests(&["fig5"], "fig5-artifacts.sha256")?;
    digests(&security::SWEEPS, "security-artifacts.sha256")?;
    sampled::regenerate(&refs, &work)?;
    let _ = std::fs::remove_dir_all(&work);
    Ok(())
}

fn write_reference(path: &Path, sweeps: &[&str], lines: &str) -> Result<(), String> {
    let text = format!(
        "# sha256 of every job artifact of the {} sweep(s), default iterations.\n\
         # Regenerate: python3 perfbench/run.py --references\n{lines}",
        sweeps.join(" + ")
    );
    std::fs::write(path, text).map_err(|e| format!("writing {}: {e}", path.display()))
}
