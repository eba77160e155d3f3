//! Shared experiment-harness helpers for the table/figure reproductions.
//!
//! Every `cargo bench` target in this crate regenerates one of the
//! paper's tables or figures; the sweep logic they share (run a
//! calibrated benchmark on a configured machine, with warm-up, and
//! collect the paper's metrics) lives here.

pub mod perf;
mod stage;

use condspec::{DefenseConfig, Report, SimConfig, Simulator};
use condspec_workloads::spec::{build_program, WorkloadSpec};

/// Outer iterations per measured benchmark run (~4.8k instructions per
/// iteration). Chosen so the full Figure 5 sweep finishes in minutes
/// while staying far beyond the warm-up transient.
pub const DEFAULT_OUTER_ITERATIONS: u64 = 40;

/// Cycle budget per run; generously above any defense's worst case.
pub const RUN_BUDGET: u64 = 200_000_000;

/// Outer iterations of the separate warm-up run executed before the
/// measured run (caches and predictors stay warm across program loads).
/// Warming by *work* rather than by cycles keeps the measured windows of
/// different defenses architecturally identical, so normalized cycle
/// counts compare like for like.
pub const WARMUP_ITERATIONS: u64 = 6;

/// One benchmark x configuration measurement.
#[derive(Debug, Clone)]
pub struct RunMeasurement {
    /// Benchmark name.
    pub benchmark: &'static str,
    /// Defense environment.
    pub defense: DefenseConfig,
    /// The evaluation report for the measured window.
    pub report: Report,
}

/// Runs one benchmark under one configuration: load, warm up, measure to
/// halt, report.
///
/// # Panics
///
/// Panics if the generated program does not halt within [`RUN_BUDGET`]
/// (a harness bug, not a measurement).
pub fn run_benchmark(
    spec: &WorkloadSpec,
    config: SimConfig,
    outer_iterations: u64,
) -> RunMeasurement {
    let mut sim = Simulator::new(config);
    let warmup = std::sync::Arc::new(build_program(spec, WARMUP_ITERATIONS));
    let program = std::sync::Arc::new(build_program(spec, outer_iterations));
    let report = sim.run_job(Some(&warmup), &program, RUN_BUDGET);
    RunMeasurement {
        benchmark: spec.name,
        defense: config.defense,
        report,
    }
}

/// The shared entry point of the table/figure harnesses: runs the named
/// engine sweep and prints its rendered table.
///
/// Recognized arguments (everything else — e.g. the `--bench` flag
/// cargo passes to harness binaries — is ignored): `--jobs <n>`,
/// `--resume`, `--quiet`, `--root <dir>`.
pub fn sweep_main(name: &str) -> std::process::ExitCode {
    use std::process::ExitCode;

    // A path may be any bytes: refuse a non-UTF-8 argument, don't panic.
    let args: Vec<String> = match std::env::args_os()
        .skip(1)
        .map(std::ffi::OsString::into_string)
        .collect()
    {
        Ok(args) => args,
        Err(bad) => {
            eprintln!("argument `{}` is not valid UTF-8", bad.to_string_lossy());
            return ExitCode::FAILURE;
        }
    };
    let sweep = condspec_engine::Sweep::by_name(name).expect("harness names a known sweep");
    let mut opts = condspec_engine::SweepOptions {
        resume: args.iter().any(|a| a == "--resume"),
        quiet: args.iter().any(|a| a == "--quiet"),
        ..Default::default()
    };
    let value_of = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|pos| args.get(pos + 1))
            .cloned()
    };
    if let Some(jobs) = value_of("--jobs") {
        match jobs.parse::<usize>() {
            Ok(n) => opts.workers = n,
            Err(_) => {
                eprintln!("bad --jobs `{jobs}`");
                return ExitCode::FAILURE;
            }
        }
    }
    if let Some(root) = value_of("--root") {
        opts.root = root.into();
    }
    let outcome = match condspec_engine::run_sweep(&sweep, &opts) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("sweep {name} failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("{}", sweep.render(&outcome.results));
    println!(
        "sweep {}: {} executed, {} skipped, {} failed — artifacts in {}",
        outcome.sweep_id,
        outcome.executed,
        outcome.skipped,
        outcome.failed.len(),
        outcome.dir.display()
    );
    for (hash, label, error) in &outcome.failed {
        eprintln!("failed job {hash} ({label}): {error}");
    }
    if outcome.failed.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use condspec_workloads::spec::by_name;

    #[test]
    fn run_benchmark_produces_nonzero_window() {
        let spec = by_name("sjeng").expect("suite benchmark");
        let m = run_benchmark(&spec, SimConfig::new(DefenseConfig::Origin), 4);
        assert!(m.report.cycles > 0);
        assert!(m.report.committed > 0);
        assert_eq!(m.defense, DefenseConfig::Origin);
    }

    #[test]
    fn defenses_ordering_on_one_benchmark() {
        let spec = by_name("gcc").expect("suite benchmark");
        let runs: Vec<RunMeasurement> = DefenseConfig::ALL
            .iter()
            .map(|&d| run_benchmark(&spec, SimConfig::new(d), 20))
            .collect();
        assert_eq!(runs[0].defense, DefenseConfig::Origin);
        let origin = runs[0].report.cycles.max(1) as f64;
        for r in &runs[1..] {
            assert!(
                r.report.cycles as f64 / origin >= 0.9,
                "defenses should not speed the machine up: {} {}",
                r.benchmark,
                r.defense
            );
        }
    }
}
