//! Hand-rolled argument parsing for the `condspec` command-line driver
//! (kept dependency-free).

use condspec::{DefenseConfig, MachineConfig};
use condspec_attacks::AttackScenario;
use condspec_bench::perf::CellFilter;
use condspec_workloads::GadgetKind;
use std::error::Error;
use std::ffi::OsString;
use std::fmt;

/// Output format for `condspec trace`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceFormat {
    /// Human-readable event lines (default).
    Text,
    /// Chrome trace-event JSON, loadable in Perfetto or chrome://tracing.
    Perfetto,
}

/// Simulation mode for `condspec run`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunMode {
    /// Cycle-accurate out-of-order pipeline (default).
    Detailed,
    /// Architectural-only execution: no IQ/LSQ/ROB/cache modelling,
    /// two orders of magnitude faster — the sampled-run fast-forward.
    Functional,
    /// SimPoint-style sampling: functional fast-forward to evenly
    /// spaced checkpoints, a detailed window at each, weighted stitch.
    Sampled,
}

/// Output format for `condspec timeseries`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeriesFormat {
    /// JSON document with run parameters, sampled rows and final metrics.
    Json,
    /// Sampled rows as CSV with a header line.
    Csv,
}

/// Maintenance action for `condspec store`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreAction {
    /// Entry/byte/stray-temp counts plus the on-disk summary line.
    Stats,
    /// Drop stale-fingerprint and damaged entries, reclaim bytes.
    Gc,
    /// Deep-scan every entry's envelope and payload checksum.
    Verify,
}

/// A parsed command.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Run one side-channel scenario (or all) against one defense (or all).
    Attack {
        /// `None` = all six scenarios.
        scenario: Option<AttackScenario>,
        /// `None` = all four environments.
        defense: Option<DefenseConfig>,
    },
    /// Run one Spectre variant end-to-end.
    Variant {
        /// Which gadget.
        kind: GadgetKind,
        /// `None` = all four environments.
        defense: Option<DefenseConfig>,
    },
    /// Run the taint-oracle leak probes and print the leak matrix.
    Leaks {
        /// `None` = the Table IV corpus (v1, v2, v4, rsb).
        gadget: Option<GadgetKind>,
        /// `None` = all four environments.
        defense: Option<DefenseConfig>,
        /// Restrict the corpus to one conditional-branch gadget and one
        /// return-stack gadget (v1, rsb) for smoke runs.
        quick: bool,
        /// Also write the per-cell JSON documents here.
        out: Option<String>,
    },
    /// Run one calibrated benchmark and print its report.
    Bench {
        /// Benchmark name from the suite.
        name: String,
        /// `None` = all four environments.
        defense: Option<DefenseConfig>,
        /// Machine preset (boxed: `MachineConfig` dwarfs the other variants).
        machine: Box<MachineConfig>,
        /// Outer iterations.
        iterations: u64,
    },
    /// Execute a serialized program file.
    Run {
        /// Path to a `CONDSPEC` binary program file.
        file: String,
        /// `None` = Origin.
        defense: Option<DefenseConfig>,
        /// Cycle budget.
        max_cycles: u64,
        /// How to simulate: detailed, functional, or sampled.
        mode: RunMode,
        /// Sampled mode: number of evenly spaced checkpoints / windows.
        checkpoints: usize,
        /// Sampled mode: detailed instructions measured per window.
        window: u64,
    },
    /// Serialize a generated benchmark to a program file.
    Save {
        /// Benchmark name from the suite.
        name: String,
        /// Output path.
        file: String,
        /// Outer iterations baked into the program.
        iterations: u64,
    },
    /// Run a gadget attack round with pipeline tracing and dump events.
    Trace {
        /// Which gadget.
        kind: GadgetKind,
        /// `None` = Cache-hit + TPBuf.
        defense: Option<DefenseConfig>,
        /// Maximum events to print.
        events: usize,
        /// Output format.
        format: TraceFormat,
        /// Write the trace here instead of stdout.
        out: Option<String>,
    },
    /// Run a benchmark with the time-series sampler and dump the series.
    Timeseries {
        /// Benchmark name from the suite.
        name: String,
        /// `None` = Cache-hit + TPBuf.
        defense: Option<DefenseConfig>,
        /// Machine preset (boxed: `MachineConfig` dwarfs the other variants).
        machine: Box<MachineConfig>,
        /// Outer iterations.
        iterations: u64,
        /// Sample window size in cycles.
        window: u64,
        /// Maximum sampled rows kept.
        rows: usize,
        /// Output format.
        format: SeriesFormat,
        /// Write the series here instead of stdout.
        out: Option<String>,
    },
    /// Re-render a finished sweep from its on-disk artifacts.
    Report {
        /// The sweep directory name under the artifact root.
        sweep_id: String,
        /// Artifact root; `None` = `target/condspec-runs`.
        root: Option<String>,
        /// Also resolve artifacts through the default result store.
        store: bool,
        /// Resolve through a store at this root (implies `store`).
        store_root: Option<String>,
    },
    /// Run a named experiment sweep through the parallel engine.
    Sweep {
        /// Sweep name (`fig5`, `table4`, `table5`, `table6`, `lru`,
        /// `icache`).
        name: String,
        /// Worker threads; 0 = all available cores.
        jobs: usize,
        /// Skip jobs whose artifacts already exist.
        resume: bool,
        /// Artifact root; `None` = `target/condspec-runs`.
        root: Option<String>,
        /// Suppress stderr progress lines.
        quiet: bool,
        /// Render progress as one live status line instead of one line
        /// per job.
        progress: bool,
        /// Write wall-clock telemetry to `telemetry.json` in the sweep
        /// directory.
        telemetry: bool,
        /// Consult/fill the default persistent result store.
        store: bool,
        /// Use a store at this root (implies `store`).
        store_root: Option<String>,
        /// Override benchmark outer iterations for every job.
        iters: Option<u64>,
        /// Override benchmark warmup iterations for every job.
        warmup: Option<u64>,
        /// Shard across this many local worker processes (claim-based
        /// draining over the store; implies `store`). 1 = no sharding.
        shards: usize,
        /// Owner id for claim-mode runs; `None` = `shard-<pid>`.
        owner: Option<String>,
        /// Stale-lease steal timeout in milliseconds (claim mode).
        steal_after_ms: Option<u64>,
        /// Submit to a running daemon as a distributed sweep and stream
        /// progress instead of simulating locally.
        attach: Option<String>,
    },
    /// Drain sweep jobs as one shard of a distributed run: claim over a
    /// shared store root, or pull work from a daemon via `--attach`.
    Worker {
        /// Sweep name to drain (local store mode; ignored with
        /// `--attach`, where the daemon names the work).
        sweep: Option<String>,
        /// Pull work from this daemon address instead of a local store.
        attach: Option<String>,
        /// Store root; `None` = `target/condspec-store` (or
        /// `$CONDSPEC_STORE_ROOT`).
        store_root: Option<String>,
        /// Owner id recorded in leases and provenance; `None` =
        /// `shard-<pid>`.
        owner: Option<String>,
        /// Worker threads; 0 = all available cores.
        jobs: usize,
        /// Stale-lease steal timeout in milliseconds.
        steal_after_ms: Option<u64>,
        /// Idle poll interval in milliseconds (`--attach` mode).
        poll_ms: u64,
        /// `--attach` mode: exit when the daemon reports no pending
        /// work instead of polling forever.
        drain: bool,
        /// Override benchmark outer iterations for every job (local
        /// store mode).
        iters: Option<u64>,
        /// Override benchmark warmup iterations for every job (local
        /// store mode).
        warmup: Option<u64>,
    },
    /// Inspect or maintain the persistent result store offline.
    Store {
        /// What to do.
        action: StoreAction,
        /// Store root; `None` = `target/condspec-store` (or
        /// `$CONDSPEC_STORE_ROOT`).
        root: Option<String>,
    },
    /// Run the HTTP daemon: submit sweeps/jobs, stream progress, fetch
    /// reports, traces and time series.
    Serve {
        /// Bind address; port 0 asks the OS for an ephemeral port.
        addr: String,
        /// Worker threads per sweep; 0 = all available cores.
        jobs: usize,
        /// Artifact root; `None` = `target/condspec-runs`.
        root: Option<String>,
        /// Store root; `None` = the default root (unless `no_store`).
        store_root: Option<String>,
        /// Run without a persistent store.
        no_store: bool,
    },
    /// Measure simulator throughput over the fixed cell matrix,
    /// simulation and stage cells alike.
    Perf {
        /// Reduced workload sizes for CI smoke runs.
        quick: bool,
        /// Machine preset (boxed: `MachineConfig` dwarfs the other variants).
        machine: Box<MachineConfig>,
        /// Restrict the run to `<workload>[:<defense>]`.
        only: Option<CellFilter>,
        /// Write the JSON report here instead of stdout.
        out: Option<String>,
        /// Baseline report to diff against; regressions exit non-zero
        /// (the CI perf guard).
        compare: Option<String>,
    },
    /// List the benchmark suite and machine presets.
    List,
    /// Print usage.
    Help,
}

/// Error produced when arguments do not parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError(pub String);

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl Error for ParseError {}

/// Usage text.
pub const USAGE: &str = "\
condspec — Conditional Speculation (HPCA 2019) reproduction driver

USAGE:
  condspec attack  [--scenario <name>] [--defense <name>]
  condspec variant --kind <v1|v2|v4|rsb|v1-same-page|v1-set-stride> [--defense <name>]
  condspec leaks   [--gadget <variant> | --all | --quick] [--defense <name>]
                   [--out <leaks.json>]
  condspec bench   --name <benchmark> [--defense <name>] [--machine <name>] [--iters <n>]
  condspec run     --file <prog.bin> [--defense <name>] [--max-cycles <n>]
                   [--mode detailed|functional|sampled] [--checkpoints <n>]
                   [--window <insts>]
  condspec save    --name <benchmark> --file <prog.bin> [--iters <n>]
  condspec trace   --kind <variant> [--defense <name>] [--events <n>]
                   [--format text|perfetto] [--out <file>]
  condspec timeseries --name <benchmark> [--defense <name>] [--machine <name>]
                   [--iters <n>] [--window <cycles>] [--rows <n>]
                   [--format json|csv] [--out <file>]
  condspec sweep   <name> [--jobs <n>] [--resume] [--root <dir>] [--quiet]
                   [--progress] [--telemetry] [--store] [--store-root <dir>]
                   [--iters <n>] [--warmup <n>] [--shards <n>] [--owner <id>]
                   [--steal-after-ms <n>] [--attach <host:port>]
  condspec worker  [<sweep>] [--attach <host:port>] [--store-root <dir>]
                   [--owner <id>] [--jobs <n>] [--steal-after-ms <n>]
                   [--poll-ms <n>] [--drain] [--iters <n>] [--warmup <n>]
  condspec report  <sweep-id> [--root <dir>] [--store] [--store-root <dir>]
  condspec store   <stats|gc|verify> [--root <dir>]
  condspec serve   [--addr <host:port>] [--jobs <n>] [--root <dir>]
                   [--store-root <dir>] [--no-store]
  condspec perf    [--quick] [--machine <name>] [--out <file>]
                   [--compare <baseline.json>] [--only <workload>[:<defense>]]
  condspec list
  condspec help

SCENARIOS: flush-reload, flush-flush, evict-reload, prime-probe,
           prime-probe-noshare, evict-time
DEFENSES:  origin, baseline, cache-hit, cache-hit-tpbuf
MACHINES:  paper-default, a57, i7, xeon
SWEEPS:    fig5, table4, table5, table6, lru, icache, leaks
           (artifacts land under target/condspec-runs/<sweep-id>/;
            re-run with --resume to skip completed jobs, or with
            --store to reuse results from target/condspec-store —
            override the store root with $CONDSPEC_STORE_ROOT)
";

fn parse_defense(s: &str) -> Result<DefenseConfig, ParseError> {
    match s {
        "origin" => Ok(DefenseConfig::Origin),
        "baseline" => Ok(DefenseConfig::Baseline),
        "cache-hit" | "cachehit" => Ok(DefenseConfig::CacheHit),
        "cache-hit-tpbuf" | "tpbuf" => Ok(DefenseConfig::CacheHitTpbuf),
        other => Err(ParseError(format!("unknown defense `{other}`"))),
    }
}

fn parse_scenario(s: &str) -> Result<AttackScenario, ParseError> {
    match s {
        "flush-reload" => Ok(AttackScenario::FlushReloadShared),
        "flush-flush" => Ok(AttackScenario::FlushFlushShared),
        "evict-reload" => Ok(AttackScenario::EvictReloadShared),
        "prime-probe" => Ok(AttackScenario::PrimeProbeShared),
        "prime-probe-noshare" => Ok(AttackScenario::PrimeProbeNoShare),
        "evict-time" => Ok(AttackScenario::EvictTimeNoShare),
        other => Err(ParseError(format!("unknown scenario `{other}`"))),
    }
}

fn parse_kind(s: &str) -> Result<GadgetKind, ParseError> {
    match s {
        "v1" => Ok(GadgetKind::V1),
        "v2" => Ok(GadgetKind::V2),
        "v4" => Ok(GadgetKind::V4),
        "v1-same-page" => Ok(GadgetKind::V1SamePage),
        "v1-set-stride" => Ok(GadgetKind::V1SetStride),
        "rsb" => Ok(GadgetKind::Rsb),
        other => Err(ParseError(format!("unknown variant `{other}`"))),
    }
}

fn parse_machine(s: &str) -> Result<MachineConfig, ParseError> {
    match s {
        "paper-default" | "paper" => Ok(MachineConfig::paper_default()),
        "a57" => Ok(MachineConfig::a57_like()),
        "i7" => Ok(MachineConfig::i7_like()),
        "xeon" => Ok(MachineConfig::xeon_like()),
        other => Err(ParseError(format!("unknown machine `{other}`"))),
    }
}

/// Pulls a boolean `--flag` out of `args`, returning whether it was
/// present.
fn take_switch(args: &mut Vec<String>, flag: &str) -> bool {
    if let Some(pos) = args.iter().position(|a| a == flag) {
        args.remove(pos);
        true
    } else {
        false
    }
}

/// Pulls the value of `--flag` out of `args`, if present.
fn take_flag(args: &mut Vec<String>, flag: &str) -> Result<Option<String>, ParseError> {
    if let Some(pos) = args.iter().position(|a| a == flag) {
        if pos + 1 >= args.len() {
            return Err(ParseError(format!("{flag} needs a value")));
        }
        let value = args.remove(pos + 1);
        args.remove(pos);
        Ok(Some(value))
    } else {
        Ok(None)
    }
}

/// Converts the process arguments to strings. A Linux path may be any
/// bytes, so an argument that is not UTF-8 is an error that names it,
/// not a panic.
///
/// # Errors
///
/// Returns [`ParseError`] for the first argument that is not UTF-8.
pub fn utf8_args(args: impl IntoIterator<Item = OsString>) -> Result<Vec<String>, ParseError> {
    args.into_iter()
        .map(|arg| {
            arg.into_string().map_err(|bad| {
                ParseError(format!(
                    "argument `{}` is not valid UTF-8",
                    bad.to_string_lossy()
                ))
            })
        })
        .collect()
}

/// Parses a full argument vector (without the program name).
///
/// # Errors
///
/// Returns [`ParseError`] with a human-readable message on unknown
/// commands, flags or values.
pub fn parse(args: &[String]) -> Result<Command, ParseError> {
    let Some((command, rest)) = args.split_first() else {
        return Ok(Command::Help);
    };
    let mut rest: Vec<String> = rest.to_vec();
    let parsed = match command.as_str() {
        "attack" => {
            let scenario = take_flag(&mut rest, "--scenario")?
                .map(|s| parse_scenario(&s))
                .transpose()?;
            let defense = take_flag(&mut rest, "--defense")?
                .map(|s| parse_defense(&s))
                .transpose()?;
            Command::Attack { scenario, defense }
        }
        "variant" => {
            let kind = take_flag(&mut rest, "--kind")?
                .ok_or_else(|| ParseError("variant requires --kind".into()))?;
            let defense = take_flag(&mut rest, "--defense")?
                .map(|s| parse_defense(&s))
                .transpose()?;
            Command::Variant {
                kind: parse_kind(&kind)?,
                defense,
            }
        }
        "leaks" => {
            let gadget = take_flag(&mut rest, "--gadget")?
                .map(|s| parse_kind(&s))
                .transpose()?;
            let all = take_switch(&mut rest, "--all");
            let quick = take_switch(&mut rest, "--quick");
            if gadget.is_some() && (all || quick) {
                return Err(ParseError("--gadget conflicts with --all/--quick".into()));
            }
            if all && quick {
                return Err(ParseError("--all conflicts with --quick".into()));
            }
            let defense = take_flag(&mut rest, "--defense")?
                .map(|s| parse_defense(&s))
                .transpose()?;
            let out = take_flag(&mut rest, "--out")?;
            Command::Leaks {
                gadget,
                defense,
                quick,
                out,
            }
        }
        "bench" => {
            let name = take_flag(&mut rest, "--name")?
                .ok_or_else(|| ParseError("bench requires --name".into()))?;
            let defense = take_flag(&mut rest, "--defense")?
                .map(|s| parse_defense(&s))
                .transpose()?;
            let machine = Box::new(
                take_flag(&mut rest, "--machine")?
                    .map(|s| parse_machine(&s))
                    .transpose()?
                    .unwrap_or_else(MachineConfig::paper_default),
            );
            let iterations = take_flag(&mut rest, "--iters")?
                .map(|s| {
                    s.parse::<u64>()
                        .map_err(|_| ParseError(format!("bad --iters `{s}`")))
                })
                .transpose()?
                .unwrap_or(25);
            Command::Bench {
                name,
                defense,
                machine,
                iterations,
            }
        }
        "run" => {
            let file = take_flag(&mut rest, "--file")?
                .ok_or_else(|| ParseError("run requires --file".into()))?;
            let defense = take_flag(&mut rest, "--defense")?
                .map(|s| parse_defense(&s))
                .transpose()?;
            let max_cycles = take_flag(&mut rest, "--max-cycles")?
                .map(|s| {
                    s.parse::<u64>()
                        .map_err(|_| ParseError(format!("bad --max-cycles `{s}`")))
                })
                .transpose()?
                .unwrap_or(100_000_000);
            let mode = match take_flag(&mut rest, "--mode")?.as_deref() {
                None | Some("detailed") => RunMode::Detailed,
                Some("functional") => RunMode::Functional,
                Some("sampled") => RunMode::Sampled,
                Some(other) => {
                    return Err(ParseError(format!(
                        "unknown run mode `{other}` — available: detailed, functional, sampled"
                    )));
                }
            };
            let checkpoints = take_flag(&mut rest, "--checkpoints")?
                .map(|s| {
                    s.parse::<usize>()
                        .map_err(|_| ParseError(format!("bad --checkpoints `{s}`")))
                })
                .transpose()?;
            if checkpoints == Some(0) {
                return Err(ParseError("--checkpoints must be at least 1".into()));
            }
            let window = take_flag(&mut rest, "--window")?
                .map(|s| {
                    s.parse::<u64>()
                        .map_err(|_| ParseError(format!("bad --window `{s}`")))
                })
                .transpose()?;
            if window == Some(0) {
                return Err(ParseError("--window must be at least 1 instruction".into()));
            }
            if mode != RunMode::Sampled && (checkpoints.is_some() || window.is_some()) {
                return Err(ParseError(
                    "--checkpoints/--window only apply to --mode sampled".into(),
                ));
            }
            Command::Run {
                file,
                defense,
                max_cycles,
                mode,
                checkpoints: checkpoints.unwrap_or(condspec::DEFAULT_CHECKPOINTS),
                window: window.unwrap_or(condspec::DEFAULT_WINDOW),
            }
        }
        "save" => {
            let name = take_flag(&mut rest, "--name")?
                .ok_or_else(|| ParseError("save requires --name".into()))?;
            let file = take_flag(&mut rest, "--file")?
                .ok_or_else(|| ParseError("save requires --file".into()))?;
            let iterations = take_flag(&mut rest, "--iters")?
                .map(|s| {
                    s.parse::<u64>()
                        .map_err(|_| ParseError(format!("bad --iters `{s}`")))
                })
                .transpose()?
                .unwrap_or(25);
            Command::Save {
                name,
                file,
                iterations,
            }
        }
        "trace" => {
            let kind = take_flag(&mut rest, "--kind")?
                .ok_or_else(|| ParseError("trace requires --kind".into()))?;
            let defense = take_flag(&mut rest, "--defense")?
                .map(|s| parse_defense(&s))
                .transpose()?;
            let events = take_flag(&mut rest, "--events")?
                .map(|s| {
                    s.parse::<usize>()
                        .map_err(|_| ParseError(format!("bad --events `{s}`")))
                })
                .transpose()?
                .unwrap_or(120);
            let format = match take_flag(&mut rest, "--format")?.as_deref() {
                None | Some("text") => TraceFormat::Text,
                Some("perfetto") | Some("chrome") => TraceFormat::Perfetto,
                Some(other) => {
                    return Err(ParseError(format!("unknown trace format `{other}`")));
                }
            };
            let out = take_flag(&mut rest, "--out")?;
            Command::Trace {
                kind: parse_kind(&kind)?,
                defense,
                events,
                format,
                out,
            }
        }
        "timeseries" => {
            let name = take_flag(&mut rest, "--name")?
                .ok_or_else(|| ParseError("timeseries requires --name".into()))?;
            let defense = take_flag(&mut rest, "--defense")?
                .map(|s| parse_defense(&s))
                .transpose()?;
            let machine = Box::new(
                take_flag(&mut rest, "--machine")?
                    .map(|s| parse_machine(&s))
                    .transpose()?
                    .unwrap_or_else(MachineConfig::paper_default),
            );
            let iterations = take_flag(&mut rest, "--iters")?
                .map(|s| {
                    s.parse::<u64>()
                        .map_err(|_| ParseError(format!("bad --iters `{s}`")))
                })
                .transpose()?
                .unwrap_or(25);
            let window = take_flag(&mut rest, "--window")?
                .map(|s| {
                    s.parse::<u64>()
                        .map_err(|_| ParseError(format!("bad --window `{s}`")))
                })
                .transpose()?
                .unwrap_or(10_000);
            if window == 0 {
                return Err(ParseError("--window must be at least 1 cycle".into()));
            }
            let rows = take_flag(&mut rest, "--rows")?
                .map(|s| {
                    s.parse::<usize>()
                        .map_err(|_| ParseError(format!("bad --rows `{s}`")))
                })
                .transpose()?
                .unwrap_or(4096);
            if rows == 0 {
                return Err(ParseError("--rows must be at least 1".into()));
            }
            let format = match take_flag(&mut rest, "--format")?.as_deref() {
                None | Some("json") => SeriesFormat::Json,
                Some("csv") => SeriesFormat::Csv,
                Some(other) => {
                    return Err(ParseError(format!("unknown series format `{other}`")));
                }
            };
            let out = take_flag(&mut rest, "--out")?;
            Command::Timeseries {
                name,
                defense,
                machine,
                iterations,
                window,
                rows,
                format,
                out,
            }
        }
        "report" => {
            let sweep_id = match rest.first() {
                Some(first) if !first.starts_with("--") => rest.remove(0),
                _ => return Err(ParseError("report requires a sweep id".into())),
            };
            let root = take_flag(&mut rest, "--root")?;
            let store = take_switch(&mut rest, "--store");
            let store_root = take_flag(&mut rest, "--store-root")?;
            Command::Report {
                sweep_id,
                root,
                store,
                store_root,
            }
        }
        "sweep" => {
            let name = match rest.first() {
                Some(first) if !first.starts_with("--") => rest.remove(0),
                _ => return Err(ParseError("sweep requires a sweep name".into())),
            };
            let jobs = take_flag(&mut rest, "--jobs")?
                .map(|s| {
                    s.parse::<usize>()
                        .map_err(|_| ParseError(format!("bad --jobs `{s}`")))
                })
                .transpose()?
                .unwrap_or(0);
            let resume = take_switch(&mut rest, "--resume");
            let quiet = take_switch(&mut rest, "--quiet");
            let progress = take_switch(&mut rest, "--progress");
            let telemetry = take_switch(&mut rest, "--telemetry");
            let root = take_flag(&mut rest, "--root")?;
            let store = take_switch(&mut rest, "--store");
            let store_root = take_flag(&mut rest, "--store-root")?;
            let iters = take_flag(&mut rest, "--iters")?
                .map(|s| {
                    s.parse::<u64>()
                        .map_err(|_| ParseError(format!("bad --iters `{s}`")))
                })
                .transpose()?;
            if iters == Some(0) {
                return Err(ParseError("--iters must be at least 1".into()));
            }
            let warmup = take_flag(&mut rest, "--warmup")?
                .map(|s| {
                    s.parse::<u64>()
                        .map_err(|_| ParseError(format!("bad --warmup `{s}`")))
                })
                .transpose()?;
            let shards = take_flag(&mut rest, "--shards")?
                .map(|s| {
                    s.parse::<usize>()
                        .map_err(|_| ParseError(format!("bad --shards `{s}`")))
                })
                .transpose()?
                .unwrap_or(1);
            if shards == 0 {
                return Err(ParseError("--shards must be at least 1".into()));
            }
            let owner = take_flag(&mut rest, "--owner")?;
            let steal_after_ms = take_flag(&mut rest, "--steal-after-ms")?
                .map(|s| {
                    s.parse::<u64>()
                        .map_err(|_| ParseError(format!("bad --steal-after-ms `{s}`")))
                })
                .transpose()?;
            if steal_after_ms == Some(0) {
                return Err(ParseError("--steal-after-ms must be at least 1".into()));
            }
            let attach = take_flag(&mut rest, "--attach")?;
            if attach.is_some() && shards > 1 {
                return Err(ParseError("--attach conflicts with --shards".into()));
            }
            Command::Sweep {
                name,
                jobs,
                resume,
                root,
                quiet,
                progress,
                telemetry,
                store,
                store_root,
                iters,
                warmup,
                shards,
                owner,
                steal_after_ms,
                attach,
            }
        }
        "worker" => {
            let sweep = match rest.first() {
                Some(first) if !first.starts_with("--") => Some(rest.remove(0)),
                _ => None,
            };
            let attach = take_flag(&mut rest, "--attach")?;
            if sweep.is_none() && attach.is_none() {
                return Err(ParseError(
                    "worker requires a sweep name (store mode) or --attach <host:port>".into(),
                ));
            }
            let store_root = take_flag(&mut rest, "--store-root")?;
            let owner = take_flag(&mut rest, "--owner")?;
            let jobs = take_flag(&mut rest, "--jobs")?
                .map(|s| {
                    s.parse::<usize>()
                        .map_err(|_| ParseError(format!("bad --jobs `{s}`")))
                })
                .transpose()?
                .unwrap_or(0);
            let steal_after_ms = take_flag(&mut rest, "--steal-after-ms")?
                .map(|s| {
                    s.parse::<u64>()
                        .map_err(|_| ParseError(format!("bad --steal-after-ms `{s}`")))
                })
                .transpose()?;
            if steal_after_ms == Some(0) {
                return Err(ParseError("--steal-after-ms must be at least 1".into()));
            }
            let poll_ms = take_flag(&mut rest, "--poll-ms")?
                .map(|s| {
                    s.parse::<u64>()
                        .map_err(|_| ParseError(format!("bad --poll-ms `{s}`")))
                })
                .transpose()?
                .unwrap_or(200);
            let drain = take_switch(&mut rest, "--drain");
            let iters = take_flag(&mut rest, "--iters")?
                .map(|s| {
                    s.parse::<u64>()
                        .map_err(|_| ParseError(format!("bad --iters `{s}`")))
                })
                .transpose()?;
            if iters == Some(0) {
                return Err(ParseError("--iters must be at least 1".into()));
            }
            let warmup = take_flag(&mut rest, "--warmup")?
                .map(|s| {
                    s.parse::<u64>()
                        .map_err(|_| ParseError(format!("bad --warmup `{s}`")))
                })
                .transpose()?;
            Command::Worker {
                sweep,
                attach,
                store_root,
                owner,
                jobs,
                steal_after_ms,
                poll_ms,
                drain,
                iters,
                warmup,
            }
        }
        "store" => {
            let action = match rest.first().map(String::as_str) {
                Some("stats") => StoreAction::Stats,
                Some("gc") => StoreAction::Gc,
                Some("verify") => StoreAction::Verify,
                Some(other) if !other.starts_with("--") => {
                    return Err(ParseError(format!("unknown store action `{other}`")));
                }
                _ => {
                    return Err(ParseError(
                        "store requires an action: stats, gc or verify".into(),
                    ));
                }
            };
            rest.remove(0);
            let root = take_flag(&mut rest, "--root")?;
            Command::Store { action, root }
        }
        "serve" => {
            let addr = take_flag(&mut rest, "--addr")?
                .unwrap_or_else(|| condspec_serve::DEFAULT_ADDR.to_string());
            let jobs = take_flag(&mut rest, "--jobs")?
                .map(|s| {
                    s.parse::<usize>()
                        .map_err(|_| ParseError(format!("bad --jobs `{s}`")))
                })
                .transpose()?
                .unwrap_or(0);
            let root = take_flag(&mut rest, "--root")?;
            let store_root = take_flag(&mut rest, "--store-root")?;
            let no_store = take_switch(&mut rest, "--no-store");
            if no_store && store_root.is_some() {
                return Err(ParseError("--no-store conflicts with --store-root".into()));
            }
            Command::Serve {
                addr,
                jobs,
                root,
                store_root,
                no_store,
            }
        }
        "perf" => {
            let quick = take_switch(&mut rest, "--quick");
            let machine = Box::new(
                take_flag(&mut rest, "--machine")?
                    .map(|s| parse_machine(&s))
                    .transpose()?
                    .unwrap_or_else(MachineConfig::paper_default),
            );
            let only = take_flag(&mut rest, "--only")?
                .map(|s| CellFilter::parse(&s).map_err(ParseError))
                .transpose()?;
            let out = take_flag(&mut rest, "--out")?;
            let compare = take_flag(&mut rest, "--compare")?;
            Command::Perf {
                quick,
                machine,
                only,
                out,
                compare,
            }
        }
        "list" => Command::List,
        "help" | "--help" | "-h" => Command::Help,
        other => return Err(ParseError(format!("unknown command `{other}`"))),
    };
    if let Command::Help | Command::List = parsed {
        return Ok(parsed);
    }
    if !rest.is_empty() {
        return Err(ParseError(format!("unexpected arguments: {rest:?}")));
    }
    Ok(parsed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn empty_is_help() {
        assert_eq!(parse(&[]).unwrap(), Command::Help);
    }

    #[test]
    fn attack_defaults_to_full_sweep() {
        assert_eq!(
            parse(&argv("attack")).unwrap(),
            Command::Attack {
                scenario: None,
                defense: None
            }
        );
    }

    #[test]
    fn attack_with_flags() {
        assert_eq!(
            parse(&argv("attack --scenario flush-reload --defense origin")).unwrap(),
            Command::Attack {
                scenario: Some(AttackScenario::FlushReloadShared),
                defense: Some(DefenseConfig::Origin),
            }
        );
    }

    #[test]
    fn variant_requires_kind() {
        assert!(parse(&argv("variant")).is_err());
        assert_eq!(
            parse(&argv("variant --kind v4 --defense baseline")).unwrap(),
            Command::Variant {
                kind: GadgetKind::V4,
                defense: Some(DefenseConfig::Baseline)
            }
        );
    }

    #[test]
    fn leaks_defaults_to_full_matrix() {
        assert_eq!(
            parse(&argv("leaks")).unwrap(),
            Command::Leaks {
                gadget: None,
                defense: None,
                quick: false,
                out: None,
            }
        );
        assert_eq!(
            parse(&argv("leaks --all")).unwrap(),
            parse(&argv("leaks")).unwrap()
        );
    }

    #[test]
    fn leaks_with_flags() {
        assert_eq!(
            parse(&argv("leaks --gadget rsb --defense cache-hit --out m.json")).unwrap(),
            Command::Leaks {
                gadget: Some(GadgetKind::Rsb),
                defense: Some(DefenseConfig::CacheHit),
                quick: false,
                out: Some("m.json".into()),
            }
        );
        assert_eq!(
            parse(&argv("leaks --quick")).unwrap(),
            Command::Leaks {
                gadget: None,
                defense: None,
                quick: true,
                out: None,
            }
        );
    }

    #[test]
    fn leaks_rejects_conflicting_corpus_flags() {
        assert!(parse(&argv("leaks --gadget v1 --quick")).is_err());
        assert!(parse(&argv("leaks --gadget v1 --all")).is_err());
        assert!(parse(&argv("leaks --all --quick")).is_err());
    }

    #[test]
    fn bench_parses_all_flags() {
        match parse(&argv(
            "bench --name lbm --defense tpbuf --machine i7 --iters 7",
        ))
        .unwrap()
        {
            Command::Bench {
                name,
                defense,
                machine,
                iterations,
            } => {
                assert_eq!(name, "lbm");
                assert_eq!(defense, Some(DefenseConfig::CacheHitTpbuf));
                assert_eq!(machine.name, "I7-like");
                assert_eq!(iterations, 7);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn run_and_save_parse() {
        match parse(&argv("run --file p.bin --defense origin --max-cycles 99")).unwrap() {
            Command::Run {
                file,
                defense,
                max_cycles,
                mode,
                checkpoints,
                window,
            } => {
                assert_eq!(file, "p.bin");
                assert_eq!(defense, Some(DefenseConfig::Origin));
                assert_eq!(max_cycles, 99);
                assert_eq!(mode, RunMode::Detailed);
                assert_eq!(checkpoints, condspec::DEFAULT_CHECKPOINTS);
                assert_eq!(window, condspec::DEFAULT_WINDOW);
            }
            other => panic!("unexpected {other:?}"),
        }
        match parse(&argv("save --name gcc --file out.bin")).unwrap() {
            Command::Save {
                name,
                file,
                iterations,
            } => {
                assert_eq!(name, "gcc");
                assert_eq!(file, "out.bin");
                assert_eq!(iterations, 25);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse(&argv("run")).is_err());
        assert!(parse(&argv("save --name gcc")).is_err());
    }

    #[test]
    fn run_modes_parse() {
        match parse(&argv("run --file p.bin --mode functional")).unwrap() {
            Command::Run { mode, .. } => assert_eq!(mode, RunMode::Functional),
            other => panic!("unexpected {other:?}"),
        }
        match parse(&argv(
            "run --file p.bin --mode sampled --checkpoints 4 --window 5000",
        ))
        .unwrap()
        {
            Command::Run {
                mode,
                checkpoints,
                window,
                ..
            } => {
                assert_eq!(mode, RunMode::Sampled);
                assert_eq!(checkpoints, 4);
                assert_eq!(window, 5000);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse(&argv("run --file p.bin --mode turbo")).is_err());
        assert!(parse(&argv("run --file p.bin --mode sampled --checkpoints 0")).is_err());
        assert!(parse(&argv("run --file p.bin --mode sampled --window 0")).is_err());
        assert!(
            parse(&argv("run --file p.bin --checkpoints 4")).is_err(),
            "sampling knobs need --mode sampled"
        );
        // Checkpoints live in memory: `run` takes no store in any mode.
        for no_store in [
            "run --file p.bin --mode sampled --store-root /tmp/store",
            "run --file p.bin --mode sampled --store",
            "run --file p.bin --mode functional --store",
        ] {
            assert!(parse(&argv(no_store)).is_err(), "{no_store}");
        }
    }

    #[test]
    fn trace_parses() {
        match parse(&argv("trace --kind v1 --events 10")).unwrap() {
            Command::Trace {
                kind,
                defense,
                events,
                format,
                out,
            } => {
                assert_eq!(kind, GadgetKind::V1);
                assert_eq!(defense, None);
                assert_eq!(events, 10);
                assert_eq!(format, TraceFormat::Text);
                assert_eq!(out, None);
            }
            other => panic!("unexpected {other:?}"),
        }
        match parse(&argv("trace --kind v2 --format perfetto --out t.json")).unwrap() {
            Command::Trace { format, out, .. } => {
                assert_eq!(format, TraceFormat::Perfetto);
                assert_eq!(out, Some("t.json".to_string()));
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse(&argv("trace --kind v1 --format xml")).is_err());
    }

    #[test]
    fn timeseries_parses() {
        match parse(&argv("timeseries --name gcc")).unwrap() {
            Command::Timeseries {
                name,
                defense,
                iterations,
                window,
                rows,
                format,
                out,
                ..
            } => {
                assert_eq!(name, "gcc");
                assert_eq!(defense, None);
                assert_eq!(iterations, 25);
                assert_eq!(window, 10_000);
                assert_eq!(rows, 4096);
                assert_eq!(format, SeriesFormat::Json);
                assert_eq!(out, None);
            }
            other => panic!("unexpected {other:?}"),
        }
        match parse(&argv(
            "timeseries --name lbm --defense origin --machine i7 \
             --iters 3 --window 500 --rows 16 --format csv --out s.csv",
        ))
        .unwrap()
        {
            Command::Timeseries {
                name,
                defense,
                machine,
                iterations,
                window,
                rows,
                format,
                out,
            } => {
                assert_eq!(name, "lbm");
                assert_eq!(defense, Some(DefenseConfig::Origin));
                assert_eq!(machine.name, "I7-like");
                assert_eq!(iterations, 3);
                assert_eq!(window, 500);
                assert_eq!(rows, 16);
                assert_eq!(format, SeriesFormat::Csv);
                assert_eq!(out, Some("s.csv".to_string()));
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse(&argv("timeseries")).is_err(), "needs --name");
        assert!(parse(&argv("timeseries --name gcc --window 0")).is_err());
        assert!(parse(&argv("timeseries --name gcc --rows 0")).is_err());
        assert!(parse(&argv("timeseries --name gcc --format yaml")).is_err());
    }

    #[test]
    fn report_parses() {
        assert_eq!(
            parse(&argv("report fig5-0123abcd")).unwrap(),
            Command::Report {
                sweep_id: "fig5-0123abcd".to_string(),
                root: None,
                store: false,
                store_root: None
            }
        );
        assert_eq!(
            parse(&argv(
                "report fig5-0123abcd --root /tmp/runs --store-root /tmp/store"
            ))
            .unwrap(),
            Command::Report {
                sweep_id: "fig5-0123abcd".to_string(),
                root: Some("/tmp/runs".to_string()),
                store: false,
                store_root: Some("/tmp/store".to_string())
            }
        );
        assert!(parse(&argv("report")).is_err(), "report needs a sweep id");
        assert!(parse(&argv("report --root /tmp")).is_err());
    }

    #[test]
    fn sweep_parses() {
        assert_eq!(
            parse(&argv("sweep fig5")).unwrap(),
            Command::Sweep {
                name: "fig5".to_string(),
                jobs: 0,
                resume: false,
                root: None,
                quiet: false,
                progress: false,
                telemetry: false,
                store: false,
                store_root: None,
                iters: None,
                warmup: None,
                shards: 1,
                owner: None,
                steal_after_ms: None,
                attach: None
            }
        );
        assert_eq!(
            parse(&argv(
                "sweep table4 --jobs 8 --resume --root /tmp/runs --quiet --progress --telemetry"
            ))
            .unwrap(),
            Command::Sweep {
                name: "table4".to_string(),
                jobs: 8,
                resume: true,
                root: Some("/tmp/runs".to_string()),
                quiet: true,
                progress: true,
                telemetry: true,
                store: false,
                store_root: None,
                iters: None,
                warmup: None,
                shards: 1,
                owner: None,
                steal_after_ms: None,
                attach: None
            }
        );
        assert!(parse(&argv("sweep")).is_err(), "sweep needs a name");
        assert!(
            parse(&argv("sweep --jobs 2")).is_err(),
            "flag is not a name"
        );
        assert!(parse(&argv("sweep fig5 --jobs many")).is_err());
        assert!(parse(&argv("sweep fig5 stray")).is_err());
    }

    #[test]
    fn sweep_store_and_scaling_flags_parse() {
        match parse(&argv(
            "sweep fig5 --store --store-root /tmp/store --iters 2 --warmup 1",
        ))
        .unwrap()
        {
            Command::Sweep {
                store,
                store_root,
                iters,
                warmup,
                ..
            } => {
                assert!(store);
                assert_eq!(store_root, Some("/tmp/store".to_string()));
                assert_eq!(iters, Some(2));
                assert_eq!(warmup, Some(1));
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse(&argv("sweep fig5 --iters 0")).is_err());
        assert!(parse(&argv("sweep fig5 --iters many")).is_err());
        assert!(parse(&argv("sweep fig5 --warmup many")).is_err());
    }

    #[test]
    fn sweep_sharding_flags_parse() {
        match parse(&argv(
            "sweep fig5 --shards 4 --owner shard-a --steal-after-ms 500 --store-root /tmp/s",
        ))
        .unwrap()
        {
            Command::Sweep {
                shards,
                owner,
                steal_after_ms,
                attach,
                ..
            } => {
                assert_eq!(shards, 4);
                assert_eq!(owner, Some("shard-a".to_string()));
                assert_eq!(steal_after_ms, Some(500));
                assert_eq!(attach, None);
            }
            other => panic!("unexpected {other:?}"),
        }
        match parse(&argv("sweep leaks --attach 127.0.0.1:7877")).unwrap() {
            Command::Sweep { attach, shards, .. } => {
                assert_eq!(attach, Some("127.0.0.1:7877".to_string()));
                assert_eq!(shards, 1);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse(&argv("sweep fig5 --shards 0")).is_err());
        assert!(parse(&argv("sweep fig5 --shards many")).is_err());
        assert!(parse(&argv("sweep fig5 --steal-after-ms 0")).is_err());
        assert!(
            parse(&argv("sweep fig5 --shards 2 --attach 127.0.0.1:7877")).is_err(),
            "local sharding and daemon attach are different modes"
        );
    }

    #[test]
    fn worker_parses() {
        assert_eq!(
            parse(&argv("worker fig5 --store-root /tmp/s --owner w1 --jobs 2")).unwrap(),
            Command::Worker {
                sweep: Some("fig5".to_string()),
                attach: None,
                store_root: Some("/tmp/s".to_string()),
                owner: Some("w1".to_string()),
                jobs: 2,
                steal_after_ms: None,
                poll_ms: 200,
                drain: false,
                iters: None,
                warmup: None,
            }
        );
        assert_eq!(
            parse(&argv("worker --attach 127.0.0.1:7877 --poll-ms 50 --drain")).unwrap(),
            Command::Worker {
                sweep: None,
                attach: Some("127.0.0.1:7877".to_string()),
                store_root: None,
                owner: None,
                jobs: 0,
                steal_after_ms: None,
                poll_ms: 50,
                drain: true,
                iters: None,
                warmup: None,
            }
        );
        match parse(&argv(
            "worker fig5 --steal-after-ms 250 --iters 2 --warmup 1",
        ))
        .unwrap()
        {
            Command::Worker {
                steal_after_ms,
                iters,
                warmup,
                ..
            } => {
                assert_eq!(steal_after_ms, Some(250));
                assert_eq!(iters, Some(2));
                assert_eq!(warmup, Some(1));
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(
            parse(&argv("worker")).is_err(),
            "needs a sweep or an address"
        );
        assert!(parse(&argv("worker fig5 --steal-after-ms 0")).is_err());
        assert!(parse(&argv("worker fig5 --jobs many")).is_err());
        assert!(parse(&argv("worker fig5 stray")).is_err());
    }

    #[test]
    fn store_parses() {
        assert_eq!(
            parse(&argv("store stats")).unwrap(),
            Command::Store {
                action: StoreAction::Stats,
                root: None
            }
        );
        assert_eq!(
            parse(&argv("store gc --root /tmp/store")).unwrap(),
            Command::Store {
                action: StoreAction::Gc,
                root: Some("/tmp/store".to_string())
            }
        );
        assert_eq!(
            parse(&argv("store verify")).unwrap(),
            Command::Store {
                action: StoreAction::Verify,
                root: None
            }
        );
        assert!(parse(&argv("store")).is_err(), "store needs an action");
        assert!(parse(&argv("store prune")).is_err(), "unknown action");
        assert!(parse(&argv("store --root /tmp")).is_err());
        assert!(parse(&argv("store stats stray")).is_err());
    }

    #[test]
    fn serve_parses() {
        assert_eq!(
            parse(&argv("serve")).unwrap(),
            Command::Serve {
                addr: condspec_serve::DEFAULT_ADDR.to_string(),
                jobs: 0,
                root: None,
                store_root: None,
                no_store: false
            }
        );
        assert_eq!(
            parse(&argv(
                "serve --addr 127.0.0.1:0 --jobs 4 --root /tmp/runs --store-root /tmp/store"
            ))
            .unwrap(),
            Command::Serve {
                addr: "127.0.0.1:0".to_string(),
                jobs: 4,
                root: Some("/tmp/runs".to_string()),
                store_root: Some("/tmp/store".to_string()),
                no_store: false
            }
        );
        assert_eq!(
            parse(&argv("serve --no-store")).unwrap(),
            Command::Serve {
                addr: condspec_serve::DEFAULT_ADDR.to_string(),
                jobs: 0,
                root: None,
                store_root: None,
                no_store: true
            }
        );
        assert!(
            parse(&argv("serve --no-store --store-root /tmp")).is_err(),
            "contradictory store flags"
        );
        assert!(parse(&argv("serve --jobs many")).is_err());
    }

    #[test]
    fn perf_parses() {
        match parse(&argv("perf")).unwrap() {
            Command::Perf {
                quick,
                machine,
                only,
                out,
                compare,
            } => {
                assert!(!quick);
                assert_eq!(machine.name, MachineConfig::paper_default().name);
                assert_eq!(only, None);
                assert_eq!(out, None);
                assert_eq!(compare, None);
            }
            other => panic!("unexpected {other:?}"),
        }
        match parse(&argv(
            "perf --quick --machine xeon --out speed.json --compare base.json",
        ))
        .unwrap()
        {
            Command::Perf {
                quick,
                machine,
                out,
                compare,
                ..
            } => {
                assert!(quick);
                assert_eq!(machine.name, MachineConfig::xeon_like().name);
                assert_eq!(out, Some("speed.json".to_string()));
                assert_eq!(compare, Some("base.json".to_string()));
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse(&argv("perf --machine m1")).is_err());
        assert!(parse(&argv("perf stray")).is_err());
    }

    #[test]
    fn perf_only_and_stage_flags_parse() {
        match parse(&argv("perf --only pointer-chase:origin")).unwrap() {
            Command::Perf { only, .. } => {
                let filter = only.expect("filter parsed");
                assert_eq!(filter.workload, "pointer-chase");
                assert_eq!(filter.defense, Some(DefenseConfig::Origin));
            }
            other => panic!("unexpected {other:?}"),
        }
        match parse(&argv("perf --only counting-loop")).unwrap() {
            Command::Perf { only, .. } => {
                assert_eq!(only.unwrap().defense, None);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse(&argv("perf --only nope")).is_err());
        assert!(parse(&argv("perf --only pointer-chase:nope")).is_err());

        // Stage cells run in every unfiltered run; no flag selects them.
        for stage_flag in [
            "perf --stages",
            "perf --stage-out s.json",
            "perf --stage-baseline b.json",
        ] {
            assert!(
                parse(&argv(stage_flag))
                    .unwrap_err()
                    .0
                    .contains("unexpected"),
                "{stage_flag}"
            );
        }
    }

    #[test]
    fn rejects_unknown_values() {
        assert!(parse(&argv("attack --scenario nope")).is_err());
        assert!(parse(&argv("bench --name lbm --machine m1")).is_err());
        assert!(parse(&argv("bench --name lbm --iters many")).is_err());
        assert!(parse(&argv("frobnicate")).is_err());
        assert!(
            parse(&argv("attack --defense")).is_err(),
            "flag without value"
        );
        assert!(parse(&argv("attack stray")).is_err(), "stray positional");
    }

    #[cfg(unix)]
    #[test]
    fn utf8_args_names_a_non_utf8_argument() {
        use std::os::unix::ffi::OsStringExt;
        let path = OsString::from_vec(b"\xff.bin".to_vec());
        let err = utf8_args(["run".into(), "--file".into(), path]).unwrap_err();
        assert_eq!(err.0, "argument `\u{fffd}.bin` is not valid UTF-8");
        assert_eq!(
            utf8_args(["perf".into(), "--quick".into()]).unwrap(),
            argv("perf --quick")
        );
    }

    /// Seeded argv vectors built from the real subcommands and flags plus
    /// hostile values — a flag with no value, `0`, `-1`, a value past
    /// `u64::MAX`, empty strings, repeated and unknown flags: each one
    /// parses to `Ok` or `Err`, and none panics.
    #[test]
    fn hostile_argv_never_panics() {
        const COMMANDS: [&str; 17] = [
            "attack",
            "variant",
            "leaks",
            "bench",
            "run",
            "save",
            "trace",
            "timeseries",
            "report",
            "sweep",
            "worker",
            "store",
            "serve",
            "perf",
            "list",
            "help",
            "frobnicate",
        ];
        const FLAGS: [&str; 40] = [
            "--scenario",
            "--defense",
            "--kind",
            "--gadget",
            "--all",
            "--quick",
            "--out",
            "--name",
            "--machine",
            "--iters",
            "--file",
            "--max-cycles",
            "--mode",
            "--checkpoints",
            "--window",
            "--events",
            "--format",
            "--rows",
            "--root",
            "--store",
            "--store-root",
            "--jobs",
            "--resume",
            "--quiet",
            "--progress",
            "--telemetry",
            "--warmup",
            "--shards",
            "--owner",
            "--steal-after-ms",
            "--attach",
            "--poll-ms",
            "--drain",
            "--addr",
            "--no-store",
            "--compare",
            "--only",
            "--stages",
            "--bogus",
            "-h",
        ];
        const VALUES: [&str; 22] = [
            "",
            "0",
            "-1",
            "1",
            "7",
            "18446744073709551615",
            "18446744073709551616",
            "v1",
            "gcc",
            "origin",
            "tpbuf",
            "i7",
            "sampled",
            "perfetto",
            "csv",
            "stats",
            "fig5",
            "pointer-chase:origin",
            "commit",
            "nope",
            "127.0.0.1:0",
            "--",
        ];
        let mut rng = condspec_stats::SplitMix64::new(0x00a1_65e5_2026);
        let mut pick = |choices: &[&str]| {
            choices[(rng.next_u64() % choices.len() as u64) as usize].to_string()
        };
        let mut parsed = 0;
        for _ in 0..4_000 {
            let mut args = vec![pick(&COMMANDS)];
            let words = pick(&["0", "1", "2", "3", "4", "6", "8"]).parse().unwrap();
            for _ in 0..words {
                // A flag alone (perhaps the last word: no value), a flag
                // with a value, or a bare value.
                match pick(&["flag", "flag", "pair", "value"]).as_str() {
                    "flag" => args.push(pick(&FLAGS)),
                    "pair" => {
                        args.push(pick(&FLAGS));
                        args.push(pick(&VALUES));
                    }
                    _ => args.push(pick(&VALUES)),
                }
            }
            match std::panic::catch_unwind(|| parse(&args)) {
                Ok(result) => parsed += usize::from(result.is_ok()),
                Err(_) => panic!("parse panicked on {args:?}"),
            }
        }
        // The generator reaches real commands, not only errors.
        assert!(parsed > 200, "only {parsed} of 4000 argv vectors parsed");
    }
}
