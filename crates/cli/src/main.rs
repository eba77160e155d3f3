//! `condspec` — command-line driver for the Conditional Speculation
//! reproduction: mount attacks, run calibrated benchmarks, inspect
//! machine presets.

mod args;

use args::{parse, utf8_args, Command, RunMode, SeriesFormat, StoreAction, TraceFormat, USAGE};
use condspec::{run_timeseries, DefenseConfig, ExitReason, SimConfig, Simulator};
use condspec_attacks::{run_variant, traced_variant_round, AttackScenario};
use condspec_stats::TextTable;
use condspec_store::ResultStore;
use condspec_workloads::spec::{build_program, by_name, suite};
use condspec_workloads::GadgetKind;
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    match utf8_args(std::env::args_os().skip(1)).and_then(|argv| parse(&argv)) {
        Ok(cmd) => run(cmd),
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}

fn defenses(selected: Option<DefenseConfig>) -> Vec<DefenseConfig> {
    match selected {
        Some(d) => vec![d],
        None => DefenseConfig::ALL.to_vec(),
    }
}

/// Resolves the `--store`/`--store-root` pair shared by `sweep` and
/// `report`: an explicit root wins, the bare switch selects the default
/// root, neither disables the store.
fn store_root_from(store: bool, store_root: Option<String>) -> Option<PathBuf> {
    match store_root {
        Some(dir) => Some(PathBuf::from(dir)),
        None if store => Some(ResultStore::default_root()),
        None => None,
    }
}

fn run(cmd: Command) -> ExitCode {
    match cmd {
        Command::Help => {
            println!("{USAGE}");
            ExitCode::SUCCESS
        }
        Command::List => {
            println!("benchmarks (calibrated to the paper's Table V):");
            let mut t =
                TextTable::with_columns(&["name", "L1 hit target", "seq-miss", "stores", "region"]);
            for w in suite() {
                t.row(vec![
                    w.name.to_string(),
                    format!("{:.1}%", w.l1_hit_target * 100.0),
                    format!("{:.1}%", w.seq_miss_fraction * 100.0),
                    format!("{:.0}%", w.store_fraction * 100.0),
                    format!("{} MiB", w.region_bytes / (1024 * 1024)),
                ]);
            }
            println!("{t}");
            println!("machines: paper-default, a57, i7, xeon");
            println!("defenses: origin, baseline, cache-hit, cache-hit-tpbuf");
            ExitCode::SUCCESS
        }
        Command::Attack { scenario, defense } => {
            let scenarios = match scenario {
                Some(s) => vec![s],
                None => AttackScenario::ALL.to_vec(),
            };
            let mut t = TextTable::with_columns(&["scenario", "defense", "result"]);
            let mut any_unexpected = false;
            for s in &scenarios {
                for d in defenses(defense) {
                    let outcome = s.run(d);
                    let expected = s.expected_defended(d) != outcome.leaked();
                    any_unexpected |= !expected;
                    t.row(vec![
                        s.label().to_string(),
                        d.label().to_string(),
                        verdict(&outcome, expected),
                    ]);
                }
            }
            println!("{t}");
            if any_unexpected {
                eprintln!("some outcomes deviate from the paper's Table IV!");
                return ExitCode::FAILURE;
            }
            ExitCode::SUCCESS
        }
        Command::Variant { kind, defense } => {
            let mut t = TextTable::with_columns(&["variant", "defense", "result"]);
            for d in defenses(defense) {
                let outcome = run_variant(kind, d);
                let expected = (d == DefenseConfig::Origin) == outcome.leaked()
                    || kind == GadgetKind::V1SamePage; // same-page evades TPBuf too
                t.row(vec![
                    format!("{kind:?}"),
                    d.label().to_string(),
                    verdict(&outcome, expected),
                ]);
            }
            println!("{t}");
            ExitCode::SUCCESS
        }
        Command::Leaks {
            gadget,
            defense,
            quick,
            out,
        } => run_leaks(gadget, defense, quick, out),
        Command::Trace {
            kind,
            defense,
            events,
            format,
            out,
        } => {
            let defense = defense.unwrap_or(DefenseConfig::CacheHitTpbuf);
            let trace = traced_variant_round(kind, defense, events);
            let rendered = match format {
                TraceFormat::Text => format!(
                    "{kind:?} attack round under {} — last {} pipeline events:\n\n{trace}",
                    defense.label(),
                    trace.len()
                ),
                TraceFormat::Perfetto => {
                    let doc = condspec_pipeline::perfetto::to_chrome_trace(&trace);
                    format!("{}\n", doc.render())
                }
            };
            match out {
                Some(path) => {
                    if let Err(e) = std::fs::write(&path, &rendered) {
                        eprintln!("cannot write {path}: {e}");
                        return ExitCode::FAILURE;
                    }
                    eprintln!(
                        "wrote {path}: {} events, {} dropped",
                        trace.len(),
                        trace.dropped()
                    );
                }
                None => print!("{rendered}"),
            }
            ExitCode::SUCCESS
        }
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
            let Some(spec) = by_name(&name) else {
                eprintln!("unknown benchmark `{name}` — try `condspec list`");
                return ExitCode::FAILURE;
            };
            let defense = defense.unwrap_or(DefenseConfig::CacheHitTpbuf);
            let program = std::sync::Arc::new(build_program(&spec, iterations));
            let mut sim = Simulator::new(SimConfig::on_machine(defense, *machine));
            sim.load_program(program);
            let budget = 500_000_000;
            let (run, sampler) = run_timeseries(sim.core_mut(), window, rows, budget);
            if run.exit != ExitReason::Halted {
                eprintln!(
                    "{name} did not halt within {budget} cycles ({:?})",
                    run.exit
                );
                return ExitCode::FAILURE;
            }
            let rendered = match format {
                SeriesFormat::Json => {
                    let doc = condspec_stats::Json::object(vec![
                        ("benchmark", condspec_stats::Json::from(name.as_str())),
                        ("defense", condspec_stats::Json::from(defense.key())),
                        ("machine", condspec_stats::Json::from(machine.name)),
                        ("iterations", condspec_stats::Json::from(iterations)),
                        ("timeseries", sampler.to_json()),
                        ("metrics", sim.metrics().to_json()),
                    ]);
                    format!("{}\n", doc.render())
                }
                SeriesFormat::Csv => sampler.to_csv(),
            };
            match out {
                Some(path) => {
                    if let Err(e) = std::fs::write(&path, &rendered) {
                        eprintln!("cannot write {path}: {e}");
                        return ExitCode::FAILURE;
                    }
                    eprintln!(
                        "wrote {path}: {} windows of {window} cycles, {} dropped",
                        sampler.rows().len(),
                        sampler.dropped()
                    );
                }
                None => print!("{rendered}"),
            }
            ExitCode::SUCCESS
        }
        Command::Report {
            sweep_id,
            root,
            store,
            store_root,
        } => {
            let root =
                PathBuf::from(root.unwrap_or_else(|| condspec_engine::DEFAULT_ROOT.to_string()));
            let store = store_root_from(store, store_root).map(ResultStore::open);
            let report = match condspec_engine::load_sweep_report_with_store(
                &root,
                &sweep_id,
                store.as_ref(),
            ) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("report: {e}");
                    return ExitCode::FAILURE;
                }
            };
            println!("{}", report.sweep.render(&report.results));
            println!(
                "sweep {}: {} artifacts, {} failed, {} missing",
                report.sweep_id,
                report.results.len(),
                report.failed.len(),
                report.missing.len()
            );
            for (hash, label) in &report.failed {
                eprintln!("failed job {hash} ({label})");
            }
            for (hash, label) in &report.missing {
                eprintln!("missing job {hash} ({label})");
            }
            if let Some(t) = &report.telemetry {
                use condspec_stats::Json;
                if let (Some(wall), Some(util), Some(workers)) = (
                    t.get("total_wall_ms").and_then(Json::as_u64),
                    t.get("utilization").and_then(Json::as_f64),
                    t.get("workers").and_then(Json::as_u64),
                ) {
                    println!(
                        "telemetry: ran on {workers} workers in {:.1}s at {:.0}% utilization",
                        wall as f64 / 1000.0,
                        util * 100.0
                    );
                }
            }
            if report.failed.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Command::Run {
            file,
            defense,
            max_cycles,
            mode,
            checkpoints,
            window,
        } => {
            let bytes = match std::fs::read(&file) {
                Ok(b) => b,
                Err(e) => {
                    eprintln!("cannot read {file}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let program = match condspec_isa::binfile::from_bytes(&bytes) {
                Ok(p) => p,
                Err(e) => {
                    eprintln!("cannot parse {file}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let defense = defense.unwrap_or(DefenseConfig::Origin);
            let program = std::sync::Arc::new(program);
            let mut sim = Simulator::new(SimConfig::new(defense));
            match mode {
                RunMode::Detailed => {
                    sim.load_program(program.clone());
                    let result = sim.run(max_cycles);
                    let r = sim.report();
                    println!(
                        "{file}: {} instructions, exit {:?} after {} cycles under {}",
                        program.len(),
                        result.exit,
                        result.cycles,
                        defense.label()
                    );
                    println!("IPC {:.2}, L1D hit {:.1}%", r.ipc, r.l1d_hit_rate * 100.0);
                    println!("nonzero architectural registers:");
                    for reg in condspec_isa::Reg::ALL {
                        let v = sim.read_arch_reg(reg);
                        if v != 0 {
                            println!("  {reg} = {v:#x}");
                        }
                    }
                    ExitCode::SUCCESS
                }
                RunMode::Functional => {
                    sim.load_program(program.clone());
                    let started = std::time::Instant::now();
                    let result =
                        match sim.run_functional(condspec::SampledOptions::default().max_insts) {
                            Ok(r) => r,
                            Err(e) => {
                                eprintln!("functional run failed: {e}");
                                return ExitCode::FAILURE;
                            }
                        };
                    let wall = started.elapsed().as_secs_f64();
                    println!(
                        "{file}: functional run retired {} instructions, exit {:?} in {wall:.3}s \
                         ({:.1} Minst/s)",
                        result.retired,
                        result.exit,
                        result.retired as f64 / wall.max(1e-9) / 1e6
                    );
                    println!("nonzero architectural registers:");
                    for reg in condspec_isa::Reg::ALL {
                        let v = sim.read_arch_reg(reg);
                        if v != 0 {
                            println!("  {reg} = {v:#x}");
                        }
                    }
                    ExitCode::SUCCESS
                }
                RunMode::Sampled => {
                    let workload = std::path::Path::new(&file)
                        .file_stem()
                        .and_then(|s| s.to_str())
                        .unwrap_or(file.as_str());
                    let opts = condspec::SampledOptions {
                        checkpoints,
                        window,
                        warmup: window / 10,
                        max_cycles,
                        ..condspec::SampledOptions::default()
                    };
                    let started = std::time::Instant::now();
                    let sampled = match condspec::run_sampled(&mut sim, &program, workload, &opts) {
                        Ok(sampled) => sampled,
                        Err(e) => {
                            eprintln!("sampled run failed: {e}");
                            return ExitCode::FAILURE;
                        }
                    };
                    let wall = started.elapsed().as_secs_f64();
                    let mut t = TextTable::with_columns(&[
                        "window",
                        "start inst",
                        "segment",
                        "measured",
                        "IPC",
                        "L1D hit",
                    ]);
                    for w in &sampled.windows {
                        t.row(vec![
                            w.index.to_string(),
                            w.start_inst.to_string(),
                            w.segment_len.to_string(),
                            w.report.committed.to_string(),
                            format!("{:.2}", w.report.ipc),
                            format!("{:.1}%", w.report.l1d_hit_rate * 100.0),
                        ]);
                    }
                    println!(
                        "{file}: sampled run under {} — {} instructions, {} windows of \
                         {window} insts in {wall:.3}s",
                        defense.label(),
                        sampled.total_insts,
                        sampled.windows.len()
                    );
                    println!("{t}");
                    let stitched = &sampled.report;
                    println!(
                        "stitched estimate: {} cycles, IPC {:.2}, L1D hit {:.1}%, blocked {:.1}%",
                        stitched.cycles,
                        stitched.ipc,
                        stitched.l1d_hit_rate * 100.0,
                        stitched.blocked_rate * 100.0
                    );
                    ExitCode::SUCCESS
                }
            }
        }
        Command::Save {
            name,
            file,
            iterations,
        } => {
            let Some(spec) = by_name(&name) else {
                eprintln!("unknown benchmark `{name}` — try `condspec list`");
                return ExitCode::FAILURE;
            };
            let program = build_program(&spec, iterations);
            let bytes = condspec_isa::binfile::to_bytes(&program);
            if let Err(e) = std::fs::write(&file, &bytes) {
                eprintln!("cannot write {file}: {e}");
                return ExitCode::FAILURE;
            }
            println!(
                "wrote {file}: {} instructions, {} data segments, {} bytes",
                program.len(),
                program.data().len(),
                bytes.len()
            );
            ExitCode::SUCCESS
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
            owner,
            steal_after_ms,
            attach,
        } => {
            let Some(sweep) = condspec_engine::Sweep::by_name(&name) else {
                eprintln!(
                    "unknown sweep `{name}` — available: {}",
                    condspec_engine::Sweep::NAMES.join(", ")
                );
                return ExitCode::FAILURE;
            };
            if let Some(addr) = attach {
                return run_attached_sweep(&addr, &name, iters, warmup);
            }
            // `--owner` (or a steal timeout) runs the sweep as one shard
            // of the store root: claim-based draining, which needs a
            // store as the shared substrate.
            let claim_mode = owner.is_some() || steal_after_ms.is_some();
            let mut opts = condspec_engine::SweepOptions {
                workers: jobs,
                resume,
                quiet,
                progress,
                telemetry,
                store: store_root_from(store || claim_mode, store_root),
                bench_iterations: iters,
                bench_warmup: warmup,
                ..Default::default()
            };
            if claim_mode {
                let mut claim = condspec_engine::ClaimOptions::new(
                    owner.unwrap_or_else(condspec_engine::ClaimOptions::default_owner),
                );
                if let Some(ms) = steal_after_ms {
                    claim.steal_after = std::time::Duration::from_millis(ms);
                }
                opts.claim = Some(claim);
            }
            if let Some(root) = root {
                opts.root = root.into();
            }
            let outcome = match condspec_engine::run_sweep(&sweep, &opts) {
                Ok(o) => o,
                Err(e) => {
                    eprintln!("sweep {name} failed: {e}");
                    return ExitCode::FAILURE;
                }
            };
            // Results are keyed by the scaled jobs' hashes, so render
            // through the same scaled sweep that ran.
            println!("{}", sweep.scaled(iters, warmup).render(&outcome.results));
            println!(
                "sweep {}: {} executed, {} store hits, {} skipped, {} failed — artifacts in {}",
                outcome.sweep_id,
                outcome.executed,
                outcome.store_hits,
                outcome.skipped,
                outcome.failed.len(),
                outcome.dir.display()
            );
            if outcome.remote > 0 {
                println!(
                    "sweep {}: {} of the store hits were simulated by other shards",
                    outcome.sweep_id, outcome.remote
                );
            }
            for (hash, label, error) in &outcome.failed {
                eprintln!("failed job {hash} ({label}): {error}");
            }
            if outcome.failed.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Command::Worker {
            attach,
            owner,
            poll_ms,
            drain,
        } => {
            let owner = owner.unwrap_or_else(condspec_engine::ClaimOptions::default_owner);
            run_remote_worker(&attach, &owner, poll_ms, drain)
        }
        Command::Store { action, root } => {
            let store = ResultStore::open(
                root.map(PathBuf::from)
                    .unwrap_or_else(ResultStore::default_root),
            );
            match action {
                StoreAction::Stats => {
                    let stats = match store.stats() {
                        Ok(s) => s,
                        Err(e) => {
                            eprintln!("store stats: {e}");
                            return ExitCode::FAILURE;
                        }
                    };
                    println!("{}", stats.summary(store.root()));
                    // Machine-readable copy for CI artifact capture.
                    let mut registry = condspec_stats::MetricsRegistry::new();
                    stats.fill_metrics(&mut registry);
                    println!("{}", registry.to_json().render());
                    ExitCode::SUCCESS
                }
                StoreAction::Verify => {
                    let report = match store.verify() {
                        Ok(r) => r,
                        Err(e) => {
                            eprintln!("store verify: {e}");
                            return ExitCode::FAILURE;
                        }
                    };
                    println!(
                        "store verify: {} checked, {} ok, {} bad, {} leases at {}",
                        report.checked,
                        report.ok,
                        report.bad.len(),
                        report.leases,
                        store.root().display()
                    );
                    for (path, reason) in &report.bad {
                        eprintln!("bad entry {}: {reason}", path.display());
                    }
                    if report.is_clean() {
                        ExitCode::SUCCESS
                    } else {
                        ExitCode::FAILURE
                    }
                }
                StoreAction::Gc => {
                    let fingerprint = condspec_engine::hash::code_fingerprint();
                    let report = match store.gc(fingerprint) {
                        Ok(r) => r,
                        Err(e) => {
                            eprintln!("store gc: {e}");
                            return ExitCode::FAILURE;
                        }
                    };
                    println!(
                        "store gc: kept {}, removed {}, pruned {} stale leases, freed {} bytes at {}",
                        report.kept,
                        report.removed,
                        report.stale_leases,
                        report.bytes_freed,
                        store.root().display()
                    );
                    ExitCode::SUCCESS
                }
            }
        }
        Command::Serve {
            addr,
            jobs,
            root,
            store_root,
            no_store,
        } => {
            let config = condspec_serve::ServeConfig {
                addr,
                workers: jobs,
                runs_root: root
                    .map(PathBuf::from)
                    .unwrap_or_else(|| PathBuf::from(condspec_engine::DEFAULT_ROOT)),
                store_root: if no_store {
                    None
                } else {
                    Some(
                        store_root
                            .map(PathBuf::from)
                            .unwrap_or_else(ResultStore::default_root),
                    )
                },
            };
            let server = match condspec_serve::Server::bind(&config) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("serve: cannot bind {}: {e}", config.addr);
                    return ExitCode::FAILURE;
                }
            };
            match server.local_addr() {
                Ok(local) => {
                    // Scripts poll this exact line for the bound port
                    // (ephemeral with --addr host:0), so flush it now.
                    println!("condspec-serve listening on http://{local}");
                    use std::io::Write as _;
                    std::io::stdout().flush().ok();
                }
                Err(e) => {
                    eprintln!("serve: no local address: {e}");
                    return ExitCode::FAILURE;
                }
            }
            match config.store_root.as_deref() {
                Some(store) => eprintln!("store: {}", store.display()),
                None => eprintln!("store: disabled"),
            }
            match server.run() {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("serve: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        Command::Perf {
            quick,
            machine,
            only,
            out,
            compare,
        } => {
            use condspec_bench::perf;
            let opts = perf::PerfOptions {
                machine: *machine,
                quick,
                only,
            };
            let cells = perf::run_matrix(&opts);
            let rendered = format!("{}\n", perf::to_json(&opts, &cells).render());
            // Round-trip + sanity before reporting success: the CI smoke
            // step relies on this exit code.
            let report = match condspec_stats::Json::parse(&rendered) {
                Ok(j) => j,
                Err(e) => {
                    eprintln!("perf JSON does not round-trip: {e}");
                    return ExitCode::FAILURE;
                }
            };
            if let Err(e) = perf::validate(&report) {
                eprintln!("perf output failed validation: {e}");
                return ExitCode::FAILURE;
            }
            let mut t = TextTable::with_columns(&["workload", "defense", "mode", "work", "rate"]);
            for c in &cells {
                let [first, second] = c.mode.work_fields();
                t.row(vec![
                    c.workload.to_string(),
                    c.defense.map_or("-", |d| d.label()).to_string(),
                    c.mode.key().to_string(),
                    format!("{first} {}, {second} {}", c.work.0, c.work.1),
                    format!("{:.2} {}", c.rate() / 1e6, c.mode.rate_unit()),
                ]);
            }
            eprintln!("simulator throughput on {}:\n", opts.machine.name);
            eprintln!("{t}");
            match out {
                Some(path) => {
                    if let Err(e) = std::fs::write(&path, &rendered) {
                        eprintln!("cannot write {path}: {e}");
                        return ExitCode::FAILURE;
                    }
                    println!("wrote {path}");
                }
                None => print!("{rendered}"),
            }
            let Some(baseline_path) = compare else {
                return ExitCode::SUCCESS;
            };

            let baseline = match std::fs::read_to_string(&baseline_path)
                .map_err(|e| e.to_string())
                .and_then(|text| condspec_stats::Json::parse(&text).map_err(|e| e.to_string()))
            {
                Ok(doc) => doc,
                Err(e) => {
                    eprintln!("cannot load baseline {baseline_path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let skip = std::env::var_os("CONDSPEC_SKIP_PERF_GUARD").is_some();
            let comparison =
                match perf::compare(&report, &baseline, &perf::HostInfo::current(), skip) {
                    Ok(c) => c,
                    Err(e) => {
                        eprintln!("cannot compare against {baseline_path}: {e}");
                        return ExitCode::FAILURE;
                    }
                };
            let mut t = TextTable::with_columns(&[
                "workload", "defense", "mode", "work", "base", "now", "ratio",
            ]);
            for c in &comparison.cells {
                let [first, second] = c.mode.work_fields();
                let unit = c.mode.rate_unit();
                t.row(vec![
                    c.workload.clone(),
                    c.defense.clone().unwrap_or_else(|| "-".to_string()),
                    c.mode.key().to_string(),
                    if c.work_matches() {
                        "identical".to_string()
                    } else {
                        format!(
                            "{first} {} -> {}, {second} {} -> {}",
                            c.work[0].0, c.work[0].1, c.work[1].0, c.work[1].1
                        )
                    },
                    format!("{:.2} {unit}", c.rate.0 / 1e6),
                    format!("{:.2} {unit}", c.rate.1 / 1e6),
                    format!("{:.2}x", c.throughput_ratio()),
                ]);
            }
            eprintln!("comparison against {baseline_path}:\n");
            eprintln!("{t}");
            eprintln!("{}", comparison.throughput_note);
            if comparison.passed() {
                eprintln!("perf guard ok: all {} cells pass", comparison.cells.len());
                ExitCode::SUCCESS
            } else {
                for failure in &comparison.failures {
                    eprintln!("perf regression: {failure}");
                }
                ExitCode::FAILURE
            }
        }
        Command::Bench {
            name,
            defense,
            machine,
            iterations,
        } => {
            let Some(spec) = by_name(&name) else {
                eprintln!("unknown benchmark `{name}` — try `condspec list`");
                return ExitCode::FAILURE;
            };
            let program = std::sync::Arc::new(build_program(&spec, iterations));
            let mut t = TextTable::with_columns(&[
                "defense",
                "cycles",
                "IPC",
                "L1D hit",
                "blocked",
                "S-mismatch",
            ]);
            let mut origin_cycles: Option<u64> = None;
            for d in defenses(defense) {
                let mut sim = Simulator::new(SimConfig::on_machine(d, *machine));
                sim.run_to_halt(&program, 500_000_000);
                let r = sim.report();
                let norm = match origin_cycles {
                    Some(o) => format!("{} ({:.2}x)", r.cycles, r.cycles as f64 / o as f64),
                    None => {
                        if d == DefenseConfig::Origin {
                            origin_cycles = Some(r.cycles);
                        }
                        r.cycles.to_string()
                    }
                };
                t.row(vec![
                    d.label().to_string(),
                    norm,
                    format!("{:.2}", r.ipc),
                    format!("{:.1}%", r.l1d_hit_rate * 100.0),
                    format!("{:.1}%", r.blocked_rate * 100.0),
                    format!("{:.1}%", r.s_pattern_mismatch_rate * 100.0),
                ]);
            }
            println!(
                "{name} on {} ({iterations} outer iterations):\n",
                machine.name
            );
            println!("{t}");
            ExitCode::SUCCESS
        }
    }
}

/// `condspec sweep --attach` — submit the sweep to a running daemon as
/// a distributed run, poll its status until it finishes (printing
/// progress transitions to stderr), then print the rendered report.
fn run_attached_sweep(addr: &str, name: &str, iters: Option<u64>, warmup: Option<u64>) -> ExitCode {
    use condspec_serve::http::{client_get, client_post};
    use condspec_stats::Json;
    let mut fields = vec![
        ("sweep", Json::from(name)),
        ("distributed", Json::from(true)),
    ];
    if let Some(i) = iters {
        fields.push(("iters", Json::from(i)));
    }
    if let Some(w) = warmup {
        fields.push(("warmup", Json::from(w)));
    }
    let (status, text) = match client_post(addr, "/api/sweeps", &Json::object(fields).render()) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("sweep {name}: cannot reach {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    if status != 202 {
        eprintln!("sweep {name}: daemon rejected the submission ({status}): {text}");
        return ExitCode::FAILURE;
    }
    let Some(id) = Json::parse(&text)
        .ok()
        .and_then(|doc| doc.get("submission").and_then(Json::as_u64))
    else {
        eprintln!("sweep {name}: malformed submission response: {text}");
        return ExitCode::FAILURE;
    };
    eprintln!("sweep {name}: submitted to http://{addr} as distributed submission {id}");
    let mut last = String::new();
    loop {
        let (status, text) = match client_get(addr, &format!("/api/sweeps/{id}")) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("sweep {name}: lost the daemon at {addr}: {e}");
                return ExitCode::FAILURE;
            }
        };
        if status != 200 {
            eprintln!("sweep {name}: status poll failed ({status}): {text}");
            return ExitCode::FAILURE;
        }
        let Ok(doc) = Json::parse(&text) else {
            eprintln!("sweep {name}: malformed status: {text}");
            return ExitCode::FAILURE;
        };
        let field = |k: &str| doc.get(k).and_then(Json::as_u64).unwrap_or(0);
        let mut line = format!(
            "sweep {name}: {}/{} done — {} simulated, {} store hits, {} failed",
            field("done"),
            field("total"),
            field("simulated"),
            field("store_hits"),
            field("failed"),
        );
        if let Some(workers) = doc.get("workers").and_then(Json::as_array) {
            let shares: Vec<String> = workers
                .iter()
                .map(|w| {
                    format!(
                        "simulated@{}: {}",
                        w.get("owner").and_then(Json::as_str).unwrap_or("?"),
                        w.get("simulated").and_then(Json::as_u64).unwrap_or(0)
                    )
                })
                .collect();
            line.push_str(&format!(" ({})", shares.join(", ")));
        }
        if line != last {
            eprintln!("{line}");
            last = line;
        }
        match doc.get("status").and_then(Json::as_str) {
            Some("done") => break,
            Some("error") => {
                let message = doc
                    .get("error")
                    .and_then(Json::as_str)
                    .unwrap_or("unknown error");
                eprintln!("sweep {name}: daemon run failed: {message}");
                return ExitCode::FAILURE;
            }
            _ => std::thread::sleep(std::time::Duration::from_millis(250)),
        }
    }
    match client_get(addr, &format!("/api/sweeps/{id}/report")) {
        Ok((200, report)) => {
            println!("{report}");
            ExitCode::SUCCESS
        }
        Ok((status, text)) => {
            eprintln!("sweep {name}: cannot fetch report ({status}): {text}");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("sweep {name}: cannot fetch report: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `condspec worker` — pull jobs from a daemon over HTTP:
/// claim (the daemon takes the job's store lease under this worker's
/// owner id), simulate locally (panic-isolated, program-cached), report
/// the artifact, repeat. A heartbeat thread renews the lease while a job
/// runs so it is not stolen mid-simulation.
fn run_remote_worker(addr: &str, owner: &str, poll_ms: u64, drain: bool) -> ExitCode {
    use condspec_serve::http::client_post;
    use condspec_stats::Json;
    let programs = std::sync::Arc::new(condspec_engine::ProgramCache::new());
    let mut completed = 0u64;
    let mut job_failures = 0u64;
    eprintln!("worker {owner}: attached to http://{addr}");
    loop {
        let claim_body = Json::object(vec![("owner", Json::from(owner))]).render();
        let text = match client_post(addr, "/api/work/claim", &claim_body) {
            Ok((200, text)) => text,
            Ok((status, text)) => {
                eprintln!("worker {owner}: claim failed ({status}): {text}");
                return ExitCode::FAILURE;
            }
            Err(e) => {
                eprintln!("worker {owner}: cannot reach {addr}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let Ok(doc) = Json::parse(&text) else {
            eprintln!("worker {owner}: malformed claim response: {text}");
            return ExitCode::FAILURE;
        };
        if doc.get("idle").and_then(Json::as_bool) == Some(true) {
            let active = doc.get("active").and_then(Json::as_u64).unwrap_or(0);
            if drain && active == 0 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(poll_ms.max(1)));
            continue;
        }
        let (Some(submission), Some(index), Some(sweep_name), Some(key)) = (
            doc.get("submission").and_then(Json::as_u64),
            doc.get("index").and_then(Json::as_u64),
            doc.get("sweep").and_then(Json::as_str),
            doc.get("key").and_then(Json::as_str),
        ) else {
            eprintln!("worker {owner}: malformed work descriptor: {text}");
            return ExitCode::FAILURE;
        };
        let label = doc.get("label").and_then(Json::as_str).unwrap_or("?");
        let claim_timeout_ms = doc
            .get("claim_timeout_ms")
            .and_then(Json::as_u64)
            .unwrap_or(condspec_store::DEFAULT_STEAL_TIMEOUT.as_millis() as u64);
        let iters = doc.get("iters").and_then(Json::as_u64);
        let warmup = doc.get("warmup").and_then(Json::as_u64);

        // Reconstruct the job from (sweep, index, scaling) and verify
        // its store key, so a coordinator and worker built from
        // different code can never silently run the wrong job.
        let job = condspec_engine::Sweep::by_name(sweep_name)
            .ok_or_else(|| format!("unknown sweep `{sweep_name}`"))
            .and_then(|sweep| {
                let scaled = sweep.scaled(iters, warmup);
                scaled
                    .jobs
                    .get(index as usize)
                    .cloned()
                    .ok_or_else(|| format!("index {index} out of range for `{sweep_name}`"))
            })
            .and_then(|job| {
                if job.store_key() == key {
                    Ok(job)
                } else {
                    Err(format!(
                        "job key mismatch for `{label}` (coordinator {key}, worker {}) — \
                         version skew between coordinator and worker?",
                        job.store_key()
                    ))
                }
            });
        let outcome = match job {
            Ok(job) => {
                // Renew the claim while the job simulates.
                let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
                let beat = std::time::Duration::from_millis((claim_timeout_ms / 4).max(50));
                let heartbeat = {
                    let stop = std::sync::Arc::clone(&stop);
                    let addr = addr.to_string();
                    let body = Json::object(vec![
                        ("owner", Json::from(owner)),
                        ("submission", Json::from(submission)),
                        ("index", Json::from(index)),
                    ])
                    .render();
                    std::thread::spawn(move || {
                        let mut since = std::time::Instant::now();
                        while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                            if since.elapsed() >= beat {
                                let _ = client_post(&addr, "/api/work/heartbeat", &body);
                                since = std::time::Instant::now();
                            }
                            std::thread::sleep(std::time::Duration::from_millis(10));
                        }
                    })
                };
                let mut results = condspec_engine::run_jobs_stored(
                    std::slice::from_ref(&job),
                    1,
                    &programs,
                    None,
                    |_, _, _, _| {},
                );
                stop.store(true, std::sync::atomic::Ordering::Relaxed);
                let _ = heartbeat.join();
                let (outcome, _, _) = results.remove(0);
                outcome
            }
            Err(message) => Err(message),
        };
        let mut fields = vec![
            ("owner", Json::from(owner)),
            ("submission", Json::from(submission)),
            ("index", Json::from(index)),
        ];
        let failed = outcome.is_err();
        match outcome {
            Ok(artifact) => fields.push(("artifact", artifact)),
            Err(message) => fields.push(("error", Json::from(message.as_str()))),
        }
        match client_post(addr, "/api/work/result", &Json::object(fields).render()) {
            Ok((200, ack)) => {
                completed += 1;
                if failed {
                    job_failures += 1;
                }
                let remaining = Json::parse(&ack)
                    .ok()
                    .and_then(|doc| doc.get("remaining").and_then(Json::as_u64));
                match remaining {
                    Some(n) => eprintln!(
                        "worker {owner}: {label} {} ({n} remaining)",
                        if failed { "FAILED" } else { "done" }
                    ),
                    None => eprintln!(
                        "worker {owner}: {label} {}",
                        if failed { "FAILED" } else { "done" }
                    ),
                }
            }
            Ok((status, text)) => {
                eprintln!("worker {owner}: result rejected ({status}): {text}");
                return ExitCode::FAILURE;
            }
            Err(e) => {
                eprintln!("worker {owner}: cannot report result: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    println!("worker {owner}: {completed} jobs completed, {job_failures} failed");
    ExitCode::SUCCESS
}

/// `condspec leaks` — run the taint-oracle probes over the selected
/// gadget × defense cells on the engine pool and print the engine's leak
/// matrix, as `condspec sweep leaks` does for the full corpus. Exits 1
/// when a probe fails or a cell deviates from the paper's security
/// claim (Origin leaks through the cache on every gadget, the defenses
/// on none).
fn run_leaks(
    gadget: Option<GadgetKind>,
    defense: Option<DefenseConfig>,
    quick: bool,
    out: Option<String>,
) -> ExitCode {
    use condspec_stats::Json;
    let corpus: Vec<GadgetKind> = match gadget {
        Some(kind) => vec![kind],
        // `--quick` keeps one conditional-branch gadget and one
        // return-stack gadget so the CI smoke exercises both predictor
        // paths without the full matrix.
        None if quick => vec![GadgetKind::V1, GadgetKind::Rsb],
        None => condspec_engine::sweep::TABLE4_VARIANTS.to_vec(),
    };
    let sweep = condspec_engine::sweep::leaks_of(&corpus, &defenses(defense));
    let results =
        match condspec_engine::run_in_memory(&sweep.jobs, condspec_engine::default_workers()) {
            Ok(results) => results,
            Err(e) => {
                eprintln!("leaks: {e}");
                return ExitCode::FAILURE;
            }
        };
    println!("{}", sweep.render(&results));
    let matrix = condspec_engine::leak_matrix(&sweep.jobs, &results);
    if let Some(path) = &out {
        let doc = Json::object(vec![("cells", Json::Array(matrix.cells))]);
        if let Err(e) = std::fs::write(path, format!("{}\n", doc.render())) {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("wrote {path}");
    }
    if matrix.deviates {
        eprintln!("leaks: some cells deviate from the paper's security claim");
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn verdict(outcome: &condspec_attacks::AttackOutcome, matches_paper: bool) -> String {
    let base = match outcome.recovered {
        Some(b) if outcome.leaked() => format!("LEAKED byte {b}"),
        Some(b) => format!("wrong byte {b}"),
        None if outcome.candidates.is_empty() => "blocked".to_string(),
        None => format!("ambiguous ({})", outcome.candidates.len()),
    };
    if matches_paper {
        base
    } else {
        format!("{base}  [UNEXPECTED]")
    }
}
