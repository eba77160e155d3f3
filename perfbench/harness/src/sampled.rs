//! `sampled-long`: SimPoint-style sampled runs of two long programs —
//! gcc (streaming-leaning) and mcf (pointer-chasing), each about 80M
//! instructions — under Cache-hit+TPBuf, 8 windows of 1M detailed
//! instructions after 100k of warm-up, against a fresh result store.
//! One operation is both programs, in an order the seed picks.
//!
//! The stitched estimate is compared with committed references: the
//! program's exact instruction count, the stitched cycle count, and the
//! cycle count of a full detailed run (for the sampling error), so no
//! run needs the 30-second detailed simulation.

use crate::common::{
    fresh_dir, median, repeat_setup, timed_loop, Outcome, RunConfig, Tally, WORKERS,
};
use crate::replay::run_pool;
use crate::trace::Tracer;
use condspec::{
    plan_segments, stitch_reports, DefenseConfig, FunctionalExit, Report, SampledOptions,
    Simulator, WindowReport,
};
use condspec_engine::{run_sampled_bench, ProgramCache, ResultStore, SampledBenchSpec};
use condspec_stats::Json;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;

/// Outer iterations: about 80M instructions for each program.
pub const ITERATIONS: u64 = 10_000;
pub const PROGRAMS: [&str; 2] = ["gcc", "mcf"];
pub const REFERENCE_FILE: &str = "sampled-long.json";

pub fn spec(benchmark: &'static str) -> SampledBenchSpec {
    SampledBenchSpec {
        iterations: ITERATIONS,
        ..SampledBenchSpec::new(benchmark, DefenseConfig::CacheHitTpbuf)
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Reference {
    pub total_insts: u64,
    pub stitched_cycles: u64,
    pub detailed_cycles: u64,
}

pub fn load_references(refs: &Path) -> Result<BTreeMap<String, Reference>, String> {
    let path = refs.join(REFERENCE_FILE);
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("parsing {}: {e:?}", path.display()))?;
    if doc.get("iterations").and_then(Json::as_u64) != Some(ITERATIONS) {
        return Err(format!(
            "{} was made for another iteration count",
            path.display()
        ));
    }
    let mut out = BTreeMap::new();
    for row in doc.get("programs").and_then(Json::as_array).unwrap_or(&[]) {
        let field = |k: &str| {
            row.get(k)
                .and_then(Json::as_u64)
                .ok_or(format!("reference row lacks {k}"))
        };
        let name = row
            .get("benchmark")
            .and_then(Json::as_str)
            .ok_or("reference row lacks benchmark")?;
        out.insert(
            name.to_string(),
            Reference {
                total_insts: field("total_insts")?,
                stitched_cycles: field("stitched_cycles")?,
                detailed_cycles: field("detailed_cycles")?,
            },
        );
    }
    Ok(out)
}

/// `run_sampled_bench`, replayed through the layers: count pass on the
/// functional interpreter, window jobs on the traced pool, stitch.
/// Returns the stitched report and the window artifacts in order.
fn replay_sampled(
    tr: &Tracer,
    spec: &SampledBenchSpec,
    store: &ResultStore,
) -> Result<(u64, Report, Vec<Json>), String> {
    tr.span("engine.sampled_run", || {
        let programs = Arc::new(ProgramCache::new());
        let program = tr.span("workloads.build", || {
            programs.get_or_build(spec.benchmark, spec.iterations)
        });
        let mut sim = Simulator::new(spec.window_job(0).sim_config());
        let count = tr.span("sampled.count_pass", || {
            sim.load_program(Arc::clone(&program));
            sim.run_functional(SampledOptions::default().max_insts)
        })?;
        if count.exit != FunctionalExit::Halted {
            return Err(format!("count pass exited {:?}", count.exit));
        }
        let total = count.retired;
        tr.count("sampled.count_insts", total as f64);
        let segments = plan_segments(total, spec.checkpoints);
        let jobs: Vec<_> = (0..segments.len()).map(|i| spec.window_job(i)).collect();
        let results = run_pool(tr, &jobs, &programs, Some(store), |_, _| {});
        tr.count("workloads.builds", programs.builds() as f64);
        let docs = results
            .into_iter()
            .enumerate()
            .map(|(i, (r, _))| r.map_err(|e| format!("window {i} failed: {e}")))
            .collect::<Result<Vec<Json>, String>>()?;
        let report = tr.span("sampled.stitch", || {
            let windows = docs
                .iter()
                .zip(&segments)
                .enumerate()
                .map(|(index, (doc, &(start_inst, segment_len)))| {
                    Some(WindowReport {
                        index,
                        start_inst,
                        segment_len,
                        report: Report::from_json(doc.get("report")?)?,
                    })
                })
                .collect::<Option<Vec<_>>>()
                .ok_or("a window artifact has no parseable report")?;
            Ok::<_, String>(stitch_reports(total, &windows))
        })?;
        Ok((total, report, docs))
    })
}

pub fn run(cfg: &RunConfig, tr: &Tracer) -> Result<Outcome, String> {
    let mut prepare = || {
        let refs = load_references(&cfg.refs)?;
        for name in PROGRAMS {
            if !refs.contains_key(name) {
                return Err(format!("no sampled-long reference for {name}"));
            }
        }
        // One short sampled run (default 40 iterations) as an untimed
        // warm-up of the same code path.
        run_sampled_bench(
            &SampledBenchSpec::new("gcc", DefenseConfig::CacheHitTpbuf),
            WORKERS,
            None,
        )?;
        Ok(refs)
    };
    let (mut setups, refs) = repeat_setup(&cfg.work, &mut prepare)?;
    let order: Vec<&'static str> = if cfg.seed.is_multiple_of(2) {
        PROGRAMS.to_vec()
    } else {
        PROGRAMS.iter().rev().copied().collect()
    };
    let plain_store = cfg.work.join("store");
    let traced_store = cfg.work.join("store-traced");

    let mut tally = Tally::default();
    let mut layers = BTreeMap::new();
    let mut notes = BTreeMap::new();
    let (ops, traced_ops, threads) = timed_loop(
        cfg,
        |_, traced| {
            let mut outs = Vec::new();
            for name in &order {
                let spec = spec(name);
                if traced {
                    let store = ResultStore::open(&traced_store);
                    let (total, report, docs) =
                        tr.span("op", || replay_sampled(tr, &spec, &store))?;
                    tr.count("store.hits", store.hits() as f64);
                    tr.count("store.misses", store.misses() as f64);
                    tr.count("store.corrupt", store.corrupt() as f64);
                    outs.push((*name, total, report, 0, docs));
                } else {
                    let store = ResultStore::open(&plain_store);
                    let outcome = run_sampled_bench(&spec, WORKERS, Some(&store))?;
                    outs.push((
                        *name,
                        outcome.total_insts,
                        outcome.report,
                        outcome.store_hits,
                        Vec::new(),
                    ));
                }
            }
            let jobs = outs.len() as u64 * spec(PROGRAMS[0]).checkpoints as u64;
            Ok((jobs, outs))
        },
        |_, traced, outs| {
            let mut one = BTreeMap::new();
            for (name, total, report, store_hits, docs) in outs {
                let want = refs[name];
                tally.check(store_hits == 0, || {
                    format!("{name}: a fresh store served {store_hits} windows")
                });
                if traced {
                    let plain = ResultStore::open(&plain_store);
                    for (i, doc) in docs.iter().enumerate() {
                        let engine_doc = plain.load(&spec(name).window_job(i).store_key());
                        tally.check(engine_doc.as_ref() == Some(doc), || {
                            format!("{name} window {i}: traced artifact differs from untraced")
                        });
                    }
                }
                tally.check(total == want.total_insts, || {
                    format!(
                        "{name}: {total} instructions, reference {}",
                        want.total_insts
                    )
                });
                tally.check(report.cycles == want.stitched_cycles, || {
                    format!(
                        "{name}: stitched {} cycles, reference {}",
                        report.cycles, want.stitched_cycles
                    )
                });
                let err = (report.cycles as f64 - want.detailed_cycles as f64).abs()
                    / want.detailed_cycles as f64
                    * 100.0;
                notes.insert(
                    if name == "gcc" {
                        "gcc_cycle_err_pct"
                    } else {
                        "mcf_cycle_err_pct"
                    },
                    err,
                );
                let n = PROGRAMS.len() as f64;
                let mut add = |k: &'static str, v: f64| *one.entry(k).or_insert(0.0) += v;
                add("sampled.total_insts", total as f64);
                add("sampled.cycle_err_pct", err / n);
                add("core.sim_cycles", report.cycles as f64);
                add("core.committed", report.committed as f64);
                add("pipeline.squashed_insts", report.squashed_insts as f64);
                add(
                    "pipeline.mispredict_squashes",
                    report.mispredict_squashes as f64,
                );
                add("policy.block_events", report.block_events as f64);
                add("mem.l1d_hit_rate", report.l1d_hit_rate / n);
            }
            layers = one;
            let _ = std::fs::remove_dir_all(&traced_store);
            if traced || !cfg.trace {
                let _ = std::fs::remove_dir_all(&plain_store);
            }
            Ok(())
        },
    )?;
    setups.extend(repeat_setup(&cfg.work, &mut prepare)?.0);
    // Program instructions covered per second of a median operation.
    let covered: f64 = PROGRAMS.iter().map(|n| refs[*n].total_insts as f64).sum();
    let op_s = median(&ops.iter().map(|s| s.secs).collect::<Vec<_>>());
    notes.insert("sim_minst_per_s", covered / 1e6 / op_s);
    Ok(Outcome {
        ops,
        traced_ops,
        setups,
        host_scaled: true,
        tally,
        layers,
        notes,
        threads,
        clients: 0,
    })
}

/// Regenerates the committed references: the sampled estimate of each
/// program and a full detailed run of it (about 30 s per program).
pub fn regenerate(refs: &Path, work: &Path) -> Result<(), String> {
    let mut rows = Vec::new();
    for name in PROGRAMS {
        let spec = spec(name);
        fresh_dir(work)?;
        let store = ResultStore::open(work.join("store"));
        let sampled = run_sampled_bench(&spec, WORKERS, Some(&store))?;
        let programs = ProgramCache::new();
        let program = programs.get_or_build(name, ITERATIONS);
        let mut sim = Simulator::new(spec.window_job(0).sim_config());
        let started = std::time::Instant::now();
        sim.run_to_halt(&program, u64::MAX / 2);
        let detailed = sim.report();
        eprintln!(
            "{name}: {} instructions, stitched {} cycles, detailed {} cycles ({:.1}s), error {:.3}%",
            sampled.total_insts,
            sampled.report.cycles,
            detailed.cycles,
            started.elapsed().as_secs_f64(),
            (sampled.report.cycles as f64 - detailed.cycles as f64).abs() / detailed.cycles as f64 * 100.0
        );
        if detailed.committed != sampled.total_insts {
            return Err(format!(
                "{name}: detailed run committed {}, the count pass {}",
                detailed.committed, sampled.total_insts
            ));
        }
        rows.push(Json::object(vec![
            ("benchmark", Json::from(name)),
            ("total_insts", Json::from(sampled.total_insts)),
            ("stitched_cycles", Json::from(sampled.report.cycles)),
            ("detailed_cycles", Json::from(detailed.cycles)),
        ]));
    }
    let doc = Json::object(vec![
        ("iterations", Json::from(ITERATIONS)),
        ("defense", Json::from(DefenseConfig::CacheHitTpbuf.key())),
        ("programs", Json::Array(rows)),
    ]);
    std::fs::write(refs.join(REFERENCE_FILE), doc.render() + "\n")
        .map_err(|e| format!("writing the sampled reference: {e}"))
}
