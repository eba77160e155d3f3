//! `fig5-cold`: the full Figure 5 sweep (110 jobs, default iterations)
//! against an empty result store and run root — what a user waits for
//! to reproduce Figure 5. One operation is one cold sweep plus its
//! rendered table.

use crate::common::{
    artifact_digests, check_digests, check_same_files, load_digests, median, repeat_setup, shuffle,
    timed_loop, Outcome, RunConfig, Tally, WORKERS,
};
use crate::replay::replay_sweep;
use crate::trace::Tracer;
use condspec::DefenseConfig;
use condspec_engine::{
    run_sweep_observed, JobSpec, ResultStore, Sweep, SweepOptions, SweepResults,
};
use condspec_stats::{Json, SplitMix64};
use std::collections::BTreeMap;
use std::path::PathBuf;

/// Sums the report counters the per-layer table carries over every
/// benchmark artifact of a sweep.
pub fn report_totals(results: &SweepResults) -> BTreeMap<&'static str, f64> {
    let mut layers = BTreeMap::new();
    let mut hit_rates = Vec::new();
    for doc in results.values() {
        let Some(report) = doc.get("report") else {
            continue;
        };
        let mut add = |metric: &'static str, field: &str| {
            *layers.entry(metric).or_insert(0.0) +=
                report.get(field).and_then(Json::as_u64).unwrap_or(0) as f64;
        };
        add("core.sim_cycles", "cycles");
        add("core.committed", "committed");
        add("pipeline.squashed_insts", "squashed_insts");
        add("pipeline.mispredict_squashes", "mispredict_squashes");
        add("policy.block_events", "block_events");
        hit_rates.extend(report.get("l1d_hit_rate").and_then(Json::as_f64));
    }
    if !hit_rates.is_empty() {
        layers.insert(
            "mem.l1d_hit_rate",
            hit_rates.iter().sum::<f64>() / hit_rates.len() as f64,
        );
    }
    layers
}

pub fn run(cfg: &RunConfig, tr: &Tracer) -> Result<Outcome, String> {
    let runs = cfg.work.join("runs");
    let traced_runs = cfg.work.join("runs-traced");
    let store_root = cfg.work.join("store");
    let mut prepare = || {
        let want = load_digests(&cfg.refs.join("fig5-artifacts.sha256"))?;
        let mut sweep = Sweep::by_name("fig5").ok_or("the engine has no fig5 sweep")?;
        shuffle(&mut sweep.jobs, &mut SplitMix64::new(cfg.seed));
        // One fixed warm-up job, so first-touch costs of the process
        // stay out of the timed sweeps (which still start cold: empty
        // store, empty run root, fresh program cache).
        JobSpec::bench("gcc", DefenseConfig::Origin).execute();
        Ok((sweep, want))
    };
    let (mut setups, (sweep, want)) = repeat_setup(&cfg.work, &mut prepare)?;

    let mut tally = Tally::default();
    let mut layers = BTreeMap::new();
    let mut first_render: Option<String> = None;
    let mut committed = 0.0;
    let sweep_id = sweep.sweep_id();
    let (ops, traced_ops, threads) = timed_loop(
        cfg,
        |_, traced| {
            let store = ResultStore::open(&store_root);
            let out: (PathBuf, String, usize, SweepResults) = if traced {
                let r = tr.span("op", || {
                    replay_sweep(tr, &sweep, &traced_runs, Some(&store))
                })?;
                tr.count("store.hits", store.hits() as f64);
                tr.count("store.misses", store.misses() as f64);
                tr.count("store.corrupt", store.corrupt() as f64);
                (r.dir, r.rendered, r.failed, r.results)
            } else {
                let opts = SweepOptions {
                    workers: WORKERS,
                    root: runs.clone(),
                    store: Some(store_root.clone()),
                    quiet: true,
                    ..SweepOptions::default()
                };
                let outcome = run_sweep_observed(&sweep, &opts, |_| {})
                    .map_err(|e| format!("fig5 sweep: {e}"))?;
                let rendered = sweep.render(&outcome.results);
                (outcome.dir, rendered, outcome.failed.len(), outcome.results)
            };
            Ok((sweep.jobs.len() as u64, out))
        },
        |_, traced, (dir, rendered, failed, results)| {
            tally.check(failed == 0, || format!("{failed} fig5 jobs failed"));
            check_digests(&mut tally, "fig5", &artifact_digests(&dir), &want);
            match &first_render {
                None => first_render = Some(rendered),
                Some(first) => tally.check(*first == rendered, || {
                    "fig5 rendered table differs between operations".to_string()
                }),
            }
            let totals = report_totals(&results);
            committed = totals.get("core.committed").copied().unwrap_or(0.0);
            if traced {
                layers = totals;
                check_same_files(&mut tally, "fig5", &runs.join(&sweep_id), &dir);
            }
            // Back to cold. With tracing on, the untraced run directory
            // is kept until its traced twin has been compared with it.
            let _ = std::fs::remove_dir_all(&store_root);
            let _ = std::fs::remove_dir_all(&traced_runs);
            if traced || !cfg.trace {
                let _ = std::fs::remove_dir_all(&runs);
            }
            Ok(())
        },
    )?;
    setups.extend(repeat_setup(&cfg.work, &mut prepare)?.0);
    // Committed instructions of the measured runs per second of a
    // median sweep.
    let op_s = median(&ops.iter().map(|s| s.secs).collect::<Vec<_>>());
    let notes = BTreeMap::from([("sim_minst_per_s", committed / 1e6 / op_s)]);
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
