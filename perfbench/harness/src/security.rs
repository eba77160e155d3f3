//! `security-matrix`: the Table IV sweep (24 attack and 16 variant
//! jobs) plus the taint-oracle leak sweep (16 probes), with no result
//! store. Jobs take about a millisecond, so attack set-up, simulator
//! construction and per-job engine overhead dominate — the opposite
//! regime to fig5's long jobs. One operation is one pass over both
//! sweeps through the engine's worker pool, each rendered. The passes
//! keep their artifacts in memory: writing 56 small files per 30 ms
//! pass would make file creation, not the attacks, the measured cost.
//!
//! Checks: artifacts match committed digests; every attack cell
//! matches the paper; the leak matrix shows Origin leaking on every
//! gadget and every defense clean.

use crate::common::{
    check_digests, load_digests, repeat_setup, shuffle, timed_loop, Outcome, RunConfig, Tally,
    WORKERS,
};
use crate::replay::run_pool;
use crate::sha256;
use crate::trace::Tracer;
use condspec::DefenseConfig;
use condspec_engine::{run_jobs_stored, ProgramCache, Sweep, SweepResults, Workload};
use condspec_stats::{Json, SplitMix64};
use std::collections::BTreeMap;
use std::sync::Arc;

pub const SWEEPS: [&str; 2] = ["table4", "leaks"];

/// The verdict checks on one sweep's artifacts; returns how many cells
/// matched.
pub fn check_verdicts(tally: &mut Tally, sweep: &Sweep, results: &SweepResults) -> u64 {
    let mut matched = 0;
    for job in &sweep.jobs {
        let doc = results.get(&job.hash_hex());
        let flag = |k: &str| doc.and_then(|d| d.get(k)).and_then(Json::as_bool);
        let ok = match &job.workload {
            Workload::Attack { .. } => flag("matches_paper") == Some(true),
            Workload::LeakProbe { .. } => {
                let leaks = doc.and_then(|d| d.get("leaks"));
                let survived = |k: &str| leaks.and_then(|l| l.get(k)).and_then(Json::as_u64);
                match (
                    survived("cache_fills_survived"),
                    survived("cache_lru_survived"),
                ) {
                    (Some(f), Some(l)) => (f + l > 0) == (job.defense == DefenseConfig::Origin),
                    _ => false,
                }
            }
            // Variant verdicts are pinned by the artifact digests.
            _ => continue,
        };
        tally.check(ok, || {
            format!("{}: verdict does not match the paper", job.label())
        });
        matched += u64::from(ok);
    }
    matched
}

/// One sweep's jobs through the engine's worker pool (no result store,
/// no artifact directory), rendered. Returns the artifact bytes keyed
/// by file name, the rendered table and the failure count.
fn pass(tr: &Tracer, sweep: &Sweep, traced: bool) -> (BTreeMap<String, String>, String, usize) {
    let programs = Arc::new(ProgramCache::new());
    let outcomes: Vec<Result<Json, String>> = if traced {
        run_pool(tr, &sweep.jobs, &programs, None, |_, _| {})
            .into_iter()
            .map(|(r, _)| r)
            .collect()
    } else {
        run_jobs_stored(&sweep.jobs, WORKERS, &programs, None, |_, _, _, _| {})
            .into_iter()
            .map(|(r, _, _)| r)
            .collect()
    };
    let mut results = SweepResults::new();
    let mut failed = 0;
    for (job, outcome) in sweep.jobs.iter().zip(outcomes) {
        match outcome {
            Ok(doc) => {
                results.insert(job.hash_hex(), doc);
            }
            Err(_) => failed += 1,
        }
    }
    let rendered = if traced {
        tr.span("engine.render", || sweep.render(&results))
    } else {
        sweep.render(&results)
    };
    // The bytes `SweepDir::write` would store for each job.
    let files = results
        .iter()
        .map(|(hash, doc)| (format!("{hash}.json"), doc.render() + "\n"))
        .collect();
    (files, rendered, failed)
}

pub fn run(cfg: &RunConfig, tr: &Tracer) -> Result<Outcome, String> {
    let mut prepare = || {
        let want = load_digests(&cfg.refs.join("security-artifacts.sha256"))?;
        let mut rng = SplitMix64::new(cfg.seed);
        let mut sweeps = Vec::new();
        for name in SWEEPS {
            let mut sweep =
                Sweep::by_name(name).ok_or(format!("the engine has no {name} sweep"))?;
            shuffle(&mut sweep.jobs, &mut rng);
            sweeps.push(sweep);
        }
        // One untimed warm-up pass, so first-touch costs stay out of
        // the timed passes.
        for sweep in &sweeps {
            pass(tr, sweep, false);
        }
        Ok((sweeps, want))
    };
    let (mut setups, (sweeps, want)) = repeat_setup(&cfg.work, &mut prepare)?;

    let mut tally = Tally::default();
    let mut layers = BTreeMap::new();
    let mut renders: Vec<Option<String>> = vec![None; sweeps.len()];
    let mut untraced_files: Vec<BTreeMap<String, String>> = Vec::new();
    let (ops, traced_ops, threads) = timed_loop(
        cfg,
        |_, traced| {
            let outs: Vec<_> = if traced {
                tr.span("op", || sweeps.iter().map(|s| pass(tr, s, true)).collect())
            } else {
                sweeps.iter().map(|s| pass(tr, s, false)).collect()
            };
            Ok((sweeps.iter().map(|s| s.jobs.len() as u64).sum(), outs))
        },
        |_, traced, outs| {
            let mut matched = 0;
            for (i, (sweep, (files, rendered, failed))) in sweeps.iter().zip(outs).enumerate() {
                tally.check(failed == 0, || {
                    format!("{failed} {} jobs failed", sweep.name)
                });
                let results: SweepResults = files
                    .iter()
                    .filter_map(|(name, text)| {
                        Some((
                            name.trim_end_matches(".json").to_string(),
                            Json::parse(text).ok()?,
                        ))
                    })
                    .collect();
                matched += check_verdicts(&mut tally, sweep, &results);
                match &renders[i] {
                    None => renders[i] = Some(rendered),
                    Some(first) => tally.check(*first == rendered, || {
                        format!("{} rendered table differs between operations", sweep.name)
                    }),
                }
                let digests = files
                    .iter()
                    .map(|(n, t)| (n.clone(), sha256::hex(t.as_bytes())))
                    .collect();
                check_digests(&mut tally, sweep.name, &digests, &want_for(&want, sweep));
                if traced {
                    tally.check(untraced_files.get(i) == Some(&files), || {
                        format!("{}: traced artifacts differ from untraced", sweep.name)
                    });
                } else {
                    untraced_files.truncate(i);
                    untraced_files.push(files);
                }
            }
            if traced {
                layers.insert("attacks.verdicts_matched", matched as f64);
            }
            Ok(())
        },
    )?;
    setups.extend(repeat_setup(&cfg.work, &mut prepare)?.0);
    Ok(Outcome {
        ops,
        traced_ops,
        setups,
        host_scaled: true,
        tally,
        layers,
        notes: BTreeMap::new(),
        threads,
        clients: 0,
    })
}

/// The reference digests of one sweep's jobs.
fn want_for(all: &BTreeMap<String, String>, sweep: &Sweep) -> BTreeMap<String, String> {
    sweep
        .jobs
        .iter()
        .filter_map(|j| {
            let name = format!("{}.json", j.hash_hex());
            all.get(&name).map(|d| (name, d.clone()))
        })
        .collect()
}
