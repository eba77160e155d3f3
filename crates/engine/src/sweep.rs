//! The named sweeps: job lists for each of the paper's tables/figures,
//! plus renderers that turn a sweep's artifacts back into the published
//! table.
//!
//! Builders and renderers share the same per-benchmark job-construction
//! helpers, so a renderer always looks up exactly the hashes its
//! builder scheduled. A renderer tolerates missing artifacts (failed or
//! skipped jobs) by printing `-` in the affected cells rather than
//! refusing to render the rest of the table.

use crate::hash::{fnv1a64, hex16};
use crate::job::{JobSpec, MachinePreset, Workload};
use condspec::{DefenseConfig, LruPolicy};
use condspec_attacks::AttackScenario;
use condspec_stats::table::{percent, percent_value};
use condspec_stats::{arithmetic_mean, Json, TextTable};
use condspec_workloads::spec::suite;
use condspec_workloads::GadgetKind;
use std::collections::BTreeMap;

/// Artifacts keyed by job hash.
pub type SweepResults = BTreeMap<String, Json>;

/// Table VI runs a 3x larger grid; fewer iterations keep it tractable.
const TABLE6_ITERATIONS: u64 = 25;

/// A named, fully-enumerated sweep.
#[derive(Debug, Clone)]
pub struct Sweep {
    /// Short CLI name (`fig5`, `table4`, ...).
    pub name: &'static str,
    /// Human title printed above the rendered table.
    pub title: &'static str,
    /// Every job of the sweep, in deterministic order.
    pub jobs: Vec<JobSpec>,
}

impl Sweep {
    /// All sweep names, in CLI help order.
    pub const NAMES: [&'static str; 7] = [
        "fig5", "table4", "table5", "table6", "lru", "icache", "leaks",
    ];

    /// Builds a sweep by name.
    pub fn by_name(name: &str) -> Option<Sweep> {
        match name {
            "fig5" => Some(fig5()),
            "table4" => Some(table4()),
            "table5" => Some(table5()),
            "table6" => Some(table6()),
            "lru" => Some(lru()),
            "icache" => Some(icache()),
            "leaks" => Some(leaks()),
            _ => None,
        }
    }

    /// The content-derived sweep id: `<name>-<hash of all job hashes>`.
    /// Changing any job definition changes the id, so a new sweep
    /// generation never resumes from a stale directory.
    pub fn sweep_id(&self) -> String {
        let mut all = String::new();
        for job in &self.jobs {
            all.push_str(&job.hash_hex());
            all.push(';');
        }
        format!("{}-{}", self.name, hex16(fnv1a64(all.as_bytes())))
    }

    /// Rescales every benchmark job to the given measured/warm-up
    /// iteration counts (`None` keeps the sweep's own value). Attack
    /// and variant jobs are untouched. Scaling changes job hashes and
    /// therefore the sweep id — a scaled sweep is honestly a different
    /// computation, with its own artifacts and store entries.
    pub fn scaled(mut self, iterations: Option<u64>, warmup: Option<u64>) -> Sweep {
        for job in &mut self.jobs {
            match &mut job.workload {
                Workload::Bench {
                    iterations: i,
                    warmup: w,
                    ..
                } => {
                    if let Some(iterations) = iterations {
                        *i = iterations;
                    }
                    if let Some(warmup) = warmup {
                        *w = warmup;
                    }
                }
                // Window jobs have no warm-up program: each window
                // warms up in detail from its checkpoint instead.
                Workload::BenchWindow { iterations: i, .. } => {
                    if let Some(iterations) = iterations {
                        *i = iterations;
                    }
                }
                Workload::Attack { .. } | Workload::Variant { .. } | Workload::LeakProbe { .. } => {
                }
            }
        }
        self
    }

    /// Renders the sweep's table from its artifacts.
    pub fn render(&self, results: &SweepResults) -> String {
        let table = match self.name {
            "fig5" => render_fig5(results),
            "table4" => render_table4(results),
            "table5" => render_table5(results),
            "table6" => render_table6(results),
            "lru" => render_lru(results),
            "icache" => render_icache(results),
            "leaks" => leak_matrix(&self.jobs, results).text,
            _ => unreachable!("sweeps are only constructed by name"),
        };
        format!("\n{}\n\n{table}", self.title)
    }
}

// ---------------------------------------------------------------------
// Artifact accessors
// ---------------------------------------------------------------------

fn artifact<'r>(results: &'r SweepResults, job: &JobSpec) -> Option<&'r Json> {
    results.get(&job.hash_hex())
}

fn report_f64(results: &SweepResults, job: &JobSpec, field: &str) -> Option<f64> {
    artifact(results, job)?.get("report")?.get(field)?.as_f64()
}

fn report_cycles(results: &SweepResults, job: &JobSpec) -> Option<f64> {
    Some(report_f64(results, job, "cycles")?.max(1.0))
}

fn fmt3(v: Option<f64>) -> String {
    v.map_or_else(|| "-".to_string(), |v| format!("{v:.3}"))
}

fn fmt_pct(v: Option<f64>) -> String {
    v.map_or_else(|| "-".to_string(), percent)
}

fn fmt_pct_value(v: Option<f64>) -> String {
    v.map_or_else(|| "-".to_string(), percent_value)
}

fn fmt_signed_pct(v: Option<f64>) -> String {
    v.map_or_else(|| "-".to_string(), |v| format!("{v:+.2}%"))
}

fn mean_row(columns: &[Vec<f64>], fmt: impl Fn(Option<f64>) -> String) -> Vec<String> {
    let mut row = vec!["Average".to_string()];
    row.extend(columns.iter().map(|c| {
        if c.is_empty() {
            "-".to_string()
        } else {
            fmt(Some(arithmetic_mean(c)))
        }
    }));
    row
}

// ---------------------------------------------------------------------
// Figure 5 — normalized execution time + branch-only ablation
// ---------------------------------------------------------------------

fn fig5_jobs_for(benchmark: &'static str) -> [JobSpec; 5] {
    let mut branch_only = JobSpec::bench(benchmark, DefenseConfig::Baseline);
    branch_only.branch_only = true;
    [
        JobSpec::bench(benchmark, DefenseConfig::Origin),
        JobSpec::bench(benchmark, DefenseConfig::Baseline),
        JobSpec::bench(benchmark, DefenseConfig::CacheHit),
        JobSpec::bench(benchmark, DefenseConfig::CacheHitTpbuf),
        branch_only,
    ]
}

/// Figure 5: normalized execution time of the three mechanisms plus the
/// §VI.C branch-only ablation, on the 22-benchmark suite.
pub fn fig5() -> Sweep {
    Sweep {
        name: "fig5",
        title: "Figure 5 — normalized execution time (Origin = 1.0)",
        jobs: suite().iter().flat_map(|s| fig5_jobs_for(s.name)).collect(),
    }
}

fn render_fig5(results: &SweepResults) -> String {
    let mut table = TextTable::with_columns(&[
        "Benchmark",
        "Baseline",
        "Cache-hit",
        "Cache-hit+TPBuf",
        "Branch-only Baseline (ablation)",
    ]);
    let mut columns: [Vec<f64>; 4] = Default::default();
    for spec in suite() {
        let jobs = fig5_jobs_for(spec.name);
        let origin = report_cycles(results, &jobs[0]);
        let mut cells = vec![spec.name.to_string()];
        for (col, job) in columns.iter_mut().zip(&jobs[1..]) {
            let norm = match (origin, report_cycles(results, job)) {
                (Some(o), Some(c)) => Some(c / o),
                _ => None,
            };
            if let Some(v) = norm {
                col.push(v);
            }
            cells.push(fmt3(norm));
        }
        table.row(cells);
    }
    table.row(mean_row(&columns, fmt3));
    format!(
        "{table}\npaper reference: Baseline avg 1.536, Cache-hit avg 1.128, \
         Cache-hit+TPBuf avg 1.068, branch-only Baseline avg 1.230\n"
    )
}

// ---------------------------------------------------------------------
// Table IV — security analysis
// ---------------------------------------------------------------------

/// The Spectre variants of Table IV, in table order: the leak
/// matrix's default corpus.
pub const TABLE4_VARIANTS: [GadgetKind; 4] = [
    GadgetKind::V1,
    GadgetKind::V2,
    GadgetKind::V4,
    GadgetKind::Rsb,
];

/// Table IV: every attack scenario and Spectre variant against every
/// defense environment.
pub fn table4() -> Sweep {
    let mut jobs = Vec::new();
    for scenario in AttackScenario::ALL {
        for defense in DefenseConfig::ALL {
            jobs.push(JobSpec::attack(scenario, defense));
        }
    }
    for kind in TABLE4_VARIANTS {
        for defense in DefenseConfig::ALL {
            jobs.push(JobSpec::variant(kind, defense));
        }
    }
    Sweep {
        name: "table4",
        title: "Table IV — defended? (per mechanism, measured by end-to-end attack)",
        jobs,
    }
}

fn render_table4(results: &SweepResults) -> String {
    let mut table = TextTable::with_columns(&[
        "Attack Classification",
        "Origin",
        "Baseline",
        "Cache-hit",
        "Cache-hit+TPBuf",
        "matches paper",
    ]);
    let mut all_match = true;
    for scenario in AttackScenario::ALL {
        let mut cells = vec![scenario.label().to_string()];
        let mut row_matches = Some(true);
        for defense in DefenseConfig::ALL {
            let job = JobSpec::attack(scenario, defense);
            match artifact(results, &job) {
                Some(doc) => {
                    let defended = doc.get("defended").and_then(Json::as_bool).unwrap_or(false);
                    let matches = doc
                        .get("matches_paper")
                        .and_then(Json::as_bool)
                        .unwrap_or(false);
                    row_matches = row_matches.map(|m| m && matches);
                    cells.push(if defended { "yes" } else { "NO" }.to_string());
                }
                None => {
                    row_matches = None;
                    cells.push("-".to_string());
                }
            }
        }
        cells.push(match row_matches {
            Some(true) => "yes".to_string(),
            Some(false) => {
                all_match = false;
                "MISMATCH".to_string()
            }
            None => "-".to_string(),
        });
        table.row(cells);
    }
    let mut out = format!(
        "{table}\nexpected (paper): Baseline and Cache-hit defend all six; \
         Cache-hit+TPBuf defends the four shared-memory rows only.\n\
         all cells match Table IV: {}\n",
        if all_match { "YES" } else { "NO" }
    );

    let mut variants = TextTable::with_columns(&[
        "Spectre variant",
        "Origin",
        "Baseline",
        "Cache-hit",
        "Cache-hit+TPBuf",
    ]);
    for kind in TABLE4_VARIANTS {
        let mut cells = vec![kind.key().to_string()];
        for defense in DefenseConfig::ALL {
            let job = JobSpec::variant(kind, defense);
            cells.push(
                match artifact(results, &job).and_then(|d| d.get("leaked")?.as_bool()) {
                    Some(true) => "LEAKS".to_string(),
                    Some(false) => "blocked".to_string(),
                    None => "-".to_string(),
                },
            );
        }
        variants.row(cells);
    }
    out.push_str(&format!(
        "\nPer-variant analysis (Flush+Reload channel; rsb = SpectreRSB/ret2spec):\n\n{variants}"
    ));
    out
}

// ---------------------------------------------------------------------
// Table V — filter analysis
// ---------------------------------------------------------------------

fn table5_jobs_for(benchmark: &'static str) -> [JobSpec; 4] {
    [
        JobSpec::bench(benchmark, DefenseConfig::Origin),
        JobSpec::bench(benchmark, DefenseConfig::Baseline),
        JobSpec::bench(benchmark, DefenseConfig::CacheHit),
        JobSpec::bench(benchmark, DefenseConfig::CacheHitTpbuf),
    ]
}

/// Table V: per-benchmark filter analysis (blocked rates, suspect hit
/// rate, S-Pattern mismatch rate).
pub fn table5() -> Sweep {
    Sweep {
        name: "table5",
        title: "Table V — filter analysis",
        jobs: suite()
            .iter()
            .flat_map(|s| table5_jobs_for(s.name))
            .collect(),
    }
}

fn render_table5(results: &SweepResults) -> String {
    let mut table = TextTable::with_columns(&[
        "Benchmark",
        "L1 Hit Rate",
        "BL Blocked",
        "CH Blocked",
        "CH SpecHitRate",
        "TPBuf Blocked",
        "S-Mismatch",
    ]);
    let mut columns: [Vec<f64>; 6] = Default::default();
    for spec in suite() {
        let [origin, baseline, cachehit, tpbuf] = table5_jobs_for(spec.name);
        let values = [
            report_f64(results, &origin, "l1d_hit_rate"),
            report_f64(results, &baseline, "blocked_rate"),
            report_f64(results, &cachehit, "blocked_rate"),
            report_f64(results, &cachehit, "suspect_hit_rate"),
            report_f64(results, &tpbuf, "blocked_rate"),
            report_f64(results, &tpbuf, "s_pattern_mismatch_rate"),
        ];
        let mut cells = vec![spec.name.to_string()];
        for (col, v) in columns.iter_mut().zip(values) {
            if let Some(v) = v {
                col.push(v);
            }
            cells.push(fmt_pct(v));
        }
        table.row(cells);
    }
    table.row(mean_row(&columns, fmt_pct));
    format!(
        "{table}\npaper reference averages: L1 hit 88.7%, Baseline blocked 73.6%, \
         Cache-hit blocked 3.6%, suspect hit rate 89.6%, TPBuf blocked 1.7%, \
         S-Pattern mismatch 18.2%\n"
    )
}

// ---------------------------------------------------------------------
// Table VI — sensitivity to core complexity
// ---------------------------------------------------------------------

fn table6_jobs_for(benchmark: &'static str, preset: MachinePreset) -> [JobSpec; 4] {
    let mut jobs = table5_jobs_for(benchmark);
    for job in &mut jobs {
        job.machine = preset;
        if let Workload::Bench { iterations, .. } = &mut job.workload {
            *iterations = TABLE6_ITERATIONS;
        }
    }
    jobs
}

/// Table VI: overhead of the three mechanisms on A57-like, I7-like and
/// Xeon-like machines.
pub fn table6() -> Sweep {
    let mut jobs = Vec::new();
    for spec in suite() {
        for preset in MachinePreset::SENSITIVITY {
            jobs.extend(table6_jobs_for(spec.name, preset));
        }
    }
    Sweep {
        name: "table6",
        title: "Table VI — performance overhead (%) by core complexity",
        jobs,
    }
}

fn render_table6(results: &SweepResults) -> String {
    let mut table = TextTable::with_columns(&[
        "Benchmark",
        "A57 BL",
        "A57 CH",
        "A57 TPBuf",
        "I7 BL",
        "I7 CH",
        "I7 TPBuf",
        "Xeon BL",
        "Xeon CH",
        "Xeon TPBuf",
    ]);
    let mut columns: Vec<Vec<f64>> = vec![Vec::new(); 9];
    for spec in suite() {
        let mut cells = vec![spec.name.to_string()];
        let mut idx = 0;
        for preset in MachinePreset::SENSITIVITY {
            let jobs = table6_jobs_for(spec.name, preset);
            let origin = report_cycles(results, &jobs[0]);
            for job in &jobs[1..] {
                let overhead = match (origin, report_cycles(results, job)) {
                    (Some(o), Some(c)) => Some((c / o - 1.0) * 100.0),
                    _ => None,
                };
                if let Some(v) = overhead {
                    columns[idx].push(v);
                }
                idx += 1;
                cells.push(fmt_pct_value(overhead));
            }
        }
        table.row(cells);
    }
    table.row(mean_row(&columns, fmt_pct_value));
    format!(
        "{table}\npaper reference averages: A57 41.1/11.0/6.0, I7 46.3/15.1/9.0, \
         Xeon 51.4/15.9/9.6 (%)\n\
         expected shape: the same mechanism ordering on every platform, \
         with overheads growing with core complexity.\n"
    )
}

// ---------------------------------------------------------------------
// §VII.A — secure LRU update policies
// ---------------------------------------------------------------------

fn lru_jobs_for(benchmark: &'static str) -> [JobSpec; 3] {
    [LruPolicy::Update, LruPolicy::NoUpdate, LruPolicy::Delayed].map(|policy| {
        let mut job = JobSpec::bench(benchmark, DefenseConfig::CacheHitTpbuf);
        job.lru = policy;
        job
    })
}

/// §VII.A: the no-update and delayed-update secure LRU policies on top
/// of Cache-hit + TPBuf.
pub fn lru() -> Sweep {
    Sweep {
        name: "lru",
        title: "Section VII.A — secure LRU update policies (on Cache-hit + TPBuf)",
        jobs: suite().iter().flat_map(|s| lru_jobs_for(s.name)).collect(),
    }
}

fn render_lru(results: &SweepResults) -> String {
    let mut table = TextTable::with_columns(&[
        "Benchmark",
        "Normal LRU (cycles)",
        "No-update vs normal",
        "Delayed vs normal",
        "Delayed recovers",
    ]);
    let mut columns: [Vec<f64>; 2] = Default::default();
    for spec in suite() {
        let [normal, none, delayed] = lru_jobs_for(spec.name);
        let base = report_cycles(results, &normal);
        let overhead = |job: &JobSpec| match (base, report_cycles(results, job)) {
            (Some(b), Some(c)) => Some((c / b - 1.0) * 100.0),
            _ => None,
        };
        let none_overhead = overhead(&none);
        let delayed_overhead = overhead(&delayed);
        if let (Some(n), Some(d)) = (none_overhead, delayed_overhead) {
            columns[0].push(n);
            columns[1].push(d);
        }
        table.row(vec![
            spec.name.to_string(),
            base.map_or_else(|| "-".to_string(), |b| format!("{b:.0}")),
            fmt_signed_pct(none_overhead),
            fmt_signed_pct(delayed_overhead),
            fmt_signed_pct(none_overhead.zip(delayed_overhead).map(|(n, d)| n - d)),
        ]);
    }
    let (avg_none, avg_delayed) = (arithmetic_mean(&columns[0]), arithmetic_mean(&columns[1]));
    table.row(vec![
        "Average".to_string(),
        "-".to_string(),
        fmt_signed_pct(Some(avg_none)),
        fmt_signed_pct(Some(avg_delayed)),
        fmt_signed_pct(Some(avg_none - avg_delayed)),
    ]);
    format!(
        "{table}\npaper reference: no-update costs +0.71% on average; \
         delayed update recovers 0.26% of it.\n"
    )
}

// ---------------------------------------------------------------------
// §VII.B — ICache-hit filter
// ---------------------------------------------------------------------

fn icache_jobs_for(benchmark: &'static str) -> [JobSpec; 2] {
    let base = JobSpec::bench(benchmark, DefenseConfig::CacheHitTpbuf);
    let mut filtered = base.clone();
    filtered.icache_filter = true;
    [base, filtered]
}

/// §VII.B: the ICache-hit filter stacked on Cache-hit + TPBuf.
pub fn icache() -> Sweep {
    Sweep {
        name: "icache",
        title: "Section VII.B — ICache-hit filter on top of Cache-hit + TPBuf",
        jobs: suite()
            .iter()
            .flat_map(|s| icache_jobs_for(s.name))
            .collect(),
    }
}

fn render_icache(results: &SweepResults) -> String {
    let mut table = TextTable::with_columns(&[
        "Benchmark",
        "CS+TPBuf (cycles)",
        "+ICache filter",
        "overhead",
        "fetch stalls",
    ]);
    let mut overheads = Vec::new();
    for spec in suite() {
        let [base, filtered] = icache_jobs_for(spec.name);
        let base_cycles = report_cycles(results, &base);
        let filtered_cycles = report_cycles(results, &filtered);
        let overhead = match (base_cycles, filtered_cycles) {
            (Some(b), Some(f)) => Some((f / b - 1.0) * 100.0),
            _ => None,
        };
        if let Some(v) = overhead {
            overheads.push(v);
        }
        let stalls =
            artifact(results, &filtered).and_then(|d| d.get("icache_fetch_stalls")?.as_u64());
        table.row(vec![
            spec.name.to_string(),
            base_cycles.map_or_else(|| "-".to_string(), |v| format!("{v:.0}")),
            filtered_cycles.map_or_else(|| "-".to_string(), |v| format!("{v:.0}")),
            fmt_signed_pct(overhead),
            stalls.map_or_else(|| "-".to_string(), |v| v.to_string()),
        ]);
    }
    table.row(vec![
        "Average".to_string(),
        "-".to_string(),
        "-".to_string(),
        fmt_signed_pct((!overheads.is_empty()).then(|| arithmetic_mean(&overheads))),
        "-".to_string(),
    ]);
    format!(
        "{table}\nThe paper proposes this extension without evaluating it; the \
         expectation is a small overhead because instruction working sets \
         are L1I-resident, with stalls concentrated at mispredicted \
         branches whose wrong-path code is cold.\n"
    )
}

// ---------------------------------------------------------------------
// Leak matrix — taint-oracle information-flow verdicts
// ---------------------------------------------------------------------

/// The taint-oracle leak matrix: every Table IV Spectre variant probed
/// under every defense, with the verdict coming from information flow
/// inside the pipeline instead of an attacker's channel readout.
pub fn leaks() -> Sweep {
    leaks_of(&TABLE4_VARIANTS, &DefenseConfig::ALL)
}

/// The leak sweep restricted to `kinds` × `defenses`, row-major: the
/// probes `condspec leaks` and `GET /api/leaks` run.
pub fn leaks_of(kinds: &[GadgetKind], defenses: &[DefenseConfig]) -> Sweep {
    Sweep {
        name: "leaks",
        title: "Leak matrix — squash-surviving taint flows per defense (taint oracle)",
        jobs: kinds
            .iter()
            .flat_map(|&kind| defenses.iter().map(move |&d| JobSpec::leak_probe(kind, d)))
            .collect(),
    }
}

/// A leak matrix: the one verdict on the taint probes behind every
/// report of them.
#[derive(Debug, Clone, PartialEq)]
pub struct LeakMatrix {
    /// The matrix and blind-spot tables, with the claim line when every
    /// defense column is present.
    pub text: String,
    /// The security claim's verdict, present only when every defense
    /// column is: `REPRODUCED`, `VIOLATED`, or `incomplete` when a cell
    /// has no artifact.
    pub claim: Option<&'static str>,
    /// True when a cell deviates from the claim (Origin leaks through
    /// the cache, no defense does), whether or not the claim is drawn.
    pub deviates: bool,
    /// One `{variant, defense, cache_leaked, leaks, leak_events}`
    /// document per cell with an artifact, row-major.
    pub cells: Vec<Json>,
}

/// The column label of a defense in the security tables.
fn column_label(defense: DefenseConfig) -> &'static str {
    match defense {
        DefenseConfig::Origin => "Origin",
        DefenseConfig::Baseline => "Baseline",
        DefenseConfig::CacheHit => "Cache-hit",
        DefenseConfig::CacheHitTpbuf => "Cache-hit+TPBuf",
    }
}

/// The leak matrix of the leak-probe jobs in `jobs`, whatever their
/// order: rows follow [`GadgetKind::ALL`] and columns
/// [`DefenseConfig::ALL`], each restricted to what the jobs probe.
pub fn leak_matrix(jobs: &[JobSpec], results: &SweepResults) -> LeakMatrix {
    let probes = || {
        jobs.iter().filter_map(|job| match job.workload {
            Workload::LeakProbe { kind } => Some((kind, job.defense)),
            _ => None,
        })
    };
    let kinds: Vec<GadgetKind> = GadgetKind::ALL
        .into_iter()
        .filter(|&k| probes().any(|(kind, _)| kind == k))
        .collect();
    let defenses: Vec<DefenseConfig> = DefenseConfig::ALL
        .into_iter()
        .filter(|&d| probes().any(|(_, defense)| defense == d))
        .collect();

    let mut columns = vec!["Gadget"];
    columns.extend(defenses.iter().map(|&d| column_label(d)));
    let mut table = TextTable::with_columns(&columns);
    let mut blind = TextTable::with_columns(&columns);
    let (mut complete, mut deviates) = (true, false);
    let mut cells = Vec::new();
    for &kind in &kinds {
        let mut row = vec![kind.key().to_string()];
        let mut blind_row = row.clone();
        for &defense in &defenses {
            let doc = artifact(results, &JobSpec::leak_probe(kind, defense));
            let leaks = doc.and_then(|d| d.get("leaks"));
            let count = |field: &str| leaks?.get(field)?.as_u64();
            let survived = count("cache_fills_survived")
                .zip(count("cache_lru_survived"))
                .map(|(f, l)| f + l);
            row.push(match survived {
                Some(0) => "clean".to_string(),
                Some(n) => format!("LEAKS({n})"),
                None => "-".to_string(),
            });
            blind_row.push(
                match (count("tlb_fills_survived"), count("tpbuf_inserts_survived")) {
                    (Some(t), Some(p)) => format!("tlb:{t} tpbuf:{p}"),
                    _ => "-".to_string(),
                },
            );
            match survived {
                Some(n) => deviates |= (n > 0) != (defense == DefenseConfig::Origin),
                None => complete = false,
            }
            if let (Some(doc), Some(leaks)) = (doc, leaks) {
                let field = |k: &str| doc.get(k).cloned().unwrap_or(Json::Null);
                cells.push(Json::object(vec![
                    ("variant", Json::from(kind.key())),
                    ("defense", Json::from(defense.key())),
                    ("cache_leaked", field("cache_leaked")),
                    ("leaks", leaks.clone()),
                    ("leak_events", field("leak_events")),
                ]));
            }
        }
        table.row(row);
        blind.row(blind_row);
    }

    let claim =
        (defenses.len() == DefenseConfig::ALL.len()).then_some(match (complete, deviates) {
            (false, _) => "incomplete",
            (true, true) => "VIOLATED",
            (true, false) => "REPRODUCED",
        });
    let claim_line = claim.map_or_else(String::new, |verdict| {
        format!(
            "\nsecurity claim (cache channels: Origin leaks on every gadget, \
             every defense on none): {verdict}\n"
        )
    });
    LeakMatrix {
        text: format!(
            "{table}{claim_line}\n\
             Blind spots — squash-surviving non-cache flows the paper's threat \
             model does not cover (TLB fills, TPBuf training):\n\n{blind}\n\
             A tlb count > 0 under a defense means the blocked load had already \
             translated its secret-dependent address; the defenses filter the \
             cache, not the TLB.\n"
        ),
        claim,
        deviates,
        cells,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweeps_have_expected_sizes() {
        assert_eq!(fig5().jobs.len(), 22 * 5);
        assert_eq!(table4().jobs.len(), 6 * 4 + 4 * 4);
        assert_eq!(table5().jobs.len(), 22 * 4);
        assert_eq!(table6().jobs.len(), 22 * 3 * 4);
        assert_eq!(lru().jobs.len(), 22 * 3);
        assert_eq!(icache().jobs.len(), 22 * 2);
        assert_eq!(leaks().jobs.len(), 4 * 4);
    }

    #[test]
    fn fig5_needs_one_program_build_per_benchmark_and_iteration_count() {
        // Every fig5 job on a benchmark shares the same warm-up and
        // measured programs, so the sweep's program cache should build
        // 22 benchmarks x {warmup, measured} = 44 programs and serve
        // the remaining 110*2 - 44 requests as hits.
        let mut keys: Vec<(&'static str, u64)> = fig5()
            .jobs
            .iter()
            .flat_map(|job| match &job.workload {
                Workload::Bench {
                    benchmark,
                    iterations,
                    warmup,
                } => vec![(*benchmark, *warmup), (*benchmark, *iterations)],
                _ => vec![],
            })
            .collect();
        assert_eq!(keys.len(), 110 * 2, "every fig5 job is a benchmark");
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), 22 * 2, "distinct programs a fig5 run builds");
    }

    #[test]
    fn job_hashes_are_unique_within_each_sweep() {
        for name in Sweep::NAMES {
            let sweep = Sweep::by_name(name).expect("known sweep");
            let mut hashes: Vec<String> = sweep.jobs.iter().map(JobSpec::hash_hex).collect();
            hashes.sort();
            let before = hashes.len();
            hashes.dedup();
            assert_eq!(hashes.len(), before, "duplicate job in sweep {name}");
        }
    }

    #[test]
    fn sweep_ids_are_deterministic_and_distinct() {
        assert_eq!(fig5().sweep_id(), fig5().sweep_id());
        let ids: Vec<String> = Sweep::NAMES
            .iter()
            .map(|n| Sweep::by_name(n).expect("known").sweep_id())
            .collect();
        let mut unique = ids.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), ids.len());
    }

    #[test]
    fn rendering_tolerates_missing_artifacts() {
        for name in Sweep::NAMES {
            let sweep = Sweep::by_name(name).expect("known sweep");
            let rendered = sweep.render(&SweepResults::new());
            assert!(rendered.contains('-'), "{name} renders placeholders");
        }
    }

    /// The 16 leak-probe artifacts of the full corpus.
    fn leak_artifacts() -> SweepResults {
        crate::run_in_memory(&leaks().jobs, 2).expect("every probe runs")
    }

    /// The lines of `text` that are rows for `kind` (one per table).
    fn rows_of(text: &str, kind: GadgetKind) -> Vec<&str> {
        text.lines()
            .filter(|line| line.split_whitespace().next() == Some(kind.key()))
            .collect()
    }

    #[test]
    fn leak_matrix_of_a_subset_draws_its_rows_and_columns() {
        let results = leak_artifacts();
        let quick = leaks_of(&[GadgetKind::V1, GadgetKind::Rsb], &DefenseConfig::ALL);
        let matrix = leak_matrix(&quick.jobs, &results);
        assert_eq!(matrix.claim, Some("REPRODUCED"));
        assert!(!matrix.deviates);
        assert_eq!(matrix.cells.len(), 8);
        assert!(matrix.text.contains("every defense on none): REPRODUCED\n"));
        // A row in the matrix and one in the blind-spot table.
        for (kind, rows) in [
            (GadgetKind::V1, 2),
            (GadgetKind::V2, 0),
            (GadgetKind::V4, 0),
            (GadgetKind::Rsb, 2),
        ] {
            assert_eq!(rows_of(&matrix.text, kind).len(), rows, "{kind:?}");
        }

        // One defense column: no claim line, no verdict, cells intact.
        let origin = leaks_of(&TABLE4_VARIANTS, &[DefenseConfig::Origin]);
        let matrix = leak_matrix(&origin.jobs, &results);
        assert_eq!(matrix.claim, None);
        assert!(!matrix.deviates, "Origin leaks on every gadget");
        assert!(!matrix.text.contains("security claim"), "{}", matrix.text);
        assert_eq!(matrix.cells.len(), 4);
        assert_eq!(
            rows_of(&matrix.text, GadgetKind::V4)[0]
                .split_whitespace()
                .count(),
            2
        );
    }

    #[test]
    fn leak_matrix_ignores_job_order_and_flags_a_missing_cell() {
        let mut results = leak_artifacts();
        let full = leaks();
        let expected = leak_matrix(&full.jobs, &results);
        assert_eq!(expected.claim, Some("REPRODUCED"));
        assert_eq!(
            full.render(&results),
            format!("\n{}\n\n{}", full.title, expected.text)
        );

        let mut shuffled = full.clone();
        let mut rng = condspec_stats::SplitMix64::new(27);
        for i in (1..shuffled.jobs.len()).rev() {
            let j = (rng.next_u64() % (i as u64 + 1)) as usize;
            shuffled.jobs.swap(i, j);
        }
        assert_ne!(shuffled.jobs, full.jobs);
        assert_eq!(leak_matrix(&shuffled.jobs, &results), expected);

        results.remove(&JobSpec::leak_probe(GadgetKind::V2, DefenseConfig::CacheHit).hash_hex());
        let matrix = leak_matrix(&full.jobs, &results);
        assert_eq!(matrix.claim, Some("incomplete"));
        assert!(matrix.text.contains("every defense on none): incomplete\n"));
        assert_eq!(matrix.cells.len(), 15);
        assert_eq!(
            rows_of(&matrix.text, GadgetKind::V2)[0]
                .split_whitespace()
                .nth(3),
            Some("-"),
            "the missing cell is drawn as `-`"
        );
    }

    #[test]
    fn scaling_rewrites_window_jobs_and_rehashes() {
        let sweep = Sweep {
            name: "windows",
            title: "window jobs",
            jobs: vec![JobSpec::bench_window("gcc", DefenseConfig::Origin, 1)],
        };
        let base_id = sweep.sweep_id();
        let scaled = sweep.scaled(Some(3), Some(1));
        assert_ne!(base_id, scaled.sweep_id(), "window jobs re-hash");
        let Workload::BenchWindow { iterations, .. } = &scaled.jobs[0].workload else {
            panic!("workload kind must survive scaling");
        };
        assert_eq!(*iterations, 3);
    }

    #[test]
    fn unknown_sweep_is_rejected() {
        assert!(Sweep::by_name("fig9").is_none());
    }

    #[test]
    fn scaling_rewrites_bench_iterations_and_the_sweep_id() {
        let base = icache();
        let scaled = icache().scaled(Some(2), Some(1));
        assert_ne!(base.sweep_id(), scaled.sweep_id(), "a scaled sweep is new");
        for job in &scaled.jobs {
            if let Workload::Bench {
                iterations, warmup, ..
            } = &job.workload
            {
                assert_eq!((*iterations, *warmup), (2, 1));
            }
        }
        // Attack jobs are untouched, so table4 keeps its id.
        assert_eq!(
            table4().sweep_id(),
            table4().scaled(Some(2), Some(1)).sweep_id()
        );
        // `None` keeps the sweep's own counts.
        assert_eq!(base.sweep_id(), icache().scaled(None, None).sweep_id());
    }
}
