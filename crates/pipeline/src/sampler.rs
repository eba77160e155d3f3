//! Windowed time-series sampling of pipeline statistics.
//!
//! A [`TimeSeriesSampler`] cuts [`PipelineStats`] into fixed-width
//! windows of simulated cycles and records the *deltas* per window —
//! IPC, blocked rate, ROB/IQ occupancy, suspect hit rate — so
//! Fig-5-style curves can be plotted over time instead of as one
//! end-of-run aggregate.
//!
//! The sampler lives outside the core: [`run_timeseries`] drives
//! [`Core::run`] in window-sized chunks and cuts a row each time a chunk
//! returns, so the cycle loop carries no sampling hook at all. Windows
//! are measured in *statistics* cycles (`PipelineStats::cycles`), not
//! absolute core cycles, so a series started after a post-warm-up
//! [`Core::reset_stats`] begins at window zero. `Core::run` stops exactly
//! on its cycle limit, clamping idle fast-forward jumps to it, so every
//! window is cut at exactly the boundary cycle and sampled output is
//! identical whether the idle cycles were stepped or skipped — and
//! therefore bit-identical across two runs of the same job.

use crate::core::{Core, ExitReason, RunResult};
use crate::stats::PipelineStats;
use condspec_stats::Json;

/// The statistics deltas of one sample window.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SampleRow {
    /// Window start, in statistics cycles.
    pub start: u64,
    /// Window length in cycles (the final flushed window may be short).
    pub cycles: u64,
    /// Instructions committed in the window.
    pub committed: u64,
    /// Loads committed in the window.
    pub committed_loads: u64,
    /// Committed loads that were blocked at least once.
    pub blocked_committed_loads: u64,
    /// Hazard-filter block decisions in the window.
    pub block_events: u64,
    /// Instructions issued in the window.
    pub issued: u64,
    /// Suspect L1D probe hits in the window.
    pub suspect_hits: u64,
    /// Suspect L1D probes in the window.
    pub suspect_accesses: u64,
    /// Mean ROB occupancy over the window.
    pub rob_occupancy: f64,
    /// Mean IQ occupancy over the window.
    pub iq_occupancy: f64,
}

impl SampleRow {
    /// Committed instructions per cycle within the window.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.committed as f64 / self.cycles as f64
        }
    }

    /// Fraction of the window's committed loads that were blocked.
    pub fn blocked_rate(&self) -> f64 {
        if self.committed_loads == 0 {
            0.0
        } else {
            self.blocked_committed_loads as f64 / self.committed_loads as f64
        }
    }

    /// L1D hit rate of the window's suspect accesses.
    pub fn suspect_hit_rate(&self) -> f64 {
        if self.suspect_accesses == 0 {
            0.0
        } else {
            self.suspect_hits as f64 / self.suspect_accesses as f64
        }
    }

    fn to_json(self) -> Json {
        Json::object([
            ("start", Json::from(self.start)),
            ("cycles", Json::from(self.cycles)),
            ("committed", Json::from(self.committed)),
            ("committed_loads", Json::from(self.committed_loads)),
            (
                "blocked_committed_loads",
                Json::from(self.blocked_committed_loads),
            ),
            ("block_events", Json::from(self.block_events)),
            ("issued", Json::from(self.issued)),
            ("suspect_hits", Json::from(self.suspect_hits)),
            ("suspect_accesses", Json::from(self.suspect_accesses)),
            ("ipc", Json::from(self.ipc())),
            ("blocked_rate", Json::from(self.blocked_rate())),
            ("suspect_hit_rate", Json::from(self.suspect_hit_rate())),
            ("rob_occupancy", Json::from(self.rob_occupancy)),
            ("iq_occupancy", Json::from(self.iq_occupancy)),
        ])
    }
}

/// Schema identifier written into every JSON export.
pub const TIMESERIES_SCHEMA: &str = "condspec-timeseries-v1";

/// Collects [`SampleRow`]s every `window` statistics cycles, up to
/// `max_rows` rows (further windows are counted as dropped, keeping the
/// *earliest* part of the series).
#[derive(Debug, Clone)]
pub struct TimeSeriesSampler {
    window: u64,
    max_rows: usize,
    rows: Vec<SampleRow>,
    dropped: u64,
    /// Stats snapshot at the current window's start.
    baseline: PipelineStats,
    /// Statistics-cycle count at which the current window ends.
    next_boundary: u64,
}

impl TimeSeriesSampler {
    /// Creates a sampler cutting windows of `window` cycles, starting
    /// from the state in `baseline` (pass the core's current stats when
    /// enabling mid-run).
    ///
    /// # Panics
    ///
    /// Panics if `window` or `max_rows` is zero.
    pub fn new(window: u64, max_rows: usize, baseline: &PipelineStats) -> Self {
        assert!(window > 0, "sample window must be nonzero");
        assert!(max_rows > 0, "row capacity must be nonzero");
        TimeSeriesSampler {
            window,
            max_rows,
            rows: Vec::with_capacity(max_rows.min(4096)),
            dropped: 0,
            baseline: *baseline,
            next_boundary: baseline.cycles + window,
        }
    }

    /// The configured window length in cycles.
    pub fn window(&self) -> u64 {
        self.window
    }

    /// The statistics-cycle count at which the current window must be
    /// cut; [`run_timeseries`] ends each run chunk here.
    pub fn next_boundary(&self) -> u64 {
        self.next_boundary
    }

    /// The recorded rows, oldest first.
    pub fn rows(&self) -> &[SampleRow] {
        &self.rows
    }

    /// Windows dropped because `max_rows` was reached.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Cuts the current window against `stats` and starts the next one.
    /// [`run_timeseries`] calls this whenever `stats.cycles` reaches
    /// [`TimeSeriesSampler::next_boundary`].
    pub fn cut(&mut self, stats: &PipelineStats) {
        self.push_delta(stats);
        self.baseline = *stats;
        self.next_boundary = stats.cycles + self.window;
    }

    /// Cuts a final (possibly short) window if any cycles have elapsed
    /// since the last boundary. Call once after the run, before export.
    pub fn flush(&mut self, stats: &PipelineStats) {
        if stats.cycles > self.baseline.cycles {
            self.cut(stats);
        }
    }

    fn push_delta(&mut self, stats: &PipelineStats) {
        let cycles = stats.cycles - self.baseline.cycles;
        if cycles == 0 {
            return;
        }
        if self.rows.len() == self.max_rows {
            self.dropped += 1;
            return;
        }
        let rob_sum = stats.rob_occupancy_sum - self.baseline.rob_occupancy_sum;
        let iq_sum = stats.iq_occupancy_sum - self.baseline.iq_occupancy_sum;
        self.rows.push(SampleRow {
            start: self.baseline.cycles,
            cycles,
            committed: stats.committed - self.baseline.committed,
            committed_loads: stats.committed_loads - self.baseline.committed_loads,
            blocked_committed_loads: stats.blocked_committed_loads
                - self.baseline.blocked_committed_loads,
            block_events: stats.block_events - self.baseline.block_events,
            issued: stats.issued - self.baseline.issued,
            suspect_hits: stats.suspect_l1.hits() - self.baseline.suspect_l1.hits(),
            suspect_accesses: stats.suspect_l1.total() - self.baseline.suspect_l1.total(),
            rob_occupancy: rob_sum as f64 / cycles as f64,
            iq_occupancy: iq_sum as f64 / cycles as f64,
        });
    }

    /// Renders the series as a deterministic JSON document
    /// (`condspec-timeseries-v1`).
    pub fn to_json(&self) -> Json {
        Json::object([
            ("schema", Json::from(TIMESERIES_SCHEMA)),
            ("window", Json::from(self.window)),
            ("rows_dropped", Json::from(self.dropped)),
            (
                "rows",
                Json::Array(self.rows.iter().map(|r| r.to_json()).collect()),
            ),
        ])
    }

    /// Renders the series as CSV with a header row (same columns as the
    /// JSON rows).
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "start,cycles,committed,committed_loads,blocked_committed_loads,\
             block_events,issued,suspect_hits,suspect_accesses,ipc,\
             blocked_rate,suspect_hit_rate,rob_occupancy,iq_occupancy\n",
        );
        for r in &self.rows {
            out.push_str(&format!(
                "{},{},{},{},{},{},{},{},{},{:?},{:?},{:?},{:?},{:?}\n",
                r.start,
                r.cycles,
                r.committed,
                r.committed_loads,
                r.blocked_committed_loads,
                r.block_events,
                r.issued,
                r.suspect_hits,
                r.suspect_accesses,
                r.ipc(),
                r.blocked_rate(),
                r.suspect_hit_rate(),
                r.rob_occupancy,
                r.iq_occupancy,
            ));
        }
        out
    }
}

/// Runs `core` for at most `max_cycles` cycles like [`Core::run`] and
/// samples the run into `window`-cycle rows, keeping at most `max_rows`.
///
/// The core runs in chunks that end on window boundaries; a row is cut
/// whenever a chunk reaches one, and a final short row when the run
/// halts (or gets stuck) mid-window. The returned [`RunResult`] is the
/// one a single `core.run(max_cycles)` call would give.
///
/// # Panics
///
/// Panics if `window` or `max_rows` is zero.
pub fn run_timeseries(
    core: &mut Core,
    window: u64,
    max_rows: usize,
    max_cycles: u64,
) -> (RunResult, TimeSeriesSampler) {
    let mut sampler = TimeSeriesSampler::new(window, max_rows, core.stats());
    let start_cycle = core.cycle();
    let start_committed = core.stats().committed;
    let limit = start_cycle.saturating_add(max_cycles);
    let exit = loop {
        let to_boundary = sampler.next_boundary - core.stats().cycles;
        let chunk = core.run(to_boundary.min(limit - core.cycle()));
        if core.stats().cycles >= sampler.next_boundary {
            sampler.cut(core.stats());
        }
        if chunk.exit != ExitReason::CycleLimit || core.cycle() >= limit {
            break chunk.exit;
        }
    };
    sampler.flush(core.stats());
    let result = RunResult {
        exit,
        cycles: core.cycle() - start_cycle,
        committed: core.stats().committed - start_committed,
    };
    (result, sampler)
}

#[cfg(test)]
mod tests {
    use super::*;
    use condspec_isa::{AluOp, BranchCond, ProgramBuilder, Reg};
    use std::sync::Arc;

    /// A loop of dependent cold loads: long idle stretches the core
    /// fast-forwards over, so window boundaries land inside skipped
    /// spans.
    fn cold_loop_core() -> Core {
        let mut b = ProgramBuilder::new(0x1000);
        b.li(Reg::R1, 0x40000);
        b.li(Reg::R2, 0);
        b.li(Reg::R3, 12);
        b.label("top").expect("fresh label");
        b.load(Reg::R4, Reg::R1, 0);
        // The loaded zero chains each load's address to the previous one.
        b.alu(AluOp::Add, Reg::R1, Reg::R1, Reg::R4);
        b.alu_imm(AluOp::Add, Reg::R1, Reg::R1, 4096);
        b.alu_imm(AluOp::Add, Reg::R2, Reg::R2, 1);
        b.branch_to(BranchCond::LtU, Reg::R2, Reg::R3, "top");
        b.halt();
        let mut core = Core::with_defaults();
        core.load_program(Arc::new(b.build().expect("assembles")));
        core
    }

    #[test]
    fn series_run_matches_a_single_run_and_tiles_it() {
        for (max_cycles, exit) in [
            (1_000_000, ExitReason::Halted),
            (1_500, ExitReason::CycleLimit),
        ] {
            let mut whole = cold_loop_core();
            let expected = whole.run(max_cycles);
            assert_eq!(expected.exit, exit);
            let mut sampled = cold_loop_core();
            let (result, series) = run_timeseries(&mut sampled, 37, 1 << 10, max_cycles);
            assert_eq!(result, expected, "budget {max_cycles}");
            assert_eq!(sampled.stats(), whole.stats(), "budget {max_cycles}");
            let rows = series.rows();
            assert_eq!(series.dropped(), 0);
            assert!(rows[..rows.len() - 1].iter().all(|r| r.cycles == 37));
            let tiled: u64 = rows.iter().map(|r| r.cycles).sum();
            assert_eq!(tiled, whole.stats().cycles, "rows tile the run");
            let committed: u64 = rows.iter().map(|r| r.committed).sum();
            assert_eq!(committed, whole.stats().committed);
        }
    }

    fn stats_at(cycles: u64, committed: u64) -> PipelineStats {
        PipelineStats {
            cycles,
            committed,
            rob_occupancy_sum: cycles * 10,
            iq_occupancy_sum: cycles * 4,
            ..PipelineStats::default()
        }
    }

    #[test]
    fn cuts_windows_with_exact_deltas() {
        let base = stats_at(0, 0);
        let mut s = TimeSeriesSampler::new(100, 16, &base);
        assert_eq!(s.next_boundary(), 100);
        s.cut(&stats_at(100, 250));
        assert_eq!(s.next_boundary(), 200);
        s.cut(&stats_at(200, 300));
        let rows = s.rows();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].start, 0);
        assert_eq!(rows[0].cycles, 100);
        assert_eq!(rows[0].committed, 250);
        assert_eq!(rows[0].ipc(), 2.5);
        assert_eq!(rows[1].start, 100);
        assert_eq!(rows[1].committed, 50);
        assert_eq!(rows[1].rob_occupancy, 10.0);
        assert_eq!(rows[1].iq_occupancy, 4.0);
    }

    #[test]
    fn flush_emits_partial_window_once() {
        let mut s = TimeSeriesSampler::new(100, 16, &stats_at(0, 0));
        s.cut(&stats_at(100, 100));
        let mid = stats_at(140, 130);
        s.flush(&mid);
        assert_eq!(s.rows().len(), 2);
        assert_eq!(s.rows()[1].cycles, 40);
        assert_eq!(s.rows()[1].committed, 30);
        // A second flush with no progress adds nothing.
        s.flush(&mid);
        assert_eq!(s.rows().len(), 2);
    }

    #[test]
    fn capacity_drops_trailing_windows() {
        let mut s = TimeSeriesSampler::new(10, 2, &stats_at(0, 0));
        for i in 1..=4u64 {
            s.cut(&stats_at(i * 10, i * 10));
        }
        assert_eq!(s.rows().len(), 2);
        assert_eq!(s.dropped(), 2);
        assert_eq!(s.rows()[0].start, 0, "earliest windows are kept");
    }

    #[test]
    fn exports_are_deterministic_and_consistent() {
        let mut s = TimeSeriesSampler::new(50, 8, &stats_at(0, 0));
        s.cut(&stats_at(50, 120));
        s.cut(&stats_at(100, 130));
        let json = s.to_json();
        assert_eq!(json.render(), s.clone().to_json().render());
        assert_eq!(
            json.get("schema").and_then(Json::as_str),
            Some(TIMESERIES_SCHEMA)
        );
        assert_eq!(
            json.get("rows").and_then(Json::as_array).map(<[Json]>::len),
            Some(2)
        );
        let csv = s.to_csv();
        assert_eq!(csv.lines().count(), 3, "header + 2 rows");
        assert!(csv.lines().next().unwrap().starts_with("start,cycles"));
    }
}
