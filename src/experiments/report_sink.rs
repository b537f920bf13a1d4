//! Process-wide run-report collector.
//!
//! The `repro` binary runs figure drivers that know nothing about report
//! files; this module gives the batch executor a place to deposit what it
//! observed (cells, timings, cache behaviour) so that one `run_report.json`
//! / `BENCH_run.json` can be assembled after all targets finish. Recording
//! is off by default and every `record_*` call is a cheap no-op until
//! [`enable`] flips the switch, so figure drivers and tests pay nothing.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

use grit_sim::CellError;
use grit_trace::{
    BatchProfile, BenchSummary, CellReport, CycleProfile, HeadlineSpeedups, MetricsReport,
    PhaseEntry, ProfileReport, RunReport, SeriesReport, StoreCounters, TargetTiming,
};

use crate::runner::RunOutput;

use super::batch::CellSpec;
use super::ExpConfig;

static ENABLED: AtomicBool = AtomicBool::new(false);

struct CollectorState {
    targets: Vec<TargetTiming>,
    batches: Vec<BatchProfile>,
    cells: Vec<CellReport>,
    headline: Option<HeadlineSpeedups>,
    fig18_fault_geomean: Option<f64>,
    store: StoreCounters,
}

static STATE: Mutex<CollectorState> = Mutex::new(CollectorState {
    targets: Vec::new(),
    batches: Vec::new(),
    cells: Vec::new(),
    headline: None,
    fig18_fault_geomean: None,
    store: StoreCounters {
        hits: 0,
        misses: 0,
        quarantined: 0,
    },
});

fn state() -> std::sync::MutexGuard<'static, CollectorState> {
    STATE.lock().expect("report collector poisoned")
}

/// Turns recording on for the rest of the process (the `repro` binary
/// calls this when `--metrics-out` or `--emit-bench-json` is given).
pub fn enable() {
    ENABLED.store(true, Ordering::Relaxed);
}

/// Whether [`enable`] has been called.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Records one executed cell. Called by the batch executor in declaration
/// order, so `seq` doubles as the trace-stream cell sequence number.
pub fn record_cell(spec: &CellSpec, out: &RunOutput) {
    if !enabled() {
        return;
    }
    let mut series = Vec::new();
    if let Some(obs) = &out.observer {
        series.push(SeriesReport::from_series("page_by_gpu", &obs.page_by_gpu));
        series.push(SeriesReport::from_series("page_rw", &obs.page_rw));
        if let Some(timeline) = &obs.scheme_timeline {
            series.push(SeriesReport::from_series("scheme_timeline", timeline));
        }
    }
    let mut st = state();
    let seq = st.cells.len() as u64;
    st.cells.push(CellReport {
        seq,
        app: spec.app.to_string(),
        policy: spec.policy_label(),
        num_gpus: spec.cfg.num_gpus as u64,
        page_size: spec.cfg.page_size,
        scale: spec.exp.scale,
        intensity: spec.exp.intensity,
        seed: spec.exp.seed,
        build_seconds: out.timing.build_seconds,
        sim_seconds: out.timing.sim_seconds,
        workload_cache_hit: out.timing.workload_cache_hit,
        events_recorded: out.events.as_ref().map_or(0, |e| e.len() as u64),
        status: if out.timing.resumed { "resumed" } else { "ok" }.into(),
        error: None,
        spec: Some(spec.to_run_spec().canonical()),
        metrics: MetricsReport::from_metrics(&out.metrics),
        series,
    });
}

/// Records a failed cell as a structured error row: zeroed metrics, a
/// machine-readable `status` label and the human-readable error message.
/// Called by the batch executor in declaration order alongside
/// [`record_cell`], so failed cells keep their sequence slot.
pub fn record_cell_error(spec: &CellSpec, err: &CellError) {
    if !enabled() {
        return;
    }
    let mut st = state();
    let seq = st.cells.len() as u64;
    st.cells.push(CellReport {
        seq,
        app: spec.app.to_string(),
        policy: spec.policy_label(),
        num_gpus: spec.cfg.num_gpus as u64,
        page_size: spec.cfg.page_size,
        scale: spec.exp.scale,
        intensity: spec.exp.intensity,
        seed: spec.exp.seed,
        build_seconds: 0.0,
        sim_seconds: 0.0,
        workload_cache_hit: false,
        events_recorded: 0,
        status: err.status().into(),
        error: Some(err.to_string()),
        spec: Some(spec.to_run_spec().canonical()),
        metrics: MetricsReport::default(),
        series: Vec::new(),
    });
}

/// Records one batch execution profile.
pub fn record_batch(profile: BatchProfile) {
    if !enabled() {
        return;
    }
    state().batches.push(profile);
}

/// Records a target's wall-clock time (the `time:` lines `repro` prints).
pub fn record_target(name: &str, seconds: f64) {
    if !enabled() {
        return;
    }
    state().targets.push(TargetTiming {
        name: name.to_string(),
        seconds,
    });
}

/// Records the Fig. 17 headline geomean speedups.
pub fn record_headline(vs_on_touch: f64, vs_access_counter: f64, vs_duplication: f64) {
    if !enabled() {
        return;
    }
    state().headline = Some(HeadlineSpeedups {
        vs_on_touch,
        vs_access_counter,
        vs_duplication,
    });
}

/// Accumulates one batch's result-store traffic (hits, misses,
/// quarantined files) into the run-wide totals reported under the
/// run report's `store` object.
pub fn record_store(counters: StoreCounters) {
    if !enabled() || !counters.any() {
        return;
    }
    state().store.absorb(counters);
}

/// Records the Fig. 18 geomean of GRIT's normalized fault count.
pub fn record_fig18_geomean(value: f64) {
    if !enabled() {
        return;
    }
    state().fig18_fault_geomean = Some(value);
}

/// Assembles the full `run_report.json` document from everything recorded
/// so far. The collected cells/batches/targets stay in place, so the bench
/// summary can be built from the same state.
pub fn build_report(exp: &ExpConfig, jobs: usize, total_seconds: f64) -> RunReport {
    let st = state();
    RunReport {
        scale: exp.scale,
        intensity: exp.intensity,
        seed: exp.seed,
        jobs: jobs as u64,
        total_seconds,
        system: grit_sim::SimConfig::default()
            .describe()
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
        targets: st.targets.clone(),
        batches: st.batches.clone(),
        cells: st.cells.clone(),
        profile: grit_prof::enabled().then(|| build_profile(&st.cells)),
        store: st.store.any().then_some(st.store),
    }
}

/// Assembles the report's `profile` object: wall-clock phase totals from
/// the process-wide `grit-prof` accumulators, and the deterministic
/// cycle-domain sections merged from every successful cell's `prof_*`
/// aux series in sequence order.
fn build_profile(cells: &[CellReport]) -> ProfileReport {
    let wall: Vec<PhaseEntry> = grit_prof::phase_totals()
        .iter()
        .filter(|t| t.count > 0)
        .map(|t| PhaseEntry {
            phase: t.phase.name().to_string(),
            nanos: t.nanos,
            count: t.count,
        })
        .collect();
    let mut cycle = CycleProfile::default();
    for cell in cells.iter().filter(|c| c.status == "ok" || c.status == "resumed") {
        cycle.absorb_aux(&cell.metrics.aux);
    }
    ProfileReport { wall, cycle }
}

/// Assembles the compact `BENCH_run.json` document.
pub fn build_bench_summary(exp: &ExpConfig, jobs: usize, total_seconds: f64) -> BenchSummary {
    let st = state();
    let mut fault_totals = grit_metrics::FaultCounters::default();
    for cell in &st.cells {
        let f = &cell.metrics.faults;
        fault_totals.local_faults += f.local_faults;
        fault_totals.protection_faults += f.protection_faults;
        fault_totals.migrations += f.migrations;
        fault_totals.duplications += f.duplications;
        fault_totals.collapses += f.collapses;
        fault_totals.evictions += f.evictions;
        fault_totals.scheme_changes += f.scheme_changes;
    }
    BenchSummary {
        scale: exp.scale,
        intensity: exp.intensity,
        seed: exp.seed,
        jobs: jobs as u64,
        total_seconds,
        cells_run: st.cells.len() as u64,
        fault_totals,
        targets: st.targets.clone(),
        headline: st.headline,
        fig18_fault_geomean: st.fig18_fault_geomean,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // `enable` is process-global and sticky, so these tests only exercise
    // the disabled path plus pure assembly; the enabled round trip is
    // covered by the `repro` CLI integration test, which owns its process.

    #[test]
    fn disabled_recording_is_a_no_op() {
        assert!(!enabled(), "nothing in the test binary calls enable()");
        record_target("figX", 1.0);
        record_fig18_geomean(0.5);
        assert!(state().targets.is_empty());
        assert!(state().fig18_fault_geomean.is_none());
    }

    #[test]
    fn empty_report_assembles() {
        let exp = ExpConfig::quick();
        let report = build_report(&exp, 2, 0.0);
        assert_eq!(report.jobs, 2);
        assert!(!report.system.is_empty());
        let bench = build_bench_summary(&exp, 2, 0.0);
        assert_eq!(bench.cells_run, 0);
        assert!(bench.headline.is_none());
    }
}
