//! Determinism pin for the profiler's cycle-domain sections: the
//! `prof_*` aux series (fault-handler occupancy, migration latency,
//! fabric queue wait, MLP stall cycles) and the merged `CycleProfile`
//! they roll up into must be byte-identical at any `--jobs`. Wall-clock
//! phase timers vary run to run by design and live outside this surface.

use grit::experiments::{run_batch_with, BatchOptions, CellSpec, ExpConfig, PolicyKind};
use grit::runner::RunOutput;
use grit_sim::{Scheme, SimConfig};
use grit_trace::{CycleProfile, MetricsReport, ProfileReport};
use grit_workloads::App;

fn exp() -> ExpConfig {
    ExpConfig {
        scale: 0.02,
        intensity: 0.5,
        seed: 0x0B5E,
    }
}

fn grid() -> Vec<CellSpec> {
    let mut cells = Vec::new();
    for app in [App::Bfs, App::Gemm] {
        for p in [PolicyKind::GRIT, PolicyKind::Static(Scheme::OnTouch)] {
            cells.push(CellSpec::new(app, p, &exp()).with_cfg(SimConfig::with_gpus(4)));
        }
    }
    cells
}

const PROF_AUX: &[&str] = &[
    "prof_fault_occupancy_hist",
    "prof_migration_latency_hist",
    "prof_fabric_queue_hist",
    "prof_mlp_stall_cycles",
];

/// The cell's `prof_*` aux series in sorted-aux (`MetricsReport`) form.
fn prof_aux(out: &RunOutput) -> Vec<(String, Vec<f64>)> {
    MetricsReport::from_metrics(&out.metrics)
        .aux
        .iter()
        .filter(|(k, _)| PROF_AUX.contains(&k.as_str()))
        .cloned()
        .collect()
}

/// The report-level byte-identity surface: every cell's cycle histograms
/// merged in sequence order, serialized exactly as `run_report.json`
/// serializes the `profile.cycle` object.
fn merged_cycle_json(outs: &[RunOutput]) -> String {
    let mut cycle = CycleProfile::default();
    for out in outs {
        cycle.absorb_aux(&prof_aux(out));
    }
    ProfileReport {
        wall: Vec::new(),
        cycle,
    }
    .to_json()
    .to_string()
}

fn run(cells: &[CellSpec], jobs: usize) -> Vec<RunOutput> {
    run_batch_with(cells, &BatchOptions::new().jobs(jobs))
        .into_iter()
        .map(|r| r.expect("cell must succeed"))
        .collect()
}

#[test]
fn cycle_profile_byte_identical_across_jobs() {
    let cells = grid();
    let one = run(&cells, 1);
    for out in &one {
        assert_eq!(
            prof_aux(out).len(),
            PROF_AUX.len(),
            "every cell must record all cycle-domain profile series"
        );
    }
    let four = run(&cells, 4);
    for (i, (a, b)) in one.iter().zip(four.iter()).enumerate() {
        assert_eq!(
            prof_aux(a),
            prof_aux(b),
            "cell {i} prof_* aux diverge between --jobs 1 and --jobs 4"
        );
    }
    assert_eq!(
        merged_cycle_json(&one),
        merged_cycle_json(&four),
        "merged cycle profile diverges between --jobs 1 and --jobs 4"
    );
}

/// With profiling enabled, a run must deposit wall-clock spans into the
/// process-wide accumulators — the source of the report's `wall`
/// section.
#[test]
fn profiled_run_records_spans_and_phase_totals() {
    grit_prof::set_enabled(true);
    let cells =
        vec![CellSpec::new(App::Bfs, PolicyKind::GRIT, &exp()).with_cfg(SimConfig::with_gpus(4))];
    let _ = run(&cells, 1);
    grit_prof::set_enabled(false);
    let totals = grit_prof::phase_totals();
    assert!(
        totals.iter().any(|t| t.count > 0),
        "profiled run must record at least one wall-clock span"
    );
    for phase in [grit_prof::Phase::Translate, grit_prof::Phase::FaultHandling] {
        let t = totals.iter().find(|t| t.phase == phase).expect("every phase is totalled");
        assert!(t.count > 0, "{} recorded no spans", phase.name());
    }
}
