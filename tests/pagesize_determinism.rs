//! Determinism pin for large-page modes: coalescing and splintering run
//! only on the driver's serial paths, so `uniform2m`/`mixed` cells must
//! stay byte-identical — metrics, page attributes and the JSONL trace
//! stream (including `page-coalesced`/`page-splintered` events) — at
//! any `--jobs` (DESIGN.md §17).

use grit::experiments::{run_batch_with, BatchOptions, CellSpec, ExpConfig, PolicyKind};
use grit::runner::RunOutput;
use grit_sim::{PageSizeMode, Scheme, SimConfig};
use grit_trace::{events_to_jsonl, MetricsReport, TraceConfig};
use grit_workloads::App;

/// Large enough that ST and FIR span several whole 2 MB frames, so the
/// runs being compared actually coalesce and splinter.
fn exp() -> ExpConfig {
    ExpConfig {
        scale: 0.25,
        intensity: 0.5,
        seed: 0x2A9E,
    }
}

/// Mixed- and uniform2m-mode cells across the policies that exercise all
/// large-page paths: counter trips (access-counter), migrations and
/// duplications (grit).
fn grid() -> Vec<CellSpec> {
    let mut cells = Vec::new();
    for (app, mode) in [
        (App::St, PageSizeMode::Mixed),
        (App::St, PageSizeMode::Uniform2m),
        (App::Fir, PageSizeMode::Mixed),
    ] {
        for policy in [PolicyKind::Static(Scheme::AccessCounter), PolicyKind::GRIT] {
            let cfg = SimConfig {
                page_size_mode: mode,
                ..SimConfig::default()
            };
            cells.push(
                CellSpec::new(app, policy, &exp()).with_cfg(cfg).traced(TraceConfig::default()),
            );
        }
    }
    cells
}

/// Order-stable digest of everything a cell reports, plus its full
/// event stream.
fn digest(out: &RunOutput) -> String {
    let metrics = MetricsReport::from_metrics(&out.metrics).to_json().to_string();
    let events = events_to_jsonl(out.events.as_deref().expect("tracing was enabled"));
    format!("{metrics}\n{events}")
}

fn run(cells: &[CellSpec], jobs: usize) -> Vec<String> {
    run_batch_with(cells, &BatchOptions::new().jobs(jobs))
        .into_iter()
        .map(|r| digest(&r.expect("cell must succeed")))
        .collect()
}

#[test]
fn mixed_mode_is_byte_identical_at_any_jobs() {
    let cells = grid();
    let baseline = run(&cells, 1);
    // The baseline really exercised the machinery under test.
    assert!(
        baseline.iter().any(|d| d.contains("page-coalesced")),
        "grid must coalesce at least one frame"
    );
    assert!(
        baseline.iter().any(|d| d.contains("page-splintered")),
        "grid must splinter at least one frame"
    );
    for jobs in [2usize, 4] {
        let got = run(&cells, jobs);
        for (i, (b, g)) in baseline.iter().zip(got.iter()).enumerate() {
            assert_eq!(b, g, "cell {i} diverges at --jobs {jobs}");
        }
    }
}
