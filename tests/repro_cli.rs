//! End-to-end check of the `repro` observability flags: the trace stream,
//! `run_report.json`, and `BENCH_run.json` must be valid and agree with
//! each other.

use std::collections::HashMap;
use std::fs;
use std::path::PathBuf;
use std::process::Command;

use grit_trace::{BenchSummary, EventCategory, Json, RunReport, TraceEvent};

/// Per-test scratch directory: tests run concurrently, so each owns a
/// distinct tree it can wipe freely.
fn scratch_dir_for(label: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("grit-repro-cli-{}-{label}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

#[test]
fn trace_and_reports_agree() {
    let dir = scratch_dir_for("trace");
    let trace = dir.join("trace.jsonl");
    let metrics = dir.join("metrics");
    let status = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args([
            "fig18",
            "--quick",
            "--jobs",
            "2",
            "--trace",
            trace.to_str().unwrap(),
            "--metrics-out",
            metrics.to_str().unwrap(),
            "--emit-bench-json",
        ])
        .output()
        .expect("repro runs");
    assert!(
        status.status.success(),
        "repro failed: {}",
        String::from_utf8_lossy(&status.stderr)
    );

    // Every trace line parses; events are grouped under cell headers.
    let text = fs::read_to_string(&trace).expect("trace file written");
    let mut per_cell: Vec<HashMap<EventCategory, u64>> = Vec::new();
    let mut declared_events: Vec<u64> = Vec::new();
    let mut seen_in_cell = 0u64;
    for line in text.lines() {
        let v = Json::parse(line).expect("trace line is valid JSON");
        let ty = v.get("type").and_then(Json::as_str).expect("line has a type");
        if ty == "cell" {
            if let Some(expected) = declared_events.last() {
                assert_eq!(seen_in_cell, *expected, "cell header event count");
            }
            let seq = v.get("seq").and_then(Json::as_u64).expect("cell seq");
            assert_eq!(
                seq,
                per_cell.len() as u64,
                "cell sequence numbers are dense"
            );
            declared_events.push(v.get("events").and_then(Json::as_u64).expect("cell events"));
            per_cell.push(HashMap::new());
            seen_in_cell = 0;
        } else {
            let event = TraceEvent::from_json(&v).expect("event line round-trips");
            *per_cell
                .last_mut()
                .expect("events follow a header")
                .entry(event.category())
                .or_insert(0) += 1;
            seen_in_cell += 1;
        }
    }
    if let Some(expected) = declared_events.last() {
        assert_eq!(seen_in_cell, *expected, "last cell header event count");
    }
    assert!(!per_cell.is_empty(), "trace holds at least one cell");

    // The run report agrees with the trace, cell by cell.
    let report_text = fs::read_to_string(metrics.join("run_report.json")).expect("run report");
    let report = RunReport::from_json(&Json::parse(&report_text).expect("report is valid JSON"))
        .expect("report matches schema");
    assert_eq!(
        report.cells.len(),
        per_cell.len(),
        "report and trace cell counts"
    );
    assert_eq!(report.jobs, 2);
    assert!(
        !report.targets.is_empty(),
        "per-target time: lines recorded"
    );
    assert!(!report.batches.is_empty(), "batch profiles recorded");
    assert!(!report.system.is_empty(), "system parameters recorded");
    for (cell, counts) in report.cells.iter().zip(&per_cell) {
        let f = &cell.metrics.faults;
        let get = |c: EventCategory| counts.get(&c).copied().unwrap_or(0);
        assert_eq!(
            get(EventCategory::Fault),
            f.total_faults(),
            "cell {} faults",
            cell.seq
        );
        assert_eq!(
            get(EventCategory::Migration),
            f.migrations,
            "cell {} migrations",
            cell.seq
        );
        assert_eq!(get(EventCategory::Duplication), f.duplications);
        assert_eq!(get(EventCategory::Collapse), f.collapses);
        assert_eq!(get(EventCategory::Eviction), f.evictions);
        assert_eq!(get(EventCategory::SchemeChange), f.scheme_changes);
        let total: u64 = counts.values().sum();
        assert_eq!(total, cell.events_recorded, "cell {} event total", cell.seq);
    }

    // The bench summary parses and its totals line up with the report.
    let bench_text = fs::read_to_string(metrics.join("BENCH_run.json")).expect("bench json");
    let bench = BenchSummary::from_json(&Json::parse(&bench_text).expect("bench is valid JSON"))
        .expect("bench matches schema");
    assert_eq!(bench.cells_run, report.cells.len() as u64);
    assert!(
        bench.fig18_fault_geomean.is_some(),
        "fig18 ran, so its geomean is recorded"
    );
    let report_faults: u64 = report.cells.iter().map(|c| c.metrics.faults.total_faults()).sum();
    assert_eq!(bench.fault_totals.total_faults(), report_faults);
    assert!(bench.total_seconds > 0.0);

    let _ = fs::remove_dir_all(&dir);
}

/// `--profile` / `--profile-out` end to end: the report gains a `profile`
/// object, the span trace is Chrome-trace JSON, `repro profile` renders
/// it, and `--metrics-out` refuses to overwrite without `--force`.
#[test]
fn profile_flags_end_to_end() {
    let dir = scratch_dir_for("profile");
    fs::create_dir_all(&dir).expect("create profile scratch dir");
    let prof = dir.join("prof.json");
    let run = |extra: &[&str]| {
        let mut args = vec!["fig4", "--quick", "--jobs", "1"];
        args.extend_from_slice(extra);
        Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(&args)
            .output()
            .expect("repro runs")
    };

    let dir_s = dir.to_str().unwrap().to_string();
    let out = run(&[
        "--profile",
        "--profile-out",
        prof.to_str().unwrap(),
        "--metrics-out",
        &dir_s,
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // run_report.json carries the v5 profile object.
    let report_text = fs::read_to_string(dir.join("run_report.json")).expect("run report");
    let report = RunReport::from_json(&Json::parse(&report_text).expect("valid JSON"))
        .expect("report matches schema");
    let profile = report.profile.expect("--profile adds the profile object");
    assert!(!profile.wall.is_empty(), "phase totals recorded");
    assert!(
        profile.cycle.fault_occupancy.samples > 0,
        "cycle-domain histograms populated"
    );

    // The span trace is well-formed Chrome trace-event JSON.
    let trace = Json::parse(&fs::read_to_string(&prof).expect("profile trace written"))
        .expect("trace is valid JSON");
    let events = trace.get("traceEvents").expect("traceEvents key");
    match events {
        Json::Arr(evs) => assert!(!evs.is_empty(), "span events recorded"),
        _ => panic!("traceEvents is not an array"),
    }

    // The text renderer accepts the report.
    let rendered = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["profile", dir.join("run_report.json").to_str().unwrap()])
        .output()
        .expect("repro profile runs");
    assert!(rendered.status.success());
    let text = String::from_utf8_lossy(&rendered.stdout);
    assert!(text.contains("wall-clock phases"), "{text}");
    assert!(text.contains("fault_occupancy"), "{text}");

    // Overwrite guard: same --metrics-out dir fails without --force.
    let refused = run(&["--metrics-out", &dir_s]);
    assert!(!refused.status.success(), "overwrite must be refused");
    assert!(
        String::from_utf8_lossy(&refused.stderr).contains("--force"),
        "refusal names the escape hatch"
    );
    let forced = run(&["--metrics-out", &dir_s, "--force"]);
    assert!(forced.status.success(), "--force overwrites");

    let _ = fs::remove_dir_all(&dir);
}

/// `bench-diff` flags regressions past the threshold and passes clean runs.
#[test]
fn bench_diff_gates_on_threshold() {
    use grit_trace::TargetTiming;
    let dir = scratch_dir_for("bench-diff");
    fs::create_dir_all(&dir).expect("create bench-diff scratch dir");
    let summary = |seconds: f64| BenchSummary {
        scale: 0.25,
        intensity: 1.0,
        seed: 7,
        jobs: 1,
        total_seconds: seconds,
        cells_run: 8,
        targets: vec![TargetTiming {
            name: "fig4".into(),
            seconds,
        }],
        ..BenchSummary::default()
    };
    let a = dir.join("a.json");
    let b = dir.join("b.json");
    fs::write(&a, summary(1.0).to_json().to_string()).unwrap();
    fs::write(&b, summary(3.0).to_json().to_string()).unwrap();

    let diff = |x: &PathBuf, y: &PathBuf, threshold: &str| {
        Command::new(env!("CARGO_BIN_EXE_repro"))
            .args([
                "bench-diff",
                x.to_str().unwrap(),
                y.to_str().unwrap(),
                "--threshold",
                threshold,
            ])
            .output()
            .expect("bench-diff runs")
    };

    let regressed = diff(&a, &b, "50");
    assert!(
        !regressed.status.success(),
        "3x slowdown past 50% must fail"
    );
    assert!(String::from_utf8_lossy(&regressed.stdout).contains("REGRESSED"));

    let tolerated = diff(&a, &b, "500");
    assert!(tolerated.status.success(), "500% threshold tolerates 3x");

    let identical = diff(&a, &a, "50");
    assert!(identical.status.success(), "identical summaries pass");

    let _ = fs::remove_dir_all(&dir);
}
