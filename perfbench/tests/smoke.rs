//! Tiny-size smoke runs of every workload: the result line names every
//! metric `BENCHMARK.json` declares, with its unit; the traced and untraced
//! runs of one seed print the same simulated-statistics digest; and a
//! deliberately corrupted result is reported as a failure.

use std::path::Path;
use std::process::{Command, Output};

use grit_trace::Json;

const WORKLOADS: [&str; 3] = ["fig17", "fault-storm", "campaign-serve"];

fn manifest() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    manifest()
        .get(section)
        .and_then(Json::as_arr)
        .expect("metric section")
        .iter()
        .map(|m| {
            let field = |k| m.get(k).and_then(Json::as_str).expect("name and unit").to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn run(workload: &str, trace: bool, extra: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_grit-perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "3",
            "--seconds",
            "0.2",
            "--tiny",
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(extra)
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("benchmark binary runs")
}

fn result_line(out: &Output) -> Json {
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().expect("some output");
    Json::parse(last).expect("last line is JSON")
}

fn digest_line(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .find(|l| l.starts_with("digest "))
        .expect("a digest line")
        .to_string()
}

#[test]
fn every_workload_prints_every_declared_metric() {
    for workload in WORKLOADS {
        let mut digests = Vec::new();
        for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
            let out = run(workload, trace, &[]);
            assert!(
                out.status.success(),
                "{workload} trace={trace}: {}",
                String::from_utf8_lossy(&out.stderr)
            );
            let res = result_line(&out);
            assert_eq!(res.get("correct").and_then(Json::as_bool), Some(true));
            assert_eq!(res.get("failed").and_then(Json::as_u64), Some(0));
            assert!(res.get("attempted").and_then(Json::as_u64).unwrap_or(0) >= 1);
            let metrics = res.get("metrics").and_then(Json::as_obj).expect("metrics object");
            let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
            for (name, unit) in declared(section) {
                let m = res.get("metrics").and_then(|m| m.get(&name));
                let m = m.unwrap_or_else(|| panic!("{workload} trace={trace}: no {name}"));
                assert_eq!(
                    m.get("unit").and_then(Json::as_str),
                    Some(unit.as_str()),
                    "{name}"
                );
                assert!(m.get("value").and_then(Json::as_f64).is_some_and(f64::is_finite));
            }
            assert_eq!(
                names.len(),
                declared(section).len(),
                "{workload}: undeclared metrics"
            );
            digests.push(digest_line(&out));
        }
        assert_eq!(
            digests[0], digests[1],
            "{workload}: tracing changed simulated statistics"
        );
    }
}

#[test]
fn corrupted_results_are_failures() {
    for workload in WORKLOADS {
        let out = run(workload, false, &["--corrupt"]);
        assert!(
            !out.status.success(),
            "{workload}: corruption went unnoticed"
        );
        let res = result_line(&out);
        assert_eq!(res.get("correct").and_then(Json::as_bool), Some(false));
        assert!(res.get("failed").and_then(Json::as_u64).unwrap_or(0) >= 1);
    }
}

#[test]
fn bad_arguments_are_refused() {
    let out = Command::new(env!("CARGO_BIN_EXE_grit-perfbench"))
        .args(["--workload", "no-such-workload"])
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("benchmark binary runs");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty(), "no result line on refusal");
}
