//! Benchmark of the GRIT reproduction, driven from outside through the
//! public API of the `grit` library.
//!
//! ```text
//! perfbench --workload <fig17|fault-storm|campaign-serve> --seed N --seconds S --trace <0|1>
//! ```
//!
//! With `--trace 0` it prints the end-to-end metrics, with `--trace 1` the
//! per-layer ones; the last stdout line is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. Any failed operation or violated
//! check makes the exit code nonzero. See `README.md` for the workloads and
//! the metric map.

mod campaign;
mod engine;
mod probes;
mod report;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use grit::RunOutput;

use report::{Better, Metrics, Tally};

/// Parsed command line.
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Test sizes: every workload shrunk to a fraction of a second.
    pub tiny: bool,
    /// Corrupts one simulated result before it is checked, so tests can
    /// see the benchmark report it as a failure.
    pub corrupt: bool,
}

const USAGE: &str = "usage: perfbench --workload <fig17|fault-storm|campaign-serve> --seed N \
                     --seconds S --trace <0|1> [--tiny] [--corrupt]";

fn parse_args() -> Result<Opts, String> {
    let mut o = Opts {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        tiny: false,
        corrupt: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => o.workload = value()?,
            "--seed" => o.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                o.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(o.seconds > 0.0 && o.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                o.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--tiny" => o.tiny = true,
            "--corrupt" => o.corrupt = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(o)
}

/// Aggregated host-time spans around the benchmark's calls into the
/// library, keyed by call name.
#[derive(Default)]
pub struct Spans(BTreeMap<&'static str, (u64, f64)>);

impl Spans {
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        let e = self.0.entry(name).or_default();
        e.0 += 1;
        e.1 += t.elapsed().as_secs_f64();
        out
    }

    pub fn add(&mut self, name: &'static str, secs: f64) {
        let e = self.0.entry(name).or_default();
        e.0 += 1;
        e.1 += secs;
    }

    pub fn print(&self) {
        for (name, (calls, secs)) in &self.0 {
            println!("span {name:<24} calls={calls:<8} total_s={secs:.6}");
        }
    }
}

/// Hit and miss latency medians and tails, in ms.
pub fn latency_metrics(m: &mut Metrics, hits: &[f64], misses: &[f64]) {
    for (kind, xs, p50, tail) in [
        ("hit", hits, "hit_ms_p50", "hit_ms_tail"),
        ("miss", misses, "miss_ms_p50", "miss_ms_tail"),
    ] {
        let (value, pct, n) = report::tail(xs);
        println!("info {kind} latency: {n} samples, tail is p{pct}");
        m.timing(p50, report::median(xs), "ms", Better::Lower);
        m.timing(tail, value, "ms", Better::Lower);
    }
}

/// Per-cell batch latency, median and tail, in seconds.
pub fn batch_metrics(m: &mut Metrics, cell_secs: &[f64]) {
    let (value, pct, n) = report::tail(cell_secs);
    println!("info batch cell time: {n} samples, tail is p{pct}");
    m.timing(
        "batch.cell_s_p50",
        report::median(cell_secs),
        "s",
        Better::Lower,
    );
    m.timing("batch.cell_s_tail", value, "s", Better::Lower);
}

/// One summed count: metric name, per-run value and unit.
type Count = (&'static str, fn(&RunOutput) -> u64, &'static str);

/// Exact per-layer work counts of one pass, summed over its runs.
pub fn count_metrics(m: &mut Metrics, outputs: &[RunOutput]) {
    use Better::{Higher, Lower};
    let sum = |f: fn(&RunOutput) -> u64| outputs.iter().map(f).sum::<u64>() as f64;
    let mean_rate = |key: &str| {
        let rates: Vec<f64> = outputs
            .iter()
            .flat_map(|o| o.metrics.aux(key).unwrap_or_default())
            .copied()
            .collect();
        rates.iter().sum::<f64>() / rates.len().max(1) as f64
    };
    m.count(
        "mem.tlb.l1_hit_rate",
        mean_rate("tlb_l1_hit_rate"),
        "ratio",
        Higher,
    );
    m.count(
        "mem.tlb.l2_hit_rate",
        mean_rate("tlb_l2_hit_rate"),
        "ratio",
        Higher,
    );
    let faults = sum(|o| o.metrics.faults.total_faults());
    let per_kaccess = faults / sum(|o| o.metrics.accesses) * 1e3;
    m.count("uvm.faults_per_kaccess", per_kaccess, "1/kaccess", Lower);
    let counts: [Count; 9] = [
        ("uvm.migrations", |o| o.metrics.faults.migrations, "count"),
        (
            "uvm.duplications",
            |o| o.metrics.faults.duplications,
            "count",
        ),
        ("uvm.collapses", |o| o.metrics.faults.collapses, "count"),
        ("uvm.evictions", |o| o.metrics.faults.evictions, "count"),
        (
            "uvm.remote_accesses",
            |o| o.metrics.remote_accesses,
            "count",
        ),
        (
            "core.scheme_changes",
            |o| o.metrics.faults.scheme_changes,
            "count",
        ),
        (
            "interconnect.nvlink_bytes",
            |o| o.metrics.nvlink_bytes,
            "bytes",
        ),
        ("interconnect.pcie_bytes", |o| o.metrics.pcie_bytes, "bytes"),
        ("interconnect.queue_cycles", queue_cycles, "cycles"),
    ];
    for (name, f, unit) in counts {
        m.count(name, sum(f), unit, Lower);
    }
}

/// Fabric queueing cycles of one run, over every link class.
fn queue_cycles(o: &RunOutput) -> u64 {
    o.metrics.aux("fabric_queue_cycles").unwrap_or_default().iter().sum::<f64>() as u64
}

/// A directory for result stores, inside the working directory (the
/// benchmark touches nothing outside it); removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new() -> std::io::Result<Scratch> {
        let dir = PathBuf::from(".perfbench_tmp").join(format!("run-{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Only removes the parent when no other run still uses it.
        let _ = std::fs::remove_dir(".perfbench_tmp");
    }
}

fn main() -> ExitCode {
    let o = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let scratch = match Scratch::new() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("perfbench: cannot create scratch directory: {e}");
            return ExitCode::from(2);
        }
    };
    let mut m = Metrics::default();
    let mut tally = Tally::default();
    let dir = scratch.0.as_path();
    let set = match o.workload.as_str() {
        "fig17" => Some(engine::CellSet::fig17(&o)),
        "fault-storm" => Some(engine::CellSet::fault_storm(&o)),
        _ => None,
    };
    let digest = match (set, o.workload.as_str()) {
        (Some(set), _) if o.trace => engine::run_traced(&set, &o, dir, &mut m, &mut tally),
        (Some(set), _) => engine::run(&set, &o, dir, &mut m, &mut tally),
        (None, "campaign-serve") => {
            let c = campaign::Campaign::new(&o);
            campaign::run(&c, &o, o.trace, dir, &mut m, &mut tally)
        }
        (None, other) => {
            eprintln!("perfbench: unknown workload '{other}'\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Simulated statistics are a pure function of the seed: the traced and
    // untraced runs of one seed must print the same digest.
    println!("digest {} seed={} {digest:016x}", o.workload, o.seed);
    if !o.trace {
        println!("info paper_gap_pp compares against the paper's Fig. 17 gains; the model is otherwise unvalidated");
    } else {
        println!(
            "info replay probes give a per-call cost on the workload's address stream, not an \
             attribution of try_run time; the counts come from the engine's own outputs"
        );
    }
    for metric in &m.0 {
        if !metric.value.is_finite() {
            tally.fail(format!("metric {} is not a finite number", metric.name));
        }
    }
    report::emit(&o.workload, &m, &tally);
    drop(scratch);
    if tally.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
