//! The engine workloads, `fig17` and `fault-storm`: batches of simulation
//! cells run serially (one job, one sim thread) through
//! `experiments::run_batch_with`.

use std::path::Path;
use std::time::Instant;

use grit::experiments::result_store::ResultStore;
use grit::experiments::{
    fig17_grit, run_batch_with, workload_cache, BatchOptions, CellSpec, ExpConfig, PolicyKind,
    PolicySpec,
};
use grit::{RunOutput, SimulationBuilder};
use grit_sim::{Scheme, SimConfig};
use grit_workloads::App;

use crate::report::{self, digest, Better, Metrics, Rng, Tally};
use crate::{Opts, Spans};

/// One workload's cells, in table order (`apps x policies`).
pub struct CellSet {
    pub cells: Vec<CellSpec>,
    pub apps: usize,
    pub labels: Vec<String>,
}

impl CellSet {
    fn grid(apps: &[App], policies: &[PolicyKind], exp: ExpConfig, cfg: &SimConfig) -> CellSet {
        let cells = apps
            .iter()
            .flat_map(|&app| {
                policies.iter().map(move |&p| CellSpec::new(app, p, &exp).with_cfg(cfg.clone()))
            })
            .collect();
        CellSet {
            cells,
            apps: apps.len(),
            labels: policies.iter().map(|p| p.label()).collect(),
        }
    }

    /// Fig. 17: the eight Table II apps x the five compared policies at
    /// the default experiment size, 4 GPUs, all-to-all, 4 KB pages.
    pub fn fig17(o: &Opts) -> CellSet {
        let (scale, intensity) = if o.tiny { (0.02, 0.5) } else { (0.10, 2.0) };
        let exp = ExpConfig {
            scale,
            intensity,
            seed: trace_seed(o.seed, 17),
        };
        CellSet::grid(
            &App::TABLE2,
            &fig17_grit::policies(),
            exp,
            &SimConfig::default(),
        )
    }

    /// Fault-heavy cells: BFS, BS, ST x on-touch/duplication/GRIT at 8 GPUs.
    /// Scale 0.05 faults as often per access as larger scales (about 66 per
    /// thousand) in cells a quarter as long, so each cell repeats four times
    /// as often in a run for its fastest repeat to be found.
    pub fn fault_storm(o: &Opts) -> CellSet {
        let (scale, intensity) = if o.tiny { (0.03, 0.5) } else { (0.05, 2.0) };
        let exp = ExpConfig {
            scale,
            intensity,
            seed: trace_seed(o.seed, 8),
        };
        let cfg = SimConfig {
            num_gpus: 8,
            ..SimConfig::default()
        };
        let policies = [
            PolicyKind::Static(Scheme::OnTouch),
            PolicyKind::Static(Scheme::Duplication),
            PolicyKind::GRIT,
        ];
        CellSet::grid(&[App::Bfs, App::Bs, App::St], &policies, exp, &cfg)
    }

    /// Simulated cycles of the cell at `(app, policy label)`.
    fn cycles(&self, outputs: &[RunOutput], app: usize, label: &str) -> Option<f64> {
        let p = self.labels.iter().position(|l| l == label)?;
        Some(outputs.get(app * self.labels.len() + p)?.metrics.total_cycles as f64)
    }

    pub fn paper_gap_pp(&self, outputs: &[RunOutput]) -> f64 {
        report::paper_gap_pp(self.apps, |a, l| self.cycles(outputs, a, l))
    }
}

/// The experiment seed of a workload's traces, derived from the benchmark
/// seed so each benchmark seed gives other inputs.
pub fn trace_seed(seed: u64, salt: u64) -> u64 {
    Rng(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15)).next_u64()
}

/// Trace generation through the process-wide workload cache (emptied
/// first). Returns the host seconds and each cell's generated accesses.
pub fn build_traces(cells: &[CellSpec]) -> (f64, Vec<u64>) {
    workload_cache::global().clear();
    let t = Instant::now();
    let generated = cells
        .iter()
        .map(|c| workload_cache::shared_workload(c.app, &c.exp, &c.cfg).total_accesses())
        .collect();
    (t.elapsed().as_secs_f64(), generated)
}

/// Set-up repeats, the fastest of which is reported as `setup_s`. A
/// median of them follows the host's slow stretches like any other
/// per-run median: on a shared 2-vCPU host it moved by 20-36 % between two
/// sets of ten runs.
pub const SETUPS: usize = 31;

/// Whether the next set-up repeat is due: after the first, the repeats are
/// spread evenly over the timed phase, between passes, so the fastest of
/// them is drawn from the whole run rather than its first second.
pub fn setup_due(done: usize, start: Instant, seconds: f64) -> bool {
    done < SETUPS && start.elapsed().as_secs_f64() >= done as f64 * seconds / SETUPS as f64
}

/// Repeats trace generation and checks that it made the same workloads.
pub fn repeat_setup(cells: &[CellSpec], generated: &[u64], tally: &mut Tally) -> f64 {
    let (secs, again) = build_traces(cells);
    tally.op(if again == generated {
        Ok(())
    } else {
        Err("trace generation is not repeatable".into())
    });
    secs
}

fn serial() -> BatchOptions {
    BatchOptions::new().jobs(1).sim_threads(1)
}

/// Runs one cell through the batch executor and checks it.
fn run_checked(
    cell: &CellSpec,
    opts: &BatchOptions,
    generated: u64,
    corrupt: bool,
    tally: &mut Tally,
) -> Option<RunOutput> {
    let res = run_batch_with(std::slice::from_ref(cell), opts).pop();
    let mut out = match res {
        Some(Ok(out)) => out,
        Some(Err(e)) => {
            tally.op(Err(format!("{} {}: {e}", cell.app, cell.policy_label())));
            return None;
        }
        None => {
            tally.op(Err("batch returned no result".into()));
            return None;
        }
    };
    if corrupt {
        out.metrics.total_cycles += 1;
    }
    let checked = report::check_identities(&out, generated)
        .map_err(|e| format!("{} {}: {e}", cell.app, cell.policy_label()));
    let ok = checked.is_ok();
    tally.op(checked);
    ok.then_some(out)
}

/// Store hits after each simulated cell; the fastest is kept.
const HIT_REPEATS: usize = 3;

/// One timed pass over every cell.
pub struct Pass {
    /// Host seconds inside the cells' calls, summed.
    pub wall: f64,
    pub cell_secs: Vec<f64>,
    pub digests: Vec<u64>,
    pub accesses: u64,
    /// Latency of the fastest store hit that followed each cell, in ms.
    pub hit_ms: Vec<f64>,
}

impl Pass {
    fn new() -> Pass {
        Pass {
            wall: 0.0,
            cell_secs: Vec::new(),
            digests: Vec::new(),
            accesses: 0,
            hit_ms: Vec::new(),
        }
    }

    fn push(&mut self, secs: f64, digest: u64) {
        self.wall += secs;
        self.cell_secs.push(secs);
        self.digests.push(digest);
    }
}

/// A result store the engine workloads re-render their cells from, as
/// `repro --resume` does.
pub struct HitStore {
    store: ResultStore,
    opts: BatchOptions,
}

impl HitStore {
    pub fn open(dir: &Path) -> Result<HitStore, String> {
        let store = ResultStore::open(dir).map_err(|e| format!("open store: {e}"))?;
        Ok(HitStore {
            store,
            opts: serial().resume_dir(dir),
        })
    }

    /// Loads `cell` through the batch executor and returns the latency in
    /// ms. The hit must carry the digest `want` of the simulated result.
    fn hit(&self, cell: &CellSpec, want: u64, tally: &mut Tally) -> f64 {
        let t = Instant::now();
        let res = run_batch_with(std::slice::from_ref(cell), &self.opts).pop();
        let ms = t.elapsed().as_secs_f64() * 1e3;
        let what = format!("{} {}", cell.app, cell.policy_label());
        tally.op(match res {
            Some(Ok(out)) if !out.timing.resumed => Err(format!("{what}: store missed")),
            Some(Ok(out)) if digest(&out) != want => Err(format!(
                "{what}: stored result differs from the simulated one"
            )),
            Some(Ok(_)) => Ok(()),
            Some(Err(e)) => Err(format!("{what}: {e}")),
            None => Err("batch returned no result".into()),
        });
        ms
    }
}

/// Runs every cell once, serially, each through its own batch call so the
/// benchmark times each cell from outside. With `hits`, each cell is then
/// re-rendered [`HIT_REPEATS`] times from that store (saved there first when
/// `keep` still lacks it), so store hits sample the same stretch of time as
/// the cells. The first pass's outputs are kept in `keep`.
pub fn batch_pass(
    set: &CellSet,
    generated: &[u64],
    corrupt: bool,
    hits: Option<&HitStore>,
    tally: &mut Tally,
    keep: &mut Vec<RunOutput>,
) -> Pass {
    let opts = serial();
    let mut pass = Pass::new();
    for (i, cell) in set.cells.iter().enumerate() {
        let t = Instant::now();
        let out = run_checked(cell, &opts, generated[i], corrupt && i == 0, tally);
        let secs = t.elapsed().as_secs_f64();
        let Some(out) = out else {
            pass.push(secs, 0);
            continue;
        };
        let d = digest(&out);
        pass.push(secs, d);
        pass.accesses += out.metrics.accesses;
        if let Some(hs) = hits {
            if keep.len() < set.cells.len() {
                let key = cell.resume_key().expect("benchmark cells are resumable");
                tally.op(hs.store.save(&key, &out).map_err(|e| format!("store save: {e}")));
            }
            let hit_ms: Vec<f64> = (0..HIT_REPEATS).map(|_| hs.hit(cell, d, tally)).collect();
            pass.hit_ms.push(report::fastest(&hit_ms));
        }
        if keep.len() < set.cells.len() {
            keep.push(out);
        }
    }
    pass
}

/// Runs each cell by calling the runner directly, with a span around
/// every public call: trace fetch, policy build, `SimulationBuilder::build`
/// and `Simulation::try_run`.
pub fn traced_pass(
    set: &CellSet,
    generated: &[u64],
    spans: &mut Spans,
    tally: &mut Tally,
) -> (Pass, Vec<RunOutput>, f64, f64) {
    let mut pass = Pass::new();
    let mut outputs = Vec::new();
    let (mut build_s, mut run_s) = (0.0, 0.0);
    for (i, cell) in set.cells.iter().enumerate() {
        let t = Instant::now();
        let w = spans.time("workloads.fetch", || {
            workload_cache::shared_workload(cell.app, &cell.exp, &cell.cfg)
        });
        let PolicySpec::Kind(kind) = &cell.policy else {
            continue;
        };
        let policy = spans.time("policy.build", || kind.build(&cell.cfg, w.footprint_pages));
        let b = Instant::now();
        let sim = spans.time("runner.build", || {
            SimulationBuilder::new(cell.cfg.clone(), w, policy).sim_threads(1).build()
        });
        build_s += b.elapsed().as_secs_f64();
        let sim = match sim {
            Ok(sim) => sim,
            Err(e) => {
                tally.op(Err(format!("{} {}: {e}", cell.app, cell.policy_label())));
                continue;
            }
        };
        let r = Instant::now();
        let out = spans.time("runner.try_run", || sim.try_run());
        run_s += r.elapsed().as_secs_f64();
        let secs = t.elapsed().as_secs_f64();
        let what = format!("{} {}", cell.app, cell.policy_label());
        match out {
            Ok(out) => {
                let checked = report::check_identities(&out, generated[i]);
                tally.op(checked.map_err(|e| format!("{what}: {e}")));
                pass.push(secs, digest(&out));
                pass.accesses += out.metrics.accesses;
                outputs.push(out);
            }
            Err(e) => {
                tally.op(Err(format!("{what}: {e}")));
                pass.push(secs, 0);
            }
        }
    }
    (pass, outputs, build_s, run_s)
}

/// Checks that a pass repeated the first pass's simulated statistics.
pub fn check_repeat(first: &[u64], pass: &Pass, what: &str, tally: &mut Tally) {
    for (i, (a, b)) in first.iter().zip(&pass.digests).enumerate() {
        if a != b {
            tally.fail(format!(
                "cell {i}: {what} digest {b:016x} differs from {a:016x}"
            ));
        }
    }
}

/// Digest of a whole workload: the per-cell digests in order.
pub fn workload_digest(digests: &[u64]) -> u64 {
    digests.iter().fold(report::FNV_BASIS, |h, d| report::fnv(h, &d.to_le_bytes()))
}

/// The untraced run: end-to-end metrics.
pub fn run(set: &CellSet, o: &Opts, scratch: &Path, m: &mut Metrics, tally: &mut Tally) -> u64 {
    let (secs, generated) = build_traces(&set.cells);
    let mut setups = vec![secs];
    // Every simulated cell is followed by a re-render of the same cell from
    // a store filled with the first pass's results, so store hits sample the
    // same stretch of time as the simulations.
    let hit_store = match HitStore::open(&scratch.join("store")) {
        Ok(h) => h,
        Err(e) => {
            tally.op(Err(e));
            return 0;
        }
    };
    let mut passes: Vec<Pass> = Vec::new();
    let mut outputs = Vec::new();
    let start = Instant::now();
    while passes.len() < 2 || start.elapsed().as_secs_f64() < o.seconds {
        let corrupt = o.corrupt && passes.is_empty();
        let pass = batch_pass(
            set,
            &generated,
            corrupt,
            Some(&hit_store),
            tally,
            &mut outputs,
        );
        if let Some(first) = passes.first() {
            check_repeat(&first.digests, &pass, "repeat", tally);
        }
        passes.push(pass);
        while setup_due(setups.len(), start, o.seconds) {
            setups.push(repeat_setup(&set.cells, &generated, tally));
        }
    }
    let digests = &passes[0].digests;
    let hits = report::min_of(passes.iter().map(|p| p.hit_ms.as_slice()));
    let cell_secs = report::min_of(passes.iter().map(|p| p.cell_secs.as_slice()));
    let misses: Vec<f64> = cell_secs.iter().map(|s| s * 1e3).collect();
    // One pass with every cell at its fastest repeat.
    let wall: f64 = cell_secs.iter().sum();
    m.timing(
        "accesses_per_s",
        passes[0].accesses as f64 / wall,
        "1/s",
        Better::Higher,
    );
    m.timing("wall_s", wall, "s", Better::Lower);
    m.timing("setup_s", report::fastest(&setups), "s", Better::Lower);
    m.timing(
        "cells_per_s",
        set.cells.len() as f64 / wall,
        "1/s",
        Better::Higher,
    );
    crate::latency_metrics(m, &hits, &misses);
    m.count(
        "paper_gap_pp",
        set.paper_gap_pp(&outputs),
        "pp",
        Better::Lower,
    );
    m.timing("peak_rss_mb", report::peak_rss_mb(), "MiB", Better::Lower);
    println!(
        "info passes={} setups={} cells/pass={} accesses/pass={} pass_walls_s={:.3?}",
        passes.len(),
        setups.len(),
        set.cells.len(),
        passes[0].accesses,
        passes.iter().map(|p| p.wall).collect::<Vec<_>>()
    );
    workload_digest(digests)
}

/// The traced run: per-layer metrics.
pub fn run_traced(
    set: &CellSet,
    o: &Opts,
    scratch: &Path,
    m: &mut Metrics,
    tally: &mut Tally,
) -> u64 {
    let mut spans = Spans::default();
    let mut setups = Vec::new();
    let mut generated = Vec::new();
    for _ in 0..SETUPS {
        let (secs, g) = spans.time("workloads.build", || build_traces(&set.cells));
        setups.push(secs);
        generated = g;
    }
    // Untraced and traced passes alternate, so both see the same phases of
    // the host's background load.
    let budget = o.seconds * 0.7;
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut keep = Vec::new();
    let mut outputs = Vec::new();
    let (mut builds, mut runs) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while traced.is_empty() || start.elapsed().as_secs_f64() < budget {
        plain.push(batch_pass(set, &generated, false, None, tally, &mut keep));
        let (pass, outs, b, r) = traced_pass(set, &generated, &mut spans, tally);
        check_repeat(&plain[0].digests, &pass, "traced", tally);
        builds.push(b);
        runs.push(r);
        traced.push(pass);
        if outputs.is_empty() {
            outputs = outs;
        }
    }
    drop(keep);
    let accesses = traced[0].accesses as f64;
    let cell_secs = report::min_of(plain.iter().map(|p| p.cell_secs.as_slice()));
    let plain_wall: f64 = cell_secs.iter().sum();
    let traced_wall: f64 =
        report::min_of(traced.iter().map(|p| p.cell_secs.as_slice())).iter().sum();

    m.timing(
        "workloads.build_s",
        report::fastest(&setups),
        "s",
        Better::Lower,
    );
    m.count(
        "workloads.accesses",
        generated.iter().sum::<u64>() as f64,
        "count",
        Better::Higher,
    );
    let run_s = report::median(&runs);
    m.timing(
        "runner.build_s",
        report::median(&builds),
        "s",
        Better::Lower,
    );
    m.timing("runner.run_s", run_s, "s", Better::Lower);
    m.timing(
        "runner.ns_per_access",
        run_s / accesses * 1e9,
        "ns",
        Better::Lower,
    );
    crate::batch_metrics(m, &cell_secs);
    crate::count_metrics(m, &outputs);

    let mut probes = spans.time("probes.engine", || {
        crate::probes::Probes::engine(&set.cells)
    });
    spans.time("probes.store_wire", || {
        probes.store_and_wire(&set.cells, &outputs, &scratch.join("probe-store"))
    });
    probes.emit(m);
    let (hits, misses) = probes.store_counts();
    m.count("store.hits", hits as f64, "count", Better::Higher);
    m.count("store.misses", misses as f64, "count", Better::Lower);
    let first_app = set.labels.len().min(set.cells.len());
    let (submit_us, wait_ms) = crate::campaign::serve_probe(
        &set.cells[..first_app],
        &outputs,
        &scratch.join("serve-store"),
        &mut spans,
        tally,
    );
    m.timing("serve.submit_us", submit_us, "us", Better::Lower);
    m.timing("serve.wait_ms", wait_ms, "ms", Better::Lower);
    m.timing(
        "trace_overhead_pct",
        (traced_wall / plain_wall - 1.0) * 100.0,
        "%",
        Better::Lower,
    );
    spans.print();
    workload_digest(&traced[0].digests)
}
