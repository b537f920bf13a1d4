//! The `campaign-serve` workload: an in-process campaign server with two
//! workers and a result store, fed by one client connection in a closed
//! loop with one cell outstanding.
//!
//! A pass submits a seeded sequence over a pool of small distinct
//! `RunSpec`s: every pool spec once as a store miss (simulate, checksum,
//! save) and three times as a store hit (load, verify) after its result has
//! come back, in a fixed pattern of slots. The store is emptied between
//! passes, so every pass carries the same mix. Traces are built in set-up,
//! so a miss pays simulation, not trace generation.
//!
//! One cell outstanding keeps each latency the cell's own: with two, a hit
//! submitted behind a miss waits for the miss's result (results arrive in
//! order), and its latency is whatever the miss had left to run.

use std::collections::VecDeque;
use std::path::Path;
use std::thread::JoinHandle;
use std::time::Instant;

use grit::experiments::{CellSpec, PolicyKind};
use grit::service::{parse_spec_cell, spec_runner};
use grit::RunOutput;
use grit_serve::{Response, ServeClient, ServeOptions, ServeSummary, Server, ShutdownHandle};
use grit_sim::{RunSpec, Scheme};
use grit_workloads::App;

use crate::engine::{self, CellSet, Pass};
use crate::report::{self, digest, Better, Metrics, Rng, Tally};
use crate::{Opts, Spans};

/// Cells the client keeps outstanding.
const WINDOW: usize = 1;
/// Server worker threads.
const WORKERS: usize = 2;
/// Submissions per pool spec in one pass (one miss, the rest hits).
const USES: usize = 4;

/// The pool of specs and the per-pass submission sequence.
pub struct Campaign {
    specs: Vec<RunSpec>,
    set: CellSet,
    /// `(pool index, expected store hit)` per submission.
    seq: Vec<(usize, bool)>,
}

impl Campaign {
    /// Four small apps x the four placement policies of Fig. 17 at 1/50
    /// of Table II, one trace per app; the sequence is drawn from `seed`.
    pub fn new(o: &Opts) -> Campaign {
        let (scale, intensity) = if o.tiny { (0.01, 0.5) } else { (0.02, 1.0) };
        let apps = [App::Fir, App::Gemm, App::Sc, App::Mm];
        let policies = [
            PolicyKind::Static(Scheme::OnTouch),
            PolicyKind::Static(Scheme::AccessCounter),
            PolicyKind::Static(Scheme::Duplication),
            PolicyKind::GRIT,
        ];
        let seed = engine::trace_seed(o.seed, 11);
        let specs: Vec<RunSpec> = apps
            .iter()
            .flat_map(|app| {
                policies.iter().map(move |p| {
                    RunSpec::new(app.abbr(), p.label()).scale(scale).intensity(intensity).seed(seed)
                })
            })
            .collect();
        let cells: Vec<CellSpec> = specs
            .iter()
            .map(|s| parse_spec_cell(s).expect("benchmark specs are valid"))
            .collect();
        let set = CellSet {
            cells,
            apps: apps.len(),
            labels: policies.iter().map(|p| p.label()).collect(),
        };
        let seq = sequence(specs.len(), &mut Rng(o.seed));
        Campaign { specs, set, seq }
    }
}

/// Draws the submission sequence. Slots 0 and 1 and then every `USES`-th
/// slot introduce the next pool spec, in a seeded order, as a store miss.
/// Every other slot is a store hit on a seeded choice among the specs whose
/// result the client has already received (introduced at least `WINDOW`
/// slots earlier) and that have hits left: each spec gets exactly
/// `USES - 1` hits. So hits and misses are fixed by the seed, not by
/// timing, and every seed submits the same cells, only in another order.
fn sequence(pool: usize, rng: &mut Rng) -> Vec<(usize, bool)> {
    let mut fresh: Vec<usize> = (0..pool).collect();
    for i in (1..fresh.len()).rev() {
        fresh.swap(i, rng.below(i + 1));
    }
    // (slot introduced, spec, hits left)
    let mut introduced: Vec<(usize, usize, usize)> = Vec::new();
    let mut seq = Vec::with_capacity(pool * USES);
    for j in 0..pool * USES {
        let miss = j == 1 || (j % USES == 0 && j / USES + 1 < pool);
        if miss {
            let spec = fresh[introduced.len()];
            introduced.push((j, spec, USES - 1));
            seq.push((spec, false));
        } else {
            // Never empty: slots 0 and 1 introduce two specs, and after
            // them every `USES` slots introduce one spec with `USES - 1`
            // hits and hold `USES - 1` hit slots.
            let eligible: Vec<usize> = (0..introduced.len())
                .filter(|&i| introduced[i].0 + WINDOW <= j && introduced[i].2 > 0)
                .collect();
            let pick = eligible[rng.below(eligible.len())];
            introduced[pick].2 -= 1;
            seq.push((introduced[pick].1, true));
        }
    }
    seq
}

/// A running in-process server with one client connection.
struct Live {
    handle: ShutdownHandle,
    thread: JoinHandle<ServeSummary>,
    client: ServeClient,
}

fn start(store: &Path) -> Result<Live, String> {
    let opts = ServeOptions::new().jobs(WORKERS);
    let server = Server::start(&opts, spec_runner(Some(store.to_path_buf()), None))?;
    let addr = server.local_addr();
    let handle = server.shutdown_handle();
    let thread = std::thread::spawn(move || server.run());
    match ServeClient::connect(addr) {
        Ok(client) => Ok(Live {
            handle,
            thread,
            client,
        }),
        Err(e) => {
            handle.shutdown();
            let _ = thread.join();
            Err(format!("connect: {e}"))
        }
    }
}

/// Closes the connection, drains the server and joins it.
fn stop(live: Live) -> Result<(), String> {
    let done = live.client.finish().map_err(|e| format!("finish: {e}"));
    live.handle.shutdown();
    live.thread.join().map_err(|_| "server thread panicked".to_string())?;
    done.map(|_| ())
}

/// One answered submission.
struct Served {
    pool: usize,
    expect_hit: bool,
    ok: bool,
    hit: bool,
    cycles: u64,
    accesses: u64,
    store_hits: u64,
    store_misses: u64,
    ms: f64,
}

/// Host time of the client's own calls in a traced pass.
#[derive(Default)]
struct ClientSpans {
    submit_us: Vec<f64>,
    wait_ms: Vec<f64>,
}

/// Submits `seq` over one connection with at most `window` cells
/// outstanding, timing each from submit to its result line.
fn closed_loop(
    client: &mut ServeClient,
    specs: &[RunSpec],
    seq: &[(usize, bool)],
    window: usize,
    next_id: &mut u64,
    mut spans: Option<&mut ClientSpans>,
) -> Result<Vec<Served>, String> {
    let mut pending: VecDeque<(u64, usize, Instant)> = VecDeque::new();
    let mut served = Vec::with_capacity(seq.len());
    let mut next = 0;
    let mut submit = |client: &mut ServeClient,
                      j: usize,
                      pending: &mut VecDeque<(u64, usize, Instant)>,
                      spans: &mut Option<&mut ClientSpans>|
     -> Result<(), String> {
        let id = *next_id;
        *next_id += 1;
        let t = Instant::now();
        client.submit(id, &specs[seq[j].0]).map_err(|e| format!("submit: {e}"))?;
        if let Some(s) = spans.as_deref_mut() {
            s.submit_us.push(t.elapsed().as_secs_f64() * 1e6);
        }
        pending.push_back((id, j, t));
        Ok(())
    };
    while next < seq.len() && pending.len() < window {
        submit(client, next, &mut pending, &mut spans)?;
        next += 1;
    }
    while let Some(&(front, j, t0)) = pending.front() {
        match client.next_response().map_err(|e| format!("recv: {e}"))? {
            Some(Response::Result(r)) => {
                if r.id != front {
                    return Err(format!(
                        "result for cell {} arrived before cell {front}",
                        r.id
                    ));
                }
                pending.pop_front();
                served.push(Served {
                    pool: seq[j].0,
                    expect_hit: seq[j].1,
                    ok: r.is_ok(),
                    hit: r.store_hit,
                    cycles: r.total_cycles,
                    accesses: r.accesses,
                    store_hits: r.store_hits,
                    store_misses: r.store_misses,
                    ms: t0.elapsed().as_secs_f64() * 1e3,
                });
                if next < seq.len() {
                    submit(client, next, &mut pending, &mut spans)?;
                    next += 1;
                }
            }
            Some(Response::Progress { id, .. }) => {
                if let (Some(s), Some(&(_, _, t))) =
                    (spans.as_deref_mut(), pending.iter().find(|p| p.0 == id))
                {
                    s.wait_ms.push(t.elapsed().as_secs_f64() * 1e3);
                }
            }
            Some(Response::Busy { id, .. }) => return Err(format!("cell {id} refused: busy")),
            Some(Response::Error { message, .. }) => {
                return Err(format!("server error: {message}"))
            }
            Some(_) => {}
            None => return Err("server closed the connection".into()),
        }
    }
    Ok(served)
}

/// Empties the server's result store between passes (the server is idle:
/// every submitted cell has been answered).
fn reset_store(store: &Path) -> Result<(), String> {
    if store.exists() {
        std::fs::remove_dir_all(store).map_err(|e| format!("reset store: {e}"))?;
    }
    std::fs::create_dir_all(store).map_err(|e| format!("reset store: {e}"))
}

/// One set-up: trace generation for the pool, then server start and
/// connect. Returns the host seconds of the trace generation and of the
/// whole set-up, each cell's generated accesses and the live server.
fn setup(c: &Campaign, store: &Path) -> Result<(f64, f64, Vec<u64>, Live), String> {
    let t = Instant::now();
    let (traces, generated) = engine::build_traces(&c.set.cells);
    let live = start(store)?;
    Ok((traces, t.elapsed().as_secs_f64(), generated, live))
}

/// Runs the pool through the batch executor in-process: the reference each
/// served result must match.
fn references(c: &Campaign, generated: &[u64], tally: &mut Tally) -> (Pass, Vec<RunOutput>) {
    let mut outputs = Vec::new();
    let pass = engine::batch_pass(&c.set, generated, false, None, tally, &mut outputs);
    (pass, outputs)
}

/// Checks every served result against the in-process engine.
fn verify(served: &[Served], refs: &[RunOutput], tally: &mut Tally) {
    for s in served {
        let want = refs.get(s.pool).map(|o| (o.metrics.total_cycles, o.metrics.accesses));
        tally.op(if !s.ok {
            Err(format!("pool spec {}: served cell failed", s.pool))
        } else if want != Some((s.cycles, s.accesses)) {
            Err(format!(
                "pool spec {}: served {} cycles / {} accesses, in-process engine {want:?}",
                s.pool, s.cycles, s.accesses
            ))
        } else if s.hit != s.expect_hit {
            Err(format!(
                "pool spec {}: store hit {} where {} was expected",
                s.pool, s.hit, s.expect_hit
            ))
        } else {
            Ok(())
        });
    }
}

/// Runs the workload; `traced` selects the per-layer run.
pub fn run(
    c: &Campaign,
    o: &Opts,
    traced: bool,
    scratch: &Path,
    m: &mut Metrics,
    tally: &mut Tally,
) -> u64 {
    let store = scratch.join("serve-store");
    let (trace_s, setup_s, generated, mut live) = match setup(c, &store) {
        Ok(s) => s,
        Err(e) => {
            tally.op(Err(format!("set-up: {e}")));
            return 0;
        }
    };
    let (mut traces, mut setups) = (vec![trace_s], vec![setup_s]);
    let mut next_id = 0;
    let mut served = Vec::new();
    let mut walls = Vec::new();
    let mut traced_walls = Vec::new();
    let mut latencies: Vec<Vec<f64>> = Vec::new();
    let mut client_spans = ClientSpans::default();
    // In the traced run, untraced and traced passes alternate, so both see
    // the same phases of the host's background load.
    let budget = if traced { o.seconds * 0.7 } else { o.seconds };
    let start = Instant::now();
    let mut pass = 0;
    while pass < 4 || start.elapsed().as_secs_f64() < budget {
        let phase_traced = traced && pass % 2 == 1;
        pass += 1;
        if let Err(e) = reset_store(&store) {
            tally.op(Err(e));
            break;
        }
        let t = Instant::now();
        let spans = phase_traced.then_some(&mut client_spans);
        match closed_loop(
            &mut live.client,
            &c.specs,
            &c.seq,
            WINDOW,
            &mut next_id,
            spans,
        ) {
            Ok(s) => {
                if !phase_traced {
                    latencies.push(s.iter().map(|s| s.ms).collect());
                }
                served.extend(s);
            }
            Err(e) => {
                tally.op(Err(e));
                break;
            }
        }
        let wall = t.elapsed().as_secs_f64();
        if phase_traced {
            traced_walls.push(wall);
        } else {
            walls.push(wall);
        }
        // A set-up repeat starts a second server on a store of its own
        // while the live one is idle, then stops it.
        while engine::setup_due(setups.len(), start, budget) {
            match setup(c, &scratch.join("setup-store")) {
                Ok((trace_s, setup_s, again, spare)) => {
                    traces.push(trace_s);
                    setups.push(setup_s);
                    tally.op(if again == generated {
                        Ok(())
                    } else {
                        Err("trace generation is not repeatable".into())
                    });
                    if let Err(e) = stop(spare) {
                        tally.op(Err(e));
                    }
                }
                Err(e) => {
                    tally.op(Err(format!("set-up: {e}")));
                    break;
                }
            }
        }
    }
    if let Err(e) = stop(live) {
        tally.op(Err(e));
    }

    let (ref_pass, mut refs) = references(c, &generated, tally);
    if o.corrupt {
        if let Some(r) = refs.first_mut() {
            r.metrics.total_cycles += 1;
        }
    }
    verify(&served, &refs, tally);
    let digests: Vec<u64> = refs.iter().map(digest).collect();

    if !traced {
        // Each sequence position carries the same request in every pass;
        // latency percentiles are taken over the positions' fastest repeats.
        let fastest = report::min_of(latencies.iter().map(Vec::as_slice));
        let pick = |hit: bool| -> Vec<f64> {
            c.seq
                .iter()
                .zip(&fastest)
                .filter(|(s, _)| s.1 == hit)
                .map(|(_, &ms)| ms)
                .collect()
        };
        // One pass with every submission at its fastest repeat: with one
        // cell outstanding, a pass is its submissions' latencies in turn.
        let first_pass = &served[..c.seq.len().min(served.len())];
        let simulated: u64 = first_pass.iter().filter(|s| !s.hit).map(|s| s.accesses).sum();
        let wall = fastest.iter().sum::<f64>() / 1e3;
        m.timing(
            "accesses_per_s",
            simulated as f64 / wall,
            "1/s",
            Better::Higher,
        );
        m.timing("wall_s", wall, "s", Better::Lower);
        m.timing("setup_s", report::fastest(&setups), "s", Better::Lower);
        m.timing(
            "cells_per_s",
            first_pass.len() as f64 / wall,
            "1/s",
            Better::Higher,
        );
        crate::latency_metrics(m, &pick(true), &pick(false));
        m.count(
            "paper_gap_pp",
            c.set.paper_gap_pp(&refs),
            "pp",
            Better::Lower,
        );
        m.timing("peak_rss_mb", report::peak_rss_mb(), "MiB", Better::Lower);
        println!(
            "info passes={} setups={} cells/pass={} pool={} pass_wall_s min={:.4} median={:.4}",
            walls.len(),
            setups.len(),
            c.seq.len(),
            c.specs.len(),
            report::fastest(&walls),
            report::median(&walls),
        );
        return engine::workload_digest(&digests);
    }

    let mut spans = Spans::default();
    spans.add("serve.setup", report::fastest(&setups));
    let (pass, outputs, build_s, run_s) =
        engine::traced_pass(&c.set, &generated, &mut spans, tally);
    engine::check_repeat(&ref_pass.digests, &pass, "traced", tally);
    m.timing(
        "workloads.build_s",
        report::fastest(&traces),
        "s",
        Better::Lower,
    );
    m.count(
        "workloads.accesses",
        generated.iter().sum::<u64>() as f64,
        "count",
        Better::Higher,
    );
    m.timing("runner.build_s", build_s, "s", Better::Lower);
    m.timing("runner.run_s", run_s, "s", Better::Lower);
    m.timing(
        "runner.ns_per_access",
        run_s / pass.accesses as f64 * 1e9,
        "ns",
        Better::Lower,
    );
    crate::batch_metrics(m, &ref_pass.cell_secs);
    crate::count_metrics(m, &outputs);
    let mut probes = spans.time("probes.engine", || {
        crate::probes::Probes::engine(&c.set.cells)
    });
    spans.time("probes.store_wire", || {
        probes.store_and_wire(&c.set.cells, &outputs, &scratch.join("probe-store"))
    });
    probes.emit(m);
    // The server's store traffic in one pass, which the sequence fixes.
    let first_pass = &served[..c.seq.len().min(served.len())];
    let store_hits: u64 = first_pass.iter().map(|s| s.store_hits).sum();
    let store_misses: u64 = first_pass.iter().map(|s| s.store_misses).sum();
    m.count("store.hits", store_hits as f64, "count", Better::Higher);
    m.count("store.misses", store_misses as f64, "count", Better::Lower);
    m.timing(
        "serve.submit_us",
        report::median(&client_spans.submit_us),
        "us",
        Better::Lower,
    );
    m.timing(
        "serve.wait_ms",
        report::median(&client_spans.wait_ms),
        "ms",
        Better::Lower,
    );
    let overhead = report::fastest(&traced_walls) / report::fastest(&walls) - 1.0;
    m.timing("trace_overhead_pct", overhead * 100.0, "%", Better::Lower);
    spans.print();
    engine::workload_digest(&pass.digests)
}

/// Serve-layer probe for the engine workloads: a fresh server and store,
/// each of `cells` submitted twice in a row (a miss, then a hit), one at a
/// time. Returns the median submit call (µs) and the median wait from
/// submit until a worker picked the cell up (ms). Results must match
/// `outputs`.
pub fn serve_probe(
    cells: &[CellSpec],
    outputs: &[RunOutput],
    store: &Path,
    spans: &mut Spans,
    tally: &mut Tally,
) -> (f64, f64) {
    let specs: Vec<RunSpec> = cells.iter().map(CellSpec::to_run_spec).collect();
    let seq: Vec<(usize, bool)> = (0..specs.len()).flat_map(|i| [(i, false), (i, true)]).collect();
    let mut client_spans = ClientSpans::default();
    let result = spans.time("serve.probe", || -> Result<Vec<Served>, String> {
        let mut live = start(store)?;
        let served = closed_loop(
            &mut live.client,
            &specs,
            &seq,
            1,
            &mut 0,
            Some(&mut client_spans),
        );
        stop(live)?;
        served
    });
    match result {
        Ok(served) => verify(&served, outputs, tally),
        Err(e) => tally.op(Err(e)),
    }
    (
        report::median(&client_spans.submit_us),
        report::median(&client_spans.wait_ms),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequence_mixes_one_miss_per_spec_and_only_settled_hits() {
        let seq = sequence(16, &mut Rng(7));
        assert_eq!(seq.len(), 16 * USES);
        let misses: Vec<usize> = seq.iter().filter(|s| !s.1).map(|s| s.0).collect();
        let mut sorted = misses.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..16).collect::<Vec<_>>());
        for spec in 0..16 {
            let hits = seq.iter().filter(|&&s| s == (spec, true)).count();
            assert_eq!(hits, USES - 1, "spec {spec}");
        }
        for (j, &(spec, hit)) in seq.iter().enumerate() {
            if hit {
                let at = seq.iter().position(|&(s, h)| s == spec && !h).unwrap();
                assert!(at + WINDOW <= j, "hit at {j} on a spec introduced at {at}");
            }
        }
        assert_eq!(seq, sequence(16, &mut Rng(7)));
    }

    #[test]
    fn every_seed_draws_a_full_sequence() {
        for seed in 0..500 {
            for pool in [2, 3, 16] {
                assert_eq!(sequence(pool, &mut Rng(seed)).len(), pool * USES);
            }
        }
    }
}
