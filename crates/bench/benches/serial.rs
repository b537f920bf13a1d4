//! Benchmarks of one cell's serial event loop at 4 and 8 GPUs, plus a
//! tiny cell where per-run setup and kernel barriers dominate. The
//! `serial_no_regression_guard` target checks that the engine scales
//! with its event count rather than against a stored baseline, so it
//! holds on any machine.

use std::time::Duration;

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use grit::experiments::{run_batch_with, BatchOptions, CellSpec, ExpConfig, PolicyKind};
use grit_sim::SimConfig;
use grit_workloads::App;

fn exp(scale: f64) -> ExpConfig {
    ExpConfig {
        scale,
        intensity: 0.5,
        ..ExpConfig::quick()
    }
}

fn cell(gpus: usize, scale: f64) -> Vec<CellSpec> {
    vec![CellSpec::new(App::Gemm, PolicyKind::GRIT, &exp(scale))
        .with_cfg(SimConfig::with_gpus(gpus))]
}

fn run_one(cells: &[CellSpec]) {
    let out = run_batch_with(cells, &BatchOptions::new().jobs(1));
    assert!(out.iter().all(Result::is_ok));
    black_box(out);
}

fn bench_serial(c: &mut Criterion) {
    let mut g = c.benchmark_group("serial");
    g.sample_size(10);
    g.warm_up_time(Duration::from_secs(1));
    g.measurement_time(Duration::from_secs(3));

    // One mid-size cell at 4 and 8 GPUs. The first iteration builds the
    // workload trace into the shared cache, so steady-state samples time
    // only the engine.
    for gpus in [4usize, 8] {
        let cells = cell(gpus, 0.05);
        g.bench_function(format!("serial_{gpus}gpu"), |b| b.iter(|| run_one(&cells)));
    }

    // A deliberately tiny cell: per-run setup and barriers dominate.
    let tiny = cell(4, 0.005);
    g.bench_function("window_overhead_tiny_serial", |b| b.iter(|| run_one(&tiny)));

    g.finish();
}

/// Wall-clock of the serial engine over one cell, best of three.
fn time_serial(gpus: usize) -> Duration {
    let cells = cell(gpus, 0.05);
    run_one(&cells); // warm the workload cache
    (0..3)
        .map(|_| {
            let t = std::time::Instant::now();
            run_one(&cells);
            t.elapsed()
        })
        .min()
        .expect("three samples")
}

/// Serial no-regression guard. Doubling the GPU count roughly doubles
/// the event count, so the 8-GPU run must finish within 4x the 4-GPU
/// one on any machine; a superlinear blow-up in the engine trips this
/// without needing a stored cross-machine baseline.
fn serial_no_regression_guard(_c: &mut Criterion) {
    let t4 = time_serial(4);
    let t8 = time_serial(8);
    assert!(
        t8 <= t4 * 4 + Duration::from_millis(50),
        "8-GPU serial run regressed: 4 GPUs took {t4:?}, 8 GPUs took {t8:?}"
    );
    println!("serial/serial_guard ok: 4gpu={t4:?} 8gpu={t8:?}");
}

criterion_group! {
    name = serial;
    config = Criterion::default().without_plots();
    targets = bench_serial, serial_no_regression_guard
}
criterion_main!(serial);
