//! Glue between the campaign server (`grit-serve`) and the experiment
//! engine: turns a serialized [`RunSpec`] into a [`CellSpec`], runs it
//! through the resilient batch executor, and packages the outcome for
//! the wire.
//!
//! `grit-serve` itself knows nothing about simulations — it executes
//! cells through an opaque [`SpecRunner`] callback. This module is the
//! one place that callback is implemented for real, which keeps the
//! dependency arrow pointing the right way (`grit` → `grit-serve`, not
//! the reverse) and means every served cell goes through exactly the
//! same engine — workload cache, result store, catch-unwind isolation —
//! as a `repro` batch run.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use grit_serve::{ServeOptions, ServeSummary, Server, SpecFailure, SpecResult, SpecRunner};
use grit_sim::{RunSpec, SimConfig};
use grit_trace::{CategoryMask, TraceConfig};
use grit_workloads::App;

use crate::experiments::{run_batch_with_stats, BatchOptions, CellSpec, ExpConfig, PolicyKind};

/// Per-cell deadline applied by the server when the spec carries none,
/// so one runaway cell cannot wedge a shared campaign server forever.
pub const DEFAULT_CELL_TIMEOUT_SECS: f64 = 600.0;

/// Resolves a wire-level [`RunSpec`] into a runnable [`CellSpec`].
///
/// # Errors
///
/// A message naming the offending field: unknown app or policy label,
/// or machine knobs [`RunSpec::apply_to`] rejects.
pub fn parse_spec_cell(spec: &RunSpec) -> Result<CellSpec, String> {
    let app = App::parse(&spec.app).ok_or_else(|| format!("unknown app '{}'", spec.app))?;
    let policy = PolicyKind::parse(&spec.policy)
        .ok_or_else(|| format!("unknown policy '{}'", spec.policy))?;
    let mut cfg = SimConfig::default();
    spec.apply_to(&mut cfg).map_err(|e| e.to_string())?;
    let exp = ExpConfig {
        scale: spec.scale,
        intensity: spec.intensity,
        seed: spec.seed,
    };
    let mut cell = CellSpec::new(app, policy, &exp).with_cfg(cfg);
    if spec.trace {
        let categories = match &spec.trace_filter {
            Some(filter) => CategoryMask::parse(filter)?,
            None => CategoryMask::ALL,
        };
        cell = cell.traced(TraceConfig {
            categories,
            sample_every: spec.trace_sample.max(1),
        });
    }
    Ok(cell)
}

/// Runs one spec through the batch engine, honoring the spec's own
/// execution knob (`timeout_secs`) plus the server's
/// shared store. When the spec carries no deadline, `default_timeout`
/// (if any) is applied as a batch-level timeout — *not* written into
/// the spec, which would change its canonical store key and break the
/// resubmit-hits-the-store guarantee.
pub fn run_spec(
    spec: &RunSpec,
    store_dir: Option<&Path>,
    store_max_bytes: Option<u64>,
    default_timeout: Option<Duration>,
) -> Result<SpecResult, SpecFailure> {
    let cell =
        parse_spec_cell(spec).map_err(|message| SpecFailure::new("invalid-spec", message))?;
    let mut opts = BatchOptions::from(spec);
    if let Some(dir) = store_dir {
        opts = opts.resume_dir(dir);
    }
    if let Some(bytes) = store_max_bytes {
        opts = opts.store_max_bytes(bytes);
    }
    if spec.timeout_secs.is_none() {
        if let Some(deadline) = default_timeout {
            opts = opts.timeout(deadline);
        }
    }
    let (mut results, store) = run_batch_with_stats(std::slice::from_ref(&cell), &opts);
    match results.pop().expect("one cell in, one result out") {
        Ok(out) => {
            let mut res = SpecResult::default();
            res.store_hit = out.timing.resumed;
            res.total_cycles = out.metrics.total_cycles;
            res.accesses = out.metrics.accesses;
            res.local_faults = out.metrics.faults.local_faults;
            res.migrations = out.metrics.faults.migrations;
            res.sim_seconds = out.timing.sim_seconds;
            res.store_hits = store.hits;
            res.store_misses = store.misses;
            res.store_quarantined = store.quarantined;
            res.trace_lines = out
                .events
                .as_deref()
                .unwrap_or_default()
                .iter()
                .map(|ev| ev.to_json().to_string())
                .collect();
            Ok(res)
        }
        Err(err) => Err(SpecFailure::new(err.status(), err.to_string())),
    }
}

/// Builds the production [`SpecRunner`]: every cell (from any client)
/// shares this process's workload cache and the given result store.
/// Cells whose spec carries no deadline get none either — use
/// [`spec_runner_with`] for the served default.
pub fn spec_runner(store_dir: Option<PathBuf>, store_max_bytes: Option<u64>) -> SpecRunner {
    spec_runner_with(store_dir, store_max_bytes, None)
}

/// [`spec_runner`] with a server-side default per-cell deadline for
/// specs that carry none (`repro serve` passes
/// [`DEFAULT_CELL_TIMEOUT_SECS`] unless overridden).
pub fn spec_runner_with(
    store_dir: Option<PathBuf>,
    store_max_bytes: Option<u64>,
    default_timeout_secs: Option<f64>,
) -> SpecRunner {
    let default_timeout = default_timeout_secs.filter(|s| *s > 0.0).map(Duration::from_secs_f64);
    Arc::new(move |spec: &RunSpec| {
        run_spec(spec, store_dir.as_deref(), store_max_bytes, default_timeout)
    })
}

/// Starts a campaign server and blocks until a client asks it to shut
/// down, or SIGINT/SIGTERM arrives (drain-then-exit: queued cells are
/// answered and every open connection gets its `done` before the
/// process returns). Prints the bound address to stderr (and to
/// `opts.port_file` when set) so scripts started with port 0 can find
/// it.
///
/// Served cells whose spec carries no deadline run under
/// [`DEFAULT_CELL_TIMEOUT_SECS`].
///
/// # Errors
///
/// Bind or port-file failures, as a message.
pub fn serve(
    opts: &ServeOptions,
    store_dir: Option<PathBuf>,
    store_max_bytes: Option<u64>,
) -> Result<ServeSummary, String> {
    let runner = spec_runner_with(store_dir, store_max_bytes, Some(DEFAULT_CELL_TIMEOUT_SECS));
    let server = Server::start(opts, runner)?;
    eprintln!("repro serve: listening on {}", server.local_addr());
    #[cfg(unix)]
    drain_on_signals(server.shutdown_handle());
    Ok(server.run())
}

/// Arranges a graceful drain on SIGINT/SIGTERM. The handler itself only
/// flips a flag (the only async-signal-safe thing it may do); a
/// detached poller thread notices within ~100ms and triggers the
/// server's [`grit_serve::ShutdownHandle`], which locks and allocates
/// freely.
#[cfg(unix)]
fn drain_on_signals(handle: grit_serve::ShutdownHandle) {
    use std::sync::atomic::{AtomicBool, Ordering};

    static SIGNALLED: AtomicBool = AtomicBool::new(false);
    extern "C" fn on_signal(_signum: i32) {
        SIGNALLED.store(true, Ordering::SeqCst);
    }
    // `signal(2)` comes from the C runtime std already links; declaring
    // it directly avoids a libc crate dependency. SIG_ERR replies are
    // ignorable: worst case the default handler stays and the process
    // dies undrained, which is exactly the pre-handler behaviour.
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGINT, on_signal as *const () as usize);
        signal(SIGTERM, on_signal as *const () as usize);
    }
    std::thread::spawn(move || loop {
        if SIGNALLED.load(Ordering::SeqCst) {
            eprintln!("repro serve: signal received, draining queued cells before exit");
            handle.shutdown();
            return;
        }
        std::thread::sleep(Duration::from_millis(100));
    });
}
