//! The full-system simulation: per-GPU frontends (trace stream, MLP window,
//! TLB hierarchy, page-walker pool, L2 data cache) around the UVM driver.
//!
//! The loop is a discrete-event replay: the GPU with the smallest
//! next-ready cycle issues its next access, so cross-GPU interactions —
//! migrations, invalidation broadcasts, write collapses, counter trips —
//! are globally ordered in simulated time.
//!
//! With [`SimulationBuilder::sim_threads`] above one, the loop is *time
//! sharded*: workers speculatively advance disjoint GPUs through their
//! purely GPU-local accesses up to a conservative horizon, then a round
//! barrier commits the speculation in the exact serial event order and
//! executes the first blocked driver interaction through the unchanged
//! serial path. Output is byte-identical to the serial engine at any
//! thread count; see `DESIGN.md` §14 for the protocol and its safety
//! argument.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU64, Ordering};

use grit_mem::{CacheKey, Mapping, SetAssocCache, TlbHierarchy, TranslationLevel, WalkerPool};
use grit_metrics::{
    AttrGrid, IntervalSeries, LatencyClass, LatencyHistogram, PageAttrSummary, PageAttrTracker,
    RunMetrics, SchemeMix,
};
use grit_prof::{span, Phase, SpecStats};
use grit_sim::{
    Access, AccessKind, AccessStream, CancelState, CancelToken, CellError, ConfigError, Cycle,
    GpuId, GritError, InjectConfig, LatencyConfig, MemLoc, MlpWindow, PageId, SimConfig,
    SliceStream, TopologyConfig,
};
use grit_trace::{CellTiming, TraceEvent, Tracer};
use grit_uvm::{
    DriverOutcome, DriverView, FaultInfo, FaultKind, PlacementPolicy, Prefetcher, UvmDriver,
    WriteMode,
};
use grit_workloads::MultiGpuWorkload;

/// L2 data-cache key: page + generation + line. Bumping a page's
/// generation on invalidation makes all of its cached lines unreachable in
/// O(1) instead of scanning the cache.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
struct LineKey {
    vpn: PageId,
    generation: u32,
    line: u16,
}

impl CacheKey for LineKey {
    fn index(&self) -> u64 {
        (self.vpn.vpn() << 6) | self.line as u64 & 0x3f
    }
}

/// One GPU's frontend state.
struct GpuFrontend {
    stream: SliceStream,
    /// Kernel boundaries (positions in the stream); the node synchronizes
    /// at each one.
    barriers: Vec<usize>,
    next_barrier: usize,
    consumed: usize,
    waiting: bool,
    ready: Cycle,
    window: MlpWindow,
    tlb: TlbHierarchy,
    /// Page-size-partitioned VIPT TLBs: 2 MB translations live in their
    /// own hierarchy, keyed by frame base. Allocated only when the
    /// configuration manages large pages, so uniform-4 KB runs carry no
    /// extra state.
    tlb_2m: Option<TlbHierarchy>,
    walker: WalkerPool,
    l1: SetAssocCache<LineKey, ()>,
    l2: SetAssocCache<LineKey, ()>,
    /// Per-page line generation, indexed by VPN (pre-sized to the
    /// footprint, grown on demand); pages past the end are generation 0.
    line_generation: Vec<u32>,
    finished: bool,
    last_done: Cycle,
}

impl GpuFrontend {
    fn new(cfg: &SimConfig, stream: SliceStream, barriers: Vec<usize>, pages: usize) -> Self {
        GpuFrontend {
            stream,
            barriers,
            next_barrier: 0,
            consumed: 0,
            waiting: false,
            ready: 0,
            window: MlpWindow::new(cfg.mlp_window),
            tlb: TlbHierarchy::new(cfg.l1_tlb, cfg.l2_tlb),
            tlb_2m: (cfg.page_size_mode.large_pages_enabled() && cfg.pages_per_large_frame() > 1)
                .then(|| TlbHierarchy::new(cfg.l1_tlb_2m, cfg.l2_tlb_2m)),
            walker: WalkerPool::new(cfg.walk),
            l1: SetAssocCache::with_entries(cfg.l1_cache.entries, cfg.l1_cache.ways),
            l2: SetAssocCache::with_entries(cfg.l2_cache.entries, cfg.l2_cache.ways),
            line_generation: vec![0; pages],
            finished: false,
            last_done: 0,
        }
    }

    /// Whether the frontend sits exactly on its next kernel boundary.
    fn at_barrier(&self) -> bool {
        self.barriers.get(self.next_barrier) == Some(&self.consumed)
    }

    fn line_key(&self, vpn: PageId, line: u16) -> LineKey {
        LineKey {
            vpn,
            generation: self.line_generation.get(vpn.vpn() as usize).copied().unwrap_or(0),
            line,
        }
    }

    fn invalidate_page(&mut self, vpn: PageId) {
        self.tlb.invalidate(vpn);
        let i = vpn.vpn() as usize;
        if i >= self.line_generation.len() {
            self.line_generation.resize(i + 1, 0);
        }
        self.line_generation[i] += 1;
    }

    /// Drops the 2 MB translation of a splintered frame. Base-page TLB
    /// entries and cached lines are untouched: splintering demotes the
    /// translation, the data does not move.
    fn invalidate_large(&mut self, frame_base: PageId) {
        if let Some(t2) = self.tlb_2m.as_mut() {
            t2.invalidate(frame_base);
        }
    }
}

/// Inverse record of one speculatively executed access: everything needed
/// to restore the frontend to its state just before the access ran.
///
/// Rollback via these records costs time proportional to the *work undone*
/// (the handful of accesses past the cut), where a snapshot/restore scheme
/// costs time proportional to the *state size* (hundreds of kilobytes of
/// cache arrays per GPU per round). The serial engine never records
/// anything. `barriers`, `next_barrier`, `waiting`, and `line_generation`
/// need no records — only serial paths (barrier release, invalidation
/// broadcasts) touch them, and those never run speculatively.
struct EntryUndo {
    prev_last_done: Cycle,
    issue: grit_sim::MlpIssueUndo,
    /// The completion time pushed by `window.complete`.
    pushed: Cycle,
    tlb: grit_mem::TlbTranslateUndo,
    tlb_fill: Option<grit_mem::TlbFillUndo>,
    /// The translate/fill above went through the 2 MB hierarchy (the
    /// access hit a coalesced frame owned by this GPU), so the undos
    /// must be routed back to it.
    tlb_large: bool,
    walk: Option<grit_mem::WalkUndo>,
    l1_get: grit_mem::CacheUndo<LineKey, ()>,
    l2_get: Option<grit_mem::CacheUndo<LineKey, ()>>,
    l2_ins: Option<grit_mem::CacheUndo<LineKey, ()>>,
    l1_ins: Option<grit_mem::CacheUndo<LineKey, ()>>,
}

/// Inverse record of a speculative stream-finish (window drain).
struct FinishUndo {
    prev_last_done: Cycle,
    prev_last_drain: Cycle,
    /// Completion times the drain popped, appended to the slot arena.
    drained: u32,
}

/// One speculatively executed access, logged so its *global* side effects
/// (shared counters, attribute tracker, observers, policy feed, memory
/// occupancy) can be committed at the round barrier in the exact order the
/// serial engine interleaves them.
struct PureEntry {
    /// Heap pop key cycle at which the serial engine replays this access.
    ready: Cycle,
    /// Issue cycle, after think time and MLP-window admission.
    t0: Cycle,
    vpn: PageId,
    kind: AccessKind,
    /// Missed the L2 TLB and walked the page table.
    walked: bool,
    /// Walk latency, charged to the Local latency class at commit.
    walk_cycles: Cycle,
    /// Missed both data caches and fetched the line from local DRAM.
    local_miss: bool,
}

/// Why a speculative advance stopped.
struct PureStop {
    /// Pop-key cycle of a blocked serial event (fault, collapse, remote
    /// fetch, kernel barrier, due epoch/injection); `None` when the GPU ran
    /// into the horizon or finished its stream.
    serial_at: Option<Cycle>,
    /// Pop-key cycle at which the stream ran dry (the finish executed
    /// speculatively and may need rolling back).
    finished_at: Option<Cycle>,
}

/// One GPU's result of a speculative round. The slot's buffers are
/// persistent across rounds (cleared, never reallocated).
#[derive(Default)]
struct RoundSlot {
    log: Vec<PureEntry>,
    /// One inverse record per log entry, same order.
    undo: Vec<EntryUndo>,
    /// Retired completion times (MLP window + walker queue), appended in
    /// execution order and consumed as a stack during rollback.
    arena: Vec<Cycle>,
    finish_undo: Option<FinishUndo>,
    serial_at: Option<Cycle>,
    finished_at: Option<Cycle>,
}

/// Speculatively advances one frontend to `bound`, filling `slot`;
/// finished or barrier-parked GPUs leave the slot idle.
fn advance_frontend(
    g: usize,
    f: &mut GpuFrontend,
    view: &DriverView<'_>,
    lat: &LatencyConfig,
    bound: (Cycle, usize),
    slot: &mut RoundSlot,
) {
    slot.log.clear();
    slot.undo.clear();
    slot.arena.clear();
    slot.finish_undo = None;
    slot.serial_at = None;
    slot.finished_at = None;
    if f.finished || f.waiting {
        return;
    }
    let stop = advance_pure(g, f, view, lat, bound, slot);
    slot.serial_at = stop.serial_at;
    slot.finished_at = stop.finished_at;
}

/// Speculatively advances one GPU through purely GPU-local accesses.
///
/// Every event whose serial pop key `(ready, g)` is below `bound` and whose
/// handling touches nothing but this frontend (TLB, walker, caches, MLP
/// window) executes exactly as [`Simulation::process`] would, with its
/// global side effects logged for ordered commit. The advance stops —
/// *before* mutating anything — at the first event that needs the driver:
/// an unmapped page (fault), a write to a replica (collapse/broadcast), a
/// data miss on a remote mapping, a kernel barrier, or due driver-side work
/// (policy epoch or injected fault transition).
///
/// Classification happens against `view`, the driver state frozen at the
/// round start; the commit bound guarantees no serial event ordered before
/// a speculated access could have changed that state.
fn advance_pure(
    g: usize,
    f: &mut GpuFrontend,
    view: &DriverView<'_>,
    lat: &LatencyConfig,
    bound: (Cycle, usize),
    slot: &mut RoundSlot,
) -> PureStop {
    let gpu = GpuId::new(g as u8);
    loop {
        let r = f.ready;
        if (r, g) >= bound {
            return PureStop {
                serial_at: None,
                finished_at: None,
            };
        }
        if view.work_due(r) {
            // The serial loop would run the epoch/injection inside
            // `maybe_run_epoch` on this pop.
            return PureStop {
                serial_at: Some(r),
                finished_at: None,
            };
        }
        if f.at_barrier() {
            return PureStop {
                serial_at: Some(r),
                finished_at: None,
            };
        }
        let Some(acc) = f.stream.peek() else {
            // Finishing touches only this frontend; it is pure (but
            // recorded, in case the finish lands past the commit cut).
            let prev_last_done = f.last_done;
            let prev_last_drain = f.window.last_drain_mark();
            let start = slot.arena.len();
            let drained = f.window.drain_time_recorded(&mut slot.arena);
            f.last_done = f.last_done.max(drained);
            f.finished = true;
            slot.finish_undo = Some(FinishUndo {
                prev_last_done,
                prev_last_drain,
                drained: (slot.arena.len() - start) as u32,
            });
            return PureStop {
                serial_at: None,
                finished_at: Some(r),
            };
        };
        // Classify before mutating anything, so a serial stop leaves the
        // frontend exactly at its pre-event state.
        let vpn = acc.vpn;
        let Some(mapping) = view.translate(gpu, vpn) else {
            return PureStop {
                serial_at: Some(r),
                finished_at: None,
            };
        };
        if acc.is_write() && mapping == Mapping::Replica {
            return PureStop {
                serial_at: Some(r),
                finished_at: None,
            };
        }
        let key = f.line_key(vpn, acc.line);
        let cached = f.l1.peek(&key).is_some() || f.l2.peek(&key).is_some();
        if !cached && matches!(mapping, Mapping::Remote(_) | Mapping::RemoteHost) {
            return PureStop {
                serial_at: Some(r),
                finished_at: None,
            };
        }
        // Pure: execute against GPU-local state, mirroring the serial
        // `process` path cycle for cycle, recording inverse operations.
        let prev_last_done = f.last_done;
        f.stream.next_access();
        f.consumed += 1;
        let issue_base = r + acc.think as Cycle;
        let (t0, issue_undo) = f.window.issue_at_recorded(issue_base, &mut slot.arena);
        f.ready = t0;
        // An access to a coalesced frame owned by this GPU translates
        // through the 2 MB hierarchy under the frame-base key; everything
        // else through the base-page TLBs. The frozen `DriverView` keeps
        // the routing stable for the whole round.
        let large_key = f.tlb_2m.as_ref().and_then(|_| view.large_translation(gpu, vpn));
        let ((level, tlb_lat), tlb_undo) = match (large_key, f.tlb_2m.as_mut()) {
            (Some(base), Some(t2)) => t2.translate_recorded(base),
            _ => f.tlb.translate_recorded(vpn),
        };
        let mut t = t0 + tlb_lat;
        let mut walked = false;
        let mut walk_cycles = 0;
        let mut tlb_fill = None;
        let mut walk_undo = None;
        if level == TranslationLevel::Walk {
            let (walk, wu) = f.walker.walk_recorded(t, vpn, &mut slot.arena);
            walked = true;
            walk_cycles = walk.done_at - t;
            t = walk.done_at;
            walk_undo = Some(wu);
            tlb_fill = Some(match (large_key, f.tlb_2m.as_mut()) {
                (Some(base), Some(t2)) => t2.fill_recorded(base),
                _ => f.tlb.fill_recorded(vpn),
            });
        }
        let mut local_miss = false;
        let (l1_hit, l1_get) = f.l1.get_recorded(&key);
        let (mut l2_get, mut l2_ins, mut l1_ins) = (None, None, None);
        if l1_hit {
            t += lat.l1_data_hit;
        } else {
            let (l2_hit, lg) = f.l2.get_recorded(&key);
            l2_get = Some(lg);
            if l2_hit {
                t += lat.l2_data_hit;
                l1_ins = Some(f.l1.insert_recorded(key, ()));
            } else {
                // Same timing as `UvmDriver::local_line_access`; the LRU
                // touch and dirty mark are deferred to the ordered commit.
                t += lat.local_dram;
                local_miss = true;
                l2_ins = Some(f.l2.insert_recorded(key, ()));
                l1_ins = Some(f.l1.insert_recorded(key, ()));
            }
        }
        f.window.complete(t);
        f.last_done = f.last_done.max(t);
        slot.log.push(PureEntry {
            ready: r,
            t0,
            vpn,
            kind: acc.kind,
            walked,
            walk_cycles,
            local_miss,
        });
        slot.undo.push(EntryUndo {
            prev_last_done,
            issue: issue_undo,
            pushed: t,
            tlb: tlb_undo,
            tlb_fill,
            tlb_large: large_key.is_some(),
            walk: walk_undo,
            l1_get,
            l2_get,
            l2_ins,
            l1_ins,
        });
    }
}

/// Rolls one frontend back to the commit cut by reversing its speculative
/// log from the end: every entry (and any speculative finish) whose serial
/// pop key is at or past `cut` is undone, leaving the frontend exactly as
/// if it had advanced only through the surviving prefix.
fn rollback_to_cut(g: usize, f: &mut GpuFrontend, slot: &mut RoundSlot, cut: (Cycle, usize)) {
    if slot.finished_at.is_some_and(|c| (c, g) >= cut) {
        slot.finished_at = None;
        let fu = slot.finish_undo.take().expect("speculative finish has an undo record");
        let start = slot.arena.len() - fu.drained as usize;
        f.window.undo_drain(fu.prev_last_drain, &slot.arena[start..]);
        slot.arena.truncate(start);
        f.last_done = fu.prev_last_done;
        f.finished = false;
    }
    // Log keys are non-decreasing, so the overrun is a suffix.
    let keep = slot.log.partition_point(|e| (e.ready, g) < cut);
    let discard = slot.log.len() - keep;
    if discard == 0 {
        return;
    }
    for i in (keep..slot.log.len()).rev() {
        let e = &slot.log[i];
        let u = slot.undo.pop().expect("one undo record per log entry");
        // Reverse of the execution order in `advance_pure`.
        if let Some(ci) = u.l1_ins {
            f.l1.undo(ci);
        }
        if let Some(ci) = u.l2_ins {
            f.l2.undo(ci);
        }
        if let Some(cg) = u.l2_get {
            f.l2.undo(cg);
        }
        f.l1.undo(u.l1_get);
        if let Some(tf) = u.tlb_fill {
            match (u.tlb_large, f.tlb_2m.as_mut()) {
                (true, Some(t2)) => t2.undo_fill(tf),
                _ => f.tlb.undo_fill(tf),
            }
        }
        if let Some(w) = u.walk {
            let start = slot.arena.len() - w.retired as usize;
            f.walker.undo_walk(w, &slot.arena[start..]);
            slot.arena.truncate(start);
        }
        match (u.tlb_large, f.tlb_2m.as_mut()) {
            (true, Some(t2)) => t2.undo_translate(u.tlb),
            _ => f.tlb.undo_translate(u.tlb),
        }
        f.window.uncomplete(u.pushed);
        let start = slot.arena.len() - u.issue.retired as usize;
        f.window.undo_issue(u.issue, &slot.arena[start..]);
        slot.arena.truncate(start);
        f.ready = e.ready;
        f.last_done = u.prev_last_done;
    }
    f.stream.rewind(discard);
    f.consumed -= discard;
    slot.log.truncate(keep);
}

/// Shared coordination state for the persistent speculation worker pool.
///
/// One pool lives for the whole sharded run; each round the conductor
/// publishes the round's inputs through the pointer fields and bumps `seq`,
/// and each worker advances its fixed GPU chunk and reports back through
/// its `done` flag. This replaces a per-round `thread::scope` spawn, whose
/// OS-thread creation cost dominated short rounds.
struct ShardSync {
    /// Round sequence number. The conductor publishes the pointer fields
    /// below, then bumps this with `Release`; workers `Acquire`-load it, so
    /// observing a new round implies seeing that round's pointers.
    seq: AtomicU64,
    /// Horizon (exclusive pop-key cycle bound) of the current round.
    bound: AtomicU64,
    /// Base of the `GpuFrontend` array for the current round.
    gpus: AtomicPtr<GpuFrontend>,
    /// Base of the `RoundSlot` array for the current round.
    slots: AtomicPtr<RoundSlot>,
    /// The round's frozen `DriverView`, lifetime-erased. Valid only for the
    /// duration of the round that published it.
    view: AtomicPtr<()>,
    /// Per-worker completion flags, set to the round's `seq` with `Release`
    /// once the worker's chunk is done; the conductor `Acquire`-loads them,
    /// which is what lets it safely re-borrow the frontends.
    done: Vec<AtomicU64>,
    /// Tells workers to exit at the next `seq` bump.
    shutdown: AtomicBool,
    /// Set by a worker's drop guard if its round body panics, so the
    /// conductor does not wait forever on a `done` flag that never comes.
    poisoned: AtomicBool,
}

impl ShardSync {
    fn new(workers: usize) -> Self {
        ShardSync {
            seq: AtomicU64::new(0),
            bound: AtomicU64::new(0),
            gpus: AtomicPtr::new(std::ptr::null_mut()),
            slots: AtomicPtr::new(std::ptr::null_mut()),
            view: AtomicPtr::new(std::ptr::null_mut()),
            done: (0..workers).map(|_| AtomicU64::new(0)).collect(),
            shutdown: AtomicBool::new(false),
            poisoned: AtomicBool::new(false),
        }
    }
}

/// Body of one pool worker: waits for a round, advances the GPUs in
/// `range`, reports completion, repeats until shutdown.
///
/// A panic in the round body is caught so the `done` flag is still set —
/// the conductor must never block on a flag that will not come, and no
/// worker may hold the round's raw pointers once its flag is up. The
/// conductor re-raises the panic after the round barrier.
fn shard_worker(sync: &ShardSync, w: usize, range: std::ops::Range<usize>, lat: LatencyConfig) {
    // Statically require what the raw-pointer sharing below relies on: the
    // per-GPU state crosses threads and the frozen view is shared.
    fn _bounds_hold()
    where
        GpuFrontend: Send,
        RoundSlot: Send,
        for<'a> DriverView<'a>: Sync,
    {
    }
    let done = &sync.done[w - 1];
    let mut last = 0u64;
    loop {
        // Wait for the next round: spin briefly (rounds are often back to
        // back), then yield, then park. A spurious unpark only re-loops.
        let mut spins = 0u32;
        let seq = loop {
            let s = sync.seq.load(Ordering::Acquire);
            if s != last {
                break s;
            }
            spins += 1;
            if spins < 64 {
                std::hint::spin_loop();
            } else if spins < 1 << 14 {
                std::thread::yield_now();
            } else {
                std::thread::park();
            }
        };
        last = seq;
        if sync.shutdown.load(Ordering::Acquire) {
            return;
        }
        let round = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let bound = sync.bound.load(Ordering::Relaxed);
            let gpus = sync.gpus.load(Ordering::Relaxed);
            let slots = sync.slots.load(Ordering::Relaxed);
            // SAFETY: the conductor publishes these pointers before the
            // `Release` bump of `seq` that started this round, and keeps
            // the view and both arrays alive (and un-borrowed) until every
            // `done` flag reports the round complete. The view is only
            // read, and `DriverView` is `Sync`.
            let view = unsafe { &*(sync.view.load(Ordering::Relaxed) as *const DriverView<'_>) };
            let _prof = span(Phase::SpecExecute);
            for g in range.clone() {
                // SAFETY: worker `w` is the only thread that touches
                // indices in `range` during a round — chunks are disjoint
                // by construction and the conductor only re-borrows the
                // arrays after the `Acquire` handshake on `done` — so these
                // are unique references for the duration of the loop body.
                let f = unsafe { &mut *gpus.add(g) };
                let slot = unsafe { &mut *slots.add(g) };
                advance_frontend(g, f, view, &lat, (bound, 0), slot);
            }
        }));
        if round.is_err() {
            sync.poisoned.store(true, Ordering::Release);
            done.store(seq, Ordering::Release);
            return;
        }
        done.store(seq, Ordering::Release);
    }
}

/// Optional per-figure instrumentation attached to a run.
#[derive(Clone, Debug, Default)]
pub struct ObserverConfig {
    /// Track a single page's per-GPU and read/write activity over
    /// intervals (Figs. 5 and 10).
    pub track_page: Option<PageId>,
    /// Interval length in cycles for the tracked-page series (paper: one
    /// million cycles).
    pub interval_cycles: Cycle,
    /// Record pages × intervals attribute grids (Figs. 6–8), with this
    /// many page bins. Zero disables the grids.
    pub grid_page_bins: usize,
    /// Rows (time intervals) for the attribute grids (paper: 50).
    pub grid_intervals: usize,
    /// Record the per-interval placement-scheme mix of L2-TLB-missing
    /// accesses (the adaptation timeline of the GRIT policy).
    pub scheme_timeline: bool,
}

impl ObserverConfig {
    /// Tracks one page at the paper's one-million-cycle interval.
    pub fn tracking(page: PageId) -> Self {
        ObserverConfig {
            track_page: Some(page),
            interval_cycles: 1_000_000,
            ..Default::default()
        }
    }

    /// Records the Figs. 6–8 attribute grids.
    pub fn with_grids(mut self, page_bins: usize) -> Self {
        self.grid_page_bins = page_bins;
        self.grid_intervals = 50;
        if self.interval_cycles == 0 {
            self.interval_cycles = 1_000_000;
        }
        self
    }
}

/// Recorded time-series instrumentation of a run.
#[derive(Clone, Debug)]
pub struct RunObserver {
    /// Per-interval access counts by GPU for the tracked page (Fig. 5).
    pub page_by_gpu: IntervalSeries,
    /// Per-interval read(0)/write(1) counts for the tracked page (Fig. 10).
    pub page_rw: IntervalSeries,
    /// Private(1)/shared(2) attribute grid over page bins (Figs. 6 & 8).
    pub grid_private_shared: Option<AttrGrid>,
    /// Read(1)/read-write(2) attribute grid over page bins (Fig. 7).
    pub grid_read_rw: Option<AttrGrid>,
    /// Cycles per grid row (derived from the configured interval).
    pub grid_interval_cycles: Cycle,
    /// Per-interval scheme mix at L2-TLB misses (buckets: on-touch,
    /// access-counter, duplication), when requested.
    pub scheme_timeline: Option<IntervalSeries>,
}

/// Everything a finished run yields.
#[derive(Clone, Debug)]
pub struct RunOutput {
    /// Aggregate metrics (Fig. 1/3/17/18/19 inputs).
    pub metrics: RunMetrics,
    /// Whole-run page-attribute summary (Figs. 4 & 9).
    pub page_attrs: PageAttrSummary,
    /// The full per-page attribute tracker (page selection for Figs. 5/10).
    pub attrs: PageAttrTracker,
    /// Time-series instrumentation, when configured.
    pub observer: Option<RunObserver>,
    /// Wall-clock profile of the cell; filled in by the batch executor
    /// (the simulation itself has no wall-clock view of workload builds).
    pub timing: CellTiming,
    /// Events captured by an attached tracer, drained after the run;
    /// `None` when tracing was disabled.
    pub events: Option<Vec<TraceEvent>>,
}

/// The assembled multi-GPU system.
pub struct Simulation {
    cfg: SimConfig,
    gpus: Vec<GpuFrontend>,
    driver: UvmDriver,
    attrs: PageAttrTracker,
    scheme_mix: SchemeMix,
    accesses: u64,
    local_accesses: u64,
    remote_accesses: u64,
    footprint_pages: u64,
    observer_cfg: ObserverConfig,
    obs_page_by_gpu: Option<IntervalSeries>,
    obs_page_rw: Option<IntervalSeries>,
    obs_grid_ps: Option<AttrGrid>,
    obs_grid_rw: Option<AttrGrid>,
    obs_scheme_timeline: Option<IntervalSeries>,
    cancel: CancelToken,
    /// Worker threads sharding this run's event loop (1 = serial engine).
    sim_threads: usize,
}

/// Result of one serial event-loop step.
enum StepOutcome {
    /// An event was handled (or a barrier released).
    Progress,
    /// Every GPU finished its stream.
    AllFinished,
}

/// Fluent constructor for [`Simulation`], absorbing the old
/// `set_prefetcher` / `set_tracer` / `set_observer` mutators.
///
/// ```no_run
/// use grit::prelude::*;
/// use grit_uvm::StaticPolicy;
/// use grit_workloads::WorkloadBuilder;
///
/// let cfg = SimConfig::default();
/// let w = WorkloadBuilder::new(App::Bfs).num_gpus(cfg.num_gpus).scale(0.02).build();
/// let sim = SimulationBuilder::new(cfg, w, Box::new(StaticPolicy::new(grit_sim::Scheme::OnTouch)))
///     .observer(ObserverConfig::default().with_grids(50))
///     .build()
///     .expect("valid configuration");
/// let out = sim.try_run().expect("run failed");
/// ```
pub struct SimulationBuilder {
    cfg: SimConfig,
    workload: MultiGpuWorkload,
    policy: Box<dyn PlacementPolicy>,
    observer: Option<ObserverConfig>,
    prefetcher: Option<Box<dyn Prefetcher>>,
    tracer: Option<Tracer>,
    cancel: CancelToken,
    sim_threads: usize,
}

impl SimulationBuilder {
    /// Starts a builder from the three mandatory ingredients.
    pub fn new(
        cfg: SimConfig,
        workload: MultiGpuWorkload,
        policy: Box<dyn PlacementPolicy>,
    ) -> Self {
        SimulationBuilder {
            cfg,
            workload,
            policy,
            observer: None,
            prefetcher: None,
            tracer: None,
            cancel: CancelToken::new(),
            sim_threads: 1,
        }
    }

    /// Shards the event loop of this one simulation across `n` worker
    /// threads (default 1 = the serial engine). Output is byte-identical
    /// at any value; values above the GPU count are clamped.
    pub fn sim_threads(mut self, n: usize) -> Self {
        self.sim_threads = n.max(1);
        self
    }

    /// Wires the interconnect as `topo` describes (default: all-to-all).
    pub fn topology(mut self, topo: TopologyConfig) -> Self {
        self.cfg.topology = topo;
        self
    }

    /// Schedules deterministic hardware fault injection (default: none).
    pub fn inject(mut self, inject: InjectConfig) -> Self {
        self.cfg.inject = inject;
        self
    }

    /// Opts release builds into the driver's automatic invariant sweeps
    /// at epoch boundaries and after every injected fault (debug builds
    /// always run them).
    pub fn check_invariants(mut self, on: bool) -> Self {
        self.cfg.check_invariants = on;
        self
    }

    /// Enables time-series instrumentation.
    pub fn observer(mut self, cfg: ObserverConfig) -> Self {
        self.observer = Some(cfg);
        self
    }

    /// Attaches a prefetcher to the UVM driver (Fig. 30).
    pub fn prefetcher(mut self, p: Box<dyn Prefetcher>) -> Self {
        self.prefetcher = Some(p);
        self
    }

    /// Attaches an event sink to the UVM driver (and its fabric); the
    /// caller keeps a clone to drain events after the run.
    pub fn tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = Some(tracer);
        self
    }

    /// Threads a cancellation token (abort flag and/or wall-clock budget)
    /// into the run loop; see [`Simulation::try_run`].
    pub fn cancel(mut self, token: CancelToken) -> Self {
        self.cancel = token;
        self
    }

    /// Validates and assembles the system.
    ///
    /// # Errors
    ///
    /// Returns the first violated configuration constraint.
    pub fn build(self) -> Result<Simulation, ConfigError> {
        let mut sim = Simulation::try_new(self.cfg, self.workload, self.policy)?;
        if let Some(obs) = self.observer {
            sim.set_observer(obs);
        }
        if let Some(p) = self.prefetcher {
            sim.driver.set_prefetcher(p);
        }
        if let Some(t) = self.tracer {
            sim.driver.set_tracer(t);
        }
        sim.cancel = self.cancel;
        sim.sim_threads = self.sim_threads;
        Ok(sim)
    }
}

impl Simulation {
    /// Wires a workload and a policy into a runnable system, reporting
    /// invalid configurations (including a workload whose GPU count differs
    /// from the configuration's) as values.
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint.
    pub fn try_new(
        cfg: SimConfig,
        workload: MultiGpuWorkload,
        policy: Box<dyn PlacementPolicy>,
    ) -> Result<Self, ConfigError> {
        cfg.validate()?;
        if workload.streams.len() != cfg.num_gpus {
            return Err(ConfigError::new(
                "workload",
                format!(
                    "workload GPU count must match the configuration \
                     (workload has {}, configuration expects {})",
                    workload.streams.len(),
                    cfg.num_gpus
                ),
            ));
        }
        let driver = UvmDriver::try_new(cfg.clone(), workload.footprint_pages, policy)?;
        let pages = workload.footprint_pages as usize;
        let gpus: Vec<GpuFrontend> = workload
            .streams
            .into_iter()
            .zip(workload.barriers)
            .map(|(s, b)| GpuFrontend::new(&cfg, s, b, pages))
            .collect();
        Ok(Simulation {
            gpus,
            driver,
            attrs: PageAttrTracker::with_pages(pages),
            scheme_mix: SchemeMix::default(),
            accesses: 0,
            local_accesses: 0,
            remote_accesses: 0,
            footprint_pages: workload.footprint_pages,
            observer_cfg: ObserverConfig::default(),
            obs_page_by_gpu: None,
            obs_page_rw: None,
            obs_grid_ps: None,
            obs_grid_rw: None,
            obs_scheme_timeline: None,
            cancel: CancelToken::new(),
            sim_threads: 1,
            cfg,
        })
    }

    /// Enables time-series instrumentation (builder-internal; external
    /// callers configure this through [`SimulationBuilder::observer`]).
    fn set_observer(&mut self, cfg: ObserverConfig) {
        if cfg.track_page.is_some() {
            let interval = cfg.interval_cycles.max(1);
            self.obs_page_by_gpu = Some(IntervalSeries::new(interval, self.cfg.num_gpus));
            self.obs_page_rw = Some(IntervalSeries::new(interval, 2));
        }
        if cfg.grid_page_bins > 0 {
            self.obs_grid_ps = Some(AttrGrid::new(cfg.grid_intervals, cfg.grid_page_bins));
            self.obs_grid_rw = Some(AttrGrid::new(cfg.grid_intervals, cfg.grid_page_bins));
        }
        if cfg.scheme_timeline {
            self.obs_scheme_timeline = Some(IntervalSeries::new(cfg.interval_cycles.max(1), 3));
        }
        self.observer_cfg = cfg;
    }

    /// The active policy's name.
    pub fn policy_name(&self) -> String {
        self.driver.policy_name()
    }

    /// Runs the workload to completion and collects all metrics,
    /// reporting failures as values.
    ///
    /// The cancellation token installed via [`SimulationBuilder::cancel`]
    /// is polled every 4096 processed accesses (and before the first), so
    /// a raised abort flag or an expired wall-clock budget stops the run
    /// within a bounded amount of simulated work — including a zero
    /// budget, which fires before any access is replayed.
    ///
    /// # Errors
    ///
    /// [`CellError::TimedOut`] (with partial progress counters) when the
    /// budget expires, [`CellError::Cancelled`] when the shared abort flag
    /// is raised, and [`CellError::Invariant`] when post-run VM-state
    /// checks fail.
    pub fn try_run(mut self) -> Result<RunOutput, GritError> {
        let threads = self.sim_threads.clamp(1, self.gpus.len().max(1));
        if threads > 1 {
            return self.try_run_sharded(threads);
        }
        let cancel_active = self.cancel.is_active();
        loop {
            if cancel_active && self.accesses & 0xFFF == 0 {
                self.poll_cancel()?;
            }
            match self.serial_step()? {
                StepOutcome::Progress => {}
                StepOutcome::AllFinished => break,
            }
        }
        self.finish()
    }

    /// Raises the installed cancellation token's state as an error.
    fn poll_cancel(&self) -> Result<(), GritError> {
        match self.cancel.poll() {
            CancelState::Running => Ok(()),
            CancelState::Cancelled => Err(CellError::Cancelled.into()),
            CancelState::TimedOut => {
                let cycles = self.gpus.iter().map(|g| g.last_done).max().unwrap_or(0);
                Err(CellError::TimedOut {
                    budget_seconds: self.cancel.budget_seconds(),
                    cycles,
                    accesses: self.accesses,
                }
                .into())
            }
        }
    }

    /// One iteration of the serial event loop: pick the GPU with the
    /// smallest `(ready, index)` key and handle its next event.
    fn serial_step(&mut self) -> Result<StepOutcome, GritError> {
        let Some(g) = self.next_gpu() else {
            if self.gpus.iter().all(|g| g.finished) {
                return Ok(StepOutcome::AllFinished);
            }
            // Every unfinished GPU sits at the barrier: synchronize
            // the node at the slowest GPU's drain point.
            self.release_barrier();
            return Ok(StepOutcome::Progress);
        };
        if let Some(out) = self.driver.maybe_run_epoch(self.gpus[g].ready) {
            self.apply_outcome(g, &out);
        }
        if self.gpus[g].at_barrier() {
            self.gpus[g].waiting = true;
            return Ok(StepOutcome::Progress);
        }
        match self.gpus[g].stream.next_access() {
            Some(acc) => {
                self.gpus[g].consumed += 1;
                self.process(g, acc)?;
            }
            None => {
                let drained = self.gpus[g].window.drain_time();
                self.gpus[g].last_done = self.gpus[g].last_done.max(drained);
                self.gpus[g].finished = true;
            }
        }
        Ok(StepOutcome::Progress)
    }

    /// The time-sharded engine: optimistic round-based speculation with
    /// undo-log rollback and canonical-order commit.
    ///
    /// Spawns a persistent worker pool (threads live for the whole run;
    /// each round is a publish/handshake on [`ShardSync`], not a thread
    /// spawn), runs the round loop, then shuts the pool down — on success,
    /// error, and panic alike (workers parked in a dead pool would hang
    /// the scope's implicit join).
    fn try_run_sharded(mut self, threads: usize) -> Result<RunOutput, GritError> {
        let n = self.gpus.len();
        let chunk = n.div_ceil(threads);
        let lat = self.cfg.lat;
        let sync = &ShardSync::new(threads - 1);
        std::thread::scope(|scope| {
            let mut workers = Vec::with_capacity(threads - 1);
            for w in 1..threads {
                let range = (w * chunk).min(n)..((w + 1) * chunk).min(n);
                let handle = scope.spawn(move || shard_worker(sync, w, range, lat));
                workers.push(handle.thread().clone());
            }
            /// Shuts the pool down on drop, so a panic unwinding out of
            /// the round loop still releases parked workers.
            struct Shutdown<'a> {
                sync: &'a ShardSync,
                workers: &'a [std::thread::Thread],
            }
            impl Drop for Shutdown<'_> {
                fn drop(&mut self) {
                    self.sync.shutdown.store(true, Ordering::Release);
                    self.sync.seq.fetch_add(1, Ordering::Release);
                    for t in self.workers {
                        t.unpark();
                    }
                }
            }
            let rounds = {
                let _shutdown = Shutdown {
                    sync,
                    workers: &workers,
                };
                self.sharded_rounds(sync, &workers, chunk)
            };
            rounds?;
            self.finish()
        })
    }

    /// The round loop of the sharded engine.
    ///
    /// Each round freezes the driver, speculatively advances every
    /// runnable GPU in parallel through its purely GPU-local accesses up
    /// to a horizon (`lookahead_bound × window_scale` past the earliest
    /// runnable cycle), then:
    ///
    /// 1. finds the *cut* — the earliest blocked serial event by
    ///    `(cycle, gpu)` key;
    /// 2. rolls any GPU that speculated past the cut back to the cut by
    ///    reversing its undo log;
    /// 3. commits every surviving logged access in the exact order the
    ///    serial engine replays them (sorted by pop key, stable per GPU),
    ///    applying their global side effects;
    /// 4. executes the cut event itself through the unchanged serial path.
    ///
    /// The committed event sequence is therefore the canonical serial
    /// prefix regardless of thread count or round structure, which is what
    /// makes the output byte-identical to the serial engine.
    fn sharded_rounds(
        &mut self,
        sync: &ShardSync,
        workers: &[std::thread::Thread],
        chunk: usize,
    ) -> Result<(), GritError> {
        /// Upper bound on the adaptive horizon multiplier.
        const MAX_WINDOW_SCALE: Cycle = 1 << 10;
        /// Serial steps batched when a round commits nothing (fault- or
        /// barrier-dominated phases), amortizing the round overhead.
        const SERIAL_BURST: usize = 256;
        let cancel_active = self.cancel.is_active();
        let mut slots: Vec<RoundSlot> =
            (0..self.gpus.len()).map(|_| RoundSlot::default()).collect();
        let mut merged: Vec<(usize, PureEntry)> = Vec::new();
        let lookahead = self.driver.lookahead_bound();
        let mut window_scale: Cycle = 1;
        // Always-on speculation telemetry: plain counter bumps per round,
        // recorded into `grit-prof` at the end if profiling is enabled.
        let mut spec = SpecStats {
            per_gpu_committed: vec![0; self.gpus.len()],
            ..SpecStats::default()
        };
        'rounds: loop {
            if cancel_active {
                self.poll_cancel()?;
            }
            if self.gpus.iter().all(|g| g.finished) {
                break;
            }
            if self.gpus.iter().all(|g| g.finished || g.waiting) {
                self.release_barrier();
                continue;
            }
            let base = self
                .gpus
                .iter()
                .filter(|g| !g.finished && !g.waiting)
                .map(|g| g.ready)
                .min()
                .expect("a runnable GPU exists");
            let horizon = base.saturating_add(lookahead.saturating_mul(window_scale));
            self.speculate_round(sync, workers, chunk, &mut slots, horizon);
            let speculated: usize = slots.iter().map(|s| s.log.len()).sum();
            spec.rounds += 1;
            spec.speculated += speculated as u64;
            let cut: Option<(Cycle, usize)> = {
                let _prof = span(Phase::SpecClassify);
                slots.iter().enumerate().filter_map(|(g, s)| s.serial_at.map(|c| (c, g))).min()
            };
            // A runnable shard with no serial stop and no finish ran out of
            // horizon, not out of pure work: the lookahead bound stalled it.
            for (g, s) in slots.iter().enumerate() {
                let f = &self.gpus[g];
                if s.serial_at.is_none()
                    && s.finished_at.is_none()
                    && !f.finished
                    && !f.waiting
                    && f.ready >= horizon
                {
                    spec.horizon_stalls += 1;
                    spec.horizon_stall_cycles += f.ready - horizon;
                }
            }
            if let Some(cut_key) = cut {
                spec.rewound += slots
                    .iter()
                    .enumerate()
                    .filter(|(g, s)| {
                        s.log.last().is_some_and(|e| (e.ready, *g) >= cut_key)
                            || s.finished_at.is_some_and(|c| (c, *g) >= cut_key)
                    })
                    .count() as u64;
                let _prof = span(Phase::SpecRollback);
                self.rewind_overruns(&mut slots, cut_key);
            }
            // Canonical merge: per-GPU logs are in execution order with
            // non-decreasing keys, and the serial pop sequence is exactly
            // the key-sorted interleaving (stable within a GPU).
            let committed = {
                let _prof = span(Phase::SpecClassify);
                merged.clear();
                for (g, slot) in slots.iter_mut().enumerate() {
                    merged.extend(slot.log.drain(..).map(|e| (g, e)));
                }
                merged.sort_by_key(|(g, e)| (e.ready, *g));
                merged.len()
            };
            spec.committed += committed as u64;
            {
                let _prof = span(Phase::SpecCommit);
                for (g, e) in &merged {
                    spec.per_gpu_committed[*g] += 1;
                    self.commit_entry(*g, e);
                }
            }
            if cut.is_some() {
                // The blocked event runs through the unchanged serial
                // path: fault, collapse, remote fetch, epoch, barrier.
                match self.serial_step()? {
                    StepOutcome::Progress => {}
                    StepOutcome::AllFinished => break,
                }
                if committed == 0 {
                    // Nothing speculates past this point cheaply; degrade
                    // to a bounded serial burst instead of paying a round
                    // barrier per single event.
                    window_scale = 1;
                    for _ in 0..SERIAL_BURST {
                        spec.serial += 1;
                        match self.serial_step()? {
                            StepOutcome::Progress => {}
                            StepOutcome::AllFinished => break 'rounds,
                        }
                    }
                } else if speculated > 2 * committed {
                    // Most of the horizon was thrown away at the cut:
                    // narrow it so speculation tracks the commit rate.
                    window_scale = (window_scale / 2).max(1);
                }
            } else {
                // Full horizon committed: widen the window to amortize
                // round barriers over more work.
                window_scale = (window_scale * 2).min(MAX_WINDOW_SCALE);
            }
        }
        if grit_prof::enabled() {
            grit_prof::record_spec(&spec);
        }
        Ok(())
    }

    /// The parallel phase of one round: the pool workers advance their GPU
    /// chunks against the frozen driver view up to `horizon` while the
    /// conductor doubles as worker zero on the first chunk.
    ///
    /// Per-GPU results depend only on that GPU's state and the shared
    /// frozen view, so slot contents are independent of the thread count
    /// and chunk assignment.
    ///
    /// Publishes fresh pointers every round (the `gpus` and `slots`
    /// allocations are stable, but the view is a per-round stack value)
    /// and returns only after every worker's `Acquire` handshake, at which
    /// point no other thread holds any of them.
    fn speculate_round(
        &mut self,
        sync: &ShardSync,
        workers: &[std::thread::Thread],
        chunk: usize,
        slots: &mut [RoundSlot],
        horizon: Cycle,
    ) {
        let n = self.gpus.len();
        let view = self.driver.view();
        let lat = self.cfg.lat;
        let seq = sync.seq.load(Ordering::Relaxed) + 1;
        sync.bound.store(horizon, Ordering::Relaxed);
        sync.gpus.store(self.gpus.as_mut_ptr(), Ordering::Relaxed);
        sync.slots.store(slots.as_mut_ptr(), Ordering::Relaxed);
        sync.view.store(
            std::ptr::from_ref(&view).cast::<()>().cast_mut(),
            Ordering::Relaxed,
        );
        sync.seq.store(seq, Ordering::Release);
        for t in workers {
            t.unpark();
        }
        // The conductor's own chunk, through the published pointers (the
        // worker chunks hold live references derived from them, so the
        // arrays must not be re-borrowed directly until the handshake).
        let gpus_ptr = sync.gpus.load(Ordering::Relaxed);
        let slots_ptr = sync.slots.load(Ordering::Relaxed);
        let prof_exec = span(Phase::SpecExecute);
        for g in 0..chunk.min(n) {
            // SAFETY: same disjointness argument as in `shard_worker`; the
            // conductor owns chunk zero for the duration of the round.
            let f = unsafe { &mut *gpus_ptr.add(g) };
            let slot = unsafe { &mut *slots_ptr.add(g) };
            advance_frontend(g, f, &view, &lat, (horizon, 0), slot);
        }
        drop(prof_exec);
        for d in &sync.done {
            let mut spins = 0u32;
            while d.load(Ordering::Acquire) != seq {
                spins += 1;
                if spins < 1 << 10 {
                    std::hint::spin_loop();
                } else {
                    std::thread::yield_now();
                }
            }
        }
        if sync.poisoned.load(Ordering::Acquire) {
            panic!("sharded speculation worker panicked");
        }
    }

    /// Rolls every GPU that speculated to or past the cut back to the cut
    /// by reversing its undo log (cost proportional to the overrun, not to
    /// the frontend state size).
    fn rewind_overruns(&mut self, slots: &mut [RoundSlot], cut: (Cycle, usize)) {
        for (g, slot) in slots.iter_mut().enumerate() {
            let overran = slot.log.last().is_some_and(|e| (e.ready, g) >= cut)
                || slot.finished_at.is_some_and(|c| (c, g) >= cut);
            if overran {
                rollback_to_cut(g, &mut self.gpus[g], slot, cut);
            }
        }
    }

    /// Applies the deferred global side effects of one committed pure
    /// access — the exact shared-state mutations [`Simulation::process`]
    /// performs inline, in the same within-access order.
    fn commit_entry(&mut self, g: usize, e: &PureEntry) {
        let gpu = GpuId::new(g as u8);
        self.accesses += 1;
        self.attrs.record(gpu, e.vpn, e.kind);
        self.observe(e.t0, g, e.vpn, e.kind.is_write());
        if self.driver.wants_access_feed() {
            self.driver.feed_access(e.t0, gpu, e.vpn, e.kind);
        }
        if e.walked {
            let scheme = self.driver.scheme_of(e.vpn);
            self.scheme_mix.record(scheme);
            if let Some(series) = &mut self.obs_scheme_timeline {
                let bucket = match scheme {
                    grit_sim::Scheme::OnTouch => 0,
                    grit_sim::Scheme::AccessCounter => 1,
                    grit_sim::Scheme::Duplication => 2,
                };
                series.record(e.t0, bucket);
            }
            self.driver.charge(LatencyClass::Local, e.walk_cycles);
        }
        if e.local_miss {
            self.driver.commit_local_touch(gpu, e.vpn, e.kind.is_write());
            self.local_accesses += 1;
        }
    }

    /// The runnable GPU with the smallest `(ready, index)` key: ties go to
    /// the lowest index; waiting and finished GPUs are skipped. A scan
    /// over the handful of frontends reads each GPU's current ready
    /// cycle, so stalls placed on peers need no bookkeeping.
    fn next_gpu(&self) -> Option<usize> {
        let mut best: Option<(Cycle, usize)> = None;
        for (g, f) in self.gpus.iter().enumerate() {
            if !f.finished && !f.waiting && best.is_none_or(|(ready, _)| f.ready < ready) {
                best = Some((f.ready, g));
            }
        }
        best.map(|(_, g)| g)
    }

    /// Releases all GPUs held at a kernel boundary once everyone arrived:
    /// the next kernel launches after the slowest GPU drained its window.
    fn release_barrier(&mut self) {
        let mut sync = 0;
        for g in &mut self.gpus {
            let t = if g.finished {
                g.last_done
            } else {
                g.ready.max(g.window.drain_time())
            };
            sync = sync.max(t);
        }
        for g in &mut self.gpus {
            if g.waiting {
                g.waiting = false;
                g.next_barrier += 1;
                g.ready = sync;
                g.last_done = g.last_done.max(sync);
            }
        }
    }

    fn process(&mut self, g: usize, acc: Access) -> Result<(), GritError> {
        let gpu = GpuId::new(g as u8);
        let vpn = acc.vpn;
        let issue_base = self.gpus[g].ready + acc.think as Cycle;
        let t0 = self.gpus[g].window.issue_at(issue_base);
        self.gpus[g].ready = t0;

        self.accesses += 1;
        self.attrs.record(gpu, vpn, acc.kind);
        self.observe(t0, g, vpn, acc.is_write());
        if self.driver.wants_access_feed() {
            self.driver.feed_access(t0, gpu, vpn, acc.kind);
        }

        // Address translation. A coalesced frame owned by this GPU
        // translates through the 2 MB hierarchy under the frame-base key
        // (mirroring `advance_pure`); everything else through the
        // base-page TLBs.
        let large_key = match self.gpus[g].tlb_2m {
            Some(_) => self.driver.large_translation(gpu, vpn),
            None => None,
        };
        let (level, tlb_lat, mut mapping) = {
            let _prof = span(Phase::Translate);
            let (level, tlb_lat) = match (large_key, self.gpus[g].tlb_2m.as_mut()) {
                (Some(base), Some(t2)) => t2.translate(base),
                _ => self.gpus[g].tlb.translate(vpn),
            };
            (level, tlb_lat, self.driver.translate(gpu, vpn))
        };
        let mut t = t0 + tlb_lat;
        if level == TranslationLevel::Walk || mapping.is_none() {
            if level == TranslationLevel::Walk {
                let scheme = self.driver.scheme_of(vpn);
                self.scheme_mix.record(scheme);
                if let Some(series) = &mut self.obs_scheme_timeline {
                    let bucket = match scheme {
                        grit_sim::Scheme::OnTouch => 0,
                        grit_sim::Scheme::AccessCounter => 1,
                        grit_sim::Scheme::Duplication => 2,
                    };
                    series.record(t0, bucket);
                }
            }
            let walk = {
                let _prof = span(Phase::Translate);
                self.gpus[g].walker.walk(t, vpn)
            };
            self.driver.charge(LatencyClass::Local, walk.done_at - t);
            t = walk.done_at;
            if mapping.is_none() {
                let out = self.driver.handle_fault(FaultInfo {
                    now: t,
                    gpu,
                    vpn,
                    kind: acc.kind,
                    fault: FaultKind::Local,
                });
                t = t.max(out.done_at);
                self.apply_outcome(g, &out);
                // The outcome carries the mapping the mechanism installed,
                // saving a second page-table lookup on the walk path.
                mapping = out.mapping;
            }
            self.tlb_fill(g, vpn);
        }
        let mut mapping = mapping.ok_or_else(|| {
            GritError::Cell(CellError::Invariant(
                "fault handling must establish a mapping".into(),
            ))
        })?;

        // Writes to read-only replicas: protection fault (collapse) or GPS
        // store broadcast.
        if acc.is_write() && mapping == Mapping::Replica {
            if self.driver.write_mode() == WriteMode::Broadcast {
                let done = self.driver.broadcast_store(t, gpu, vpn);
                self.local_accesses += 1;
                self.complete(g, done);
                return Ok(());
            }
            let out = self.driver.handle_fault(FaultInfo {
                now: t,
                gpu,
                vpn,
                kind: acc.kind,
                fault: FaultKind::Protection,
            });
            t = t.max(out.done_at);
            self.apply_outcome(g, &out);
            self.tlb_fill(g, vpn);
            mapping = out.mapping.ok_or_else(|| {
                GritError::Cell(CellError::Invariant(
                    "collapse must leave the writer mapped".into(),
                ))
            })?;
        }

        // Data access through the cache hierarchy. Each level is probed
        // and, on a miss, filled in one scan of its set. Nothing below
        // touches this GPU's data caches (an invalidation only bumps the
        // page's line generation), so filling before the driver calls
        // leaves the caches as filling after them would.
        let f = &mut self.gpus[g];
        let key = f.line_key(vpn, acc.line);
        if f.l1.get_or_fill(key, || Some(())) {
            t += self.cfg.lat.l1_data_hit;
        } else if f.l2.get_or_fill(key, || Some(())) {
            t += self.cfg.lat.l2_data_hit;
        } else {
            match mapping {
                Mapping::Local | Mapping::Replica => {
                    t = self.driver.local_line_access(t, gpu, vpn);
                    if acc.is_write() {
                        self.driver.mark_page_dirty(gpu, vpn);
                    }
                    self.local_accesses += 1;
                }
                Mapping::Remote(_) | Mapping::RemoteHost => {
                    let owner = match mapping {
                        Mapping::Remote(o) => MemLoc::Gpu(o),
                        _ => MemLoc::Host,
                    };
                    t = self.driver.remote_line_access(t, gpu, owner);
                    self.remote_accesses += 1;
                    if let Some(out) = self.driver.record_remote_access(t, gpu, vpn) {
                        // The counter-triggered migration proceeds in the
                        // background; this access already completed
                        // remotely, but the system-wide side effects apply.
                        self.apply_outcome(g, &out);
                    }
                }
            }
        }
        self.complete(g, t);
        Ok(())
    }

    fn complete(&mut self, g: usize, done: Cycle) {
        self.gpus[g].window.complete(done);
        self.gpus[g].last_done = self.gpus[g].last_done.max(done);
    }

    /// Fills the right TLB for `gpu`'s fresh translation of `vpn`: the
    /// 2 MB hierarchy under the frame key when the GPU owns a coalesced
    /// frame over the page (fault handling may just have coalesced or
    /// splintered it), the base hierarchy otherwise.
    fn tlb_fill(&mut self, g: usize, vpn: PageId) {
        let key = match self.gpus[g].tlb_2m {
            Some(_) => self.driver.large_translation(GpuId::new(g as u8), vpn),
            None => None,
        };
        let f = &mut self.gpus[g];
        match (key, f.tlb_2m.as_mut()) {
            (Some(base), Some(t2)) => t2.fill(base),
            _ => f.tlb.fill(vpn),
        }
    }

    fn apply_outcome(&mut self, _faulting: usize, out: &DriverOutcome) {
        for &(gpu, until) in &out.stalls {
            let f = &mut self.gpus[gpu.index()];
            f.ready = f.ready.max(until);
        }
        for &(gpu, vpn) in &out.invalidated {
            self.gpus[gpu.index()].invalidate_page(vpn);
        }
        for &(gpu, frame) in &out.splintered {
            self.gpus[gpu.index()].invalidate_large(frame);
        }
    }

    fn observe(&mut self, now: Cycle, g: usize, vpn: PageId, write: bool) {
        if self.observer_cfg.track_page == Some(vpn) {
            if let Some(s) = &mut self.obs_page_by_gpu {
                s.record(now, g);
            }
            if let Some(s) = &mut self.obs_page_rw {
                s.record(now, usize::from(write));
            }
        }
        if let Some(grid) = &mut self.obs_grid_ps {
            let interval = ((now / self.observer_cfg.interval_cycles.max(1)) as usize).min(49);
            let bin = (vpn.vpn() as usize * self.observer_cfg.grid_page_bins
                / self.footprint_pages.max(1) as usize)
                .min(self.observer_cfg.grid_page_bins - 1);
            let ps_code = if self.attrs.is_shared(vpn) { 2 } else { 1 };
            grid.mark(interval, bin, ps_code);
            if let Some(rw) = &mut self.obs_grid_rw {
                let rw_code = if self.attrs.is_written(vpn) { 2 } else { 1 };
                rw.mark(interval, bin, rw_code);
            }
        }
    }

    fn finish(self) -> Result<RunOutput, GritError> {
        // The Ideal upper bound deliberately fakes local mappings on every
        // GPU; its state is exempt from the consistency invariants.
        if !self.driver.is_ideal() {
            if let Err(e) = self.driver.check_invariants() {
                return Err(GritError::Cell(CellError::Invariant(format!(
                    "VM state invariant violated after run: {e}"
                ))));
            }
        }
        let total_cycles = self.gpus.iter().map(|g| g.last_done).max().unwrap_or(0);
        let fabric = self.driver.fabric_stats();
        let per_gpu_finish: Vec<f64> = self.gpus.iter().map(|g| g.last_done as f64).collect();
        let per_gpu_accesses: Vec<f64> = self.gpus.iter().map(|g| g.consumed as f64).collect();
        let mut metrics = RunMetrics {
            total_cycles,
            accesses: self.accesses,
            local_accesses: self.local_accesses,
            remote_accesses: self.remote_accesses,
            breakdown: self.driver.breakdown(),
            faults: self.driver.fault_counters(),
            scheme_mix: self.scheme_mix,
            // GPU-side wire bytes across every class, so the headline
            // column stays comparable between topologies (identical to
            // plain NVLink bytes on the default all-to-all).
            nvlink_bytes: fabric.wire_bytes(),
            pcie_bytes: fabric.pcie_bytes,
            oversubscription_rate: self.driver.oversubscription_rate(),
            aux: HashMap::new(),
        };
        metrics.set_aux("per_gpu_finish_cycles", per_gpu_finish);
        metrics.set_aux("per_gpu_accesses", per_gpu_accesses);
        // Per-class fabric traffic (class order: nvlink, switch,
        // inter-node, pcie) — the source of the report's `fabric` object.
        metrics.set_aux(
            "fabric_class_bytes",
            vec![
                fabric.nvlink_bytes as f64,
                fabric.switch_bytes as f64,
                fabric.inter_node_bytes as f64,
                fabric.pcie_bytes as f64,
            ],
        );
        metrics.set_aux(
            "fabric_queue_cycles",
            vec![
                fabric.nvlink_queue_cycles as f64,
                fabric.switch_queue_cycles as f64,
                fabric.inter_node_queue_cycles as f64,
                fabric.pcie_queue_cycles as f64,
            ],
        );
        metrics.set_aux(
            "per_gpu_faults",
            self.driver.faults_per_gpu().iter().map(|&f| f as f64).collect(),
        );
        // Fault-injection outcomes (the report's `resilience` object);
        // only injected runs carry the series, so uninjected reports are
        // byte-identical to pre-injection ones.
        if self.driver.injection_active() {
            metrics.set_aux(
                "resilience_counters",
                self.driver.resilience_counters().as_aux(),
            );
        }
        let h = self.driver.fault_latency();
        metrics.set_aux(
            "fault_latency_summary",
            vec![
                h.samples() as f64,
                h.mean(),
                h.percentile(0.5) as f64,
                h.percentile(0.99) as f64,
                h.max() as f64,
            ],
        );
        let (l1_rates, l2_rates): (Vec<f64>, Vec<f64>) = self
            .gpus
            .iter()
            .map(|g| {
                let (l1, l2) = g.tlb.level_stats();
                (l1.hit_rate(), l2.hit_rate())
            })
            .unzip();
        metrics.set_aux("tlb_l1_hit_rate", l1_rates);
        metrics.set_aux("tlb_l2_hit_rate", l2_rates);
        // Multi-page-size telemetry; only large-page runs carry the
        // series, so uniform-4 KB outputs stay byte-identical.
        if self.driver.large_pages_active() {
            metrics.set_aux("pagesize_counters", self.driver.pagesize_series());
            let (l1_2m, l2_2m): (Vec<f64>, Vec<f64>) = self
                .gpus
                .iter()
                .map(|g| {
                    let t2 = g.tlb_2m.as_ref().expect("large-page mode allocates 2 MB TLBs");
                    let (l1, l2) = t2.level_stats();
                    (l1.hit_rate(), l2.hit_rate())
                })
                .unzip();
            metrics.set_aux("tlb_l1_hit_rate_2m", l1_2m);
            metrics.set_aux("tlb_l2_hit_rate_2m", l2_2m);
        }
        // Cycle-domain profiling series. Always recorded (the sources sit
        // on rare paths), and byte-identical at any `sim_threads`: the
        // histograms live behind the driver, which only ever runs in
        // canonical serial order, and the MLP stall counter undoes its
        // speculative contributions on rollback.
        metrics.set_aux(
            "prof_fault_occupancy_hist",
            hist_aux(self.driver.fault_occupancy()),
        );
        metrics.set_aux(
            "prof_migration_latency_hist",
            hist_aux(self.driver.migration_latency()),
        );
        metrics.set_aux(
            "prof_fabric_queue_hist",
            hist_aux(self.driver.fabric_queue_wait()),
        );
        metrics.set_aux(
            "prof_mlp_stall_cycles",
            self.gpus.iter().map(|g| g.window.stall_cycles() as f64).collect(),
        );
        let any_observer = self.obs_page_by_gpu.is_some()
            || self.obs_grid_ps.is_some()
            || self.obs_scheme_timeline.is_some();
        let observer = any_observer.then(|| RunObserver {
            page_by_gpu: self.obs_page_by_gpu.unwrap_or_else(|| IntervalSeries::new(1, 1)),
            page_rw: self.obs_page_rw.unwrap_or_else(|| IntervalSeries::new(1, 2)),
            grid_private_shared: self.obs_grid_ps,
            grid_read_rw: self.obs_grid_rw,
            grid_interval_cycles: self.observer_cfg.interval_cycles,
            scheme_timeline: self.obs_scheme_timeline,
        });
        Ok(RunOutput {
            metrics,
            page_attrs: self.attrs.summary(),
            attrs: self.attrs,
            observer,
            timing: CellTiming::default(),
            events: None,
        })
    }
}

/// Flattens a latency histogram into a self-describing aux series:
/// `[samples, mean, max, lb0, c0, lb1, c1, ...]` over non-empty buckets
/// (`lb` = bucket lower bound in cycles, `c` = sample count).
fn hist_aux(h: &LatencyHistogram) -> Vec<f64> {
    let mut v = vec![h.samples() as f64, h.mean(), h.max() as f64];
    for (lb, c) in h.iter() {
        v.push(lb as f64);
        v.push(c as f64);
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use grit_sim::{AccessKind, Scheme};
    use grit_uvm::StaticPolicy;
    use grit_workloads::{App, MultiGpuWorkload, WorkloadBuilder};

    /// Hand-built two-GPU workload: explicit accesses and barriers.
    fn tiny_workload(
        per_gpu: Vec<Vec<Access>>,
        barriers: Vec<Vec<usize>>,
        pages: u64,
    ) -> MultiGpuWorkload {
        MultiGpuWorkload {
            app: App::Bfs,
            footprint_pages: pages,
            streams: per_gpu.into_iter().map(SliceStream::new).collect(),
            barriers,
        }
    }

    fn two_gpu_cfg() -> SimConfig {
        SimConfig {
            num_gpus: 2,
            ..SimConfig::default()
        }
    }

    fn run(w: MultiGpuWorkload, cfg: SimConfig) -> RunOutput {
        let policy = Box::new(StaticPolicy::new(Scheme::OnTouch));
        Simulation::try_new(cfg, w, policy).unwrap().try_run().unwrap()
    }

    /// A four-GPU simulation with one access queued per GPU, so every
    /// frontend starts runnable.
    fn four_gpu_sim() -> Simulation {
        let cfg = SimConfig {
            num_gpus: 4,
            ..SimConfig::default()
        };
        let w = tiny_workload(
            vec![vec![Access::read(PageId(1), 0)]; 4],
            vec![vec![]; 4],
            4,
        );
        let policy = Box::new(StaticPolicy::new(Scheme::OnTouch));
        Simulation::try_new(cfg, w, policy).unwrap()
    }

    #[test]
    fn scheduler_breaks_ready_ties_toward_the_lowest_gpu() {
        let mut sim = four_gpu_sim();
        assert_eq!(sim.next_gpu(), Some(0));
        for (g, ready) in [(0, 30), (1, 20), (2, 10), (3, 10)] {
            sim.gpus[g].ready = ready;
        }
        assert_eq!(sim.next_gpu(), Some(2));
        sim.gpus[2].ready = 11;
        assert_eq!(sim.next_gpu(), Some(3));
    }

    #[test]
    fn scheduler_honours_stalls_placed_on_peers() {
        let mut sim = four_gpu_sim();
        for (g, ready) in [(0, 10), (1, 12), (2, 50), (3, 50)] {
            sim.gpus[g].ready = ready;
        }
        // A driver operation on GPU 0 stalls GPU 1 past everyone else,
        // and leaves GPU 2 alone because its ready cycle is already later.
        let out = DriverOutcome {
            stalls: vec![(GpuId::new(1), 100), (GpuId::new(2), 40)],
            ..DriverOutcome::default()
        };
        sim.apply_outcome(0, &out);
        assert_eq!((sim.gpus[1].ready, sim.gpus[2].ready), (100, 50));
        sim.gpus[0].ready = 60;
        assert_eq!(sim.next_gpu(), Some(2));
        sim.gpus[2].ready = 200;
        sim.gpus[3].ready = 200;
        assert_eq!(sim.next_gpu(), Some(0));
        sim.gpus[0].ready = 150;
        assert_eq!(sim.next_gpu(), Some(1));
    }

    #[test]
    fn scheduler_skips_waiting_and_finished_gpus() {
        let mut sim = four_gpu_sim();
        for (g, ready) in [(0, 5), (1, 6), (2, 7), (3, 8)] {
            sim.gpus[g].ready = ready;
        }
        sim.gpus[0].waiting = true;
        sim.gpus[1].finished = true;
        assert_eq!(sim.next_gpu(), Some(2));
        sim.gpus[2].waiting = true;
        assert_eq!(sim.next_gpu(), Some(3));
        sim.gpus[3].finished = true;
        assert_eq!(sim.next_gpu(), None);
    }

    #[test]
    fn empty_streams_finish_at_zero_cost() {
        let w = tiny_workload(vec![vec![], vec![]], vec![vec![], vec![]], 4);
        let out = run(w, two_gpu_cfg());
        assert_eq!(out.metrics.accesses, 0);
        assert_eq!(out.metrics.total_cycles, 0);
    }

    #[test]
    fn single_access_faults_once_and_completes() {
        let w = tiny_workload(
            vec![vec![Access::read(PageId(1), 0)], vec![]],
            vec![vec![], vec![]],
            4,
        );
        let out = run(w, two_gpu_cfg());
        assert_eq!(out.metrics.accesses, 1);
        assert_eq!(out.metrics.faults.local_faults, 1);
        assert!(out.metrics.total_cycles > 0);
    }

    #[test]
    fn repeated_access_hits_tlb_and_cache() {
        let accesses = vec![Access::read(PageId(1), 0); 8];
        let w = tiny_workload(vec![accesses, vec![]], vec![vec![], vec![]], 4);
        let out = run(w, two_gpu_cfg());
        // One fault total: the other seven accesses hit the warm path.
        assert_eq!(out.metrics.faults.local_faults, 1);
        assert_eq!(
            out.metrics.local_accesses, 1,
            "later touches hit the L1/L2 cache"
        );
    }

    #[test]
    fn barriers_hold_the_fast_gpu() {
        // GPU0: one access, then a barrier, then another access.
        // GPU1: a long stream before its barrier.
        let long: Vec<Access> =
            (0..200).map(|i| Access::read(PageId(1 + (i % 3)), (i % 64) as u16)).collect();
        let w = tiny_workload(
            vec![
                vec![Access::read(PageId(0), 0), Access::read(PageId(0), 1)],
                long.clone(),
            ],
            vec![vec![1], vec![long.len()]],
            8,
        );
        let out = run(w, two_gpu_cfg());
        // GPU0's second access can only issue after GPU1 finished its
        // pre-barrier work, so the total run is bounded below by GPU1's
        // stream length in think cycles.
        assert!(out.metrics.total_cycles > 200 * 4);
    }

    #[test]
    fn empty_phase_barriers_pass_through() {
        // Both GPUs carry two consecutive barriers at the same position
        // (an empty phase, e.g. a kernel run by neither GPU).
        let w = tiny_workload(
            vec![
                vec![Access::read(PageId(0), 0), Access::read(PageId(1), 0)],
                vec![Access::read(PageId(2), 0), Access::read(PageId(3), 0)],
            ],
            vec![vec![1, 1], vec![1, 1]],
            8,
        );
        let out = run(w, two_gpu_cfg());
        assert_eq!(out.metrics.accesses, 4);
    }

    #[test]
    fn protection_fault_on_replica_write() {
        let mut cfg = two_gpu_cfg();
        cfg.num_gpus = 2;
        let w = tiny_workload(
            vec![
                // GPU0 reads (becomes owner via first-touch migration
                // under duplication policy), then GPU1 reads (replica)
                // and writes (protection fault -> collapse).
                vec![Access::read(PageId(1), 0)],
                vec![
                    Access::read(PageId(1), 1).with_think(50_000),
                    Access::write(PageId(1), 2).with_think(50_000),
                ],
            ],
            vec![vec![], vec![]],
            4,
        );
        let policy = Box::new(StaticPolicy::new(Scheme::Duplication));
        let out = Simulation::try_new(cfg, w, policy).unwrap().try_run().unwrap();
        assert_eq!(out.metrics.faults.protection_faults, 1);
        assert_eq!(out.metrics.faults.collapses, 1);
    }

    #[test]
    fn observer_tracks_only_the_requested_page() {
        let w = tiny_workload(
            vec![
                vec![Access::read(PageId(1), 0), Access::read(PageId(2), 0)],
                vec![Access::read(PageId(1), 1)],
            ],
            vec![vec![], vec![]],
            4,
        );
        let policy = Box::new(StaticPolicy::new(Scheme::OnTouch));
        let sim = SimulationBuilder::new(two_gpu_cfg(), w, policy)
            .observer(ObserverConfig::tracking(PageId(1)))
            .build()
            .unwrap();
        let out = sim.try_run().unwrap();
        let obs = out.observer.expect("observer configured");
        let total: u64 = obs.page_by_gpu.iter().map(|(_, r)| r.iter().sum::<u64>()).sum();
        assert_eq!(total, 2, "only page 1's two accesses are recorded");
    }

    #[test]
    fn line_key_generation_isolates_invalidated_pages() {
        let cfg = SimConfig::default();
        let mut f = GpuFrontend::new(&cfg, SliceStream::new(vec![]), vec![], 0);
        let k1 = f.line_key(PageId(7), 3);
        f.invalidate_page(PageId(7));
        let k2 = f.line_key(PageId(7), 3);
        assert_ne!(k1, k2, "invalidation must retire cached lines");
        assert_eq!(k1.vpn, k2.vpn);
    }

    #[test]
    fn generated_workload_runs_with_matching_gpu_count() {
        let cfg = SimConfig::with_gpus(8);
        let w = WorkloadBuilder::new(App::Gemm).num_gpus(8).scale(0.02).build();
        let policy = Box::new(StaticPolicy::new(Scheme::OnTouch));
        let out = Simulation::try_new(cfg, w, policy).unwrap().try_run().unwrap();
        assert!(out.metrics.total_cycles > 0);
        let finish = out.metrics.aux("per_gpu_finish_cycles").unwrap();
        assert_eq!(finish.len(), 8);
        assert!(finish.iter().all(|&t| t > 0.0));
    }

    #[test]
    fn gpu_count_mismatch_rejected() {
        let w = WorkloadBuilder::new(App::Gemm).num_gpus(2).scale(0.02).build();
        let policy = Box::new(StaticPolicy::new(Scheme::OnTouch));
        let err = match Simulation::try_new(SimConfig::default(), w, policy) {
            Err(e) => e,
            Ok(_) => panic!("mismatched GPU count must be rejected"),
        };
        assert_eq!(err.field, "workload");
        assert!(err.to_string().contains("GPU count must match"));
    }

    #[test]
    fn zero_budget_run_times_out_with_partial_counters() {
        let w = tiny_workload(
            vec![vec![Access::read(PageId(1), 0)], vec![]],
            vec![vec![], vec![]],
            4,
        );
        let policy = Box::new(StaticPolicy::new(Scheme::OnTouch));
        let sim = SimulationBuilder::new(two_gpu_cfg(), w, policy)
            .cancel(CancelToken::new().with_budget(std::time::Duration::ZERO))
            .build()
            .unwrap();
        match sim.try_run() {
            Err(GritError::Cell(CellError::TimedOut {
                budget_seconds,
                accesses,
                ..
            })) => {
                assert_eq!(budget_seconds, 0.0);
                assert_eq!(accesses, 0, "zero budget fires before the first access");
            }
            other => panic!("expected TimedOut, got {other:?}"),
        }
    }

    #[test]
    fn cancelled_token_aborts_run() {
        let w = tiny_workload(
            vec![vec![Access::read(PageId(1), 0)], vec![]],
            vec![vec![], vec![]],
            4,
        );
        let policy = Box::new(StaticPolicy::new(Scheme::OnTouch));
        let token = CancelToken::shared();
        token.cancel();
        let sim = SimulationBuilder::new(two_gpu_cfg(), w, policy).cancel(token).build().unwrap();
        assert!(matches!(
            sim.try_run(),
            Err(GritError::Cell(CellError::Cancelled))
        ));
    }

    /// Serial vs sharded digest over everything a run reports. The `aux`
    /// map is rendered with sorted keys: std `HashMap` iteration order is
    /// not stable across instances, and no consumer depends on it.
    fn digest(out: &RunOutput) -> String {
        let m = &out.metrics;
        let mut keys: Vec<&String> = m.aux.keys().collect();
        keys.sort();
        let aux: String = keys.iter().map(|k| format!("{k}={:?};", m.aux(k).unwrap())).collect();
        format!(
            "cycles={} acc={} local={} remote={} breakdown={:?} faults={:?} \
             mix={:?} nv={} pcie={} ovs={} aux[{aux}] attrs={:?} obs={:?}",
            m.total_cycles,
            m.accesses,
            m.local_accesses,
            m.remote_accesses,
            m.breakdown,
            m.faults,
            m.scheme_mix,
            m.nvlink_bytes,
            m.pcie_bytes,
            m.oversubscription_rate,
            out.page_attrs,
            out.observer,
        )
    }

    fn sharded_run(app: App, gpus: usize, threads: usize) -> RunOutput {
        let cfg = SimConfig::with_gpus(gpus);
        let w = WorkloadBuilder::new(app).num_gpus(gpus).scale(0.02).build();
        let policy = Box::new(StaticPolicy::new(Scheme::OnTouch));
        SimulationBuilder::new(cfg, w, policy)
            .sim_threads(threads)
            .observer(ObserverConfig::tracking(PageId(1)).with_grids(20))
            .build()
            .unwrap()
            .try_run()
            .unwrap()
    }

    #[test]
    fn sharded_run_is_byte_identical_to_serial() {
        for app in [App::Bfs, App::Gemm] {
            let serial = digest(&sharded_run(app, 4, 1));
            for threads in [2, 4, 8] {
                let sharded = digest(&sharded_run(app, 4, threads));
                assert_eq!(serial, sharded, "{app:?} diverges at sim_threads={threads}");
            }
        }
    }

    #[test]
    fn sharded_engine_respects_barriers_and_tiny_streams() {
        // The hand-built barrier workload from `barriers_hold_the_fast_gpu`
        // exercises barrier stops, finish rollbacks, and equal-key ties.
        let long: Vec<Access> =
            (0..200).map(|i| Access::read(PageId(1 + (i % 3)), (i % 64) as u16)).collect();
        let make = || {
            tiny_workload(
                vec![
                    vec![Access::read(PageId(0), 0), Access::read(PageId(0), 1)],
                    long.clone(),
                ],
                vec![vec![1], vec![long.len()]],
                8,
            )
        };
        let policy = || Box::new(StaticPolicy::new(Scheme::Duplication));
        let serial = digest(
            &SimulationBuilder::new(two_gpu_cfg(), make(), policy())
                .build()
                .unwrap()
                .try_run()
                .unwrap(),
        );
        let sharded = digest(
            &SimulationBuilder::new(two_gpu_cfg(), make(), policy())
                .sim_threads(2)
                .build()
                .unwrap()
                .try_run()
                .unwrap(),
        );
        assert_eq!(serial, sharded);
    }

    #[test]
    fn sharded_cancelled_token_aborts_run() {
        let w = tiny_workload(
            vec![vec![Access::read(PageId(1), 0)], vec![]],
            vec![vec![], vec![]],
            4,
        );
        let policy = Box::new(StaticPolicy::new(Scheme::OnTouch));
        let token = CancelToken::shared();
        token.cancel();
        let sim = SimulationBuilder::new(two_gpu_cfg(), w, policy)
            .sim_threads(2)
            .cancel(token)
            .build()
            .unwrap();
        assert!(matches!(
            sim.try_run(),
            Err(GritError::Cell(CellError::Cancelled))
        ));
    }

    #[test]
    fn writes_count_for_attrs_even_when_remote() {
        let w = tiny_workload(
            vec![
                vec![Access::write(PageId(1), 0)],
                vec![Access::write(PageId(1), 1).with_think(50_000)],
            ],
            vec![vec![], vec![]],
            4,
        );
        let out = run(w, two_gpu_cfg());
        assert_eq!(out.page_attrs.shared_read_write_pages, 1);
        assert_eq!(out.page_attrs.read_pages, 0);
    }

    #[test]
    fn kind_of_access_reaches_the_fault_path() {
        // A cold write must register as a write in the central table.
        let w = tiny_workload(
            vec![vec![Access::write(PageId(3), 0)], vec![]],
            vec![vec![], vec![]],
            4,
        );
        let policy = Box::new(StaticPolicy::new(Scheme::OnTouch));
        let out = Simulation::try_new(two_gpu_cfg(), w, policy).unwrap().try_run().unwrap();
        assert_eq!(out.metrics.faults.local_faults, 1);
        assert!(out.attrs.is_written(PageId(3)));
        let _ = AccessKind::Write; // silence unused import in some cfgs
    }
}
