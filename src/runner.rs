//! The full-system simulation: per-GPU frontends (trace stream, MLP window,
//! TLB hierarchy, page-walker pool, L2 data cache) around the UVM driver.
//!
//! The loop is a discrete-event replay: the GPU with the smallest
//! next-ready cycle issues its next access, so cross-GPU interactions —
//! migrations, invalidation broadcasts, write collapses, counter trips —
//! are globally ordered in simulated time.
//!
//! One cell runs on one thread; campaigns get their parallelism by
//! running independent cells side by side (`--jobs`). `DESIGN.md` §14
//! records why.

use std::collections::HashMap;

use grit_mem::{CacheKey, Mapping, SetAssocCache, TlbHierarchy, TranslationLevel, WalkerPool};
use grit_metrics::{
    AttrGrid, IntervalSeries, LatencyClass, LatencyHistogram, PageAttrSummary, PageAttrTracker,
    RunMetrics, SchemeMix,
};
use grit_prof::{span, Phase};
use grit_sim::{
    Access, AccessStream, CancelState, CancelToken, CellError, ConfigError, Cycle, GpuId,
    GritError, InjectConfig, MemLoc, MlpWindow, PageId, SimConfig, SliceStream, TopologyConfig,
};
use grit_trace::{CellTiming, TraceEvent, Tracer};
use grit_uvm::{
    DriverOutcome, FaultInfo, FaultKind, PlacementPolicy, Prefetcher, UvmDriver, WriteMode,
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
        }
    }

    /// Accepted for source compatibility and ignored: a simulation always
    /// runs its event loop on one thread.
    pub fn sim_threads(self, _n: usize) -> Self {
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
        let cancel_active = self.cancel.is_active();
        loop {
            if cancel_active && self.accesses & 0xFFF == 0 {
                self.poll_cancel()?;
            }
            // The GPU with the smallest `(ready, index)` key handles its
            // next event.
            let Some(g) = self.next_gpu() else {
                if self.gpus.iter().all(|g| g.finished) {
                    break;
                }
                // Every unfinished GPU sits at the barrier: synchronize
                // the node at the slowest GPU's drain point.
                self.release_barrier();
                continue;
            };
            if let Some(out) = self.driver.maybe_run_epoch(self.gpus[g].ready) {
                self.apply_outcome(g, &out);
            }
            if self.gpus[g].at_barrier() {
                self.gpus[g].waiting = true;
                continue;
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
        // translates through the 2 MB hierarchy under the frame-base key;
        // everything else through the base-page TLBs.
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
        // Cycle-domain profiling series. Always recorded: the sources sit
        // on rare paths.
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
