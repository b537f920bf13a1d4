//! Replay probes: per-call host cost of the layers that run inside
//! `Simulation::try_run`, measured by feeding a workload's own generated
//! access streams through each layer's public structures.
//!
//! A probe interleaves the GPU streams round-robin with a simple per-GPU
//! clock. It does not reproduce the engine's timing-dependent interleaving
//! (for BFS under on-touch a replay sees several times the engine's fault
//! count), so a probe gives a per-call cost on the workload's address
//! stream, not an attribution of `try_run` time. The exact engine work is
//! the counts taken from `RunOutput`.

use std::collections::HashSet;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use grit::experiments::result_store::ResultStore;
use grit::experiments::{workload_cache, CellSpec, PolicySpec};
use grit::RunOutput;
use grit_interconnect::Fabric;
use grit_mem::{GpuMemory, Mapping, SetAssocCache, TlbHierarchy, TranslationLevel, WalkerPool};
use grit_serve::{CellResult, Request, Response};
use grit_sim::{Access, GpuId, PageId};
use grit_trace::Json;
use grit_uvm::{CentralPageTable, FaultInfo, FaultKind, UvmDriver, WriteMode};
use grit_workloads::MultiGpuWorkload;

use crate::report::{Better, Metrics};

/// Accumulated host time and call count of one probed operation.
#[derive(Default, Clone, Copy)]
struct Cost {
    ns: f64,
    calls: u64,
}

impl Cost {
    fn add(&mut self, since: Instant, calls: u64) {
        self.ns += since.elapsed().as_nanos() as f64;
        self.calls += calls;
    }

    fn per_call(self, scale: f64) -> f64 {
        self.ns / self.calls.max(1) as f64 * scale
    }
}

/// Results of every probe over one workload.
#[derive(Default)]
pub struct Probes {
    tlb: Cost,
    walk: Cost,
    cache: Cost,
    dram: Cost,
    uvm_translate: Cost,
    uvm_fault: Cost,
    decision: Cost,
    transfer: Cost,
    save: Cost,
    load: Cost,
    wire: Cost,
    store_hits: u64,
    store_misses: u64,
}

/// Round-robin interleaving of a workload's per-GPU streams.
fn interleave(w: &MultiGpuWorkload) -> Vec<(usize, Access)> {
    let traces: Vec<_> = w.streams.iter().map(|s| s.shared()).collect();
    let longest = traces.iter().map(|t| t.len()).max().unwrap_or(0);
    let mut order = Vec::with_capacity(traces.iter().map(|t| t.len()).sum());
    for i in 0..longest {
        for (g, t) in traces.iter().enumerate() {
            if let Some(&a) = t.get(i) {
                order.push((g, a));
            }
        }
    }
    order
}

/// Advances GPU `g`'s probe clock past one access and returns it.
fn tick(now: &mut [u64], g: usize, acc: &Access) -> u64 {
    now[g] += u64::from(acc.think) + 1;
    now[g]
}

impl Probes {
    /// Runs every engine-layer probe over `cells` (workload traces from
    /// the shared cache, one memory-hierarchy replay per distinct trace,
    /// one driver/policy/fabric replay per cell).
    pub fn engine(cells: &[CellSpec]) -> Probes {
        let mut p = Probes::default();
        let mut seen = HashSet::new();
        for cell in cells {
            let w = workload_cache::shared_workload(cell.app, &cell.exp, &cell.cfg);
            let order = interleave(&w);
            if seen.insert((cell.app, cell.cfg.num_gpus)) {
                p.memory_hierarchy(cell, &w, &order);
            }
            p.driver(cell, &w, &order);
        }
        p
    }

    /// TLB hierarchy, page walkers, L1/L2 data caches and DRAM residency,
    /// each timed as its own replay loop.
    fn memory_hierarchy(
        &mut self,
        cell: &CellSpec,
        w: &MultiGpuWorkload,
        order: &[(usize, Access)],
    ) {
        let cfg = &cell.cfg;
        let n = cfg.num_gpus;
        let mut now = vec![0u64; n];
        let mut tlbs: Vec<_> = (0..n).map(|_| TlbHierarchy::new(cfg.l1_tlb, cfg.l2_tlb)).collect();
        let mut walks = Vec::new();
        let t = Instant::now();
        for (g, acc) in order {
            let at = tick(&mut now, *g, acc);
            let (level, _) = tlbs[*g].translate(acc.vpn);
            if level == TranslationLevel::Walk {
                tlbs[*g].fill(acc.vpn);
                walks.push((*g, at, acc.vpn));
            }
        }
        self.tlb.add(t, order.len() as u64);

        let mut walkers: Vec<_> = (0..n).map(|_| WalkerPool::new(cfg.walk)).collect();
        let t = Instant::now();
        let mut done = 0u64;
        for &(g, at, vpn) in &walks {
            done = done.wrapping_add(walkers[g].walk(at, vpn).done_at);
        }
        black_box(done);
        self.walk.add(t, walks.len() as u64);

        let new_cache = |geo: grit_sim::CacheGeometry| {
            SetAssocCache::<(PageId, u16), ()>::with_entries(geo.entries, geo.ways)
        };
        let mut l1: Vec<_> = (0..n).map(|_| new_cache(cfg.l1_cache)).collect();
        let mut l2: Vec<_> = (0..n).map(|_| new_cache(cfg.l2_cache)).collect();
        let mut misses = Vec::new();
        let t = Instant::now();
        for (g, acc) in order {
            let key = (acc.vpn, acc.line);
            if l1[*g].get(&key).is_some() {
                continue;
            }
            if l2[*g].get(&key).is_none() {
                l2[*g].insert(key, ());
                misses.push((*g, acc.vpn));
            }
            l1[*g].insert(key, ());
        }
        self.cache.add(t, order.len() as u64);

        let cap = ((w.footprint_pages as f64 * cfg.capacity_ratio).ceil() as usize).max(1);
        let mut mems: Vec<_> = (0..n).map(|_| GpuMemory::new(cap)).collect();
        let t = Instant::now();
        for &(g, vpn) in &misses {
            if !mems[g].touch(vpn) {
                black_box(mems[g].insert(vpn));
            }
        }
        self.dram.add(t, misses.len() as u64);
    }

    /// UVM driver translate/fault path with the cell's policy, then the
    /// policy's fault decisions and the fabric's GPU-to-GPU transfers on
    /// the fault sequence that replay produced.
    fn driver(&mut self, cell: &CellSpec, w: &MultiGpuWorkload, order: &[(usize, Access)]) {
        let PolicySpec::Kind(kind) = &cell.policy else {
            return;
        };
        let cfg = &cell.cfg;
        let n = cfg.num_gpus;
        let policy = kind.build(cfg, w.footprint_pages);
        let Ok(mut driver) = UvmDriver::try_new(cfg.clone(), w.footprint_pages, policy) else {
            return;
        };
        let mut now = vec![0u64; n];
        let mut faults = Vec::new();
        for (g, acc) in order {
            let at = tick(&mut now, *g, acc);
            let gpu = GpuId::new(*g as u8);
            if let Some(out) = driver.maybe_run_epoch(at) {
                now[*g] = now[*g].max(out.done_at);
            }
            let mut mapping = driver.translate(gpu, acc.vpn);
            let mut fault = |kind: FaultKind, at: u64, driver: &mut UvmDriver| {
                let info = FaultInfo {
                    now: at,
                    gpu,
                    vpn: acc.vpn,
                    kind: acc.kind,
                    fault: kind,
                };
                let t = Instant::now();
                let out = driver.handle_fault(info);
                self.uvm_fault.add(t, 1);
                faults.push(info);
                out
            };
            if mapping.is_none() {
                let out = fault(FaultKind::Local, now[*g], &mut driver);
                now[*g] = now[*g].max(out.done_at);
                mapping = out.mapping;
            }
            if acc.is_write()
                && mapping == Some(Mapping::Replica)
                && driver.write_mode() == WriteMode::Collapse
            {
                let out = fault(FaultKind::Protection, now[*g], &mut driver);
                now[*g] = now[*g].max(out.done_at);
                mapping = out.mapping;
            }
            if matches!(mapping, Some(Mapping::Remote(_) | Mapping::RemoteHost)) {
                black_box(driver.record_remote_access(now[*g], gpu, acc.vpn));
            }
        }
        // Translation cost on the page tables the replay left behind.
        let t = Instant::now();
        let mut mapped = 0u64;
        for (g, acc) in order {
            mapped += u64::from(driver.translate(GpuId::new(*g as u8), acc.vpn).is_some());
        }
        black_box(mapped);
        self.uvm_translate.add(t, order.len() as u64);

        let mut policy = kind.build(cfg, w.footprint_pages);
        let mut table = CentralPageTable::new();
        let t = Instant::now();
        let mut changed = 0u64;
        for f in &faults {
            let page = table.note_fault(f.gpu, f.vpn, f.kind.is_write());
            changed += u64::from(policy.on_fault(f, &page, &mut table).scheme_changed);
        }
        black_box(changed);
        self.decision.add(t, faults.len() as u64);

        if n > 1 {
            let mut fabric = Fabric::with_topology(n, cfg.links, cfg.topology);
            let t = Instant::now();
            let mut done = 0u64;
            for f in &faults {
                let src = (f.gpu.index() + 1 + f.vpn.vpn() as usize % (n - 1)) % n;
                done = done.wrapping_add(fabric.gpu_to_gpu(
                    GpuId::new(src as u8),
                    f.gpu,
                    f.now,
                    cfg.page_size,
                ));
            }
            black_box(done);
            self.transfer.add(t, faults.len() as u64);
        }
    }

    /// Result-store save/load of the workload's own outputs into a fresh
    /// store at `dir`, and the serve wire encoder/parser on its specs and
    /// results.
    pub fn store_and_wire(&mut self, cells: &[CellSpec], outputs: &[RunOutput], dir: &Path) {
        if let Ok(store) = ResultStore::open(dir) {
            for (cell, out) in cells.iter().zip(outputs) {
                let Some(key) = cell.resume_key() else {
                    continue;
                };
                black_box(store.load(&key));
                let t = Instant::now();
                let saved = store.save(&key, out).is_ok();
                self.save.add(t, 1);
                let t = Instant::now();
                black_box(saved && store.load(&key).is_some());
                self.load.add(t, 1);
            }
            let c = store.counters();
            self.store_hits = c.hits;
            self.store_misses = c.misses;
        }
        // Enough lines for a stable per-line figure on small workloads.
        let rounds = (2000 / (2 * cells.len()).max(1)).max(1);
        let t = Instant::now();
        let mut lines = 0u64;
        for _ in 0..rounds {
            for (id, (cell, out)) in cells.iter().zip(outputs).enumerate() {
                let req = Request::Submit {
                    id: id as u64,
                    spec: cell.to_run_spec(),
                };
                let text = req.to_json().to_string();
                let back = Json::parse(&text).ok().and_then(|v| Request::from_json(&v).ok());
                black_box(back);
                let mut res = CellResult::default();
                res.id = id as u64;
                res.status = "ok".into();
                res.total_cycles = out.metrics.total_cycles;
                res.accesses = out.metrics.accesses;
                res.local_faults = out.metrics.faults.local_faults;
                res.migrations = out.metrics.faults.migrations;
                let text = Response::Result(res).to_json().to_string();
                let back = Json::parse(&text).ok().and_then(|v| Response::from_json(&v).ok());
                black_box(back);
                lines += 2;
            }
        }
        self.wire.add(t, lines);
    }

    /// Store traffic seen by the probe store (used when the workload
    /// itself keeps no store).
    pub fn store_counts(&self) -> (u64, u64) {
        (self.store_hits, self.store_misses)
    }

    /// Appends the probe metrics (all host timings).
    pub fn emit(&self, m: &mut Metrics) {
        use Better::Lower;
        m.timing(
            "mem.tlb.ns_per_translate",
            self.tlb.per_call(1.0),
            "ns",
            Lower,
        );
        m.timing(
            "mem.walker.ns_per_walk",
            self.walk.per_call(1.0),
            "ns",
            Lower,
        );
        m.timing(
            "mem.cache.ns_per_lookup",
            self.cache.per_call(1.0),
            "ns",
            Lower,
        );
        m.timing(
            "mem.dram.ns_per_touch",
            self.dram.per_call(1.0),
            "ns",
            Lower,
        );
        m.timing(
            "uvm.ns_per_translate",
            self.uvm_translate.per_call(1.0),
            "ns",
            Lower,
        );
        m.timing(
            "uvm.ns_per_fault",
            self.uvm_fault.per_call(1.0),
            "ns",
            Lower,
        );
        m.count(
            "uvm.probe_faults",
            self.uvm_fault.calls as f64,
            "count",
            Lower,
        );
        m.timing(
            "core.ns_per_decision",
            self.decision.per_call(1.0),
            "ns",
            Lower,
        );
        m.timing(
            "interconnect.ns_per_transfer",
            self.transfer.per_call(1.0),
            "ns",
            Lower,
        );
        m.timing("store.save_ms", self.save.per_call(1e-6), "ms", Lower);
        m.timing("store.load_ms", self.load.per_call(1e-6), "ms", Lower);
        m.timing(
            "serve.wire_ns_per_line",
            self.wire.per_call(1.0),
            "ns",
            Lower,
        );
    }
}
